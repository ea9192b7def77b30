"""The import surface of the benchmark tracer (``perfbench/tracer.py``).

The ``psibench`` command lives in ``psibench.commands``, whose commands load
their layers lazily.  The tracer's ``install()`` rebinds its probes only in
the psibench modules that ``import psibench.cli`` has loaded, so this module
loads every probed layer and re-exports the command's names; traced and
untraced runs then go through one code path.  The eager imports go once the
tracer imports its probe modules itself.
"""

from . import (atiyah, documents, groebner, lift, modules, normalforms,  # noqa: F401
               rings, steenrod, unstable)
from .commands import (COMMANDS, MAX_TRIALS, MAX_WEIGHT, build_parser, cmd_atiyah,  # noqa: F401
                       cmd_fingen, cmd_lift, cmd_steenrod, cmd_verify, int_at_least, main, run)
