"""The package surface: ``import psibench`` loads no submodule, and each
public name resolves, on first use, to the object its home module defines."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import psibench

PACKAGE = pathlib.Path(psibench.__file__).parent


def _definitions() -> dict:
    """Each name a psibench module defines at top level (a def, a class or an
    assignment, not an import), with the modules that define it."""
    homes: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                homes.setdefault(name, []).append(path.stem)
    return homes


HOMES = _definitions()


def test_importing_the_package_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = "import sys, psibench; print(sorted(m for m in sys.modules if 'psibench' in m))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "['psibench']\n"


@pytest.mark.parametrize("name", psibench.__all__)
def test_each_public_name_is_the_object_its_home_module_defines(name):
    assert len(HOMES.get(name, [])) == 1, HOMES.get(name)
    namespace: dict = {}
    exec(f"from psibench import {name}", namespace)
    home = importlib.import_module(f"psibench.{HOMES[name][0]}")
    assert namespace[name] is getattr(home, name)
    assert getattr(psibench, name) is getattr(home, name)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from psibench import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(psibench.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'psibench' has no attribute 'no_such_name'"):
        psibench.no_such_name  # noqa: B018
    assert not hasattr(psibench, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec("from psibench import no_such_name", {})
