"""psibench: exact workbench for Adams-operation splittings on filtered
rings and the induced Steenrod operations on their mod-p associated graded."""

__version__ = "0.1.0"

from .arith import adem_coefficient, is_prime, lucas_binom
from .atiyah import (AtiyahDecomposition, PrePsiAlgebra, atiyah_decompose,
                     atiyah_product, atiyah_sum, explicit_lift_decomposition,
                     verify_welldefined)
from .groebner import GroebnerBasis, groebner_build
from .lift import Lift, UnstablePresentation, build_lift, enumerate_generators
from .modules import (FgWitness, GenerationReport, ModuleSymbol, PsiModule,
                      abelian_generator_profile, closure_enumerate, is_fg_by)
from .rings import Element, GeneratorSymbol, WeightedRing
from .steenrod import (Classification, GradedClass, check_additivity, check_adem,
                       check_cartan, check_p0_identity, classify, gr_class,
                       graded_basis, steenrod_P)
from .unstable import UnstableAlgebra
from .verdicts import FAIL, PASS, PASS_UP_TO_TRUNCATION, Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
