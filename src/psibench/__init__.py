"""psibench: exact workbench for Adams-operation splittings on filtered
rings and the induced Steenrod operations on their mod-p associated graded."""

__version__ = "0.1.0"

# each module and the public names it defines; ``psibench.X`` imports X's
# module on first use (PEP 562), so ``import psibench`` loads no submodule
_EXPORTS = {
    "arith": ("adem_coefficient", "is_prime", "lucas_binom"),
    "atiyah": ("AtiyahDecomposition", "PrePsiAlgebra", "atiyah_decompose", "atiyah_product",
               "atiyah_sum", "explicit_lift_decomposition", "verify_welldefined"),
    "groebner": ("GroebnerBasis", "groebner_build"),
    "lift": ("Lift", "UnstablePresentation", "build_lift", "enumerate_generators"),
    "modules": ("FgWitness", "GenerationReport", "ModuleSymbol", "PsiModule",
                "abelian_generator_profile", "closure_enumerate", "is_fg_by"),
    "rings": ("Element", "GeneratorSymbol", "WeightedRing"),
    "steenrod": ("Classification", "GradedClass", "check_additivity", "check_adem",
                 "check_cartan", "check_p0_identity", "classify", "gr_class", "graded_basis",
                 "steenrod_P"),
    "unstable": ("UnstableAlgebra",),
    "verdicts": ("FAIL", "PASS", "PASS_UP_TO_TRUNCATION", "Verdict"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
