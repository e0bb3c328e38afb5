"""Symbolic toolkit for compositional reactive components: five kinds of
atomic contracts, serial/parallel/feedback composition with symbolic
simplification, validity/compatibility/receptiveness/refinement checking
against an external SMT solver, and an independent bounded finite-domain
oracle.

The public names load on first use (PEP 562), so a process that runs only a
submodule, such as the bundled solver `python -m rcrs.dlsolver`, imports
nothing else of the package."""

import sys
from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Atomic",
            "AtomicComponent",
            "Component",
            "Det",
            "Fdbk",
            "Kind",
            "Parallel",
            "Qltl",
            "Serial",
            "Signature",
            "Stateless",
            "StatelessDet",
            "Sts",
            "alpha_equivalent",
            "alpha_normalize",
            "sig",
            "sigma_in",
            "sigma_out",
            "wf",
        ),
        "components",
    ),
    **dict.fromkeys(
        (
            "atomic",
            "decomposable",
            "determ",
            "feedback",
            "loop_free",
            "oi",
            "parallel",
            "serial",
        ),
        "compose",
    ),
    **dict.fromkeys(
        ("Formula", "apply_next", "free_vars", "simplify", "substitute"), "formulas"
    ),
    **dict.fromkeys(("join_kind", "lift_to"), "lattice"),
    **dict.fromkeys(
        (
            "Expansion",
            "FiniteDomain",
            "IllegalAt",
            "LassoWord",
            "bounded_equiv",
            "bounded_hoare",
            "bounded_refute_refinement",
            "bounded_rel",
            "eval_qltl",
            "exec_det",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "Vc",
            "check_compat",
            "check_refines",
            "data_refine_vc",
            "emit_smtlib",
            "is_input_receptive",
            "is_valid",
            "legal_formula",
            "refine_vc",
        ),
        "analysis",
    ),
    **dict.fromkeys(("parse_component", "parse_rcrs", "print_component"), "syntax"),
    **dict.fromkeys(("Proven", "Refuted", "Unknown"), "verdicts"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # not cached here: a name rebound in its module is seen at the next lookup
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{module}"
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
