"""Automorphism groups of smooth quartic surfaces of Picard rank 2.

Exact integer arithmetic throughout: rank-2 even lattices, the Pell
dictionary for classes of fixed square, the four-way classification of
Aut(S), generator matrices, Cremona-link factorizations, and the
exhaustion arguments behind the discriminant bound.

The public names below are loaded on first access (PEP 562), so importing
the package, or one submodule such as the CLI, compiles only the layers
that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> (submodule, attribute)
_EXPORTS = {
    **{name: ("exclusion", name) for name in (
        "admissible_discriminants", "antiflip_exhaustion", "antiflip_report",
        "curve_list", "rprime_list",
    )},
    **{name: ("isometry", name) for name in (
        "aut_generators", "gluing_ok", "involution_form", "is_isometry",
        "minimal_gluing_exponent", "minimal_quadeq_solution", "reflection",
        "torelli_ok",
    )},
    **{name: ("lattice", name) for name in (
        "GramLattice", "change_basis", "discriminant", "pairing",
    )},
    **{name: ("links", name) for name in (
        "catalog", "compose_word", "lookup", "realize_generator",
    )},
    **{name: ("pell", name) for name in (
        "fundamental_solution", "has_solution", "solution_class_reps", "solve",
    )},
    **{name: ("surface", name) for name in (
        "CURVE_MODELS", "AutKind", "QuarticLattice", "ample_square2_axes",
        "canonical_bc", "class_with_square_exists", "classify_aut", "curve_model",
        "find_curve_class", "forbidden_small_disc", "genus_degree", "is_ample",
        "realizable_gd",
    )},
    "verify_paper": ("verify", "run_all"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
