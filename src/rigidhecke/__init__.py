"""rigidhecke: exact rigid-cocenter machinery for affine Hecke algebras.

The package enumerates Newton-zero conjugacy classes of extended affine
Weyl groups, computes the cocenter elements T_O with exact Laurent
arithmetic in the Hecke parameters, builds finite-dimensional module
panels, and assembles the rigid character tables together with their
determinant identities and duality/density verification suites.

The exports below are lazy (PEP 562): ``import rigidhecke`` loads no
submodule, and ``rigidhecke.<name>`` imports the one module that defines
``<name>`` on first use.  So a group-layer caller never pays for the
coefficient ring, the Hecke algebra or the module panels.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "exactpoly": (
        "LaurentPoly",
        "NonSquare",
        "NotDivisible",
        "OddDegree",
        "PolyMatrix",
        "VarTable",
        "VarTableMismatch",
        "ZeroSubstitutionForUnit",
        "det_bareiss",
        "parse_poly",
        "render_in_Q",
    ),
    "rootdata": (
        "BasedRootDatum",
        "DatumFormatError",
        "InfiniteWeylGroup",
        "NotCartan",
        "NotReduced",
        "UnknownPreset",
        "generate_root_system",
        "load_datum",
        "preset",
        "semisimple_quotient",
        "validate_datum",
    ),
    "weyl": ("FinWeylGroup", "OmegaSearchExhausted", "WeylData"),
    "conj": (
        "ConjClassRecord",
        "NotFound",
        "PlateauBudgetExceeded",
        "UnstableAtBound",
        "classify",
        "count_identity_check",
        "descend_to_minimal",
        "newton_zero_classes",
    ),
    "hecke": (
        "BernsteinElt",
        "CocenterCombination",
        "HeckeContext",
        "HeckeElt",
        "NonNewtonZeroLeaf",
        "Parabolic",
        "QuotientAlgebra",
    ),
    "repn": (
        "FinDimModule",
        "RelationFailed",
        "TwistChar",
        "induce",
        "induce_in_parabolic",
        "inflate_chi_t",
        "lift_from_parahoric",
        "one_dim_modules",
        "restrict",
        "twist_by",
    ),
    "rigidtab": (
        "MANIFESTS",
        "RigidTable",
        "build_preset_context",
        "build_rigid_table",
        "determinant_check",
        "run_suite",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
