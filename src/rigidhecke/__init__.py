"""rigidhecke: exact rigid-cocenter machinery for affine Hecke algebras.

The package enumerates Newton-zero conjugacy classes of extended affine
Weyl groups, computes the cocenter elements T_O with exact Laurent
arithmetic in the Hecke parameters, builds finite-dimensional module
panels, and assembles the rigid character tables together with their
determinant identities and duality/density verification suites.
"""

from .exactpoly import (
    LaurentPoly,
    NonSquare,
    NotDivisible,
    OddDegree,
    PolyMatrix,
    VarTable,
    VarTableMismatch,
    ZeroSubstitutionForUnit,
    det_bareiss,
    det_cofactor,
    parse_poly,
    render_in_Q,
)
from .rootdata import (
    BasedRootDatum,
    DatumFormatError,
    InfiniteWeylGroup,
    NotCartan,
    NotReduced,
    UnknownPreset,
    generate_root_system,
    load_datum,
    preset,
    semisimple_quotient,
    validate_datum,
)
from .weyl import FinWeylGroup, OmegaSearchExhausted, WeylData
from .conj import (
    ConjClassRecord,
    NotFound,
    PlateauBudgetExceeded,
    UnstableAtBound,
    brute_force_conjugacy_oracle,
    classify,
    count_identity_check,
    descend_to_minimal,
    newton_zero_classes,
)
from .hecke import (
    BernsteinElt,
    CocenterCombination,
    HeckeContext,
    HeckeElt,
    NonNewtonZeroLeaf,
    Parabolic,
    QuotientAlgebra,
)
from .repn import (
    FinDimModule,
    RelationFailed,
    TwistChar,
    apply_iKrK,
    induce,
    induce_in_parabolic,
    inflate_chi_t,
    lift_from_parahoric,
    one_dim_modules,
    restrict,
    twist_by,
)
from .rigidtab import (
    MANIFESTS,
    RigidTable,
    build_preset_context,
    build_rigid_table,
    determinant_check,
    run_suite,
    specialization_check_extended_c2,
)

__version__ = "0.1.0"
