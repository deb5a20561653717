"""Integer arithmetic of ACM curves on surfaces in P^3.

Weak admissible pairs and their kind catalogs, Hilbert-Burch twist
tables with degree/genus formulas, rank-2 Picard lattice class solving,
liaison arithmetic, and the assembled classification tables for the
five special quartic families.
"""

from .pairs import (
    BIG,
    DegreeMatrix,
    KindSignature,
    PairError,
    WeakAdmissiblePair,
    anti_transpose,
    degree_matrix,
    delta,
    dual_pair,
    equivalent,
    is_reducible_type,
    kind_signature,
    make_pair,
    normalize,
    pair_signature,
)
from .enumeration import (
    EnumerationConfig,
    KindCatalog,
    enumerate_kinds,
    enumerate_pairs,
    match_families,
    stable_cap,
)
from .resolutions import (
    BettiTable,
    CurveInvariants,
    InvalidTableError,
    ci_table,
    degree_from_betti,
    genus_from_betti,
    invariants_from_betti,
    is_f_minimal,
    surface_generator_table,
    pivot_syzygy_table,
    validate,
)
from .picard import (
    DivisorClass,
    H,
    PicardLattice,
    adjunction_genus,
    dot,
    plane_curve_classes,
    quartic_lattice,
    solve_classes,
    watanabe_candidates,
)
from .liaison import CiProfile, LinkageError, link_is_involution_check, residual_invariants
from .classifier import (
    ClassificationEntry,
    ClassificationError,
    QuarticDivisor,
    classify_low_degree,
    classify_quartic,
    cross_check,
    divisor,
    known_divisors,
)

__version__ = "0.1.0"
