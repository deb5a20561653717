"""Classification of ACM curve classes on the five special quartics.

Each of the five divisor families of determinantal quartics carries a
rank-2 Picard lattice and one or two attached weak admissible pairs of
degree 4.  The solved classes of a twist table are the lattice classes
with its degree and genus.  Every entry of a table is derived:

* RIGID: the classes of the four numerical rigidity cases minus the
  divisor's exclusion data (geometric facts this library does not
  derive, kept as data so the arithmetic stays honest), in sorted
  order.  Each is resolved by the first pivot table whose solved
  classes contain it, scanning the pairs in order and their distinct
  syzygy twists ascending;
* RESIDUAL: the shifts k = 0, 1, 2 of each attached pair.  A shift is
  skipped when its table has no curve (nonpositive degree or negative
  genus) or when its solved classes are all rigid.  Otherwise each
  solved class D is residual to (k+1)H - D in the complete intersection
  (4, k+1), and linkage must give back the table's invariants;
* FAMILY_II: the solved classes of each shift k >= 3;
* FAMILY_III: the solved classes of every pivot table whose solved
  classes are not all rigid;
* COMPLETE_INTERSECTION: the classes d*H.

The descriptions of RIGID, RESIDUAL and FAMILY_III entries come from one
prose map per divisor, and every emitted entry must pass the
lattice/resolution cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .liaison import CiProfile, residual_invariants
from .picard import (
    DivisorClass,
    H,
    PicardLattice,
    adjunction_genus,
    dot,
    quartic_lattice,
    solve_classes,
    watanabe_candidates,
)
from .resolutions import (
    BettiTable,
    CurveInvariants,
    InvalidTableError,
    ResolutionCase,
    ResolutionFamily,
    ci_table,
    degree_from_betti,
    genus_from_betti,
    invariants_from_betti,
    is_f_minimal,
    pivot_for_value,
    surface_generator_table,
    pivot_syzygy_table,
)
from .pairs import WeakAdmissiblePair, make_pair

SURFACE_DEGREE = 4

RIGID = "RIGID"
FAMILY_II = "FAMILY_II"
FAMILY_III = "FAMILY_III"
RESIDUAL = "RESIDUAL"
COMPLETE_INTERSECTION = "COMPLETE_INTERSECTION"


class ClassificationError(RuntimeError):
    """A derived entry fails a consistency check."""


@dataclass(frozen=True)
class QuarticDivisor:
    label: str
    curve: CurveInvariants
    lattice: PicardLattice
    pairs: tuple[WeakAdmissiblePair, ...]
    exclusions: tuple[tuple[DivisorClass, str], ...]


@dataclass(frozen=True)
class ClassificationEntry:
    divisor: str
    cls: DivisorClass
    invariants: CurveInvariants
    provenance: str
    description: str
    resolution: BettiTable
    family: ResolutionFamily | None = None
    minimal: bool = True

    def to_json(self) -> dict:
        doc = {
            "divisor": self.divisor,
            "class": self.cls.to_json(),
            "degree": self.invariants.degree,
            "genus": self.invariants.genus,
            "provenance": self.provenance,
            "description": self.description,
            "resolution": self.resolution.to_json(),
            "minimal": self.minimal,
        }
        if self.family is not None and self.family.shift is not None:
            doc["k"] = self.family.shift
        if self.family is not None and self.family.pivot is not None:
            doc["pivot"] = self.family.pivot
        return doc


_DIVISORS = {
    div.label: div
    for div in (
        QuarticDivisor("F1", CurveInvariants(6, 3), quartic_lattice(6, 3),
                       (make_pair((1, 1, 1, 1), (2, 2, 2, 2)),), ()),
        QuarticDivisor("F2", CurveInvariants(3, 0), quartic_lattice(3, 0),
                       (make_pair((1, 1, 1), (2, 2, 3)), make_pair((1, 2, 2), (3, 3, 3))), ()),
        QuarticDivisor("F3", CurveInvariants(4, 1), quartic_lattice(4, 1),
                       (make_pair((1, 1), (3, 3)),), ()),
        QuarticDivisor(
            "F4", CurveInvariants(1, 0), quartic_lattice(1, 0),
            (make_pair((1, 1), (2, 4)), make_pair((1, 3), (4, 4))),
            ((DivisorClass(1, -1),
              "the degree-3 genus-1 class H - L is the plane cubic residual to the line in a "
              "plane section; it moves with the planes through the line, so it is RESIDUAL"),),
        ),
        QuarticDivisor("F5", CurveInvariants(2, 0), quartic_lattice(2, 0),
                       (make_pair((1, 2), (3, 4)),), ()),
    )
}

_c = DivisorClass

# (provenance, class) -> description of each RIGID, RESIDUAL and FAMILY_III
# entry, one map per divisor
_PROSE: dict[str, dict[tuple[str, DivisorClass], str]] = {
    "F1": {
        (RIGID, _c(0, 1)): "a degree-6 genus-3 ACM curve, the generator class",
        (RIGID, _c(3, -1)): "a degree-6 genus-3 ACM curve, complementary to the generator",
    },
    "F2": {
        (RIGID, _c(0, 1)): "a twisted cubic, the generator class",
        (RIGID, _c(2, -1)): "a degree-5 genus-2 curve, residual to the twisted cubic in the "
                            "intersection with a quadric",
        (RESIDUAL, _c(1, 1)): "residual to the degree-5 genus-2 curve in the intersection "
                              "with a cubic",
        (RESIDUAL, _c(3, -1)): "residual to the twisted cubic in the intersection with a cubic",
        (FAMILY_III, _c(1, 1)): "quartic not among the minimal generators; same class as the "
                                "degree-7 residual curve",
    },
    "F3": {
        (RIGID, _c(0, 1)): "an elliptic quartic (intersection of two quadrics), the generator "
                           "class",
        (RIGID, _c(2, -1)): "an elliptic quartic, complementary to the generator",
        (RESIDUAL, _c(1, 1)): "residual to the elliptic quartic in the intersection with a cubic",
        (RESIDUAL, _c(3, -1)): "residual to the elliptic quartic in the intersection with a cubic",
    },
    "F4": {
        (RIGID, _c(0, 1)): "the line; the unique curve in its class",
        (RESIDUAL, _c(1, 1)): "residual to a plane cubic in the intersection with a quadric",
        (RESIDUAL, _c(2, 1)): "residual to a plane cubic in the intersection with a cubic",
        (RESIDUAL, _c(1, -1)): "a plane cubic, residual to the line in a plane section",
        (RESIDUAL, _c(2, -1)): "residual to the line in the intersection with a quadric",
        (RESIDUAL, _c(3, -1)): "residual to the line in the intersection with a cubic",
        (FAMILY_III, _c(2, 1)): "quartic not among the minimal generators; same class as the "
                                "degree-9 residual curve",
        (FAMILY_III, _c(1, -1)): "quartic not among the minimal generators; the plane cubic",
    },
    "F5": {
        (RIGID, _c(0, 1)): "a conic, the generator class",
        (RIGID, _c(1, -1)): "a conic, complementary to the generator",
        (RESIDUAL, _c(1, 1)): "residual to the conic in the intersection with a quadric",
        (RESIDUAL, _c(2, -1)): "residual to the conic in the intersection with a quadric",
        (RESIDUAL, _c(2, 1)): "residual to the conic in the intersection with a cubic",
        (RESIDUAL, _c(3, -1)): "residual to the conic in the intersection with a cubic",
        (FAMILY_III, _c(1, 1)): "quartic not among the minimal generators; same classes as "
                                "the degree-6 residual curve",
        (FAMILY_III, _c(2, -1)): "quartic not among the minimal generators; same classes as "
                                 "the degree-6 residual curve",
    },
}

DIVISOR_LABELS = tuple(sorted(_DIVISORS))


def known_divisors() -> list[QuarticDivisor]:
    """The five divisor families of determinantal quartics."""
    return [_DIVISORS[label] for label in DIVISOR_LABELS]


def divisor(label: str) -> QuarticDivisor:
    try:
        return _DIVISORS[label]
    except KeyError:
        raise KeyError(f"unknown divisor {label!r}; expected one of {DIVISOR_LABELS}")


def cross_check(entry: ClassificationEntry, lattice: PicardLattice) -> bool:
    """Resolution invariants must equal the lattice invariants of the class."""
    try:
        d = degree_from_betti(entry.resolution)
        g = genus_from_betti(entry.resolution)
    except ValueError:
        return False
    return d == dot(lattice, entry.cls, H) and g == adjunction_genus(lattice, entry.cls)


def _lattice_invariants(lattice: PicardLattice, cls: DivisorClass) -> CurveInvariants:
    return CurveInvariants(dot(lattice, cls, H), adjunction_genus(lattice, cls))


def _solved_classes(
    lattice: PicardLattice, inv: CurveInvariants
) -> set[DivisorClass]:
    return solve_classes(lattice, 2 * inv.genus - 2, inv.degree, inv.degree)


def rigid_classes(div: QuarticDivisor) -> set[DivisorClass]:
    """Numerical rigid candidates minus the divisor's exclusion data."""
    excluded = {cls for cls, _ in div.exclusions}
    found: set[DivisorClass] = set()
    for case in watanabe_candidates(div.lattice):
        found |= case.classes
    return found - excluded


def classify_quartic(div: QuarticDivisor, k_max: int = 6) -> list[ClassificationEntry]:
    """All ACM classes on a very general member, up to shift k_max."""
    if k_max < 3:
        raise ValueError("k_max must be at least 3 to reach the stable family range")
    lattice = div.lattice
    prose = _PROSE.get(div.label, {})
    entries: list[ClassificationEntry] = []

    def emit(cls, inv, provenance, table, family, minimal=True, description=None):
        if description is None:
            if (provenance, cls) not in prose:
                raise ClassificationError(
                    f"{div.label}: no description for the {provenance} class {cls}"
                )
            description = prose[(provenance, cls)]
        entry = ClassificationEntry(
            div.label, cls, inv, provenance, description, table, family, minimal
        )
        if not cross_check(entry, lattice):
            raise ClassificationError(
                f"cross-check failed for {entry.divisor} class {entry.cls} "
                f"({entry.provenance}): table {entry.resolution.to_json()}"
            )
        entries.append(entry)

    rigid = rigid_classes(div)
    # (family, table, invariants, solved classes) of every pivot table:
    # pairs in order, distinct syzygy twists ascending
    pivots = []
    for pair in div.pairs:
        for b in sorted(set(pair.b)):
            family = ResolutionFamily(
                pair, ResolutionCase.NONMINIMAL_F, SURFACE_DEGREE, pivot=pivot_for_value(pair, b)
            )
            table = pivot_syzygy_table(pair, family.pivot, SURFACE_DEGREE)
            inv = invariants_from_betti(table)
            pivots.append((family, table, inv, _solved_classes(lattice, inv)))

    for cls in sorted(rigid):
        hit = next((p for p in pivots if cls in p[3]), None)
        if hit is None:
            raise ClassificationError(f"{div.label}: no pivot table resolves the rigid class {cls}")
        family, table, _, _ = hit
        emit(cls, _lattice_invariants(lattice, cls), RIGID, table, family)

    for pair in div.pairs:
        for k in range(3):
            try:
                table = surface_generator_table(pair, k, SURFACE_DEGREE)
                inv = invariants_from_betti(table)
            except InvalidTableError:
                continue  # nonpositive degree: no curve at this shift
            if inv.genus < 0:
                continue
            solved = _solved_classes(lattice, inv)
            if solved <= rigid:
                continue  # the rigid entries already cover these classes
            ci = CiProfile(SURFACE_DEGREE, k + 1)
            family = ResolutionFamily(pair, ResolutionCase.MINIMAL_F, SURFACE_DEGREE, shift=k)
            for cls in sorted(solved):
                partner = DivisorClass(k + 1 - cls.a, -cls.b)  # (k+1)H - D
                linked = residual_invariants(_lattice_invariants(lattice, partner), ci)
                if linked != inv:
                    raise ClassificationError(
                        f"{div.label}: linking {partner} in {ci.to_json()} gives "
                        f"{linked}, the shift-{k} table gives {inv}"
                    )
                emit(cls, inv, RESIDUAL, table, family,
                     minimal=is_f_minimal(pair, k, SURFACE_DEGREE))

    for pair in div.pairs:
        for k in range(3, k_max + 1):
            table = surface_generator_table(pair, k, SURFACE_DEGREE)
            inv = invariants_from_betti(table)
            solved = _solved_classes(lattice, inv)
            if not solved:
                raise ClassificationError(
                    f"{div.label}: no integer class of degree {inv.degree}, "
                    f"genus {inv.genus} at shift {k}"
                )
            family = ResolutionFamily(pair, ResolutionCase.MINIMAL_F, SURFACE_DEGREE, shift=k)
            for cls in sorted(solved):
                emit(cls, inv, FAMILY_II, table, family, description=(
                    f"resolution family with the quartic among the minimal "
                    f"generators, shift k={k}"
                ))

    for family, table, inv, solved in pivots:
        if not solved <= rigid:
            for cls in sorted(solved):
                emit(cls, inv, FAMILY_III, table, family)

    ci_family = ResolutionFamily(None, ResolutionCase.CI, SURFACE_DEGREE)
    for dd in range(2, k_max + 1):
        table = ci_table(SURFACE_DEGREE, dd)
        emit(DivisorClass(dd, 0), invariants_from_betti(table), COMPLETE_INTERSECTION,
             table, ci_family, description=f"complete intersection with a degree-{dd} surface")
    return entries


LOW_DEGREE_TAGS = {
    (2, "smooth"),
    (2, "reducible"),
    (3, "2x2"),
    (3, "3x3"),
}


@dataclass(frozen=True)
class LowDegreeFamily:
    """One resolution family of the degree-2/3 classifications."""

    surface_degree: int
    type_tag: str
    case_label: str
    pair: WeakAdmissiblePair
    k_min: int
    n: int | None = None
    note: str = ""

    def table(self, k: int) -> BettiTable:
        return surface_generator_table(self.pair, k, self.surface_degree)

    def to_json(self) -> dict:
        doc = {
            "surface_degree": self.surface_degree,
            "type": self.type_tag,
            "case": self.case_label,
            "pair": self.pair.to_json(),
            "k_min": self.k_min,
        }
        if self.n is not None:
            doc["n"] = self.n
        if self.note:
            doc["note"] = self.note
        return doc


def classify_low_degree(
    surface_degree: int, type_tag: str, n_max: int = 3
) -> list[LowDegreeFamily]:
    """Resolution families (besides complete intersections) on a degree-2
    or degree-3 surface of the named type."""
    key = (surface_degree, type_tag)
    if key not in LOW_DEGREE_TAGS:
        raise KeyError(
            f"unknown type {surface_degree}/{type_tag}; expected one of "
            + ", ".join(f"{d}/{t}" for d, t in sorted(LOW_DEGREE_TAGS))
        )
    if key == (2, "smooth"):
        return [LowDegreeFamily(2, type_tag, "main", make_pair((1, 1), (2, 2)), 1)]
    if key == (2, "reducible"):
        # one family per splitting type n of the quadric
        return [
            LowDegreeFamily(
                2, type_tag, f"n={n}", make_pair((1, 1 + n), (2, 2 + n)), 1, n=n,
                note="tables generated by the surface-generator constructor",
            )
            for n in range(1, n_max + 1)
        ]
    if key == (3, "2x2"):
        return [
            LowDegreeFamily(3, type_tag, "A", make_pair((1, 1), (2, 3)), 0),
            LowDegreeFamily(3, type_tag, "B", make_pair((1, 2), (3, 3)), 0),
        ]
    return [LowDegreeFamily(3, type_tag, "main", make_pair((1, 1, 1), (2, 2, 2)), 1)]
