"""Classification of ACM curves on the surfaces of degree 2, 3 and 4.

The surface types of degree d are derived from its kind catalog: the
irreducible kinds, grouped into duality orbits under anti-transposition
and shifted by +1; the one reducible kind of degree 2 seeds the
reducible quadric's n-family.  Written out are only the labels (in
`labels`), k_min, the prose and the exclusions: one irreducible quartic
kind, ((0,0,1),(1,2,2)), is not among the five quartic types the paper
names.
A quartic type's lattice is that of its generator curve, the least
(degree, genus) among its pivot tables: (6,3), (3,0), (4,1), (1,0) and
(2,0) for F1..F5.  The solved classes of a twist table are the lattice
classes with its degree and genus.  Every entry of a quartic table is
derived:

* RIGID: the classes of the four numerical rigidity cases minus the
  divisor's exclusion data (geometric facts this library does not
  derive, kept as data so the arithmetic stays honest), in sorted
  order.  Each is resolved by the first pivot table that solves to it
  (pairs in order, distinct syzygy twists ascending);
* RESIDUAL: the shifts k = 0, 1, 2 of each attached pair.  A shift is
  skipped when its table has no curve (a twist below 1, a nonpositive
  degree or a negative genus) or when its solved classes are all rigid.
  Equal twist sums make the degree and genus integers (x^2 = x mod 2,
  x^3 = x mod 6), so a table whose sums differ is refused instead.  Each
  solved class D is residual to (k+1)H - D in the complete intersection
  (4, k+1), and linkage must give back the table's invariants;
* FAMILY_II: the solved classes of each shift k >= 3;
* FAMILY_III: the solved classes of every pivot table whose solved
  classes are not all rigid;
* COMPLETE_INTERSECTION: the classes d*H.

The table lists them in that order (`PROVENANCE_ORDER`), each by
attached pair, then shift or pivot, then class; RIGID goes by class
and COMPLETE_INTERSECTION by d.  Each entry records its attached pair
(None for a complete intersection), plus its shift k (RESIDUAL,
FAMILY_II) or its 1-based pivot (RIGID, FAMILY_III).  The descriptions
of RIGID, RESIDUAL and FAMILY_III entries come from one prose map per
divisor.  One rule makes every entry: an entry is a class on a table,
it stores that table's (degree, genus), computed once per table by one
pass over its twists, and that pass must equal the class's lattice
invariants (D.H, D^2/2 + 1).  So every emitted entry passes the
cross-check.

Each pivot table is solved once.  So is each attached pair, at shift
3: shift k, RESIDUAL included, is shift 3 plus (k-3)H.  This
translation by H is exact at every k, not only where sampled:

* D -> D + H is a bijection of the lattice (its inverse is D -> D - H),
  and with H^2 = 4 it sends (D.H, D^2) to (D.H + 4, D^2 + 2 D.H + 4).
  So it maps the slice of degree e and genus g one to one onto the
  slice of degree e + 4 and genus g + e + 2.
* The shift-k table has gens {a_i + k} + {4} and syz {b_j + k}, with
  sum b - sum a = 4.  By the Betti formulas its degree is
  (sum b^2 - sum a^2 - 16)/2 + 4k, linear in k with slope 4, and its
  genus rises from k to k + 1 by (sum b^2 - sum a^2)/2 + 4k - 6, which
  is the shift-k degree plus 2.

So the table's (degree, genus) steps exactly as the lattice slice
does, and by induction from k = 3 the solved classes of shift k are
those of shift 3 plus (k-3)H: upwards by D -> D + H, and down to
k = 0, 1, 2 by its inverse D -> D - H.  Adding to `a` keeps the sorted
order.  The tables themselves still come from `surface_generator_table`,
so every twist is still validated, and every entry is cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .enumeration import EnumerationConfig, enumerate_kinds
from .labels import DIVISOR_LABELS, TYPE_LABELS
from .liaison import CiProfile, residual_invariants
from .pairs import WeakAdmissiblePair, degree_matrix, is_reducible_type, make_pair
from .picard import (
    DivisorClass, H, PicardLattice, adjunction_genus, dot, quartic_lattice, solve_classes,
    watanabe_candidates,
)
from .resolutions import (
    BettiTable, CurveInvariants, InvalidTableError, _invariants, ci_table, is_f_minimal,
    pivot_syzygy_table, surface_generator_table,
)

SURFACE_DEGREE = 4

RIGID = "RIGID"
FAMILY_II = "FAMILY_II"
FAMILY_III = "FAMILY_III"
RESIDUAL = "RESIDUAL"
COMPLETE_INTERSECTION = "COMPLETE_INTERSECTION"
# the order of a quartic table's entries
PROVENANCE_ORDER = (RIGID, RESIDUAL, FAMILY_II, FAMILY_III, COMPLETE_INTERSECTION)


class ClassificationError(RuntimeError):
    """A derived entry fails a consistency check."""


@dataclass(frozen=True)
class QuarticDivisor:
    label: str
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
    pair: WeakAdmissiblePair | None = None  # the attached pair; None for a complete intersection
    shift: int | None = None  # k of a RESIDUAL or FAMILY_II table
    pivot: int | None = None  # 1-based pivot of a RIGID or FAMILY_III table

    @property
    def minimal(self) -> bool:
        """False for a shift table whose surface equation cancels against a syzygy twist."""
        return self.shift is None or is_f_minimal(self.pair, self.shift)

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
        if self.shift is not None:
            doc["k"] = self.shift
        if self.pivot is not None:
            doc["pivot"] = self.pivot
        return doc


# irreducible kinds (normalized a, b) kept out of the surface types, with the reason
_EXCLUDED_KINDS = {
    ((0, 0, 1), (1, 2, 2)): "the paper's classification names five quartic types "
                            "and this kind is not among them",
}

# classes each divisor's rigid search drops, with the reason
_EXCLUSIONS = {
    "F4": ((DivisorClass(1, -1),
            "the degree-3 genus-1 class H - L is the plane cubic residual to the line in a "
            "plane section; it moves with the planes through the line, so it is RESIDUAL"),),
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

@lru_cache(maxsize=None)
def _surface_types(degree: int) -> dict[str, tuple[WeakAdmissiblePair, ...]]:
    """The labelled orbits of irreducible kinds of a degree, and its
    reducible kinds under "reducible"."""
    orbits: dict[frozenset, list[WeakAdmissiblePair]] = {}
    reducible = []
    for e in enumerate_kinds(EnumerationConfig(degree)).entries:  # in sort_key order
        rep = e.representative
        if is_reducible_type(degree_matrix(rep)):
            reducible.append(rep.shift(1))
        elif (rep.a, rep.b) not in _EXCLUDED_KINDS:
            orbit = frozenset((e.signature, e.signature.anti_transpose()))
            orbits.setdefault(orbit, []).append(rep.shift(1))
    labelled = zip(TYPE_LABELS[degree], map(tuple, orbits.values()), strict=True)
    return dict(labelled) | {"reducible": tuple(reducible)}


def _pivot_tables(pairs: tuple[WeakAdmissiblePair, ...]):
    """(pair, pivot, table, (degree, genus)) of every pivot table: pairs in
    order, distinct syzygy twists ascending."""
    for pair in pairs:
        for j0 in sorted({pair.b.index(b) + 1 for b in pair.b}):
            table = pivot_syzygy_table(pair, j0)
            yield pair, j0, table, _invariants(table)


@lru_cache(maxsize=None)
def divisor(label: str) -> QuarticDivisor:
    if label not in DIVISOR_LABELS:
        raise KeyError(f"unknown divisor {label!r}; expected one of {DIVISOR_LABELS}")
    pairs = _surface_types(SURFACE_DEGREE)[label]
    # the generator curve: the least (degree, genus) among the pivot tables
    d_i, g_i = min(checked for *_, checked in _pivot_tables(pairs))
    return QuarticDivisor(label, quartic_lattice(d_i, g_i), pairs, _EXCLUSIONS.get(label, ()))


def known_divisors() -> list[QuarticDivisor]:
    """The five divisor families of determinantal quartics."""
    return [divisor(label) for label in DIVISOR_LABELS]


def _table_invariants(table: BettiTable) -> tuple[int, int] | None:
    """The table's (degree, genus), or None when `_invariants` refuses it."""
    try:
        return _invariants(table)
    except ValueError:
        return None


def _lattice_invariants(lattice: PicardLattice, cls: DivisorClass) -> tuple[int, int]:
    return dot(lattice, cls, H), adjunction_genus(lattice, cls)


def cross_check(entry: ClassificationEntry, lattice: PicardLattice) -> bool:
    """The stored invariants, the resolution's and the lattice invariants
    of the class must all be equal."""
    stored = (entry.invariants.degree, entry.invariants.genus)
    return stored == _table_invariants(entry.resolution) == _lattice_invariants(lattice, entry.cls)


def _solved_classes(lattice: PicardLattice, degree: int, genus: int) -> set[DivisorClass]:
    return solve_classes(lattice, 2 * genus - 2, degree, degree)


def rigid_classes(div: QuarticDivisor) -> set[DivisorClass]:
    """Numerical rigid candidates minus the divisor's exclusion data."""
    found = set().union(*(case.classes for case in watanabe_candidates(div.lattice)))
    return found - {cls for cls, _ in div.exclusions}


def classify_quartic(div: QuarticDivisor, k_max: int = 6) -> list[ClassificationEntry]:
    """All ACM classes on a very general member, up to shift k_max."""
    if k_max < 3:
        raise ValueError("k_max must be at least 3 to reach the stable family range")
    lattice = div.lattice
    prose = _PROSE.get(div.label, {})
    entries: list[ClassificationEntry] = []

    def emit(provenance, table, checked, classes, pair=None, shift=None, pivot=None,
             description=None):
        # checked: the table's (degree, genus) from its one _invariants pass, or
        # None; every class stores it and must have it as its lattice invariants
        inv = CurveInvariants(*checked) if checked else None
        for cls in classes:
            text = description or prose.get((provenance, cls))
            if text is None:
                raise ClassificationError(
                    f"{div.label}: no description for the {provenance} class {cls}"
                )
            if _lattice_invariants(lattice, cls) != checked:
                raise ClassificationError(
                    f"cross-check failed for {div.label} class {cls} "
                    f"({provenance}): table {table.to_json()}"
                )
            entries.append(ClassificationEntry(
                div.label, cls, inv, provenance, text, table, pair, shift, pivot
            ))

    rigid = rigid_classes(div)
    for pair in div.pairs:
        # solved once, at shift 3; shift k adds (k-3)H (module docstring)
        table = surface_generator_table(pair, 3)
        checked = _invariants(table)
        base = sorted(_solved_classes(lattice, *checked))
        if not base:
            raise ClassificationError(
                f"{div.label}: no integer class of degree {checked[0]}, "
                f"genus {checked[1]} at shift 3"
            )
        for k in range(3, k_max + 1):
            if k > 3:  # shift 3 is the table just solved
                table = surface_generator_table(pair, k)
                checked = _table_invariants(table)
            text = f"resolution family with the quartic among the minimal generators, shift k={k}"
            emit(FAMILY_II, table, checked, [DivisorClass(c.a + k - 3, c.b) for c in base], pair,
                 shift=k, description=text)
        for k in range(3):
            try:
                table = surface_generator_table(pair, k)
            except InvalidTableError:
                continue  # a twist below 1: no curve at this shift
            checked = _table_invariants(table)
            solved = [DivisorClass(c.a + k - 3, c.b) for c in base]
            # with equal twist sums, None is a degree <= 0 (module docstring)
            no_curve = checked is None or checked[1] < 0
            if no_curve and sum(table.gens) == sum(table.syz) or rigid.issuperset(solved):
                continue  # no curve, or the rigid entries already cover these classes
            emit(RESIDUAL, table, checked, solved, pair, shift=k)
            stored = entries[-1].invariants
            ci = CiProfile(SURFACE_DEGREE, k + 1)
            for cls in solved:
                partner = DivisorClass(k + 1 - cls.a, -cls.b)  # (k+1)H - D
                linked = residual_invariants(
                    CurveInvariants(*_lattice_invariants(lattice, partner)), ci
                )
                if linked != stored:
                    raise ClassificationError(
                        f"{div.label}: linking {partner} in {ci.to_json()} gives "
                        f"{linked}, the shift-{k} table gives {stored}"
                    )

    # rigid class -> (pair, pivot, table, (degree, genus)) of the first pivot table solving to it
    first_pivot = {}
    for pair, j0, table, checked in _pivot_tables(div.pairs):
        solved = _solved_classes(lattice, *checked)
        for cls in solved & rigid:
            first_pivot.setdefault(cls, (pair, j0, table, checked))
        if not solved <= rigid:
            emit(FAMILY_III, table, checked, sorted(solved), pair, pivot=j0)
    for resolved_by, classes in groupby(sorted(rigid), key=first_pivot.get):
        if resolved_by is None:
            raise ClassificationError(
                f"{div.label}: no pivot table resolves the rigid class {next(classes)}"
            )
        pair, j0, table, checked = resolved_by
        emit(RIGID, table, checked, classes, pair, pivot=j0)

    for dd in range(2, k_max + 1):
        table = ci_table(SURFACE_DEGREE, dd)
        emit(COMPLETE_INTERSECTION, table, _table_invariants(table), [DivisorClass(dd, 0)],
             description=f"complete intersection with a degree-{dd} surface")
    entries.sort(key=lambda e: PROVENANCE_ORDER.index(e.provenance))  # stable
    return entries


# (degree, type) -> k_min and the case label of each pair of the derived type;
# the reducible quadric has one case per splitting type n instead
_LOW_DEGREE_CASES = {(2, "smooth"): (1, ("main",)), (2, "reducible"): (1, None),
                     (3, "2x2"): (0, ("A", "B")), (3, "3x3"): (1, ("main",))}
_SPLIT_N_MAX = 3  # the reducible quadric is listed for splitting types n = 1..3


@dataclass(frozen=True)
class LowDegreeFamily:
    """One resolution family of the degree-2/3 classifications."""

    type_tag: str
    case_label: str
    pair: WeakAdmissiblePair
    k_min: int
    n: int | None = None
    note: str = ""

    @property
    def surface_degree(self) -> int:
        return self.pair.degree

    def table(self, k: int) -> BettiTable:
        return surface_generator_table(self.pair, k)

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


def classify_low_degree(surface_degree: int, type_tag: str) -> list[LowDegreeFamily]:
    """Resolution families (besides complete intersections) on a degree-2
    or degree-3 surface of the named type."""
    if (surface_degree, type_tag) not in _LOW_DEGREE_CASES:
        raise KeyError(
            f"unknown type {surface_degree}/{type_tag}; expected one of "
            + ", ".join(f"{d}/{t}" for d, t in sorted(_LOW_DEGREE_CASES))
        )
    k_min, cases = _LOW_DEGREE_CASES[surface_degree, type_tag]
    pairs = _surface_types(surface_degree)[type_tag]
    if cases is not None:
        return [LowDegreeFamily(type_tag, case, pair, k_min)
                for case, pair in zip(cases, pairs, strict=True)]
    # one family per splitting type n of the quadric: its one kind,
    # ((1, 2), (2, 3)), with the second diagonal block raised by n - 1
    [((a1, a2), (b1, b2))] = [(p.a, p.b) for p in pairs]
    return [
        LowDegreeFamily(
            type_tag, f"n={n}", make_pair((a1, a2 + n - 1), (b1, b2 + n - 1)), k_min, n=n,
            note="tables generated by the surface-generator constructor",
        )
        for n in range(1, _SPLIT_N_MAX + 1)
    ]
