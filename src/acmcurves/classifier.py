"""Classification of ACM curves on the surfaces of degree 2, 3 and 4.

The surface types of degree d are derived from its kind catalog: the
irreducible kinds whose representative has no twist on both sides (in
both a and b; such a kind's tables are a shorter pair's, see
`_shares_a_twist`), grouped into duality orbits under anti-transposition
and shifted by +1; the one reducible kind of degree 2 seeds the
reducible quadric's n-family.  Written out are only the labels (in
`labels`), k_min, the prose and the exclusions.
A quartic type's lattice is that of its generator curve, the least
(degree, genus) among its pivot tables: (6,3), (3,0), (4,1), (1,0) and
(2,0) for F1..F5.  The solved classes of a twist table are the lattice
classes with its degree and genus.  Every entry of a quartic table is
derived:

* RIGID: the classes of the four numerical rigidity cases minus the
  divisor's exclusion data (geometric facts this library does not
  derive, kept as data so the arithmetic stays honest).  The pivot
  pass (pairs in order, distinct syzygy twists ascending) emits each
  on the first pivot table that solves to it;
* RESIDUAL: the shifts k = 0, 1, 2 of each attached pair.  Every pair
  has a_1 = 1 (its representative has a_1 = 0 and is shifted by 1), so
  every twist of a shift-k table is at least 1.  A shift is skipped when
  its solved classes have no curve (D.H <= 0 or a negative genus) or are
  all rigid; by the translation below, its classes have no curve exactly
  when its table has none, so the skip reads no table.  Each solved
  class D is residual to P = sH - D, s = k + 1, in the complete
  intersection (4, s), and linking P gives back D's own (degree, genus)
  on every lattice with H^2 = 4, so the rows need no linkage check.
  With d = D.H: P.H = 4s - d and P^2 = 4s^2 - 2sd + D^2, so P has
  genus 2s^2 - sd + D^2/2 + 1.  Linking P in (4, s) gives degree
  4s - (4s - d) = d and genus (2s^2 - sd + D^2/2 + 1) + (d - (4s - d))s/2
  = D^2/2 + 1: D's lattice invariants, which `emit` requires the
  shift-k table to carry;
* FAMILY_II: the solved classes of each shift k >= 3;
* FAMILY_III: the solved classes of every pivot table whose solved
  classes are not all rigid;
* COMPLETE_INTERSECTION: the classes d*H.

The table lists them in that order (`PROVENANCE_ORDER`), each by
attached pair, then shift or pivot, then class, and
COMPLETE_INTERSECTION by d.  Each entry records its attached pair
(None for a complete intersection), plus its shift k (RESIDUAL,
FAMILY_II) or its 1-based pivot (RIGID, FAMILY_III).  An entry is an
immutable named tuple (`ClassificationEntry`), like every record of the
library, so it compares equal to the plain tuple of its nine fields.
The descriptions of RIGID, RESIDUAL and FAMILY_III entries come from
one prose map per divisor.
One rule makes every entry: an entry is a class on a table,
it stores that table's (degree, genus), read by one pass over its
twists in each `emit` call, and that pass must equal the class's
lattice invariants (D.H, D^2/2 + 1).  So every emitted entry passes the
cross-check, and a wrong table is refused wherever it has rows.  A
table the classifier solves (shift 3 of each pair and every pivot
table) is read once more, and must have a degree and genus that some
lattice class carries; one that carries no class is refused, so a wrong
table cannot drop its rows.  A skipped RESIDUAL shift is not read.

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

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .enumeration import EnumerationConfig, enumerate_kinds
from .labels import DIVISOR_LABELS, TYPE_LABELS
from .pairs import WeakAdmissiblePair, degree_matrix, is_reducible_type, make_pair
from .picard import DivisorClass, PicardLattice, quartic_lattice, solve_classes, watanabe_candidates
from .resolutions import (
    BettiTable, CurveInvariants, _invariants, ci_table, pivot_syzygy_table, surface_generator_table,
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


# label: str, lattice: PicardLattice, pairs: tuple[WeakAdmissiblePair, ...],
# exclusions: tuple[tuple[DivisorClass, str], ...]
QuarticDivisor = namedtuple("QuarticDivisor", "label lattice pairs exclusions")


class ClassificationEntry(namedtuple("ClassificationEntry", (
    "divisor",  # str
    "cls",  # DivisorClass
    "invariants",  # CurveInvariants: the table's (degree, genus)
    "provenance",  # str, one of PROVENANCE_ORDER
    "description",  # str
    "resolution",  # BettiTable
    "pair",  # WeakAdmissiblePair: the attached pair; None for a complete intersection
    "shift",  # int: k of a RESIDUAL or FAMILY_II table, else None
    "pivot",  # int: 1-based pivot of a RIGID or FAMILY_III table, else None
), defaults=(None, None, None))):
    """One row of a quartic table: an immutable named tuple, as every
    record of the library is, so it compares equal to (and hashes as)
    the plain tuple of its nine fields.  It checks nothing, so
    `classify_quartic`, which builds ~6 000 rows per table at
    k_max = 2000, builds each with `tuple.__new__` from all nine fields;
    what every row satisfies is `cross_check`.
    """

    __slots__ = ()

    @property
    def minimal(self) -> bool:
        """Whether the resolution is minimal: no twist on both sides
        (`_shares_a_twist`).

        An attached pair shares no twist, so this is "d - k not in b" for
        a shift table and True for every other table: a shift table's gens
        {a_i + k} + {d} and syz {b_j + k} share a twist exactly when
        d = b_j + k; a pivot table's twists are those of a and of b moved
        by one common shift, so it shares none; and a complete
        intersection (f, g; f + g) has f, g >= 1.
        """
        return not _shares_a_twist(self.resolution.gens, self.resolution.syz)

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

    @staticmethod
    def json_chunks(entries: list[ClassificationEntry]) -> Iterator[str]:
        """``json.dumps([e.to_json() for e in entries], indent=2,
        sort_keys=True)``, byte for byte, in n + 1 pieces for n entries:
        one per entry, the first with the list's opening, and the list's
        closing; ``"[]"`` alone for no entries.

        Each entry is written from one template (``_ENTRY_JSON``), and the
        text of each distinct table, with its "minimal" flag, once: the
        classes of one table share it."""
        tables: dict[BettiTable, tuple[str, str, str]] = {}

        def twists(values: tuple[int, ...]) -> str:
            items = ",\n        ".join(map(str, values))
            return f"[\n        {items}\n      ]" if values else "[]"

        def entry_text(e: ClassificationEntry) -> str:
            table = tables.get(e.resolution)
            if table is None:
                table = tables[e.resolution] = (
                    "true" if e.minimal else "false",
                    twists(e.resolution.gens), twists(e.resolution.syz),
                )
            minimal, gens, syz = table
            return _ENTRY_JSON.format(
                e.cls.a, e.cls.b, e.invariants.degree, _quote(e.description), _quote(e.divisor),
                e.invariants.genus, "" if e.shift is None else f'\n    "k": {e.shift},', minimal,
                "" if e.pivot is None else f'\n    "pivot": {e.pivot},', _quote(e.provenance),
                gens, syz,
            )

        sep = "[\n"
        for e in entries:
            yield sep + entry_text(e)
            sep = ",\n"
        yield "\n]" if entries else "[]"


# the text of one `ClassificationEntry.to_json()` in a list, as
# json.dumps(indent=2, sort_keys=True) writes it: keys sorted, each
# depth's indent written out, and the optional "k" and "pivot" lines
# (each with its line break before and its comma) in their sorted places
_ENTRY_JSON = """\
  {{
    "class": [
      {},
      {}
    ],
    "degree": {},
    "description": {},
    "divisor": {},
    "genus": {},{}
    "minimal": {},{}
    "provenance": {},
    "resolution": {{
      "gens": {},
      "syz": {}
    }}
  }}"""


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


def _shares_a_twist(gens: tuple[int, ...], syz: tuple[int, ...]) -> bool:
    """Whether some twist is on both sides: among the generators and the
    syzygies of a table, or in both a and b of a pair.

    A twist x on both sides puts a degree-0 entry into the Hilbert-Burch
    matrix.  In a general matrix that entry is a nonzero constant, so the
    twist cancels: the resolution is not minimal (`ClassificationEntry.
    minimal`), and a pair (a, b) with x = a_i = b_j resolves nothing that
    the shorter pair (a', b'), with one x taken from each side, does not,
    so its kind is no surface type.  (a', b') has the same degree d, and
    it is again weak admissible: a_j < b_j = a_i puts j before i, so each
    a_m keeps a b above it.  If (a, b) is irreducible (b_(m-1) > a_m for
    every m), then j <= i - 2 and (a', b') has length at least 2.  The
    tables of (a, b) are those of (a', b'):

    * a case-ii table of (a, b) at k carries x + k on both sides;
      cancelling it leaves the shorter pair's case-ii table at k;
    * a pivot table on some b_j0 != x carries d - b_j0 + x on both sides;
      cancelling it leaves the shorter pair's pivot table on b_j0;
    * the pivot table on b_j = x has gens {d - x + a_i}, which hold
      d - x + x = d, and syz {d - x + b} without that x: it is the shorter
      pair's case-ii table at k = d - x.

    At degree 4 this picks one irreducible kind, ((0,0,1),(1,2,2)), which
    cancels to F3's ((0,0),(2,2)); at degrees 2 and 3 it picks none.
    """
    return not set(gens).isdisjoint(syz)


@lru_cache(maxsize=None)
def _surface_types(degree: int) -> dict[str, tuple[WeakAdmissiblePair, ...]]:
    """The labelled orbits of irreducible kinds of a degree, and its
    reducible kinds under "reducible".  A kind whose representative has a
    twist in both a and b is left out: its tables are those of a shorter
    pair (`_shares_a_twist`)."""
    orbits: dict[frozenset, list[WeakAdmissiblePair]] = {}
    reducible = []
    for e in enumerate_kinds(EnumerationConfig(degree)).entries:  # in sort_key order
        rep = e.representative
        if is_reducible_type(degree_matrix(rep)):
            reducible.append(rep.shift(1))
        elif not _shares_a_twist(rep.a, rep.b):
            orbit = frozenset((e.signature, e.signature.anti_transpose()))
            orbits.setdefault(orbit, []).append(rep.shift(1))
    labelled = zip(TYPE_LABELS[degree], map(tuple, orbits.values()), strict=True)
    return dict(labelled) | {"reducible": tuple(reducible)}


def _pivot_tables(pairs: tuple[WeakAdmissiblePair, ...]):
    """(pair, pivot, table) of every pivot table: pairs in order, distinct
    syzygy twists ascending."""
    for pair in pairs:
        for j0 in sorted({pair.b.index(b) + 1 for b in pair.b}):
            yield pair, j0, pivot_syzygy_table(pair, j0)


@lru_cache(maxsize=None)
def divisor(label: str) -> QuarticDivisor:
    if label not in DIVISOR_LABELS:
        raise KeyError(f"unknown divisor {label!r}; expected one of {DIVISOR_LABELS}")
    pairs = _surface_types(SURFACE_DEGREE)[label]
    # the generator curve: the least (degree, genus) among the pivot tables
    d_i, g_i = min(_invariants(table) for *_, table in _pivot_tables(pairs))
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
    """(D.H, D^2/2 + 1) of D = aH + bC from the Gram entries: with
    e = D.H = h2*a + hc*b, D^2 = a*e + b*(hc*a + c2*b).  `dot` and
    `adjunction_genus` give the same two integers in three calls."""
    h2, hc, c2 = lattice
    a, b = cls
    e = h2 * a + hc * b
    return e, (a * e + b * (hc * a + c2 * b)) // 2 + 1


def cross_check(entry: ClassificationEntry, lattice: PicardLattice) -> bool:
    """The stored invariants, the resolution's and the lattice invariants
    of the class must all be equal."""
    stored = (entry.invariants.degree, entry.invariants.genus)
    return stored == _table_invariants(entry.resolution) == _lattice_invariants(lattice, entry.cls)


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
    entries: dict[str, list[ClassificationEntry]] = {p: [] for p in PROVENANCE_ORDER}

    def solve(table, where):
        # the lattice classes with the table's (degree, genus); a table the
        # classifier solves must have both, and some class must carry them
        checked = _table_invariants(table)
        if checked is None:
            raise ClassificationError(f"{div.label}: no degree and genus at {where}: "
                                      f"table {table.to_json()}")
        degree, genus = checked
        solved = solve_classes(lattice, 2 * genus - 2, degree, degree)
        if not solved:
            raise ClassificationError(f"{div.label}: no integer class of degree {degree}, "
                                      f"genus {genus} at {where}")
        return solved

    def emit(provenance, table, classes, pair=None, shift=None, pivot=None, description=None):
        # every class stores the table's (degree, genus) from its one
        # _invariants pass, or None, and must have it as its lattice
        # invariants
        checked = _table_invariants(table)
        # unchecked build: _invariants refuses a degree below 1, CurveInvariants' one check
        inv = tuple.__new__(CurveInvariants, checked) if checked else None
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
            # unchecked build: ClassificationEntry checks nothing, and all nine fields are given
            entries[provenance].append(tuple.__new__(ClassificationEntry, (
                div.label, cls, inv, provenance, text, table, pair, shift, pivot
            )))

    rigid = rigid_classes(div)
    for pair in div.pairs:
        # solved once, at shift 3; shift k adds (k-3)H (module docstring)
        base = sorted(solve(surface_generator_table(pair, 3), f"shift 3 of {pair}"))
        for k in range(k_max + 1):
            table = surface_generator_table(pair, k)
            # unchecked build: DivisorClass checks nothing
            solved = [tuple.__new__(DivisorClass, (c.a + k - 3, c.b)) for c in base]
            if k >= 3:
                emit(FAMILY_II, table, solved, pair, shift=k, description="resolution family "
                     f"with the quartic among the minimal generators, shift k={k}")
                continue
            degree, genus = _lattice_invariants(lattice, solved[0])
            if degree <= 0 or genus < 0 or rigid.issuperset(solved):
                continue  # no curve, or the rigid entries already cover these classes
            emit(RESIDUAL, table, solved, pair, shift=k)

    unresolved = set(rigid)  # each rigid class goes on the first pivot table solving to it
    for pair, j0, table in _pivot_tables(div.pairs):
        solved = solve(table, f"pivot {j0} of {pair}")
        emit(RIGID, table, sorted(solved & unresolved), pair, pivot=j0)
        unresolved -= solved
        if not solved <= rigid:
            emit(FAMILY_III, table, sorted(solved), pair, pivot=j0)
    if unresolved:
        raise ClassificationError(
            f"{div.label}: no pivot table resolves the rigid class {min(unresolved)}"
        )

    for dd in range(2, k_max + 1):
        emit(COMPLETE_INTERSECTION, ci_table(SURFACE_DEGREE, dd), [DivisorClass(dd, 0)],
             description=f"complete intersection with a degree-{dd} surface")
    return [entry for rows in entries.values() for entry in rows]


# (degree, type) -> k_min and the case label of each pair of the derived type;
# the reducible quadric has one case per splitting type n instead
_LOW_DEGREE_CASES = {(2, "smooth"): (1, ("main",)), (2, "reducible"): (1, None),
                     (3, "2x2"): (0, ("A", "B")), (3, "3x3"): (1, ("main",))}
_SPLIT_N_MAX = 3  # the reducible quadric is listed for splitting types n = 1..3


class LowDegreeFamily(namedtuple("LowDegreeFamily", (
    "type_tag",  # str
    "case_label",  # str
    "pair",  # WeakAdmissiblePair
    "k_min",  # int
    "n",  # int or None
), defaults=(None,))):
    """One resolution family of the degree-2/3 classifications.

    Its table at shift k is ``surface_generator_table(pair, k)``, and its
    surface degree is ``pair.degree``.  Only the reducible quadric's
    families have a splitting type ``n``, and their JSON alone carries a
    note that their tables come from the surface-generator constructor.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        doc = {
            "surface_degree": self.pair.degree,
            "type": self.type_tag,
            "case": self.case_label,
            "pair": self.pair.to_json(),
            "k_min": self.k_min,
        }
        if self.n is not None:
            doc["n"] = self.n
            doc["note"] = "tables generated by the surface-generator constructor"
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
        LowDegreeFamily(type_tag, f"n={n}", make_pair((a1, a2 + n - 1), (b1, b2 + n - 1)), k_min, n)
        for n in range(1, _SPLIT_N_MAX + 1)
    ]
