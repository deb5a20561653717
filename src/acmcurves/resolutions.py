"""Twist tables of codimension-two ACM resolutions and their invariants.

A resolution 0 -> (+) O(-b_j) -> (+) O(-a_i) -> I -> 0 is recorded by
its two twist multisets: ``gens`` (the a_i, one more of them) and
``syz`` (the b_j).  Twists are stored positive, matching the O(-a)
convention everywhere.  For curves in P^3,

    degree = (sum b^2 - sum a^2) / 2
    genus  = 1 + (sum b^3 - sum a^3) / 6 - 2 * degree.

The two constructors below realize the resolution shapes of the main
classification: keeping the surface equation among the generators
(case ii, with a free shift k) or dropping it (case iii, pivoting on
one syzygy twist).  Both take the surface degree d from the pair.

`BettiTable(gens, syz)` normalizes outside input (the CLI's, a test's):
it sorts both twist tuples and rejects a nonpositive least twist on
either side.  The constructors `ci_table`, `surface_generator_table` and
`pivot_syzygy_table` build their twists in ascending order instead (`a +
k` with d inserted in order, `shift + a`, `b + k` or `shift + b` without
the pivot, and `(min(f, g), max(f, g))`), so their tables skip the
re-sort, and each refuses its one twist that can be nonpositive before
it builds anything.  A pair has d >= 2 and b_i > a_i >= a_1, so:

* case ii: every twist is at least `a_1 + k`, so the table is valid
  exactly when `a_1 + k >= 1`;
* case iii: every twist is at least `shift + a_1` (`shift = d - b_j0`),
  so the table is valid exactly when `shift + a_1 >= 1`;
* ci: f, g >= 1 makes f + g positive too.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from .pairs import WeakAdmissiblePair


class InvalidTableError(ValueError):
    """A twist table with no curve behind it (bad degree or genus)."""


class BettiTable(namedtuple("BettiTable", "gens syz")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, gens: tuple[int, ...], syz: tuple[int, ...]) -> BettiTable:
        gens, syz = tuple(sorted(gens)), tuple(sorted(syz))
        if gens and gens[0] <= 0 or syz and syz[0] <= 0:
            raise InvalidTableError("nonpositive twist")
        return tuple.__new__(cls, (gens, syz))

    def to_json(self) -> dict:
        return {"gens": list(self.gens), "syz": list(self.syz)}


def _sorted_table(gens: tuple[int, ...], syz: tuple[int, ...]) -> BettiTable:
    """The table of positive twists already in ascending order, without the
    re-sort and the check of `BettiTable(gens, syz)`: each caller refuses
    its one twist that can be nonpositive first."""
    return tuple.__new__(BettiTable, (gens, syz))


class CurveInvariants(namedtuple("CurveInvariants", "degree genus")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, degree: int, genus: int) -> CurveInvariants:
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        return tuple.__new__(cls, (degree, genus))

    def to_json(self) -> dict:
        return {"degree": self.degree, "genus": self.genus}


def _degree_and_cubes(t: BettiTable) -> tuple[int, int]:
    """The degree and sum syz^3 - sum gens^3, in one pass over the twists.

    Raises InvalidTableError unless the degree is a positive integer.
    """
    twice = six = 0
    for x in t.syz:
        sq = x * x
        twice += sq
        six += sq * x
    for x in t.gens:
        sq = x * x
        twice -= sq
        six -= sq * x
    if twice % 2 != 0:
        raise InvalidTableError(f"degree is not an integer: {twice}/2")
    if twice <= 0:
        raise InvalidTableError(f"degree must be positive, got {twice // 2}")
    return twice // 2, six


def _invariants(t: BettiTable) -> tuple[int, int]:
    """(degree, genus) from one pass over the twists; a bad degree is
    reported before a bad genus."""
    degree, six = _degree_and_cubes(t)
    if six % 6 != 0:
        raise InvalidTableError(f"genus is not an integer: 1 + {six}/6 - {2 * degree}")
    return degree, 1 + six // 6 - 2 * degree


def degree_from_betti(t: BettiTable) -> int:
    """(sum syz^2 - sum gens^2) / 2; must come out a positive integer."""
    return _degree_and_cubes(t)[0]


def genus_from_betti(t: BettiTable) -> int:
    """1 + (sum syz^3 - sum gens^3) / 6 - 2 * degree."""
    return _invariants(t)[1]


def invariants_from_betti(t: BettiTable) -> CurveInvariants:
    return CurveInvariants(*_invariants(t))


def ci_table(f: int, g: int) -> BettiTable:
    """The complete intersection of surfaces of degrees f and g."""
    if f < 1 or g < 1:
        raise ValueError("complete intersection degrees must be positive")
    return _sorted_table((f, g) if f <= g else (g, f), (f + g,))


def surface_generator_table(p: WeakAdmissiblePair, k: int) -> BettiTable:
    """Resolution keeping the degree-d surface equation as a generator.

    d is the pair's degree: gens = {a_i + k} + {d},  syz = {b_j + k},
    and the twist sums balance exactly because the pair has degree d.
    """
    if p.a[0] + k <= 0:
        raise InvalidTableError(f"nonpositive twist: shift {k} is too negative")
    gens = [a + k for a in p.a]
    insort(gens, p.degree)
    return _sorted_table(tuple(gens), tuple([b + k for b in p.b]))


def pivot_syzygy_table(p: WeakAdmissiblePair, j0: int) -> BettiTable:
    """Resolution when the surface equation is not a minimal generator.

    The pivot syzygy b_{j0} (1-based index into the sorted b-sequence)
    is consumed: gens = {d - b_{j0} + a_i}, syz = {d - b_{j0} + b_i}
    for i != j0 (d the pair's degree): one fewer syzygy than generators.
    """
    if not 1 <= j0 <= p.length:
        raise ValueError(f"pivot index {j0} out of range 1..{p.length}")
    b = p.b
    shift = p.degree - b[j0 - 1]
    if shift + p.a[0] <= 0:
        raise InvalidTableError(f"nonpositive twist: pivot {j0} shifts below 1")
    return _sorted_table(
        tuple([shift + a for a in p.a]), tuple([shift + x for x in b[:j0 - 1] + b[j0:]])
    )


def validate(t: BettiTable) -> list[str]:
    """Diagnostics for a twist table; empty means valid."""
    problems = []
    if len(t.gens) != len(t.syz) + 1:
        problems.append(
            f"shape: expected one more generator than syzygies, got {len(t.gens)} vs {len(t.syz)}"
        )
    if sum(t.gens) != sum(t.syz):
        problems.append(
            f"twist sums differ: gens {sum(t.gens)} vs syz {sum(t.syz)}"
        )
    try:
        _invariants(t)
    except InvalidTableError as err:
        problems.append(str(err))
    return problems
