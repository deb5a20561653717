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
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import WeakAdmissiblePair


class InvalidTableError(ValueError):
    """A twist table with no curve behind it (bad degree or genus)."""


@dataclass(frozen=True)
class BettiTable:
    gens: tuple[int, ...]
    syz: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", tuple(sorted(self.gens)))
        object.__setattr__(self, "syz", tuple(sorted(self.syz)))
        if any(x <= 0 for x in self.gens + self.syz):
            raise InvalidTableError("nonpositive twist")

    def to_json(self) -> dict:
        return {"gens": list(self.gens), "syz": list(self.syz)}


@dataclass(frozen=True)
class CurveInvariants:
    degree: int
    genus: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")

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
    return BettiTable(gens=(f, g), syz=(f + g,))


def surface_generator_table(p: WeakAdmissiblePair, k: int) -> BettiTable:
    """Resolution keeping the degree-d surface equation as a generator.

    d is the pair's degree: gens = {a_i + k} + {d},  syz = {b_j + k},
    and the twist sums balance exactly because the pair has degree d.
    """
    if p.a[0] + k <= 0:
        raise InvalidTableError(f"nonpositive twist: shift {k} is too negative")
    gens = tuple(a + k for a in p.a) + (p.degree,)
    syz = tuple(b + k for b in p.b)
    return BettiTable(gens, syz)


def pivot_syzygy_table(p: WeakAdmissiblePair, j0: int) -> BettiTable:
    """Resolution when the surface equation is not a minimal generator.

    The pivot syzygy b_{j0} (1-based index into the sorted b-sequence)
    is consumed: gens = {d - b_{j0} + a_i}, syz = {d - b_{j0} + b_i}
    for i != j0 (d the pair's degree): one fewer syzygy than generators.
    """
    if not 1 <= j0 <= p.length:
        raise ValueError(f"pivot index {j0} out of range 1..{p.length}")
    shift = p.degree - p.b[j0 - 1]
    gens = tuple(shift + a for a in p.a)
    if gens[0] <= 0:
        raise InvalidTableError(f"nonpositive twist: pivot {j0} shifts below 1")
    syz = tuple(shift + b for i, b in enumerate(p.b) if i != j0 - 1)
    return BettiTable(gens, syz)


def is_f_minimal(p: WeakAdmissiblePair, k: int) -> bool:
    """Whether the surface equation stays a minimal generator at shift k.

    It degenerates exactly when d - k, d the pair's degree, is a syzygy twist.
    """
    return p.degree - k not in p.b


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
