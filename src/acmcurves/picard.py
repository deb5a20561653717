"""Rank-2 Picard lattice arithmetic and exact Diophantine class solving.

A lattice is the Gram matrix [[h2, hc], [hc, c2]] in the basis
(hyperplane H, special curve C).  Both h2 and c2 are even and the
determinant is negative, so for any fixed value of D.H the classes
with a prescribed self-intersection form a finite set which can be
solved exactly.  The extended gcd gives h2*u + hc*v = g, so P = (u, v)
has P.H = g and the slice D.H = n*g is the line n*P + s*d, where
d = (hc/g, -h2/g) spans the classes orthogonal to H.  On it D.D is a
quadratic in s whose discriminant over 4 is n^2*k + q2*D.D, with the
per-lattice constants q2 = d.d = h2*det/g^2 and k = (P.d)^2 - q2*P.P
(= -det, as P and d span the lattice).  These are computed once per
solve, so a slice costs a few integer operations and one isqrt, and
only a solution builds a class.  The leading coefficient q2 is negative because h2 = H^2 (the
surface degree) is positive, so no search bound is ever needed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class PicardLattice:
    h2: int
    hc: int
    c2: int

    def __post_init__(self) -> None:
        if self.h2 <= 0:
            raise ValueError(f"h2 = H^2 is the surface degree and must be positive, got {self.h2}")
        if self.h2 % 2 or self.c2 % 2:
            raise ValueError("h2 and c2 must be even (even lattice)")
        if self.det >= 0:
            raise ValueError(
                f"determinant {self.det} must be negative (signature (1,1))"
            )

    @property
    def det(self) -> int:
        return self.h2 * self.c2 - self.hc * self.hc

    def to_json(self) -> dict:
        return {"h2": self.h2, "hc": self.hc, "c2": self.c2}


@dataclass(frozen=True, order=True)
class DivisorClass:
    a: int
    b: int

    def to_json(self) -> list[int]:
        return [self.a, self.b]

    def __repr__(self) -> str:
        return f"({self.a}, {self.b})"


H = DivisorClass(1, 0)


def quartic_lattice(d_i: int, g_i: int) -> PicardLattice:
    """The lattice of a quartic with a degree-d_i genus-g_i generator curve."""
    return PicardLattice(4, d_i, 2 * g_i - 2)


def dot(l: PicardLattice, x: DivisorClass, y: DivisorClass) -> int:
    """Bilinear extension of the Gram matrix."""
    return (
        l.h2 * x.a * y.a + l.hc * (x.a * y.b + x.b * y.a) + l.c2 * x.b * y.b
    )


def adjunction_genus(l: PicardLattice, x: DivisorClass) -> int:
    """Genus of a curve class on a smooth quartic: D^2/2 + 1."""
    return dot(l, x, x) // 2 + 1


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with x*u + y*v = g = gcd(x, y) >= 0, by a loop: the
    Euclidean steps of large Gram entries can outrun the recursion limit."""
    u0, v0, u1, v1 = 1, 0, 0, 1  # x = u0*X + v0*Y and y = u1*X + v1*Y throughout
    while y:
        q = x // y
        x, y = y, x - q * y
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


def _solve_slices(l: PicardLattice, slices: Iterable[tuple[int, int]]) -> set[DivisorClass]:
    """All integer classes x with x.H = dh and x.x = self_int for some
    (dh, self_int) in slices."""
    g, u, v = _ext_gcd(l.h2, l.hc)
    # the slice x.H = n*g is the line x = n*p + s*d (module docstring), on
    # which x.x - self_int = q2*s^2 + 2*n*bpd*s + n^2*p.p - self_int
    p = DivisorClass(u, v)
    d = DivisorClass(l.hc // g, -l.h2 // g)
    q2 = dot(l, d, d)
    bpd = dot(l, p, d)
    k = bpd * bpd - q2 * dot(l, p, p)
    solutions: set[DivisorClass] = set()
    for dh, self_int in slices:
        if dh % g:
            continue
        n = dh // g
        disc = n * n * k + q2 * self_int
        if disc < 0:
            continue
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        for num in (-n * bpd + root, -n * bpd - root):
            s, rem = divmod(num, q2)
            if not rem:
                solutions.add(DivisorClass(n * u + s * d.a, n * v + s * d.b))
    return solutions


def solve_classes(
    l: PicardLattice, self_int: int, dh_min: int, dh_max: int
) -> set[DivisorClass]:
    """All integer classes x with x.x = self_int and dh_min <= x.H <= dh_max."""
    if dh_min > dh_max:
        raise ValueError("empty degree range")
    return _solve_slices(l, zip(range(dh_min, dh_max + 1), repeat(self_int)))


@dataclass(frozen=True)
class WatanabeCase:
    """One numerical case of the rigid-class search on a quartic."""

    label: str
    self_int: int
    dh_min: int
    dh_max: int
    classes: frozenset[DivisorClass]
    side_condition: str | None = None

    def to_json(self) -> dict:
        doc = {
            "label": self.label,
            "self_int": self.self_int,
            "dh": [self.dh_min, self.dh_max],
            "classes": [c.to_json() for c in sorted(self.classes)],
        }
        if self.side_condition:
            doc["side_condition"] = self.side_condition
        return doc


_WATANABE_PARAMS = (
    ("D2=-2, 1<=D.H<=3", -2, 1, 3, None),
    ("D2=0, 3<=D.H<=4", 0, 3, 4, None),
    ("D2=2, D.H=5", 2, 5, 5, None),
    ("D2=4, D.H=6", 4, 6, 6, "requires |D-H| and |2H-D| empty"),
)


def watanabe_candidates(l: PicardLattice) -> list[WatanabeCase]:
    """The four numerical case families for rigid ACM classes.

    The last case carries a linear-system side condition that is not
    decidable from the lattice; callers supply that as exclusion data.
    """
    return [
        WatanabeCase(
            label, self_int, lo, hi,
            frozenset(solve_classes(l, self_int, lo, hi)), side
        )
        for label, self_int, lo, hi, side in _WATANABE_PARAMS
    ]


def plane_curve_classes(l: PicardLattice, dh_max: int) -> set[DivisorClass]:
    """Classes whose adjunction genus matches a plane curve of their degree.

    A plane curve of degree e has genus (e-1)(e-2)/2; on the lattice the
    genus is D^2/2 + 1, so for each degree e up to dh_max this solves
    D^2 = (e-1)(e-2) - 2 on the slice D.H = e, in one pass of the solver.
    """
    if dh_max < 1:
        raise ValueError("dh_max must be at least 1")
    return _solve_slices(l, ((e, (e - 1) * (e - 2) - 2) for e in range(1, dh_max + 1)))
