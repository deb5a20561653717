"""Rank-2 Picard lattice arithmetic and exact Diophantine class solving.

A lattice is the Gram matrix [[h2, hc], [hc, c2]] in the basis
(hyperplane H, special curve C).  Both h2 and c2 are even and the
determinant is negative, so for any fixed value of D.H the classes
with a prescribed self-intersection form a finite set which can be
solved exactly.  Write x = aH + bC, e = x.H = h2*a + hc*b and
delta = -det > 0.  Then h2*x.x = e^2 - delta*b^2, so the slice
(x.H, x.x) = (e, s) holds a class exactly when (e^2 - h2*s)/delta is an
integer square b^2 and a = (e - hc*b)/h2 is an integer, for b or -b.
A slice costs a few integer operations and at most one isqrt, and only
a solution builds a class; no search bound is ever needed.

Over a range of degrees at one s, with N = h2*s, three facts cut the
degrees that need a slice:

- Congruence.  A class on the slice e gives e^2 = N + delta*b^2, so
  e^2 = N (mod delta): only the residues r of e mod delta with
  r^2 = N (mod delta) can carry a class.
- Squares mod M.  If delta | r^2 - N and e = r + k*delta*M, then
  (e^2 - N)/delta = (r^2 - N)/delta + 2*r*k*M + k^2*delta*M^2, so
  b^2 = (e^2 - N)/delta = (r^2 - N)/delta (mod M).  A square is a square
  residue mod M, so only the residues r mod delta*M whose
  (r^2 - N)/delta is a square mod M can carry a class.
- Isotropic bound.  If delta = m^2 and N != 0, the class gives
  (e - m*b)(e + m*b) = N with both factors f, g nonzero integers, so
  2|e| <= |f| + |g| <= |fg| + 1 = |N| + 1, as (|f| - 1)(|g| - 1) >= 0.

`solve_classes` clips its range by the bound, and tests only the
degrees of a residue list.  Each residue is kept as its least degree in
the range, and the solver steps it by the list's modulus up to the end
of the range.  The list starts as the degrees e among the first
min(delta, span) of the range with e^2 = N (mod delta).  That costs at
most one test per degree of the range, and when delta exceeds the span
the list is the range's own congruent degrees.  Then the list is lifted
from mod delta to mod delta*M, keeping the degrees whose
(e^2 - N)/delta is a square mod M, with M the largest step of
_SIEVE_MODULI such that delta*M*(roots + 1) <= span for roots degrees in
the list.  So the lift costs no more than the scan it replaces.  There
is no lift when no step fits, when the list is empty, or when delta is
a square: with N != 0 the range is already clipped, and with N = 0 the
list holds only multiples e of m, where (e^2 - N)/delta = (e/m)^2.
"""

from __future__ import annotations

import math
from collections import namedtuple

# the moduli M of the squares sieve, largest first: 1/15, 1/9 and 1/4 of
# the residues mod M are squares
_SIEVE_MODULI = (720, 144, 16)


class PicardLattice(namedtuple("PicardLattice", "h2 hc c2")):
    """The Gram matrix [[h2, hc], [hc, c2]] of an even lattice of
    signature (1,1)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, h2: int, hc: int, c2: int) -> PicardLattice:
        if h2 <= 0:
            raise ValueError(f"h2 = H^2 is the surface degree and must be positive, got {h2}")
        if h2 % 2 or c2 % 2:
            raise ValueError("h2 and c2 must be even (even lattice)")
        self = tuple.__new__(cls, (h2, hc, c2))
        if self.det >= 0:
            raise ValueError(
                f"determinant {self.det} must be negative (signature (1,1))"
            )
        return self

    @property
    def det(self) -> int:
        return self.h2 * self.c2 - self.hc * self.hc

    def to_json(self) -> dict:
        return {"h2": self.h2, "hc": self.hc, "c2": self.c2}


class DivisorClass(namedtuple("DivisorClass", "a b")):
    """The class aH + bC, ordered as the tuple (a, b)."""

    __slots__ = ()

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


def solve_classes(
    l: PicardLattice, self_int: int, dh_min: int, dh_max: int
) -> set[DivisorClass]:
    """All integer classes x with x.x = self_int and dh_min <= x.H <= dh_max."""
    if dh_min > dh_max:
        raise ValueError("empty degree range")
    h2, hc, delta, n = l.h2, l.hc, -l.det, l.h2 * self_int
    m = math.isqrt(delta)
    if m * m == delta and n:
        bound = (abs(n) + 1) // 2
        dh_min, dh_max = max(dh_min, -bound), min(dh_max, bound)
    span = dh_max - dh_min + 1
    roots = [e for e in range(dh_min, dh_min + min(delta, span)) if (e * e - n) % delta == 0]
    step = delta
    for k in _SIEVE_MODULI if roots and m * m != delta else ():
        if delta * k * (len(roots) + 1) <= span:
            squares = {x * x % k for x in range(k // 2 + 1)}
            roots = [
                e
                for base in range(0, delta * k, delta)
                for r in roots
                if ((e := base + r) * e - n) // delta % k in squares
            ]
            step = delta * k
            break
    solutions: set[DivisorClass] = set()
    for r in roots:
        for e in range(r, dh_max + 1, step):
            b_squared = (e * e - n) // delta
            if b_squared < 0:
                continue
            b = math.isqrt(b_squared)
            if b * b != b_squared:
                continue
            for y in (b, -b):
                a, rem = divmod(e - hc * y, h2)
                if not rem:
                    solutions.add(DivisorClass(a, y))
    return solutions


class WatanabeCase(namedtuple("WatanabeCase", (
    "label",  # str
    "self_int",  # int
    "dh_min",  # int
    "dh_max",  # int
    "classes",  # frozenset[DivisorClass]
    "side_condition",  # str or None
), defaults=(None,))):
    """One numerical case of the rigid-class search on a quartic."""

    __slots__ = ()

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
    D^2 = (e-1)(e-2) - 2 = e^2 - 3e on the slice D.H = e.  No degree past
    3*h2/(h2 - 1) carries a class: with s = e^2 - 3e,
    delta*b^2 = e^2 - h2*s = e*(3*h2 - (h2 - 1)*e), which is negative for
    e > 3*h2/(h2 - 1).  As h2 >= 2 that bound is at most 6, so the
    slices stop at min(dh_max, 3*h2 // (h2 - 1)).
    """
    if dh_max < 1:
        raise ValueError("dh_max must be at least 1")
    top = min(dh_max, 3 * l.h2 // (l.h2 - 1))
    return set().union(*(solve_classes(l, e * e - 3 * e, e, e) for e in range(1, top + 1)))
