"""Degree/genus transfer under direct linkage in a complete intersection.

Two curves linked by surfaces of degrees s and s' satisfy

    d' = s*s' - d,        g' = g + (d' - d)(s + s' - 4) / 2,

a symmetric formula, so double linkage is the identity.  The division
is always exact, and ``residual_invariants`` relies on it with no check:
d' - d = s*s' - 2d has the parity of s*s', and s*s' odd makes s and s'
both odd, so s + s' - 4 is even.  ``LinkageError`` is raised only for a
residual degree that is not positive.
"""

from __future__ import annotations

from collections import namedtuple

from .resolutions import CurveInvariants


class LinkageError(ValueError):
    """Linkage data with no residual curve behind it."""


class CiProfile(namedtuple("CiProfile", "s s_prime")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, s: int, s_prime: int) -> CiProfile:
        if s < 1 or s_prime < 1:
            raise ValueError("linking surface degrees must be positive")
        return tuple.__new__(cls, (s, s_prime))


def residual_invariants(c: CurveInvariants, ci: CiProfile) -> CurveInvariants:
    """Invariants of the curve residual to c in the complete intersection."""
    degree = ci.s * ci.s_prime - c.degree
    if degree <= 0:
        raise LinkageError(
            f"residual degree {degree} is not positive: a degree-{c.degree} curve "
            f"does not fit in a ({ci.s},{ci.s_prime}) complete intersection"
        )
    genus = c.genus + (degree - c.degree) * (ci.s + ci.s_prime - 4) // 2
    # unchecked build: the refusal above is CurveInvariants' one check, degree >= 1
    return tuple.__new__(CurveInvariants, (degree, genus))
