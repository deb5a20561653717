"""Shared hypothesis strategies and test oracles."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

from acmcurves import DivisorClass, H, WeakAdmissiblePair, dot, make_pair


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(1, total - parts + 2)
        for rest in compositions(total - first, parts - 1)
    )


@st.composite
def weak_pairs(draw, max_degree: int = 8, max_step: int = 4, max_shift: int = 5) -> WeakAdmissiblePair:
    """Arbitrary valid pairs: pick diagonal gaps, then grow a left to right,
    repairing each step so b stays nondecreasing, then shift."""
    d = draw(st.integers(2, max_degree))
    t = draw(st.integers(2, d))
    gaps = draw(st.sampled_from(compositions(d, t)))
    steps = draw(st.lists(st.integers(0, max_step), min_size=t - 1, max_size=t - 1))
    shift = draw(st.integers(-max_shift, max_shift))
    a = [0]
    for i in range(1, t):
        floor = max(0, gaps[i - 1] - gaps[i])
        a.append(a[-1] + max(steps[i - 1], floor))
    b = [a[i] + gaps[i] for i in range(t)]
    return make_pair([x + shift for x in a], [x + shift for x in b])


def brute_force_classes(l, self_int, dh_min, dh_max, box=50):
    """Independent double-loop oracle over a box that safely contains
    every solution (negative determinant pins them near the origin)."""
    out = set()
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            x = DivisorClass(a, b)
            if dot(l, x, x) == self_int and dh_min <= dot(l, x, H) <= dh_max:
                out.add(x)
    return out
