import pytest
from hypothesis import given, strategies as st

from acmcurves import (
    CiProfile,
    CurveInvariants,
    LinkageError,
    residual_invariants,
)


def link(d, g, s, t):
    out = residual_invariants(CurveInvariants(d, g), CiProfile(s, t))
    return out.degree, out.genus


TABULATED_ROWS = [
    (1, 0, 4, 1, (3, 1)),
    (1, 0, 4, 2, (7, 6)),
    (1, 0, 4, 3, (11, 15)),
    (2, 0, 4, 2, (6, 4)),
    (2, 0, 4, 3, (10, 12)),
    (4, 1, 4, 3, (8, 7)),
    (3, 0, 4, 2, (5, 2)),
    (3, 0, 4, 3, (9, 9)),
]


@pytest.mark.parametrize("d,g,s,t,expected", TABULATED_ROWS)
def test_tabulated_residuals(d, g, s, t, expected):
    assert link(d, g, s, t) == expected


def test_self_linked_invariants():
    assert link(6, 3, 4, 3) == (6, 3)


def test_residual_must_have_positive_degree():
    with pytest.raises(LinkageError, match="positive"):
        residual_invariants(CurveInvariants(8, 9), CiProfile(4, 2))


def test_every_small_residual_is_the_constructors_record():
    # residual_invariants builds its record with tuple.__new__ after its own
    # degree refusal: over every degree that fits, the result is a
    # CurveInvariants with the formula's values, and linking twice is the
    # identity; every degree that does not fit is refused
    for s in range(1, 9):
        for t in range(1, 9):
            ci = CiProfile(s, t)
            for d in range(1, s * t):
                for g in range(41):
                    c = CurveInvariants(d, g)
                    residual = residual_invariants(c, ci)
                    assert type(residual) is CurveInvariants
                    assert (s * t - 2 * d) * (s + t - 4) % 2 == 0
                    assert residual == (s * t - d, g + (s * t - 2 * d) * (s + t - 4) // 2)
                    assert residual_invariants(residual, ci) == c
            for d in (s * t, s * t + 1, s * t + 7):
                with pytest.raises(LinkageError) as err:
                    residual_invariants(CurveInvariants(d, 0), ci)
                assert str(err.value) == (
                    f"residual degree {s * t - d} is not positive: a degree-{d} curve "
                    f"does not fit in a ({s},{t}) complete intersection"
                )


def test_ci_profile_validation():
    with pytest.raises(ValueError):
        CiProfile(0, 2)


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 143),
    st.integers(-5, 80),
)
def test_involution_and_degree_additivity(s, t, d, g):
    if d >= s * t:
        return
    c = CurveInvariants(d, g)
    ci = CiProfile(s, t)
    residual = residual_invariants(c, ci)  # genus transfer is always exact
    assert c.degree + residual.degree == s * t
    assert residual_invariants(residual, ci) == c
