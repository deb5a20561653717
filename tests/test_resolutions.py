from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from acmcurves import (
    BettiTable,
    CurveInvariants,
    InvalidTableError,
    ci_table,
    degree_from_betti,
    dual_pair,
    genus_from_betti,
    invariants_from_betti,
    is_f_minimal,
    make_pair,
    surface_generator_table,
    pivot_syzygy_table,
    validate,
)
from conftest import weak_pairs

F4_A = make_pair((1, 1), (2, 4))
F5_PAIR = make_pair((1, 2), (3, 4))
F1_PAIR = make_pair((1, 1, 1, 1), (2, 2, 2, 2))


def raw_invariants(t: BettiTable) -> tuple[int, int]:
    # in-test oracle straight from the twist sums
    twice = sum(b * b for b in t.syz) - sum(a * a for a in t.gens)
    six = sum(b ** 3 for b in t.syz) - sum(a ** 3 for a in t.gens)
    assert twice % 2 == 0 and six % 6 == 0
    return twice // 2, 1 + six // 6 - twice


class TestInvariantFormulas:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_line_family_closed_form(self, k):
        t = BettiTable((1 + k, 1 + k, 4), (2 + k, 4 + k))
        assert degree_from_betti(t) == 4 * k + 1
        assert genus_from_betti(t) == 2 * k * k + k

    def test_two_quadrics(self):
        t = BettiTable((2, 2), (4,))
        assert degree_from_betti(t) == 4
        assert genus_from_betti(t) == 1

    def test_degree6_genus3(self):
        t = BettiTable((3, 3, 3, 3), (4, 4, 4))
        assert (degree_from_betti(t), genus_from_betti(t)) == (6, 3)

    def test_plane_cubic(self):
        t = BettiTable((1, 3, 4), (4, 4))
        assert (degree_from_betti(t), genus_from_betti(t)) == (3, 1)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(InvalidTableError, match="positive"):
            degree_from_betti(BettiTable((1, 1, 1, 4), (2, 2, 3)))

    def test_rejects_half_integer_degree(self):
        with pytest.raises(InvalidTableError, match="not an integer"):
            degree_from_betti(BettiTable((1, 2), (2, 2)))

    def test_rejects_fractional_genus_after_an_integer_degree(self):
        t = BettiTable((1,), (3,))
        assert degree_from_betti(t) == 4
        message = "genus is not an integer: 1 + 26/6 - 8"
        for formula in (genus_from_betti, invariants_from_betti):
            with pytest.raises(InvalidTableError) as err:
                formula(t)
            assert str(err.value) == message
        assert validate(t) == [
            "shape: expected one more generator than syzygies, got 1 vs 1",
            "twist sums differ: gens 1 vs syz 3",
            message,
        ]


def transcribed_formulas(gens, syz):
    """(degree or message, genus or message, validate list), transcribed
    straight from the closed forms and the documented diagnostics."""
    twice = sum(b ** 2 for b in syz) - sum(a ** 2 for a in gens)
    six = sum(b ** 3 for b in syz) - sum(a ** 3 for a in gens)
    if twice % 2:
        degree = genus = f"degree is not an integer: {twice}/2"
    elif twice <= 0:
        degree = genus = f"degree must be positive, got {twice // 2}"
    else:
        degree = twice // 2
        genus = (1 + six // 6 - 2 * degree if six % 6 == 0
                 else f"genus is not an integer: 1 + {six}/6 - {2 * degree}")
    problems = []
    if len(gens) != len(syz) + 1:
        problems.append(
            f"shape: expected one more generator than syzygies, got {len(gens)} vs {len(syz)}"
        )
    if sum(gens) != sum(syz):
        problems.append(f"twist sums differ: gens {sum(gens)} vs syz {sum(syz)}")
    if isinstance(genus, str):
        problems.append(genus)
    return degree, genus, problems


def _outcome(formula, t):
    try:
        return formula(t)
    except InvalidTableError as err:
        return str(err)


# every table with 1-3 generator twists and 1-2 syzygy twists in 1..6
SMALL_TABLES = [
    (gens, syz)
    for n_gens in (1, 2, 3)
    for gens in combinations_with_replacement(range(1, 7), n_gens)
    for n_syz in (1, 2)
    for syz in combinations_with_replacement(range(1, 7), n_syz)
]


def test_formulas_equal_their_transcription_on_every_small_table():
    branches = set()
    for gens, syz in SMALL_TABLES:
        t = BettiTable(gens, syz)
        degree, genus, problems = transcribed_formulas(gens, syz)
        assert _outcome(degree_from_betti, t) == degree, (gens, syz)
        assert _outcome(genus_from_betti, t) == genus, (gens, syz)
        inv = _outcome(invariants_from_betti, t)
        assert inv == (genus if isinstance(genus, str) else CurveInvariants(degree, genus))
        assert validate(t) == problems, (gens, syz)
        branches.add("curve" if isinstance(genus, int) else genus.split(",")[0].split(":")[0])
    assert branches == {
        "curve", "degree is not an integer", "degree must be positive", "genus is not an integer",
    }


class TestCiTable:
    def test_examples(self):
        assert invariants_from_betti(ci_table(2, 2)).to_json() == {"degree": 4, "genus": 1}
        assert invariants_from_betti(ci_table(1, 1)).to_json() == {"degree": 1, "genus": 0}
        assert invariants_from_betti(ci_table(4, 3)).to_json() == {"degree": 12, "genus": 19}

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_symmetric_and_closed_form(self, f, g):
        t = ci_table(f, g)
        assert t == ci_table(g, f)
        assert degree_from_betti(t) == f * g
        assert genus_from_betti(t) == f * g * (f + g - 4) // 2 + 1


class TestCaseII:
    def test_line_family_at_k3(self):
        t = surface_generator_table(F4_A, 3)
        assert (t.gens, t.syz) == ((4, 4, 4), (5, 7))

    def test_conic_family_at_k0(self):
        t = surface_generator_table(F5_PAIR, 0)
        assert (t.gens, t.syz) == ((1, 2, 4), (3, 4))

    def test_all_ones_at_k2(self):
        t = surface_generator_table(F1_PAIR, 2)
        assert (t.gens, t.syz) == ((3, 3, 3, 3, 4), (4, 4, 4, 4))
        assert invariants_from_betti(t).to_json() == {"degree": 6, "genus": 3}

    def test_too_negative_shift_rejected(self):
        with pytest.raises(InvalidTableError, match="nonpositive twist"):
            surface_generator_table(F4_A, -1)

    @given(weak_pairs(max_degree=7), st.integers(-3, 10))
    def test_balance_and_integrality(self, p, k):
        d = p.degree
        if p.a[0] + k <= 0:
            with pytest.raises(InvalidTableError):
                surface_generator_table(p, k)
            return
        t = surface_generator_table(p, k)
        assert len(t.gens) == len(t.syz) + 1
        assert sum(t.gens) == sum(t.syz)
        raw_d, raw_g = raw_invariants(t)  # both always integers
        if k >= d - p.a[0]:
            # far enough out the table is an honest curve
            assert raw_d > 0
            assert validate(t) == []
            assert (degree_from_betti(t), genus_from_betti(t)) == (raw_d, raw_g)

    @given(weak_pairs(max_degree=6, max_shift=0))
    def test_degree_affine_genus_quadratic_in_shift(self, p):
        d = p.degree
        vals = [raw_invariants(surface_generator_table(p, k)) for k in range(1, 6)]
        degree_steps = {vals[i + 1][0] - vals[i][0] for i in range(4)}
        assert degree_steps == {d}
        genus_second_diff = {
            vals[i + 2][1] - 2 * vals[i + 1][1] + vals[i][1] for i in range(3)
        }
        assert genus_second_diff == {d}


class TestCaseIII:
    def test_pivot_on_largest_gives_line(self):
        t = pivot_syzygy_table(F4_A, F4_A.b.index(4) + 1)
        assert (t.gens, t.syz) == ((1, 1), (2,))

    def test_pivot_on_smallest(self):
        t = pivot_syzygy_table(F4_A, F4_A.b.index(2) + 1)
        assert (t.gens, t.syz) == ((3, 3), (6,))

    def test_all_ones(self):
        t = pivot_syzygy_table(F1_PAIR, 1)
        assert (t.gens, t.syz) == ((3, 3, 3, 3), (4, 4, 4))

    def test_pivot_bounds(self):
        with pytest.raises(ValueError, match="pivot"):
            pivot_syzygy_table(F4_A, 0)
        with pytest.raises(ValueError, match="pivot"):
            pivot_syzygy_table(F4_A, 3)

    @given(weak_pairs(max_degree=7, max_shift=0), st.data())
    def test_shape_consumes_the_pivot(self, p, data):
        d = p.degree
        j0 = data.draw(st.integers(1, p.length))
        if d - p.b[j0 - 1] + p.a[0] <= 0:
            with pytest.raises(InvalidTableError):
                pivot_syzygy_table(p, j0)
            return
        t = pivot_syzygy_table(p, j0)
        assert len(t.gens) == p.length
        assert len(t.syz) == p.length - 1
        assert sum(t.gens) == sum(t.syz)


class TestFMinimality:
    def test_examples(self):
        assert not is_f_minimal(F4_A, 2)  # k = 4 - 2
        assert is_f_minimal(F4_A, 3)
        assert not is_f_minimal(F5_PAIR, 0)  # k = 4 - 4

    @given(weak_pairs(), st.data())
    def test_nonminimal_exactly_when_a_syzygy_twist_cancels_the_surface(self, p, data):
        k = data.draw(st.integers(1 - p.a[0], 12))
        assert is_f_minimal(p, k) == (p.degree not in surface_generator_table(p, k).syz)

    def test_degenerate_shift_cancels_against_case_iii(self):
        # at k = d - b_j the case-ii table carries a cancelling twist pair;
        # removing it yields exactly the case-iii table for that pivot
        for pair in (F4_A, F5_PAIR, F1_PAIR):
            d = pair.degree
            for b_value in sorted(set(pair.b)):
                k = d - b_value
                if pair.a[0] + k <= 0:
                    continue
                full = surface_generator_table(pair, k)
                reduced = pivot_syzygy_table(pair, pair.b.index(b_value) + 1)
                gens = list(full.gens)
                syz = list(full.syz)
                gens.remove(d)
                syz.remove(d)
                assert tuple(gens) == reduced.gens and tuple(syz) == reduced.syz


class TestValidate:
    def test_valid(self):
        assert validate(BettiTable((1, 1, 4), (2, 4))) == []

    def test_shape_violation(self):
        problems = validate(BettiTable((1, 1), (2, 2)))
        assert any("shape" in p for p in problems)

    def test_sum_violation(self):
        problems = validate(BettiTable((1, 1, 4), (2, 5)))
        assert any("twist sums differ" in p for p in problems)

    def test_nonpositive_twists_rejected_at_construction(self):
        with pytest.raises(InvalidTableError):
            BettiTable((0, 1), (1,))


def test_dual_families_give_complementary_branches():
    # the dual pair's shift family lands on the complementary degrees
    # (4k+1 vs 4k+3 on the line quartic), not on the same ones
    a_degrees = {raw_invariants(surface_generator_table(F4_A, k))[0] for k in range(0, 9)}
    b_pair = dual_pair(F4_A)
    b_degrees = {raw_invariants(surface_generator_table(b_pair, k))[0] for k in range(1, 10)}
    assert all(d % 4 == 1 for d in a_degrees)
    assert all(d % 4 == 3 for d in b_degrees)
