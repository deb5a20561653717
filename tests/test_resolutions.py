from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from acmcurves import (
    BettiTable,
    CurveInvariants,
    EnumerationConfig,
    InvalidTableError,
    ci_table,
    degree_from_betti,
    dual_pair,
    enumerate_pairs,
    genus_from_betti,
    invariants_from_betti,
    make_pair,
    surface_generator_table,
    pivot_syzygy_table,
    validate,
)
from acmcurves import classifier
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


def without(table, twist):
    """`table` with one `twist` cancelled from each side."""
    gens, syz = list(table.gens), list(table.syz)
    gens.remove(twist)
    syz.remove(twist)
    return BettiTable(gens, syz)


def built(constructor, *args):
    try:
        return constructor(*args)
    except InvalidTableError:
        return InvalidTableError


class TestCancellation:
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
                assert without(full, d) == reduced

    @settings(max_examples=300)
    @given(weak_pairs())
    def test_a_shared_twist_cancels_to_the_shorter_pairs_tables(self, p):
        # the proof in classifier._shares_a_twist: a pair with x in both a
        # and b has the tables of the shorter pair that lacks one x on each
        # side, after cancelling a twist on both sides of each table
        d = p.degree
        for x in sorted(set(p.a) & set(p.b)):
            a, b = list(p.a), list(p.b)
            a.remove(x)
            b.remove(x)
            if len(a) < 2:
                continue  # a length-2 pair sharing a twist has no shorter pair
            q = make_pair(a, b)
            assert q.degree == d
            for k in range(1 - p.a[0], 9 - p.a[0]):
                assert without(surface_generator_table(p, k), x + k) == \
                    surface_generator_table(q, k)
            for j0, y in enumerate(p.b, 1):
                table = built(pivot_syzygy_table, p, j0)
                if y == x:  # the pivot on x is the shorter pair's case ii at k = d - x
                    assert table == built(surface_generator_table, q, d - x)
                elif table is InvalidTableError:
                    assert built(pivot_syzygy_table, q, q.b.index(y) + 1) is InvalidTableError
                else:
                    assert without(table, d - y + x) == pivot_syzygy_table(q, q.b.index(y) + 1)


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


@pytest.mark.parametrize("degree,tables", [(2, 14), (3, 42), (4, 111), (5, 264),
                                           (6, 628), (7, 1457)])
def test_hodge_index_on_every_irreducible_kind(degree, tables):
    # a curve of degree e and genus g on a smooth surface S of degree d has
    # C.H = e and, by adjunction with K_S = (d - 4)H, C^2 = 2g - 2 - (d - 4)e;
    # the Hodge index makes H^2 C^2 - (C.H)^2 negative unless C is a multiple
    # of H.  Checked on every table with g >= 0 of every irreducible kind,
    # shifted by 1: case ii at k = -1..11 and case iii at every pivot.  The
    # pinned count of such tables fails a range that shrinks
    checked = 0
    for p in classifier._irreducible_pairs(degree):
        p = p.shift(1)
        for build, args in [(surface_generator_table, range(-1, 12)),
                            (pivot_syzygy_table, range(1, p.length + 1))]:
            for arg in args:
                try:  # a table that does not construct, or has no invariants
                    t = build(p, arg)
                    e, g = invariants_from_betti(t)
                except InvalidTableError:
                    continue
                if g >= 0:
                    checked += 1
                    assert degree * (2 * g - 2 - (degree - 4) * e) - e * e < 0, (p, t)
    assert checked == tables


# The constructors build their twists in ascending order and skip the
# re-sort; the reference is BettiTable, which sorts and checks every twist,
# fed the twists of the module docstring's formulas.

def reference(gens, syz):
    try:
        return BettiTable(gens, syz)
    except InvalidTableError:
        return InvalidTableError


def case_ii_twists(p, k):
    # gens = {a_i + k} + {d},  syz = {b_j + k}
    return [a + k for a in p.a] + [p.degree], [b + k for b in p.b]


def case_iii_twists(p, j0):
    # gens = {d - b_j0 + a_i},  syz = {d - b_j0 + b_i} for i != j0
    shift = p.degree - p.b[j0 - 1]
    return [shift + a for a in p.a], [shift + b for i, b in enumerate(p.b, 1) if i != j0]


# every normalized pair of degrees 2-5 with b_t <= 12: 3604 pairs
ENUMERATED = [p for d in range(2, 6) for p in enumerate_pairs(EnumerationConfig(d, 12))]


class TestConstructorsEqualTheReference:
    def test_case_ii_at_every_shift(self):
        for p in ENUMERATED:
            least = 1 - p.a[0]  # the least shift with every twist positive
            assert built(surface_generator_table, p, least - 1) is InvalidTableError, p
            assert reference(*case_ii_twists(p, least - 1)) is InvalidTableError, p
            for k in range(least, 31):
                t = surface_generator_table(p, k)
                assert t == reference(*case_ii_twists(p, k)), (p, k)

    def test_case_iii_at_every_pivot(self):
        refused = 0
        for p in ENUMERATED:
            for j0 in range(1, p.length + 1):
                want = reference(*case_iii_twists(p, j0))
                assert built(pivot_syzygy_table, p, j0) == want, (p, j0)
                refused += want is InvalidTableError
            for j0 in (0, p.length + 1):
                with pytest.raises(ValueError, match=f"pivot index {j0} out of range"):
                    pivot_syzygy_table(p, j0)
        assert refused > 0  # some pivots shift a twist below 1

    def test_ci_in_both_orders(self):
        for f, g in product(range(1, 61), repeat=2):
            assert ci_table(f, g) == BettiTable((f, g), (f + g,)), (f, g)

    @given(weak_pairs(max_degree=8, max_shift=20), st.integers(-30, 30), st.data())
    def test_shifted_pairs_and_negative_shifts(self, p, k, data):
        assert built(surface_generator_table, p, k) == reference(*case_ii_twists(p, k))
        j0 = data.draw(st.integers(1, p.length))
        assert built(pivot_syzygy_table, p, j0) == reference(*case_iii_twists(p, j0))

    @given(st.lists(st.integers(-3, 9), max_size=4), st.lists(st.integers(-3, 9), max_size=4))
    def test_table_checks_the_least_twist_of_each_side(self, gens, syz):
        # unsorted input, empty sides included: after its sort BettiTable
        # checks one twist per side, and refuses what a check of every twist
        # refuses
        if any(x <= 0 for x in gens + syz):
            assert reference(gens, syz) is InvalidTableError
        else:
            assert reference(gens, syz) == (tuple(sorted(gens)), tuple(sorted(syz)))
