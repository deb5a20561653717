import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from acmcurves import (
    BIG,
    DegreeMatrix,
    PairError,
    WeakAdmissiblePair,
    anti_transpose,
    degree_matrix,
    dual_pair,
    is_reducible_type,
    kind_signature,
    make_pair,
    normalize,
    pair_signature,
)
from acmcurves.enumeration import signature_table
from conftest import weak_pairs


def rows(m):
    return [list(r) for r in m.entries]


class TestMakePair:
    def test_valid(self):
        p = make_pair((1, 1), (2, 4))
        assert p.degree == 4
        assert p.length == 2
        assert make_pair((0, 0, 1), (1, 2, 2)).degree == 4

    def test_gap_violation_names_index(self):
        with pytest.raises(PairError, match=r"a_i < b_i violated at index 2"):
            make_pair((1, 2), (2, 2))

    def test_monotonicity(self):
        with pytest.raises(PairError, match="a is not nondecreasing"):
            make_pair((2, 1), (3, 4))
        with pytest.raises(PairError, match="b is not nondecreasing"):
            make_pair((1, 1), (4, 3))

    def test_length(self):
        with pytest.raises(PairError, match="at least 2"):
            make_pair((1,), (2,))
        with pytest.raises(PairError, match="differ in length"):
            make_pair((1, 1), (2, 2, 2))


def three_checks(a, b):
    """The pair's three checks, one after another: the text of the first
    that fails, or None.  The one-pass loop must agree with them."""
    if len(a) != len(b):
        return f"sequences differ in length ({len(a)} vs {len(b)})"
    if len(a) < 2:
        return f"length must be at least 2, got {len(a)}"
    for i in range(1, len(a)):
        if a[i] < a[i - 1]:
            return f"a is not nondecreasing at index {i + 1}"
    for i in range(1, len(b)):
        if b[i] < b[i - 1]:
            return f"b is not nondecreasing at index {i + 1}"
    for i, (ai, bi) in enumerate(zip(a, b)):
        if ai >= bi:
            return f"a_i < b_i violated at index {i + 1}"
    return None


@st.composite
def short_tuples(draw):
    """Two short integer tuples: half of them unrelated (often of unequal
    lengths), the rest a sorted a with b_i = a_i + g_i for g_i in -1..2,
    b sorted or not, so that many are valid or off at one index."""
    ints = st.lists(st.integers(-2, 5), max_size=5)
    if draw(st.booleans()):
        return tuple(draw(ints)), tuple(draw(ints))
    a = sorted(draw(ints))
    b = [x + draw(st.integers(-1, 2)) for x in a]
    if draw(st.booleans()):
        b.sort()
    return tuple(a), tuple(b)


@settings(max_examples=500)
@given(short_tuples())
def test_one_pass_checks_agree_with_the_three_checks(ab):
    a, b = ab
    fault = three_checks(a, b)
    if fault is None:
        assert WeakAdmissiblePair(a, b).b == b
    else:
        with pytest.raises(PairError) as err:
            WeakAdmissiblePair(a, b)
        assert str(err.value) == fault


class TestNormalize:
    def test_examples(self):
        assert normalize(make_pair((1, 1), (2, 4))) == make_pair((0, 0), (1, 3))
        assert normalize(make_pair((0, 2), (2, 4))) == make_pair((0, 2), (2, 4))
        assert normalize(make_pair((5, 7), (6, 9))) == make_pair((0, 2), (1, 4))

    @given(weak_pairs())
    def test_idempotent_and_matrix_preserving(self, p):
        q = normalize(p)
        assert q.a[0] == 0
        assert normalize(q) == q
        assert degree_matrix(q) == degree_matrix(p)
        assert normalize(p) == normalize(q)


class TestDegreeMatrix:
    def test_examples(self):
        assert rows(degree_matrix(make_pair((1, 1), (2, 4)))) == [[1, 3], [1, 3]]
        assert rows(degree_matrix(make_pair((0, 2), (2, 4)))) == [[2, 4], [0, 2]]
        assert rows(degree_matrix(make_pair((1, 1), (2, 2)))) == [[1, 1], [1, 1]]

    @given(weak_pairs())
    def test_trace_equals_degree(self, p):
        assert degree_matrix(p).trace == p.degree

    @given(weak_pairs())
    def test_entries_are_clamped_differences(self, p):
        m = degree_matrix(p)
        assert m.entries == tuple(tuple(max(bj - ai, 0) for bj in p.b) for ai in p.a)

    @given(weak_pairs())
    def test_lemma_big_entries_force_small_mirror(self, p):
        # m_ij > 0 implies m_ji < d
        m = degree_matrix(p)
        d = p.degree
        for i in range(len(m.entries)):
            for j in range(len(m.entries)):
                if m.entries[i][j] > 0:
                    assert m.entries[j][i] < d

    def test_declared_degree_must_match_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DegreeMatrix(5, ((1, 3), (1, 3)))

    @pytest.mark.parametrize("entries,message", [
        (((1,),), "square matrix of size >= 2"),
        (((1, 3), (1,)), "square matrix of size >= 2"),
        (((1, 3, 0), (1, 3, 0)), "square matrix of size >= 2"),
        (((1, -3), (1, 3)), "nonnegative"),
        (((1, 3), (-1, 3)), "nonnegative"),
    ])
    def test_rejects_malformed_entries(self, entries, message):
        with pytest.raises(ValueError, match=message):
            DegreeMatrix(4, entries)


class TestDual:
    def test_matrix_examples(self):
        assert rows(degree_matrix(dual_pair(make_pair((0, 3), (3, 4))))) == [[1, 4], [0, 3]]
        assert rows(degree_matrix(dual_pair(make_pair((1, 1), (2, 4))))) == [[3, 3], [1, 1]]
        self_dual = make_pair((1, 2), (3, 4))
        assert normalize(dual_pair(self_dual)) == normalize(self_dual)

    @given(weak_pairs())
    def test_involution(self, p):
        assert dual_pair(dual_pair(p)) == normalize(p)

    @given(weak_pairs())
    def test_anti_transpose_identity(self, p):
        assert degree_matrix(dual_pair(p)) == anti_transpose(degree_matrix(p))


class TestKindSignature:
    def test_big_threshold(self):
        m5_0 = degree_matrix(make_pair((0, 2), (2, 4)))
        m5_7 = degree_matrix(make_pair((0, 9), (2, 11)))
        assert kind_signature(m5_0) == kind_signature(m5_7)
        assert kind_signature(m5_0).cells == ((2, BIG), (0, 2))

    def test_all_small(self):
        sig = pair_signature(make_pair((1, 1), (2, 4)))
        assert sig.cells == ((1, 3), (1, 3))

    def test_mixed_three_by_three(self):
        # ((0, 2+m, 2+n), (2, 3+m, 3+n)) at (m, n) = (0, 5)
        sig = pair_signature(make_pair((0, 2, 7), (2, 3, 8)))
        assert sig.cells == ((2, 3, BIG), (0, 1, BIG), (0, 0, 1))

    @given(weak_pairs())
    def test_catalog_table_matches_matrix_reference(self, p):
        # weak_pairs draws unnormalized, shifted pairs up to degree 8; the
        # catalog's table reads normalized pairs with entries in 0..top
        q = normalize(p)
        rows = signature_table(p.degree, max(q.b))
        assert rows(q.a, q.b) == kind_signature(degree_matrix(p)).cells

    def test_largest_accepted_pair(self):
        # the CLI accepts 1000 entries: a of 500 zeros then 500 ones, b of
        # 500 ones then 500 twos has d = 1000 and no BIG cell, so its kind
        # is its matrix
        p = make_pair((0,) * 500 + (1,) * 500, (1,) * 500 + (2,) * 500)
        cells = pair_signature(p).cells
        assert cells == ((1,) * 500 + (2,) * 500,) * 500 + ((0,) * 500 + (1,) * 500,) * 500

    def test_one_off_signatures_keep_nothing(self):
        # 2 000 normalized pairs of degree 30 and length 8: gaps b_i - a_i
        # summing to 30, and a grown so that b stays nondecreasing
        rng = random.Random(1)
        pairs = []
        for _ in range(2000):
            cuts = sorted(rng.sample(range(1, 30), 7))
            gaps = [y - x for x, y in zip([0, *cuts], [*cuts, 30])]
            a = [0]
            for g0, g1 in zip(gaps, gaps[1:]):
                a.append(a[-1] + max(g0 - g1, 0) + rng.randrange(8))
            pairs.append(make_pair(a, [x + g for x, g in zip(a, gaps)]))
        gc.collect()
        tracemalloc.start()
        try:
            for p in pairs:
                pair_signature(p)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 16 * 2**10

    @pytest.mark.parametrize("a,b", [((0, 2), (1, 1)), ((0, 3), (2, 1)), ((1, 1, 5), (2, 4, 3))])
    def test_wrong_trace_raises_alike(self, a, b):
        # built without validation: some b_i <= a_i, so trace != degree;
        # the matrix refuses it
        p = tuple.__new__(WeakAdmissiblePair, (a, b))
        with pytest.raises(ValueError, match="^trace "):
            kind_signature(degree_matrix(p))

    @given(weak_pairs())
    def test_equal_signatures_share_zero_positions(self, p):
        m = degree_matrix(p)
        sig = kind_signature(m)
        zeros = {
            (i, j)
            for i in range(len(m.entries))
            for j in range(len(m.entries))
            if m.entries[i][j] == 0
        }
        cells = enumerate(sig.cells)
        assert {(i, j) for i, row in cells for j, c in enumerate(row) if c == 0} == zeros

    @given(weak_pairs())
    def test_diagonal_cells_stay_small(self, p):
        sig = pair_signature(p)
        for i in range(len(sig.cells)):
            c = sig.cells[i][i]
            assert isinstance(c, int) and 0 < c < sig.degree


class TestReducibleType:
    def test_examples(self):
        assert is_reducible_type(degree_matrix(make_pair((0, 2), (2, 4))))
        assert not is_reducible_type(degree_matrix(make_pair((1, 1), (3, 3))))
        assert not is_reducible_type(degree_matrix(make_pair((1,) * 4, (2,) * 4)))

    @given(weak_pairs())
    def test_invariant_under_anti_transpose(self, p):
        m = degree_matrix(p)
        assert is_reducible_type(m) == is_reducible_type(anti_transpose(m))


def test_json_round_trips():
    p = make_pair((1, 1), (2, 4))
    assert make_pair(**p.to_json()) == p
    m = degree_matrix(p)
    assert m.to_json() == {"degree": 4, "entries": [[1, 3], [1, 3]]}
    sig = kind_signature(degree_matrix(make_pair((0, 2), (2, 4))))
    assert json.loads(json.dumps(sig.to_json())) == {
        "degree": 4,
        "cells": [[2, "BIG"], [0, 2]],
    }
