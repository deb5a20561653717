import math
from argparse import Namespace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from acmcurves import (
    DivisorClass,
    H,
    PicardLattice,
    adjunction_genus,
    dot,
    plane_curve_classes,
    quartic_lattice,
    solve_classes,
    watanabe_candidates,
)
from acmcurves import picard
from acmcurves.classifier import _lattice_invariants
from acmcurves.cli import _picard_plane, _picard_solve
from conftest import brute_force_classes

F1_L = quartic_lattice(6, 3)
F2_L = quartic_lattice(3, 0)
F3_L = quartic_lattice(4, 1)
F4_L = quartic_lattice(1, 0)
F5_L = quartic_lattice(2, 0)
CATALOG = (F1_L, F2_L, F3_L, F4_L, F5_L)


def classes(*pairs):
    return {DivisorClass(a, b) for a, b in pairs}


class TestLattices:
    def test_catalog_grams(self):
        assert (F4_L.h2, F4_L.hc, F4_L.c2) == (4, 1, -2)
        assert (F1_L.h2, F1_L.hc, F1_L.c2) == (4, 6, 4)
        assert (F2_L.h2, F2_L.hc, F2_L.c2) == (4, 3, -2)

    def test_rejects_nonnegative_determinant(self):
        with pytest.raises(ValueError, match="determinant"):
            quartic_lattice(6, 10)

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError, match="even"):
            PicardLattice(4, 1, -1)

    @pytest.mark.parametrize("h2", [0, -2])
    def test_rejects_nonpositive_h2(self, h2):
        # (0, 1, 0) is even with determinant -1, but H^2 is the surface degree
        with pytest.raises(ValueError, match="surface degree"):
            PicardLattice(h2, 1, 0)


class TestDot:
    def test_examples(self):
        assert dot(F4_L, DivisorClass(0, 1), DivisorClass(0, 1)) == -2
        assert dot(F5_L, H, DivisorClass(0, 1)) == 2
        assert dot(F1_L, DivisorClass(0, 0), DivisorClass(3, -5)) == 0

    @given(st.sampled_from(CATALOG), st.tuples(*(st.integers(-30, 30),) * 6))
    def test_symmetric_and_bilinear(self, l, coords):
        x = DivisorClass(coords[0], coords[1])
        y = DivisorClass(coords[2], coords[3])
        z = DivisorClass(coords[4], coords[5])
        assert dot(l, x, y) == dot(l, y, x)
        xy = DivisorClass(x.a + y.a, x.b + y.b)
        assert dot(l, xy, z) == dot(l, x, z) + dot(l, y, z)

    @given(st.sampled_from(CATALOG), st.integers(-30, 30), st.integers(-30, 30))
    def test_self_intersection_even(self, l, a, b):
        assert dot(l, DivisorClass(a, b), DivisorClass(a, b)) % 2 == 0


class TestAdjunction:
    def test_examples(self):
        assert adjunction_genus(F4_L, DivisorClass(2, 0)) == 9
        assert adjunction_genus(F4_L, DivisorClass(1, -1)) == 1
        assert adjunction_genus(F1_L, DivisorClass(0, 1)) == 3

    @given(st.sampled_from(CATALOG), st.integers(1, 12))
    def test_hyperplane_multiples(self, l, a):
        x = DivisorClass(a, 0)
        assert dot(l, x, H) == 4 * a
        assert adjunction_genus(l, x) == 2 * a * a + 1


TABULATED_CASES = [
    (F4_L, -2, 1, 3, classes((0, 1))),
    (F4_L, 0, 3, 4, classes((1, -1))),
    (F4_L, 2, 5, 5, classes()),
    (F4_L, 4, 6, 6, classes()),
    (F5_L, -2, 1, 3, classes((0, 1), (1, -1))),
    (F5_L, 0, 3, 4, classes()),
    (F5_L, 2, 5, 5, classes()),
    (F5_L, 4, 6, 6, classes()),
    (F3_L, -2, 1, 3, classes()),
    (F3_L, 0, 3, 4, classes((0, 1), (2, -1))),
    (F3_L, 2, 5, 5, classes()),
    (F3_L, 4, 6, 6, classes()),
    (F2_L, -2, 1, 3, classes((0, 1))),
    (F2_L, 0, 3, 4, classes()),
    (F2_L, 2, 5, 5, classes((2, -1))),
    (F2_L, 4, 6, 6, classes()),
    (F1_L, -2, 1, 3, classes()),
    (F1_L, 0, 3, 4, classes()),
    (F1_L, 2, 5, 5, classes()),
    (F1_L, 4, 6, 6, classes((0, 1), (3, -1))),
]


class TestSolveClasses:
    @pytest.mark.parametrize("l,self_int,lo,hi,expected", TABULATED_CASES)
    def test_tabulated_solution_sets(self, l, self_int, lo, hi, expected):
        got = solve_classes(l, self_int, lo, hi)
        assert got == expected
        assert got == brute_force_classes(l, self_int, lo, hi)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="empty"):
            solve_classes(F4_L, 0, 3, 2)

    @settings(max_examples=200)
    @given(
        st.sampled_from((2, 4, 6, 8)),
        st.integers(-20, 20),
        st.integers(-6, 2),
        st.integers(-20, 20),
        st.integers(-150, 150),
        st.integers(1, 20000),
    )
    # hc = 4*10^499 + 1 gives a 1000-digit -det, far longer than the span:
    # the plain scan, with no class at D^2 = 0 and only H at D^2 = 4
    @example(h2=4, hc=4 * 10**499 + 1, half_c2=-1, self_int=0, dh=1, span=300)
    @example(h2=4, hc=4 * 10**499 + 1, half_c2=-1, self_int=4, dh=1, span=300)
    # the squares sieve mod 16, 144 and 720 (-det = 57, 17 and 13)
    @example(h2=8, hc=5, half_c2=-2, self_int=2, dh=-150, span=20000)
    @example(h2=4, hc=3, half_c2=-1, self_int=2, dh=-150, span=20000)
    @example(h2=6, hc=1, half_c2=-1, self_int=0, dh=-150, span=20000)
    def test_matches_oracle_on_random_lattices(self, h2, hc, half_c2, self_int, dh, span):
        c2 = 2 * half_c2
        if h2 * c2 - hc * hc >= 0:
            return
        l = PicardLattice(h2, hc, c2)
        got = solve_classes(l, self_int, dh, dh + span - 1)
        want = set().union(
            *(slice_oracle(h2, hc, c2, self_int, e) for e in range(dh, dh + span))
        )
        assert got == want
        if hc > 10**499:
            assert len(str(-l.det)) == 1000 and got == ({H} if self_int == 4 else set())


class TestWatanabe:
    def test_case_families(self):
        cases = {c.label: c.classes for c in watanabe_candidates(F2_L)}
        assert cases["D2=2, D.H=5"] == classes((2, -1))
        assert cases["D2=-2, 1<=D.H<=3"] == classes((0, 1))

    def test_side_condition_only_on_last_case(self):
        cases = watanabe_candidates(F3_L)
        assert [bool(c.side_condition) for c in cases] == [False, False, False, True]

    def test_arithmetic_candidate_excluded_downstream(self):
        cases = {c.label: c.classes for c in watanabe_candidates(F4_L)}
        assert cases["D2=0, 3<=D.H<=4"] == classes((1, -1))


class TestPlaneCurves:
    def test_examples(self):
        assert plane_curve_classes(F4_L, 4) == classes((0, 1), (1, 0), (1, -1))
        assert plane_curve_classes(F1_L, 6) == classes((1, 0))
        assert plane_curve_classes(F5_L, 4) == classes((0, 1), (1, 0), (1, -1))

    def test_only_hyperplane_on_the_other_divisors(self):
        assert plane_curve_classes(F2_L, 4) == classes((1, 0))
        assert plane_curve_classes(F3_L, 4) == classes((1, 0))

    def test_oracle(self):
        for l in CATALOG:
            got = plane_curve_classes(l, 5)
            want = set()
            for e in range(1, 6):
                want |= brute_force_classes(l, (e - 1) * (e - 2) - 2, e, e)
            assert got == want

    def test_requires_positive_bound(self):
        with pytest.raises(ValueError):
            plane_curve_classes(F4_L, 0)


# the Gram matrices of the tests above: the five quartic lattices, and every
# lattice (4, hc, c2) the random-lattice oracle test draws from
PLANE_GRAMS = sorted(
    {(l.h2, l.hc, l.c2) for l in CATALOG}
    | {(4, hc, c2) for hc in range(9) for c2 in range(-12, 5, 2) if 4 * c2 < hc * hc}
)


@pytest.mark.parametrize("gram", PLANE_GRAMS, ids=str)
def test_plane_curves_equal_the_per_degree_union(gram):
    l = PicardLattice(*gram)
    # the reference: one solve_classes call per degree e, as plane curves of
    # degree e have genus (e-1)(e-2)/2, i.e. D^2 = (e-1)(e-2) - 2
    union = set()
    for dh_max in range(1, 201):
        union |= solve_classes(l, (dh_max - 1) * (dh_max - 2) - 2, dh_max, dh_max)
        assert plane_curve_classes(l, dh_max) == union, f"dh_max {dh_max}"


@pytest.mark.parametrize("gram", PLANE_GRAMS, ids=str)
def test_cli_lists_classes_in_divisor_class_order(gram):
    # the CLI sorts the [a, b] lists; the reference is DivisorClass's order
    l = PicardLattice(*gram)
    for self_int in range(-10, 11):
        for lo, hi in ((0, 10), (-60, 200)):
            doc, _ = _picard_solve(Namespace(gram=list(gram), self_int=self_int, dh=(lo, hi)))
            want = [c.to_json() for c in sorted(solve_classes(l, self_int, lo, hi))]
            assert doc == {"classes": want}, (self_int, lo, hi)
    doc, _ = _picard_plane(Namespace(gram=list(gram), dh_max=200))
    assert doc == {"classes": [c.to_json() for c in sorted(plane_curve_classes(l, 200))]}


def lattice_invariants_mismatches(l: PicardLattice) -> list[DivisorClass]:
    """The classes with |a|, |b| <= 30 whose one-expression (D.H, genus)
    in the classifier differs from the public `dot` and `adjunction_genus`."""
    return [x for a in range(-30, 31) for b in range(-30, 31)
            if _lattice_invariants(l, x := DivisorClass(a, b))
            != (dot(l, x, H), adjunction_genus(l, x))]


@pytest.mark.parametrize("gram", PLANE_GRAMS, ids=str)
def test_lattice_invariants_equal_dot_and_adjunction_genus(gram):
    assert lattice_invariants_mismatches(PicardLattice(*gram)) == []


# the lattices of the random-lattice oracle test above
@given(st.sampled_from((2, 4, 6, 8)), st.integers(-20, 20), st.integers(-6, 2))
def test_lattice_invariants_equal_dot_and_adjunction_genus_on_random_lattices(h2, hc, half_c2):
    if h2 * 2 * half_c2 - hc * hc >= 0:
        return
    assert lattice_invariants_mismatches(PicardLattice(h2, hc, 2 * half_c2)) == []


@pytest.mark.parametrize("gram", PLANE_GRAMS, ids=str)
def test_translation_by_h_maps_slice_onto_slice(gram):
    # D -> D + H sends the slice (D.H, D^2) = (e, s) one to one onto
    # (e + h2, s + 2e + h2)
    l = PicardLattice(*gram)
    hit = 0
    for e in range(-12, 41):
        for s in range(-12, 19, 2):
            base = solve_classes(l, s, e, e)
            moved = solve_classes(l, s + 2 * e + l.h2, e + l.h2, e + l.h2)
            assert moved == {DivisorClass(c.a + 1, c.b) for c in base}, (e, s)
            hit += bool(base)
    assert hit


def slice_oracle(h2, hc, c2, self_int, dh):
    """Classes D = aH + bC with D.H = dh and D.D = self_int, read off
    h2*D^2 = (D.H)^2 + det*b^2: b^2 = (dh^2 - h2*self_int) / -det must be
    a square, and a = (dh - hc*b) / h2 an integer."""
    det = h2 * c2 - hc * hc
    b_squared, rem = divmod(dh * dh - h2 * self_int, -det)
    if rem or b_squared < 0:
        return set()
    b = math.isqrt(b_squared)
    if b * b != b_squared:
        return set()
    return {DivisorClass((dh - hc * y) // h2, y) for y in (b, -b) if (dh - hc * y) % h2 == 0}


# every even h2 in 2..6 and hc in -7..7 (hc = 0 and gcd(h2, hc) > 1 included),
# with every even c2 from -12 up to the last one of negative determinant
FULL_RANGE_GRAMS = [
    (h2, hc, c2)
    for h2 in (2, 4, 6)
    for hc in range(-7, 8)
    for c2 in range(-12, (hc * hc - 1) // h2 + 1)
    if c2 % 2 == 0
]


@pytest.mark.parametrize("h2", (2, 4, 6))
def test_solver_equals_the_slice_oracle_over_full_ranges(h2):
    grams = [g for g in FULL_RANGE_GRAMS if g[0] == h2]
    assert {hc for _, hc, _ in grams} == set(range(-7, 8))
    for gram in grams:
        l = PicardLattice(*gram)
        delta = -l.det
        assert 0 < delta < 261
        # -60..200 is longer than every -det here, so the solver visits only
        # the residues of its congruence; a window shorter than -det takes
        # the plain scan, and a window past the isotropic bound (|N| + 1)/2
        # checks the clip when -det is a square
        for self_int in range(-12, 19):
            windows = [(-60, 200)]
            if delta > 1:
                windows.append((-(delta // 2), delta - 2 - delta // 2))
            if math.isqrt(delta) ** 2 == delta:
                bound = (abs(h2 * self_int) + 1) // 2
                windows.append((-bound - 3, bound + 3))
            for lo, hi in windows:
                want = set().union(*(slice_oracle(*gram, self_int, dh) for dh in range(lo, hi + 1)))
                assert solve_classes(l, self_int, lo, hi) == want, (gram, self_int, lo, hi)
        plane = set().union(
            *(slice_oracle(*gram, (e - 1) * (e - 2) - 2, e) for e in range(1, 201))
        )
        assert plane_curve_classes(l, 200) == plane, gram


# small non-square -det (5, 8, 13 and 17) at self-intersections whose
# congruence has roots, N = h2*s = 0 included
SIEVE_CASES = [
    ((2, 1, -2), s) for s in (-2, 0, 2, 8)
] + [((2, 0, -4), s) for s in (-2, 0)] + [((6, 1, -2), 0), ((4, 1, -4), 0)]


@pytest.mark.parametrize("gram,self_int", SIEVE_CASES, ids=str)
def test_solver_equals_the_slice_oracle_at_every_sieve_modulus(gram, self_int):
    # the window of span -det*M*(roots + 1) is the shortest that lifts the
    # residue list to mod -det*M, for each step M of the ladder; it starts
    # below 0 so that the lifted residues are offset from its first degree
    h2, hc, c2 = gram
    delta, n = hc * hc - h2 * c2, h2 * self_int
    roots = sum((r * r - n) % delta == 0 for r in range(delta))
    assert math.isqrt(delta) ** 2 != delta and roots
    l = PicardLattice(*gram)
    for k in picard._SIEVE_MODULI:
        span = delta * k * (roots + 1)
        lo = -(span // 3)
        want = set().union(*(slice_oracle(*gram, self_int, dh) for dh in range(lo, lo + span)))
        assert want and solve_classes(l, self_int, lo, lo + span - 1) == want, (k, lo)


@pytest.mark.parametrize("gram,self_int", [
    ((2, 1, 0), 38), ((4, 2, 0), 18), ((4, 1, -2), 10), ((4, 1, -2), 0),
    ((2, 1, -2), 2), ((6, 1, -2), 0),
], ids=str)
def test_the_sieve_is_lifted_exactly_when_delta_is_not_a_square(gram, self_int, monkeypatch):
    # the solver takes one isqrt of -det, then one of b^2 = (e^2 - h2*s)/-det
    # per degree e it tests.  Over a clipped range a square -det (1, 4 or 9)
    # tests every degree of its congruence with b^2 >= 0; a non-square one
    # (5 or 13) tests fewer
    taken = []

    def isqrt(x):
        taken.append(x)
        return math.isqrt(x)

    l = PicardLattice(*gram)
    delta, n = -l.det, gram[0] * self_int
    square = math.isqrt(delta) ** 2 == delta
    bound = (abs(n) + 1) // 2 if square and n else 10**4
    congruent = [
        (e * e - n) // delta for e in range(-bound, bound + 1)
        if (e * e - n) % delta == 0 and e * e >= n
    ]
    monkeypatch.setattr(picard, "math", SimpleNamespace(isqrt=isqrt))
    solve_classes(l, self_int, -(10**4), 10**4)
    assert taken[0] == delta
    if square:
        assert sorted(taken[1:]) == sorted(congruent)
    else:
        assert len(taken) - 1 < len(congruent)


@settings(max_examples=40)
@given(st.sampled_from((2, 4, 6, 8)), st.integers(-20, 20), st.integers(-6, 2))
def test_every_class_meets_the_congruence_and_the_isotropic_bound(h2, hc, half_c2):
    """The facts of the picard docstring, on every class of a box,
    computed from the Gram matrix and not from the solver's identity."""
    c2 = 2 * half_c2
    if h2 * c2 - hc * hc >= 0:
        return
    l = PicardLattice(h2, hc, c2)
    delta = -l.det
    m = math.isqrt(delta)
    squares = {k: {x * x % k for x in range(k)} for k in (16, 144, 720)}
    for a in range(-30, 31):
        for b in range(-30, 31):
            x = DivisorClass(a, b)
            e, n = dot(l, x, H), h2 * dot(l, x, x)
            assert (e * e - n) % delta == 0, (x, l)
            for k, table in squares.items():
                assert (e * e - n) // delta % k in table, (x, l, k)
            if m * m == delta and n != 0:
                assert 2 * abs(e) <= abs(n) + 1, (x, l)


@settings(max_examples=40)
@given(st.sampled_from((2, 4, 6, 8)), st.integers(-20, 20), st.integers(-6, 2))
def test_no_plane_curve_class_has_a_degree_past_3h2_over_h2_minus_1(h2, hc, half_c2):
    """The plane_curve_classes bound, on every class of a box: a class of
    degree e >= 1 with D^2 = e^2 - 3e has (h2 - 1)*e <= 3*h2, so e <= 6."""
    c2 = 2 * half_c2
    if h2 * c2 - hc * hc >= 0:
        return
    l = PicardLattice(h2, hc, c2)
    for a in range(-30, 31):
        for b in range(-30, 31):
            x = DivisorClass(a, b)
            e = dot(l, x, H)
            if e >= 1 and dot(l, x, x) == e * e - 3 * e:
                assert (h2 - 1) * e <= 3 * h2 and e <= 6, (x, l)
