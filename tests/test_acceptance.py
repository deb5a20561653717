"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from acmcurves import (
    CiProfile,
    CurveInvariants,
    DivisorClass,
    EnumerationConfig,
    anti_transpose,
    ci_table,
    classify_quartic,
    cross_check,
    degree_from_betti,
    degree_matrix,
    divisor,
    dot,
    dual_pair,
    enumerate_kinds,
    enumerate_pairs,
    genus_from_betti,
    link_is_involution_check,
    make_pair,
    match_families,
    normalize,
    pair_signature,
    residual_invariants,
    solve_classes,
    surface_generator_table,
    pivot_syzygy_table,
)
from acmcurves.catalog import kind_families
from acmcurves.picard import H
from acmcurves.reproduce import run_target


def report(number: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number}: {description} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_degree2_kinds():
    start = time.perf_counter()
    rows = run_target("degree2-kinds")
    kinds = enumerate_kinds(EnumerationConfig(2))
    elapsed = time.perf_counter() - start
    expected = {
        pair_signature(make_pair((1, 1), (2, 2))),
        pair_signature(make_pair((1, 2), (2, 3))),
    }
    ok = (
        all(r.ok for r in rows)
        and kinds.signatures() == expected
        and len(kinds) == 2
        and elapsed < 1.0
    )
    report(1, f"degree-2 kinds: exactly 2 signatures in {elapsed:.3f}s", ok)


def test_criterion_2_degree3_kinds():
    start = time.perf_counter()
    families = kind_families(3)
    kinds = enumerate_kinds(EnumerationConfig(3))
    matched = match_families(kinds, families)
    elapsed = time.perf_counter() - start
    ok = (
        len(families) == 8
        and all(ok for _, ok in matched.matched)
        and not matched.unmatched_signatures
        and all(r.ok for r in run_target("degree3-kinds"))
        and elapsed < 1.0
    )
    report(2, f"degree-3 kinds: 8 families matched, catalog fully explained, "
              f"{elapsed:.3f}s", ok)


def test_criterion_3_degree4_kinds():
    start = time.perf_counter()
    families = kind_families(4)
    paper_families = [f for f in families if f.name != "M29"]
    kinds = enumerate_kinds(EnumerationConfig(4, 8))
    sigs = kinds.signatures()
    min_matched = all(pair_signature(f.min_instance()) in sigs for f in paper_families)
    duality_ok = True
    for fam in families:
        partner = next(f for f in families if f.name == fam.dual_name)
        for env in fam.envs(7):
            mapped = fam.map_params(env)
            lhs = pair_signature(dual_pair(fam.instantiate(env)))
            rhs = pair_signature(partner.instantiate(mapped))
            if lhs != rhs or anti_transpose(
                degree_matrix(fam.instantiate(env))
            ) != degree_matrix(partner.instantiate(mapped)):
                duality_ok = False
    elapsed = time.perf_counter() - start
    ok = (
        len(paper_families) == 28
        and min_matched
        and duality_ok
        and elapsed < 5.0
    )
    report(3, f"degree-4 kinds at b_cap=8: 28 families matched, duality "
              f"identities exact, {elapsed:.3f}s", ok)


CLOSED_FORMS = [
    # (pair, degree(k), genus(k))
    (((1, 1), (2, 4)), lambda k: 4 * k + 1, lambda k: 2 * k * k + k),
    (((1, 3), (4, 4)), lambda k: 4 * k + 3, lambda k: 2 * k * k + 3 * k + 1),
    (((1, 2), (3, 4)), lambda k: 4 * k + 2, lambda k: 2 * k * k + 2 * k),
    (((1, 1), (3, 3)), lambda k: 4 * k, lambda k: 2 * k * k - 1),
    (((1, 1, 1), (2, 2, 3)), lambda k: 4 * k - 1, lambda k: 2 * k * k - k - 1),
    (((1, 2, 2), (3, 3, 3)), lambda k: 4 * k + 1, lambda k: 2 * k * k + k - 1),
    (((1, 1, 1, 1), (2, 2, 2, 2)), lambda k: 4 * k - 2, lambda k: 2 * k * k - 2 * k - 1),
]


def test_criterion_4_betti_closed_forms():
    ok = True
    for (a, b), deg, gen in CLOSED_FORMS:
        pair = make_pair(a, b)
        for k in range(0, 11):
            t = surface_generator_table(pair, k)
            # raw sums straight from the table; exact integer comparison
            twice = sum(x * x for x in t.syz) - sum(x * x for x in t.gens)
            six = sum(x ** 3 for x in t.syz) - sum(x ** 3 for x in t.gens)
            if twice % 2 or six % 6:
                ok = False
            raw_d, raw_g = twice // 2, 1 + six // 6 - twice
            if (raw_d, raw_g) != (deg(k), gen(k)):
                ok = False
            if raw_d > 0 and (degree_from_betti(t), genus_from_betti(t)) != (raw_d, raw_g):
                ok = False
    report(4, "seven degree/genus closed forms exact for k in [0, 10]", ok)


def brute_force_classes(l, self_int, dh_min, dh_max, box=50):
    out = set()
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            x = DivisorClass(a, b)
            if dot(l, x, x) == self_int and dh_min <= dot(l, x, H) <= dh_max:
                out.add(x)
    return out


def test_criterion_5_diophantine_solver():
    cases = {
        "F1": [(-2, 1, 3, set()), (0, 3, 4, set()), (2, 5, 5, set()),
               (4, 6, 6, {(0, 1), (3, -1)})],
        "F2": [(-2, 1, 3, {(0, 1)}), (0, 3, 4, set()), (2, 5, 5, {(2, -1)}),
               (4, 6, 6, set())],
        "F3": [(-2, 1, 3, set()), (0, 3, 4, {(0, 1), (2, -1)}), (2, 5, 5, set()),
               (4, 6, 6, set())],
        "F4": [(-2, 1, 3, {(0, 1)}), (0, 3, 4, {(1, -1)}), (2, 5, 5, set()),
               (4, 6, 6, set())],
        "F5": [(-2, 1, 3, {(0, 1), (1, -1)}), (0, 3, 4, set()), (2, 5, 5, set()),
               (4, 6, 6, set())],
    }
    ok = True
    for label, rows in cases.items():
        lattice = divisor(label).lattice
        for self_int, lo, hi, tabulated in rows:
            got = solve_classes(lattice, self_int, lo, hi)
            want = {DivisorClass(a, b) for a, b in tabulated}
            if got != want or got != brute_force_classes(lattice, self_int, lo, hi):
                ok = False
    report(5, "all 20 tabulated Diophantine solution sets exact and oracle-equal", ok)


def test_criterion_6_liaison_table():
    table = [
        ((1, 0), (4, 1), (3, 1)),
        ((1, 0), (4, 2), (7, 6)),
        ((1, 0), (4, 3), (11, 15)),
        ((2, 0), (4, 2), (6, 4)),
        ((2, 0), (4, 3), (10, 12)),
        ((4, 1), (4, 3), (8, 7)),
        ((3, 0), (4, 2), (5, 2)),
        ((3, 0), (4, 3), (9, 9)),
    ]
    ok = True
    for (d, g), (s, t), (rd, rg) in table:
        out = residual_invariants(CurveInvariants(d, g), CiProfile(s, t))
        if (out.degree, out.genus) != (rd, rg):
            ok = False
    rng = random.Random(1729)
    for _ in range(1000):
        s, t = rng.randint(1, 12), rng.randint(2, 12)
        c = CurveInvariants(rng.randint(1, s * t - 1), rng.randint(0, 99))
        if not link_is_involution_check(c, CiProfile(s, t)):
            ok = False
    report(6, "eight tabulated residuals exact; double linkage identity on 1000 inputs", ok)


def test_criterion_7_cross_module_consistency():
    start = time.perf_counter()
    total = 0
    ok = True
    for label in ("F1", "F2", "F3", "F4", "F5"):
        div = divisor(label)
        entries = classify_quartic(div, k_max=10)
        total += len(entries)
        if not all(cross_check(e, div.lattice) for e in entries):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(7, f"cross-check on all {total} entries (k_max=10) in {elapsed:.3f}s", ok)


def test_criterion_8_low_degree_corollaries():
    rows = run_target("low-degree-corollaries")
    report(8, "smooth quadric and cubic resolution families match exactly",
           all(r.ok for r in rows))


def test_criterion_9_property_suites():
    ok = True
    for d in range(2, 7):
        for p in enumerate_pairs(EnumerationConfig(d, 2 * d)):
            m = degree_matrix(p)
            for i in range(m.n):
                for j in range(m.n):
                    if m.entries[i][j] > 0 and m.entries[j][i] >= d:
                        ok = False
            if dual_pair(dual_pair(p)) != normalize(p):
                ok = False
            if degree_matrix(dual_pair(p)) != anti_transpose(m):
                ok = False
    tables = [ci_table(f, g) for f in range(1, 7) for g in range(1, 7)]
    for (a, b), _, _ in CLOSED_FORMS:
        pair = make_pair(a, b)
        tables += [surface_generator_table(pair, k) for k in range(0, 7)]
        tables += [
            pivot_syzygy_table(pair, j0) for j0 in range(1, pair.length + 1)
        ]
    if not all(sum(t.gens) == sum(t.syz) for t in tables):
        ok = False
    report(9, "lemma, duality, and twist-balance properties over d <= 6", ok)
