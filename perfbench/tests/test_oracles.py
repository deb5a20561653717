"""The oracles agree with hand-checked values and reject corrupted outputs."""

import json
import os

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def props():
    with open(os.path.join(ROOT, "src", "acmcurves", "data", "catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)["quartic_propositions"]


def test_signature_clamps_and_marks_big():
    # a = (0, 1), b = (2, 4), degree 5: differences 2, 4 / 1, 3
    assert oracles.signature((0, 1), (2, 4), 5) == ((2, 4), (1, 3))
    assert oracles.signature((0, 3), (3, 4), 4) == ((3, "BIG"), (0, 1))


def test_brute_force_kind_counts():
    # degree 2: ((0,0),(1,1)), and ((0,n),(1,n+1)) for n >= 1, whose
    # off-diagonal n+1 is already BIG
    assert oracles.brute_kinds(2, 4) == {
        ((1, 1), (1, 1)): ((0, 0), (1, 1)),
        ((1, "BIG"), (0, 1)): ((0, 1), (1, 2)),
    }
    # README: 104 kinds at degree 4, bound 10; 100 at bound 8
    assert len(oracles.brute_kinds(4, 10)) == 104
    assert len(oracles.brute_kinds(4, 8)) == 100


def test_kinds_problems_accepts_the_brute_force_and_rejects_a_changed_representative():
    entries = [(s, a, b) for s, (a, b) in oracles.brute_kinds(3, 6).items()]
    assert oracles.kinds_problems(3, 6, entries) == []
    sig, a, b = entries[0]
    shifted = (sig, a, tuple(x + 1 for x in b))
    assert oracles.kinds_problems(3, 6, [shifted] + entries[1:])
    assert oracles.kinds_problems(3, 6, entries[1:])  # a missing kind


def test_pinned_digests_reject_a_dropped_kind():
    entries = [(s, a, b) for s, (a, b) in oracles.brute_kinds(5, 10).items()]
    assert oracles.kinds_problems(5, 10, entries) == []
    assert oracles.kinds_problems(5, 10, entries[:-1])


def test_brute_classes_against_hand_values():
    # F4 lattice (4, 1, -2): the line C has D.D = -2, D.H = 1
    assert (0, 1) in oracles.brute_classes((4, 1, -2), -2, 1)
    for x in oracles.brute_classes((4, 1, -2), 4, 6):
        assert oracles.gram_dot((4, 1, -2), x, x) == 4
        assert oracles.gram_dot((4, 1, -2), x, (1, 0)) == 6


def test_residual_formula_and_double_linkage():
    assert oracles.residual(1, 0, 4, 1) == (3, 1)
    assert oracles.residual(*oracles.residual(5, 2, 4, 3), 4, 3) == (5, 2)


def test_betti_invariants_of_a_complete_intersection():
    # (4, 4) complete intersection: degree 16, genus 33
    assert oracles.betti_invariants((4, 4), (8,)) == (16, 33)


def test_quartic_problems_accepts_the_library_table_and_rejects_corruptions():
    import acmcurves
    from workloads import QuarticTables

    prop = props()["F4"]
    records = QuarticTables.records(acmcurves.classify_quartic(acmcurves.divisor("F4"), k_max=8))
    assert oracles.quartic_problems("F4", prop, records, 8) == []
    i = next(i for i, r in enumerate(records) if r[3] == "FAMILY_II")
    cls, degree, genus, kind, gens, syz = records[i]
    wrong_genus = records[:i] + [(cls, degree, genus + 1, kind, gens, syz)] + records[i + 1:]
    assert oracles.quartic_problems("F4", prop, wrong_genus, 8)
    assert oracles.quartic_problems("F4", prop, records[:i] + records[i + 1:], 8)
    assert oracles.quartic_problems("F4", prop, records, 9)  # k = 9 rows missing


def test_affine_expressions():
    assert oracles.affine("k-2", 5) == 3
    assert oracles.affine("-1", 5) == -1
    assert oracles.affine("k+1", 0) == 1
