import json
import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from acmcurves import (
    BettiTable,
    CiProfile,
    ClassificationEntry,
    CurveInvariants,
    DivisorClass,
    classify_low_degree,
    classify_quartic,
    cross_check,
    divisor,
    known_divisors,
    make_pair,
    residual_invariants,
)
from acmcurves.classifier import (
    COMPLETE_INTERSECTION,
    ClassificationError,
    FAMILY_II,
    FAMILY_III,
    RESIDUAL,
    RIGID,
    rigid_classes,
)
from acmcurves import catalog, classifier, cli
from acmcurves.cli import run
from acmcurves.enumeration import EnumerationConfig, enumerate_kinds, enumerate_pairs
from acmcurves.pairs import degree_matrix, dual_pair, is_reducible_type, pair_signature
from acmcurves.catalog import eval_affine, parse_affine
from acmcurves.picard import H, PicardLattice, adjunction_genus, dot, solve_classes
from acmcurves.resolutions import (
    InvalidTableError, invariants_from_betti, pivot_syzygy_table, surface_generator_table,
)
from conftest import weak_pairs


def cls(a, b):
    return DivisorClass(a, b)


def by_provenance(entries, tag):
    return [e for e in entries if e.provenance == tag]


class TestKnownDivisors:
    def test_five_records(self):
        divisors = known_divisors()
        assert [d.label for d in divisors] == ["F1", "F2", "F3", "F4", "F5"]

    def test_lattices(self):
        assert divisor("F4").lattice.to_json() == {"h2": 4, "hc": 1, "c2": -2}
        assert divisor("F1").lattice.to_json() == {"h2": 4, "hc": 6, "c2": 4}
        assert divisor("F5").lattice.to_json() == {"h2": 4, "hc": 2, "c2": -2}

    def test_attached_pairs(self):
        assert divisor("F5").pairs == (make_pair((1, 2), (3, 4)),)
        assert divisor("F1").pairs == (make_pair((1, 1, 1, 1), (2, 2, 2, 2)),)
        assert divisor("F4").pairs == (
            make_pair((1, 1), (2, 4)),
            make_pair((1, 3), (4, 4)),
        )
        assert divisor("F2").pairs == (
            make_pair((1, 1, 1), (2, 2, 3)),
            make_pair((1, 2, 2), (3, 3, 3)),
        )

    def test_unknown_label(self):
        message = "unknown divisor 'F6'; expected one of ('F1', 'F2', 'F3', 'F4', 'F5')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            divisor("F6")


EXPECTED_RIGID = {
    "F1": {cls(0, 1), cls(3, -1)},
    "F2": {cls(0, 1), cls(2, -1)},
    "F3": {cls(0, 1), cls(2, -1)},
    "F4": {cls(0, 1)},
    "F5": {cls(0, 1), cls(1, -1)},
}


@pytest.mark.parametrize("label", sorted(EXPECTED_RIGID))
def test_rigid_sets(label):
    assert rigid_classes(divisor(label)) == EXPECTED_RIGID[label]


class TestClassifyQuartic:
    def test_f4_k3_contains_spec_rows(self):
        entries = classify_quartic(divisor("F4"), k_max=3)
        rigid = {(e.cls, e.invariants.degree, e.invariants.genus)
                 for e in by_provenance(entries, RIGID)}
        assert rigid == {(cls(0, 1), 1, 0)}
        fam = {(e.cls, e.invariants.degree, e.invariants.genus)
               for e in by_provenance(entries, FAMILY_II)}
        assert (cls(3, 1), 13, 21) in fam
        assert (cls(4, -1), 15, 28) in fam
        res = {(e.cls, e.invariants.degree, e.invariants.genus)
               for e in by_provenance(entries, RESIDUAL)}
        assert (cls(2, -1), 7, 6) in res
        assert (cls(1, -1), 3, 1) in res

    def test_f5_k3(self):
        entries = classify_quartic(divisor("F5"), k_max=3)
        assert {e.cls for e in by_provenance(entries, RIGID)} == {cls(0, 1), cls(1, -1)}
        res = {(e.cls, e.invariants.degree, e.invariants.genus)
               for e in by_provenance(entries, RESIDUAL)}
        assert (cls(1, 1), 6, 4) in res and (cls(2, -1), 6, 4) in res

    def test_f1_k3(self):
        entries = classify_quartic(divisor("F1"), k_max=3)
        assert {e.cls for e in by_provenance(entries, RIGID)} == {cls(0, 1), cls(3, -1)}
        fam = {(e.cls, e.invariants.degree, e.invariants.genus)
               for e in by_provenance(entries, FAMILY_II)}
        assert fam == {(cls(1, 1), 10, 11), (cls(4, -1), 10, 11)}
        assert not by_provenance(entries, RESIDUAL)

    FAMILY_FORMS = {
        "F1": [lambda k: (4 * k - 2, 2 * k * k - 2 * k - 1)],
        "F2": [
            lambda k: (4 * k - 1, 2 * k * k - k - 1),
            lambda k: (4 * k + 1, 2 * k * k + k - 1),
        ],
        "F3": [lambda k: (4 * k, 2 * k * k - 1)],
        "F4": [
            lambda k: (4 * k + 1, 2 * k * k + k),
            lambda k: (4 * k + 3, 2 * k * k + 3 * k + 1),
        ],
        "F5": [lambda k: (4 * k + 2, 2 * k * k + 2 * k)],
    }

    @pytest.mark.parametrize("label", sorted(FAMILY_FORMS))
    def test_family_closed_forms(self, label):
        div = divisor(label)
        entries = classify_quartic(div, k_max=8)
        emitted = {}
        for e in by_provenance(entries, FAMILY_II):
            emitted.setdefault((e.pair, e.shift), set()).add(
                (e.invariants.degree, e.invariants.genus)
            )
        for pair, form in zip(div.pairs, self.FAMILY_FORMS[label]):
            for k in range(3, 9):
                assert emitted[(pair, k)] == {form(k)}

    @pytest.mark.parametrize("label", ["F1", "F2", "F3", "F4", "F5"])
    def test_all_entries_cross_check(self, label):
        div = divisor(label)
        for e in classify_quartic(div, k_max=10):
            assert cross_check(e, div.lattice)

    @pytest.mark.parametrize("label", ["F1", "F2", "F3", "F4", "F5"])
    def test_complete_intersection_entries(self, label):
        entries = classify_quartic(divisor(label), k_max=6)
        ci = {
            e.cls: (e.invariants.degree, e.invariants.genus)
            for e in by_provenance(entries, COMPLETE_INTERSECTION)
        }
        assert ci == {cls(d, 0): (4 * d, 2 * d * d + 1) for d in range(2, 7)}

    def test_family_iii_entries_reuse_known_classes(self):
        entries = classify_quartic(divisor("F4"), k_max=3)
        third = {(e.cls, e.invariants.degree, e.invariants.genus)
                 for e in by_provenance(entries, FAMILY_III)}
        assert third == {(cls(2, 1), 9, 10), (cls(1, -1), 3, 1)}

    def test_low_shift_tables_marked_nonminimal(self):
        entries = classify_quartic(divisor("F4"), k_max=3)
        flags = {
            (e.cls, e.shift): e.minimal
            for e in by_provenance(entries, RESIDUAL)
        }
        # k = 2 = 4 - 2 degenerates on the pair ((1,1),(2,4)); k = 0 = 4 - 4
        # degenerates on the dual pair
        assert flags[(cls(2, 1), 2)] is False
        assert flags[(cls(1, -1), 0)] is False
        assert flags[(cls(1, 1), 1)] is True

    def test_nonminimal_entries_exactly(self):
        # set from the classifier that stored the flag per entry: of the
        # 602 entries at k_max = 40 only these five RESIDUAL ones degenerate
        entries = [e for div in known_divisors() for e in classify_quartic(div, k_max=40)]
        assert len(entries) == 602
        assert {(e.divisor, e.provenance, e.cls, e.shift) for e in entries if not e.minimal} == {
            ("F2", RESIDUAL, cls(1, 1), 2),
            ("F4", RESIDUAL, cls(2, 1), 2),
            ("F4", RESIDUAL, cls(1, -1), 0),
            ("F5", RESIDUAL, cls(1, 1), 1),
            ("F5", RESIDUAL, cls(2, -1), 1),
        }

    def test_k_max_floor(self):
        with pytest.raises(ValueError):
            classify_quartic(divisor("F4"), k_max=2)


def on(table):
    """An entry whose resolution is `table`; `minimal` reads nothing else."""
    return ClassificationEntry("F4", cls(0, 0), CurveInvariants(1, 0), RESIDUAL, "", table)


class TestMinimality:
    """`ClassificationEntry.minimal` is "no twist on both sides"; the
    reference is the formula of a shift table, d - k not in b."""

    F4_A = make_pair((1, 1), (2, 4))
    F5_PAIR = make_pair((1, 2), (3, 4))

    def test_examples(self):
        assert not on(surface_generator_table(self.F4_A, 2)).minimal  # k = 4 - 2
        assert on(surface_generator_table(self.F4_A, 3)).minimal
        assert not on(surface_generator_table(self.F5_PAIR, 0)).minimal  # k = 4 - 4

    @given(weak_pairs(), st.data())
    def test_a_pair_without_a_shared_twist_degenerates_only_at_d_minus_k_in_b(self, p, data):
        if not set(p.a).isdisjoint(p.b):
            return
        k = data.draw(st.integers(1 - p.a[0], 12))
        assert on(surface_generator_table(p, k)).minimal == (p.degree - k not in p.b)
        for j0 in range(1, p.length + 1):
            try:
                assert on(pivot_syzygy_table(p, j0)).minimal
            except InvalidTableError:
                pass  # a twist below 1

    def test_every_entry_at_k_max_2000_matches_the_shift_formula(self):
        entries = [e for div in known_divisors() for e in classify_quartic(div, k_max=2000)]
        assert len(entries) == 30002
        for e in entries:
            assert e.minimal == (e.shift is None or e.pair.degree - e.shift not in e.pair.b), e
        assert sum(not e.minimal for e in entries) == 5


class TestCrossCheck:
    def test_true_on_proposition_row(self):
        lattice = divisor("F4").lattice
        entry = ClassificationEntry(
            "F4", cls(3, 1), CurveInvariants(13, 21), FAMILY_II, "",
            BettiTable((4, 4, 4), (5, 7)),
        )
        assert cross_check(entry, lattice)

    def test_true_on_twisted_cubic_family_row(self):
        lattice = divisor("F2").lattice
        entry = ClassificationEntry(
            "F2", cls(2, 1), CurveInvariants(11, 14), FAMILY_II, "",
            BettiTable((4, 4, 4, 4), (5, 5, 6)),
        )
        assert cross_check(entry, lattice)

    def test_false_on_corrupted_table(self):
        lattice = divisor("F4").lattice
        entry = ClassificationEntry(
            "F4", cls(3, 1), CurveInvariants(13, 21), FAMILY_II, "",
            BettiTable((4, 4, 4), (5, 8)),
        )
        assert not cross_check(entry, lattice)

    def test_false_on_a_class_off_its_table(self):
        # stored and table agree, (13, 21); the class's lattice invariants do not
        lattice = divisor("F4").lattice
        table = BettiTable((4, 4, 4), (5, 7))
        for wrong in (cls(2, 1), cls(3, 0), cls(4, 1)):
            entry = ClassificationEntry("F4", wrong, CurveInvariants(13, 21), FAMILY_II, "", table)
            assert not cross_check(entry, lattice), wrong

    def test_false_on_wrong_stored_invariants(self):
        # table and class agree, (13, 21); the stored degree and genus do not
        lattice = divisor("F4").lattice
        table = BettiTable((4, 4, 4), (5, 7))
        for stored in (CurveInvariants(13, 22), CurveInvariants(17, 21), CurveInvariants(17, 35)):
            entry = ClassificationEntry("F4", cls(3, 1), stored, FAMILY_II, "", table)
            assert not cross_check(entry, lattice), stored


class TestLowDegree:
    def test_smooth_quadric(self):
        fams = classify_low_degree(2, "smooth")
        assert len(fams) == 1 and fams[0].k_min == 1
        t = surface_generator_table(fams[0].pair, 2)
        assert (t.gens, t.syz) == ((2, 3, 3), (4, 4))

    def test_smooth_cubic_determinantal(self):
        (fam,) = classify_low_degree(3, "3x3")
        assert fam.k_min == 1
        t = surface_generator_table(fam.pair, 1)
        assert (t.gens, t.syz) == ((2, 2, 2, 3), (3, 3, 3))

    def test_smooth_cubic_two_by_two(self):
        fams = {f.case_label: f for f in classify_low_degree(3, "2x2")}
        ta = surface_generator_table(fams["A"].pair, 0)
        assert (ta.gens, ta.syz) == ((1, 1, 3), (2, 3))
        tb = surface_generator_table(fams["B"].pair, 0)
        assert (tb.gens, tb.syz) == ((1, 2, 3), (3, 3))

    def test_split_quadric_families(self):
        fams = classify_low_degree(2, "reducible")
        assert [f.n for f in fams] == [1, 2, 3]
        t = surface_generator_table(fams[0].pair, 1)
        assert (t.gens, t.syz) == ((2, 2, 3), (3, 4))
        assert fams[0].to_json()["note"]

    def test_unknown_tag(self):
        message = "unknown type 3/4x4; expected one of 2/reducible, 2/smooth, 3/2x2, 3/3x3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_low_degree(3, "4x4")

    def test_tables_come_from_the_main_constructor(self, capsys):
        # the tables `classify low` prints are the constructor's, k_min on
        assert run(["classify", "low", "--degree", "3", "--type", "2x2", "--kmax", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for fam, fam_doc in zip(classify_low_degree(3, "2x2"), doc, strict=True):
            assert fam_doc["pair"] == fam.pair.to_json()
            assert fam_doc["tables"] == [
                surface_generator_table(fam.pair, k).to_json() | {"k": k}
                for k in range(fam.k_min, fam.k_min + 4)
            ]


def test_classification_is_deterministic():
    for label in ("F2", "F4"):
        div = divisor(label)
        first = classify_quartic(div, k_max=5)
        second = classify_quartic(div, k_max=5)
        assert first == second


def test_family_ii_branch_counts():
    # autodual pairs solve to a +- pair of classes per shift, dual-distinct
    # pairs to a single class each
    expected_sizes = {"F1": {2}, "F2": {1}, "F3": {2}, "F4": {1}, "F5": {2}}
    for label, sizes in expected_sizes.items():
        div = divisor(label)
        per_pair_k = {}
        for e in classify_quartic(div, k_max=6):
            if e.provenance == FAMILY_II:
                per_pair_k.setdefault((e.pair, e.shift), set()).add(e.cls)
        assert {len(v) for v in per_pair_k.values()} == sizes


LABELS = ["F1", "F2", "F3", "F4", "F5"]


@pytest.mark.parametrize("label", LABELS)
def test_every_row_at_k_max_2000_is_the_constructors_record(label):
    # classify_quartic builds its rows with tuple.__new__ (the sites listed
    # in tests/test_source.py): each row must still hold the exact record
    # types, pass the cross-check, and carry invariants that the checking
    # constructor accepts
    div = divisor(label)
    for e in classify_quartic(div, k_max=2000):
        assert type(e) is ClassificationEntry and type(e.cls) is DivisorClass, e
        assert type(e.invariants) is CurveInvariants and type(e.resolution) is BettiTable, e
        assert cross_check(e, div.lattice), e
        assert CurveInvariants(*e.invariants) == e.invariants, e


# RESIDUAL rows per divisor at any k_max: 13 in all
RESIDUAL_COUNTS = {"F1": 0, "F2": 2, "F3": 2, "F4": 5, "F5": 4}


@pytest.mark.parametrize("label", LABELS)
def test_case_ii_rows_equal_the_per_shift_solve(label):
    # the reference: one solver call per pair and shift, in emission order
    # (pairs in order, shifts ascending, classes sorted).  A shift k < 3 is
    # RESIDUAL unless its table has no curve or solves only to rigid classes
    div = divisor(label)
    rigid = rigid_classes(div)
    entries = classify_quartic(div, k_max=2000)
    want = {RESIDUAL: [], FAMILY_II: []}
    for pair in div.pairs:
        for k in range(2001):
            table = surface_generator_table(pair, k)
            try:
                inv = invariants_from_betti(table)
            except InvalidTableError:
                assert k < 3
                continue
            solved = sorted(solve_classes(div.lattice, 2 * inv.genus - 2, inv.degree, inv.degree))
            if k < 3 and (inv.genus < 0 or set(solved) <= rigid):
                continue
            want[RESIDUAL if k < 3 else FAMILY_II] += [(pair, k, c, inv, table) for c in solved]
    assert len(want[RESIDUAL]) == RESIDUAL_COUNTS[label]
    assert len(want[FAMILY_II]) >= 1998 * len(div.pairs)
    for tag, rows in want.items():
        got = [(e.pair, e.shift, e.cls, e.invariants, e.resolution)
               for e in by_provenance(entries, tag)]
        assert got == rows


# the shifts k < 3 whose table has no curve: a degree <= 0 or a negative genus
NO_CURVE_SHIFTS = [
    ("F1", make_pair((1, 1, 1, 1), (2, 2, 2, 2)), 0),
    ("F1", make_pair((1, 1, 1, 1), (2, 2, 2, 2)), 1),
    ("F2", make_pair((1, 1, 1), (2, 2, 3)), 0),
    ("F2", make_pair((1, 2, 2), (3, 3, 3)), 0),
    ("F3", make_pair((1, 1), (3, 3)), 0),
]


def test_a_shift_has_no_curve_exactly_when_its_classes_have_none():
    # the reference is the table: no curve when its invariants are refused
    # or its genus is negative.  The classifier decides from the classes of
    # shift 3 moved down by (3-k)H, which all have one (D.H, genus)
    no_curve = []
    for label in LABELS:
        div = divisor(label)
        for pair in div.pairs:
            inv = invariants_from_betti(surface_generator_table(pair, 3))
            base = solve_classes(div.lattice, 2 * inv.genus - 2, inv.degree, inv.degree)
            for k in range(3):
                table = surface_generator_table(pair, k)
                try:
                    table_has_none = invariants_from_betti(table).genus < 0
                except InvalidTableError:
                    table_has_none = True
                moved = {cls(c.a + k - 3, c.b) for c in base}
                [(degree, genus)] = {(dot(div.lattice, c, H), adjunction_genus(div.lattice, c))
                                     for c in moved}
                assert table_has_none == (degree <= 0 or genus < 0), (label, pair, k)
                if table_has_none:
                    no_curve.append((label, pair, k))
    assert no_curve == NO_CURVE_SHIFTS


def _linked_back(lattice, d, s):
    """The (degree, genus) of sH - D linked in the complete intersection (4, s)."""
    partner = cls(s - d.a, -d.b)
    invariants = CurveInvariants(dot(lattice, partner, H), adjunction_genus(lattice, partner))
    return residual_invariants(invariants, CiProfile(4, s))


# (lattice, class, s) triples of the box below with 0 < D.H < 4s
TRIPLES_IN_THE_BOX = 48_542


def test_linking_sh_minus_d_gives_back_d_on_every_quartic_lattice():
    # the identity behind the RESIDUAL rows (classifier docstring), over a
    # box of lattices with H^2 = 4, classes and s, wherever the partner
    # sH - D is a curve of positive degree: 0 < D.H < 4s
    triples = 0
    for hc in range(-12, 13):
        for c2 in range(-20, 13, 2):
            if 4 * c2 >= hc * hc:
                continue  # det >= 0: no signature (1, 1)
            lattice = PicardLattice(4, hc, c2)
            for a in range(-8, 9):
                for b in range(-8, 9):
                    d = cls(a, b)
                    degree = dot(lattice, d, H)
                    if degree <= 0:
                        continue
                    own = CurveInvariants(degree, adjunction_genus(lattice, d))
                    for s in range(degree // 4 + 1, 6):  # the least s with 4s > D.H, up to 5
                        assert _linked_back(lattice, d, s) == own, (lattice, d, s)
                        triples += 1
    assert triples == TRIPLES_IN_THE_BOX


def test_each_residual_row_links_back_to_its_stored_invariants():
    # the reference for the RESIDUAL rows, which the classifier does not
    # re-check: each row's degree is below 4(k+1), so (k+1)H - D is a
    # curve, and linking it in (4, k+1) gives back the stored invariants
    rows = [(div.lattice, e) for div in known_divisors()
            for e in by_provenance(classify_quartic(div, k_max=40), RESIDUAL)]
    assert len(rows) == 13
    for lattice, e in rows:
        assert e.invariants.degree < 4 * (e.shift + 1), e
        assert _linked_back(lattice, e.cls, e.shift + 1) == e.invariants, e


# the table's order of provenances, as the classifier documents it
ORDER = (RIGID, RESIDUAL, FAMILY_II, FAMILY_III, COMPLETE_INTERSECTION)


@pytest.mark.parametrize("k_max", [6, 40])
@pytest.mark.parametrize("label", LABELS)
def test_table_order(label, k_max):
    assert classifier.PROVENANCE_ORDER == ORDER
    div = divisor(label)
    entries = classify_quartic(div, k_max=k_max)
    assert {RIGID, FAMILY_II, COMPLETE_INTERSECTION} <= {e.provenance for e in entries}
    ranks = [ORDER.index(e.provenance) for e in entries]
    assert ranks == sorted(ranks)
    index = {pair: i for i, pair in enumerate(div.pairs)}
    keys = {
        RIGID: lambda e: (index[e.pair], e.pivot, e.cls),
        RESIDUAL: lambda e: (index[e.pair], e.shift, e.cls),
        FAMILY_II: lambda e: (index[e.pair], e.shift, e.cls),
        FAMILY_III: lambda e: (index[e.pair], e.pivot, e.cls),
        COMPLETE_INTERSECTION: lambda e: e.cls.a,  # d, of the class dH
    }
    for tag, key in keys.items():
        got = [key(e) for e in by_provenance(entries, tag)]
        assert got == sorted(set(got)), tag


@pytest.mark.parametrize("label", LABELS)
def test_each_rigid_class_is_on_the_first_pivot_table_solving_to_it(label):
    div = divisor(label)
    first = {}
    for pair, j0, table in classifier._pivot_tables(div.pairs):
        inv = invariants_from_betti(table)
        for c in solve_classes(div.lattice, 2 * inv.genus - 2, inv.degree, inv.degree):
            first.setdefault(c, (pair, j0, table))
    rows = by_provenance(classify_quartic(div, k_max=6), RIGID)
    assert sorted(e.cls for e in rows) == sorted(rigid_classes(div))
    for e in rows:
        assert (e.pair, e.pivot, e.resolution) == first[e.cls], e.cls


@pytest.mark.parametrize("label", LABELS)
def test_a_repeated_pivot_table_adds_no_rigid_row(monkeypatch, label):
    # each pivot table again under a new pivot number: the first copy
    # still resolves every rigid class, and only once.  FAMILY_III rows
    # may double, so only the RIGID rows are compared
    div = divisor(label)  # built before the patch
    want = by_provenance(classify_quartic(div, k_max=6), RIGID)
    real = classifier._pivot_tables

    def twice(pairs):
        for pair, j0, table in real(pairs):
            yield pair, j0, table
            yield pair, j0 + 100, table

    monkeypatch.setattr(classifier, "_pivot_tables", twice)
    assert by_provenance(classify_quartic(div, k_max=6), RIGID) == want


def catalog_class(exprs, k):
    return cls(*(eval_affine(parse_affine(e), {"k": k}) for e in exprs))


class TestEntryJson:
    """The per-entry JSON document: a shift k or a pivot, by provenance."""

    KEYS = {RIGID: {"pivot"}, FAMILY_III: {"pivot"}, RESIDUAL: {"k"}, FAMILY_II: {"k"},
            COMPLETE_INTERSECTION: set()}

    @pytest.mark.parametrize("label", LABELS)
    def test_shift_or_pivot_by_provenance(self, label):
        entries = classify_quartic(divisor(label), k_max=6)
        assert {e.provenance for e in entries} <= set(self.KEYS)
        for e in entries:
            doc = e.to_json()
            assert set(doc) & {"k", "pivot"} == self.KEYS[e.provenance], doc

    F4_FIRST = {
        RIGID: {
            "divisor": "F4", "class": [0, 1], "degree": 1, "genus": 0, "provenance": RIGID,
            "description": "the line; the unique curve in its class",
            "resolution": {"gens": [1, 1], "syz": [2]}, "minimal": True, "pivot": 2,
        },
        RESIDUAL: {
            "divisor": "F4", "class": [1, 1], "degree": 5, "genus": 3, "provenance": RESIDUAL,
            "description": "residual to a plane cubic in the intersection with a quadric",
            "resolution": {"gens": [2, 2, 4], "syz": [3, 5]}, "minimal": True, "k": 1,
        },
        FAMILY_II: {
            "divisor": "F4", "class": [3, 1], "degree": 13, "genus": 21,
            "provenance": FAMILY_II,
            "description": "resolution family with the quartic among the minimal generators, "
                           "shift k=3",
            "resolution": {"gens": [4, 4, 4], "syz": [5, 7]}, "minimal": True, "k": 3,
        },
        FAMILY_III: {
            "divisor": "F4", "class": [2, 1], "degree": 9, "genus": 10,
            "provenance": FAMILY_III,
            "description": "quartic not among the minimal generators; same class as the "
                           "degree-9 residual curve",
            "resolution": {"gens": [3, 3], "syz": [6]}, "minimal": True, "pivot": 1,
        },
        COMPLETE_INTERSECTION: {
            "divisor": "F4", "class": [2, 0], "degree": 8, "genus": 9,
            "provenance": COMPLETE_INTERSECTION,
            "description": "complete intersection with a degree-2 surface",
            "resolution": {"gens": [2, 4], "syz": [6]}, "minimal": True,
        },
    }

    def test_first_f4_document_of_each_provenance(self):
        first = {}
        for e in classify_quartic(divisor("F4"), k_max=6):
            first.setdefault(e.provenance, e.to_json())
        assert first == self.F4_FIRST


def reference_json(entries) -> str:
    return json.dumps([e.to_json() for e in entries], indent=2, sort_keys=True)


@pytest.mark.parametrize("k_max", [3, 6, 40, 2000])
@pytest.mark.parametrize("label", LABELS)
def test_entry_writer_equals_json_dumps(label, k_max):
    # the writer `classify quartic` streams, byte for byte the reference
    entries = classify_quartic(divisor(label), k_max=k_max)
    chunks = list(cli._entries_json(entries))
    assert "".join(chunks) == reference_json(entries)
    # one piece per entry, the first with the opening "[", and the closing "]"
    assert len(chunks) == len(entries) + 1


PAIR = make_pair((1, 1), (2, 4))
PLANTED = {
    "pivot": ClassificationEntry("F4", cls(0, 1), CurveInvariants(1, 0), RIGID, "the line",
                                 BettiTable((1, 1), (2,)), PAIR, pivot=2),
    "k": ClassificationEntry("F4", cls(3, 1), CurveInvariants(13, 21), FAMILY_II, "shift 3",
                             BettiTable((4, 4, 4), (5, 7)), PAIR, shift=3),
    "complete intersection": ClassificationEntry(
        "F4", cls(2, 0), CurveInvariants(8, 9), COMPLETE_INTERSECTION, "a (2, 4) intersection",
        BettiTable((2, 4), (6,))),
    "negative class": ClassificationEntry("F5", cls(-3, -7), CurveInvariants(2, -40), RESIDUAL,
                                          "below", BettiTable((1, 1), (2,)), PAIR, shift=-2),
    # a twist on both sides: not minimal
    "non-minimal": ClassificationEntry("F2", cls(1, 1), CurveInvariants(5, 3), RESIDUAL, "twice",
                                       BettiTable((2, 3, 4), (3, 6)), PAIR, shift=1),
    # the least generator twist is the one on both sides, which no table
    # the classifier builds has
    "least twist twice": ClassificationEntry("F2", cls(1, 1), CurveInvariants(5, 3), RESIDUAL,
                                             "first", BettiTable((2, 3, 4), (2, 7)), PAIR, shift=1),
    "k and pivot": ClassificationEntry("F3", cls(1, 2), CurveInvariants(4, 1), FAMILY_III,
                                       "both", BettiTable((2, 2), (4,)), PAIR, 5, 1),
    "escaped text": ClassificationEntry("F\"1", cls(0, 0), CurveInvariants(1, 0), "R\u00e9",
                                        'a "quoted" \\ line\n\u00e9 \U0001f600',
                                        BettiTable((), ()), None),
}


@pytest.mark.parametrize("entries", [[], *([e] for e in PLANTED.values()),
                                     list(PLANTED.values())],
                         ids=["empty", *PLANTED, "all"])
def test_entry_writer_on_planted_entries(entries):
    chunks = list(cli._entries_json(entries))
    assert "".join(chunks) == reference_json(entries)
    # no entries is the one piece "[]"
    assert len(chunks) == len(entries) + 1


def test_minimal_flag_of_planted_entries():
    # not minimal exactly when some twist is a generator and a syzygy twist
    assert {name for name, e in PLANTED.items() if not e.minimal} == {"non-minimal",
                                                                      "least twist twice"}


def test_entry_contract():
    """An entry is immutable and slotted, hashable, equal to the tuple of
    its fields, and keeps its repr, `minimal` and `to_json`."""
    entries = classify_quartic(divisor("F4"), k_max=3)
    entry = entries[0]
    with pytest.raises(AttributeError):
        entry.cls = cls(1, 0)
    assert not hasattr(entry, "__dict__")
    assert entries == classify_quartic(divisor("F4"), k_max=3)
    assert len(set(entries)) == len(entries) and hash(entry) == hash(tuple(entry))
    assert entry == tuple(entry) and len(entry) == 9
    assert repr(entry) == (
        "ClassificationEntry(divisor='F4', cls=(0, 1), invariants=CurveInvariants(degree=1, "
        "genus=0), provenance='RIGID', description='the line; the unique curve in its class', "
        "resolution=BettiTable(gens=(1, 1), syz=(2,)), pair=((1, 1), (2, 4)), shift=None, "
        "pivot=2)"
    )
    # F4's first row, worked by hand: the line (0, 1), D.H = 1 and genus 0,
    # resolved by (1, 1; 2) on the second syzygy twist of ((1, 1), (2, 4))
    assert (entry.provenance, entry.cls, entry.pivot) == (RIGID, cls(0, 1), 2)
    assert entry.pair == make_pair((1, 1), (2, 4)) and entry.shift is None
    assert entry.minimal
    assert entry.to_json() == {
        "divisor": "F4", "class": [0, 1], "degree": 1, "genus": 0, "provenance": RIGID,
        "description": "the line; the unique curve in its class",
        "resolution": {"gens": [1, 1], "syz": [2]}, "minimal": True, "pivot": 2,
    }


class TestAgainstCatalog:
    """Exact agreement with data/catalog.json, which is read, never regenerated."""

    @pytest.mark.parametrize("label", LABELS)
    def test_residuals_exactly(self, label):
        entries = classify_quartic(divisor(label), k_max=10)
        have = {(e.cls, e.invariants.degree, e.invariants.genus)
                for e in by_provenance(entries, RESIDUAL)}
        want = {(cls(*r["class"]), r["degree"], r["genus"])
                for r in catalog.raw()["quartic_propositions"][label]["residuals"]}
        assert have == want

    @pytest.mark.parametrize("label", LABELS)
    def test_family_classes_exactly(self, label):
        entries = classify_quartic(divisor(label), k_max=10)
        have = {}
        for e in by_provenance(entries, FAMILY_II):
            have.setdefault((e.pair, e.shift), set()).add(e.cls)
        want = {}
        for fam in catalog.raw()["quartic_propositions"][label]["families"]:
            pair = make_pair(*fam["pair"])
            for k in range(3, 11):
                want[(pair, k)] = {catalog_class(c, k) for c in fam["classes"]}
        assert have == want


    @pytest.mark.parametrize("label", LABELS)
    def test_derived_generator_curve_and_pairs(self, label):
        prop, div = catalog.raw()["quartic_propositions"][label], divisor(label)
        lattice = div.lattice
        assert tuple(prop["curve"]) == (lattice.hc, lattice.c2 // 2 + 1)
        assert [make_pair(*fam["pair"]) for fam in prop["families"]] == list(div.pairs)

    def test_derived_low_degree_pairs(self):
        for doc in catalog.raw()["low_degree_corollaries"]:
            fams = classify_low_degree(doc["surface_degree"], doc["type"])
            (fam,) = [f for f in fams if f.case_label == doc["case"]]
            assert (fam.pair, fam.k_min) == (make_pair(*doc["pair"]), doc["k_min"])


@lru_cache(maxsize=None)
def kind_catalog(degree, b_cap=None):
    return enumerate_kinds(EnumerationConfig(degree, b_cap))


def irreducible_kinds(degree, b_cap=None):
    """The entries of the irreducible kinds of a kind catalog, in its order."""
    return [e for e in kind_catalog(degree, b_cap).entries
            if not is_reducible_type(degree_matrix(e.representative))]


@lru_cache(maxsize=None)
def irreducible_orbits(degree):
    """The irreducible kinds (normalized a, b) of a degree, read from its kind
    catalog, grouped into duality orbits: orbits in least-representative
    order, members in sort_key order."""
    orbits = {}
    for e in irreducible_kinds(degree):
        key = frozenset((e.signature, e.signature.anti_transpose()))
        orbits.setdefault(key, []).append((e.representative.a, e.representative.b))
    return list(orbits.values())


def cancelled(a, b):
    """(a, b) without the twists on both sides, one copy from each side per
    shared copy."""
    common = Counter(a) & Counter(b)
    return sorted((Counter(a) - common).elements()), sorted((Counter(b) - common).elements())


class TestSurfaceTypeCensus:
    """The surface types are derived from the irreducible pairs, walked
    without a kind catalog: check the walk against the catalogs, and pin
    its census, so a change to the walk, the enumeration or
    is_reducible_type fails here first."""

    # irreducible kinds and surface types (duality orbits with no shared
    # twist) of degrees 2..10
    IRREDUCIBLE = dict(zip(range(2, 11), (1, 3, 8, 19, 45, 104, 241, 556, 1284)))
    TYPES = dict(zip(range(2, 11), (1, 2, 5, 9, 19, 35, 71, 135, 271)))
    EXCLUDED = ((0, 0, 1), (1, 2, 2))

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_the_walk_gives_the_catalogs_irreducible_kinds(self, degree):
        walked = classifier._irreducible_pairs(degree)
        assert walked == [e.representative for e in irreducible_kinds(degree)]
        # the dual of each is the one pair of the dual kind, so {p, dual_pair(p)}
        # groups them as the catalog's signatures do
        orbits = {}
        for p in walked:
            orbits.setdefault(frozenset((p, dual_pair(p))), []).append((p.a, p.b))
        assert list(orbits.values()) == irreducible_orbits(degree)

    def test_the_walk_at_degree_7(self):
        # an irreducible least pair has every h_i <= -1, so its
        # b_t = d + sum(h_i) <= d - (t - 1): the catalog at bound 7 holds
        # every irreducible kind of degree 7
        walked = classifier._irreducible_pairs(7)
        assert walked == [e.representative for e in irreducible_kinds(7, 7)]

    def test_census(self):
        kinds, types = {}, {}
        for degree in range(2, 11):
            walked = classifier._irreducible_pairs(degree)
            kinds[degree] = len(walked)
            # orbits keyed by kinds, not by dual_pair
            sigs = [pair_signature(p) for p in walked if not classifier._shares_a_twist(*p)]
            types[degree] = len({frozenset((sig, sig.anti_transpose())) for sig in sigs})
        assert (kinds, types) == (self.IRREDUCIBLE, self.TYPES)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_each_type_is_a_catalog_orbit_shifted_by_one(self, degree):
        kept = [o for o in irreducible_orbits(degree) if self.EXCLUDED not in o]
        derived = [list(pairs) for pairs in classifier._surface_types(degree).values()]
        assert derived == [[make_pair(a, b).shift(1) for a, b in o] for o in kept]

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_a_kind_is_reducible_exactly_when_some_a_reaches_the_b_before_it(self, degree):
        # the cell (i+1, i) is max(b_i - a_(i+1), 0), which is 0 exactly
        # when a_(i+1) >= b_i
        for e in kind_catalog(degree).entries:
            a, b = e.representative
            assert is_reducible_type(degree_matrix(e.representative)) == any(
                a[i + 1] >= b[i] for i in range(len(a) - 1))

    # the irreducible kinds with a twist on both sides, by degree (at degree
    # 6 there are 14)
    SHARED = {2: set(), 3: set(), 4: {EXCLUDED}, 5: {
        ((0, 0, 1), (1, 2, 3)), ((0, 1, 2), (2, 3, 3)),
        ((0, 0, 0, 1), (1, 1, 2, 2)), ((0, 0, 1, 1), (1, 2, 2, 2)),
    }}

    @pytest.mark.parametrize("degree", sorted(SHARED))
    def test_the_rule_selects_the_kinds_with_a_shared_twist(self, degree):
        picked = {kind for orbit in irreducible_orbits(degree) for kind in orbit
                  if classifier._shares_a_twist(*kind)}
        assert picked == self.SHARED[degree]

    def test_the_left_out_quartic_kind_is_its_own_dual(self):
        assert [self.EXCLUDED] in irreducible_orbits(4)

    @pytest.mark.parametrize("degree", [4, 5])
    def test_each_left_out_kind_cancels_to_a_kept_representative(self, degree):
        irreducible = {kind for orbit in irreducible_orbits(degree) for kind in orbit}
        for a, b in self.SHARED[degree]:
            q = make_pair(*cancelled(a, b))  # weak admissible
            assert (q.a, q.b) in irreducible  # so of the same degree
            assert set(q.a).isdisjoint(q.b)

    def test_the_left_out_quartic_kind_cancels_to_f3(self):
        a, b = cancelled(*self.EXCLUDED)
        assert divisor("F3").pairs == (make_pair(a, b).shift(1),)

    def test_the_reducible_quadric_family_is_the_least_reducible_quadric_pairs(self):
        family = [fam.pair.shift(-1) for fam in classify_low_degree(2, "reducible")]
        reducible = [p for p in enumerate_pairs(EnumerationConfig(2, 5))
                     if is_reducible_type(degree_matrix(p))]
        assert family == reducible[:3]


class TestProse:
    @pytest.mark.parametrize("label", LABELS)
    def test_every_prose_key_is_emitted(self, label):
        emitted = {
            (e.provenance, e.cls)
            for e in classify_quartic(divisor(label), k_max=3)
            if e.provenance in (RIGID, RESIDUAL, FAMILY_III)
        }
        assert set(classifier._PROSE[label]) == emitted

    def test_missing_prose_key_raises(self, monkeypatch):
        prose = dict(classifier._PROSE["F4"])
        del prose[(FAMILY_III, cls(1, -1))]
        monkeypatch.setitem(classifier._PROSE, "F4", prose)
        with pytest.raises(ClassificationError, match="no description"):
            classify_quartic(divisor("F4"), k_max=3)


def one_twist_off(real, at, offset):
    """`real` with its last syzygy twist raised by `offset` when its last
    argument is `at`."""
    def constructor(*args):
        t = real(*args)
        if args[-1] != at:
            return t
        return BettiTable(t.gens, t.syz[:-1] + (t.syz[-1] + offset,))
    return constructor


# each entry is compared with the invariants of the table it is on: a wrong
# table at one shift or one d is refused.  Offset 1 makes the degree a
# half-integer, offset 2 the genus, and offset 6 leaves both wrong integers.
# Shift 2 is RESIDUAL: a shift k < 3 is skipped only when its classes have
# no curve or are all rigid, which reads no table, so a wrong table on rows
# is refused, not dropped.  Shift 3 is the table each pair is solved at, so
# it is refused before any entry is made
@pytest.mark.parametrize("offset", [1, 2, 6])
@pytest.mark.parametrize("shift, message", [
    pytest.param(1000, r"cross-check failed for F2 class .* \(FAMILY_II\): table ",
                 id="1000-FAMILY_II"),
    pytest.param(2, r"cross-check failed for F2 class .* \(RESIDUAL\): table ", id="2-RESIDUAL"),
    pytest.param(3, r"F2: no (degree and genus|integer class of degree \d+, genus \d+) at shift 3",
                 id="3-solved"),
])
def test_a_wrong_shift_table_is_refused(monkeypatch, shift, message, offset):
    wrong = one_twist_off(classifier.surface_generator_table, shift, offset)
    monkeypatch.setattr(classifier, "surface_generator_table", wrong)
    with pytest.raises(ClassificationError, match=f"^{message}"):
        classify_quartic(divisor("F2"), k_max=2000)


# a wrong table at a shift with no rows is not read: F1's shift 0 has no
# curve, so F1 is unchanged; F4's shift 0 carries the plane cubic, so the
# wrong table is refused on its row
@pytest.mark.parametrize("offset", [1, 2, 6])
def test_a_wrong_table_is_read_only_where_it_has_rows(monkeypatch, offset):
    f1, f4 = divisor("F1"), divisor("F4")  # built before the patch
    clean = classify_quartic(f1, 6)
    wrong = one_twist_off(classifier.surface_generator_table, 0, offset)
    monkeypatch.setattr(classifier, "surface_generator_table", wrong)
    assert classify_quartic(f1, 6) == clean
    message = re.escape(f"cross-check failed for F4 class {cls(1, -1)} (RESIDUAL): table ")
    with pytest.raises(ClassificationError, match=f"^{message}"):
        classify_quartic(f4, 6)


# a pivot table is solved, so like shift 3 it must have invariants that
# some class carries.  Offset 6 leaves pivot 1 integer invariants no class
# has; F4 and F5 then lost both FAMILY_III rows without an error
@pytest.mark.parametrize("offset, refusal", [
    (1, "no degree and genus"), (2, "no degree and genus"),
    (6, r"no integer class of degree \d+, genus \d+"),
], ids=["1", "2", "6"])
@pytest.mark.parametrize("label", ["F1", "F2", "F3", "F4", "F5"])
def test_a_wrong_pivot_table_is_refused(monkeypatch, label, offset, refusal):
    div = divisor(label)  # built before the patch
    wrong = one_twist_off(classifier.pivot_syzygy_table, 1, offset)
    monkeypatch.setattr(classifier, "pivot_syzygy_table", wrong)
    with pytest.raises(ClassificationError, match=f"^{label}: {refusal} at pivot 1"):
        classify_quartic(div, k_max=6)


@pytest.mark.parametrize("offset", [1, 2, 6])
def test_a_wrong_complete_intersection_table_is_refused(monkeypatch, offset):
    wrong = one_twist_off(classifier.ci_table, 1500, offset)
    monkeypatch.setattr(classifier, "ci_table", wrong)
    table = wrong(4, 1500)
    message = (f"cross-check failed for F2 class {cls(1500, 0)} (COMPLETE_INTERSECTION): "
               f"table {table.to_json()}")
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        classify_quartic(divisor("F2"), k_max=2000)


def _no_classes(monkeypatch):
    monkeypatch.setattr(classifier, "solve_classes", lambda *args: set())


def _an_extra_rigid_class(monkeypatch):
    real = classifier.rigid_classes
    monkeypatch.setattr(classifier, "rigid_classes", lambda div: real(div) | {cls(5, 0)})


def _pivot_1_six_off(monkeypatch):
    wrong = one_twist_off(classifier.pivot_syzygy_table, 1, 6)
    monkeypatch.setattr(classifier, "pivot_syzygy_table", wrong)


def _shift_3_half_a_degree_off(monkeypatch):
    wrong = one_twist_off(classifier.surface_generator_table, 3, 1)
    monkeypatch.setattr(classifier, "surface_generator_table", wrong)


def _pivot_1_six_off_on(pair):
    """Pivot 1 six off on the tables of `pair` alone: F2 has two pairs,
    and the refusal must say which one failed."""
    def patch(monkeypatch):
        real = classifier.pivot_syzygy_table
        wrong = one_twist_off(real, 1, 6)
        monkeypatch.setattr(classifier, "pivot_syzygy_table",
                            lambda p, j0: (wrong if p == pair else real)(p, j0))
    return patch


@pytest.mark.parametrize("patch, message", [
    (_no_classes, re.escape(
        "F2: no integer class of degree 11, genus 14 at shift 3 of ((1, 1, 1), (2, 2, 3))") + "$"),
    (_pivot_1_six_off, re.escape(
        "F2: no integer class of degree 55, genus 110 at pivot 1 of ((1, 1, 1), (2, 2, 3))") + "$"),
    (_pivot_1_six_off_on(make_pair((1, 1, 1), (2, 2, 3))), re.escape(
        "F2: no integer class of degree 55, genus 110 at pivot 1 of ((1, 1, 1), (2, 2, 3))") + "$"),
    (_pivot_1_six_off_on(make_pair((1, 2, 2), (3, 3, 3))), re.escape(
        "F2: no integer class of degree 47, genus 74 at pivot 1 of ((1, 2, 2), (3, 3, 3))") + "$"),
    (_shift_3_half_a_degree_off, re.escape(
        "F2: no degree and genus at shift 3 of ((1, 1, 1), (2, 2, 3)): "
        "table {'gens': [4, 4, 4, 4], 'syz': [5, 5, 7]}"
    ) + "$"),
    (_an_extra_rigid_class, re.escape(f"F2: no pivot table resolves the rigid class {cls(5, 0)}")
     + "$"),
])
def test_each_refusal_names_its_check(monkeypatch, patch, message):
    div = divisor("F2")  # built before the patch
    patch(monkeypatch)
    with pytest.raises(ClassificationError, match=f"^{message}"):
        classify_quartic(div, k_max=6)


def test_f4_exclusion_is_the_plane_cubic():
    div = divisor("F4")
    ((excluded, reason),) = div.exclusions
    assert excluded == cls(1, -1) and "plane cubic" in reason
    lattice = div.lattice
    assert (dot(lattice, excluded, H), adjunction_genus(lattice, excluded)) == (3, 1)
    entries = classify_quartic(div, k_max=3)
    for tag in (RESIDUAL, FAMILY_III):
        assert [(e.invariants.degree, e.invariants.genus)
                for e in by_provenance(entries, tag) if e.cls == excluded] == [(3, 1)]
