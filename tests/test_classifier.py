import re

import pytest

from acmcurves import (
    BettiTable,
    ClassificationEntry,
    CurveInvariants,
    DivisorClass,
    classify_low_degree,
    classify_quartic,
    cross_check,
    divisor,
    known_divisors,
    make_pair,
)
from acmcurves.classifier import (
    COMPLETE_INTERSECTION,
    ClassificationError,
    FAMILY_II,
    FAMILY_III,
    RESIDUAL,
    RIGID,
    _solved_classes,
    rigid_classes,
)
from acmcurves import catalog, classifier
from acmcurves.enumeration import EnumerationConfig, enumerate_kinds
from acmcurves.pairs import degree_matrix, is_reducible_type
from acmcurves.catalog import eval_affine, parse_affine
from acmcurves.picard import H, adjunction_genus, dot
from acmcurves.resolutions import (
    InvalidTableError, invariants_from_betti, surface_generator_table,
)


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
        with pytest.raises(KeyError):
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
        t = fams[0].table(2)
        assert (t.gens, t.syz) == ((2, 3, 3), (4, 4))

    def test_smooth_cubic_determinantal(self):
        (fam,) = classify_low_degree(3, "3x3")
        assert fam.k_min == 1
        t = fam.table(1)
        assert (t.gens, t.syz) == ((2, 2, 2, 3), (3, 3, 3))

    def test_smooth_cubic_two_by_two(self):
        fams = {f.case_label: f for f in classify_low_degree(3, "2x2")}
        ta = fams["A"].table(0)
        assert (ta.gens, ta.syz) == ((1, 1, 3), (2, 3))
        tb = fams["B"].table(0)
        assert (tb.gens, tb.syz) == ((1, 2, 3), (3, 3))

    def test_split_quadric_families(self):
        fams = classify_low_degree(2, "reducible")
        assert [f.n for f in fams] == [1, 2, 3]
        t = fams[0].table(1)
        assert (t.gens, t.syz) == ((2, 2, 3), (3, 4))
        assert fams[0].note

    def test_unknown_tag(self):
        with pytest.raises(KeyError, match="unknown type"):
            classify_low_degree(3, "4x4")

    def test_tables_come_from_the_main_constructor(self):
        for fam in classify_low_degree(3, "2x2"):
            for k in range(fam.k_min, fam.k_min + 4):
                assert fam.table(k) == surface_generator_table(fam.pair, k)


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
            solved = sorted(_solved_classes(div.lattice, inv.degree, inv.genus))
            if k < 3 and (inv.genus < 0 or set(solved) <= rigid):
                continue
            want[RESIDUAL if k < 3 else FAMILY_II] += [(pair, k, c, inv, table) for c in solved]
    assert len(want[RESIDUAL]) == RESIDUAL_COUNTS[label]
    assert len(want[FAMILY_II]) >= 1998 * len(div.pairs)
    for tag, rows in want.items():
        got = [(e.pair, e.shift, e.cls, e.invariants, e.resolution)
               for e in by_provenance(entries, tag)]
        assert got == rows


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
        RIGID: lambda e: e.cls,
        RESIDUAL: lambda e: (index[e.pair], e.shift, e.cls),
        FAMILY_II: lambda e: (index[e.pair], e.shift, e.cls),
        FAMILY_III: lambda e: (index[e.pair], e.pivot, e.cls),
        COMPLETE_INTERSECTION: lambda e: e.cls.a,  # d, of the class dH
    }
    for tag, key in keys.items():
        got = [key(e) for e in by_provenance(entries, tag)]
        assert got == sorted(set(got)), tag


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


class TestAgainstCatalog:
    """Exact agreement with data/catalog.json, which is read, never regenerated."""

    @pytest.mark.parametrize("label", LABELS)
    def test_residuals_exactly(self, label):
        entries = classify_quartic(divisor(label), k_max=10)
        have = {(e.cls, e.invariants.degree, e.invariants.genus)
                for e in by_provenance(entries, RESIDUAL)}
        want = {(cls(*r["class"]), r["degree"], r["genus"])
                for r in catalog.quartic_proposition(label)["residuals"]}
        assert have == want

    @pytest.mark.parametrize("label", LABELS)
    def test_family_classes_exactly(self, label):
        entries = classify_quartic(divisor(label), k_max=10)
        have = {}
        for e in by_provenance(entries, FAMILY_II):
            have.setdefault((e.pair, e.shift), set()).add(e.cls)
        want = {}
        for fam in catalog.quartic_proposition(label)["families"]:
            pair = make_pair(*fam["pair"])
            for k in range(3, 11):
                want[(pair, k)] = {catalog_class(c, k) for c in fam["classes"]}
        assert have == want


    @pytest.mark.parametrize("label", LABELS)
    def test_derived_generator_curve_and_pairs(self, label):
        prop, div = catalog.quartic_proposition(label), divisor(label)
        lattice = div.lattice
        assert tuple(prop["curve"]) == (lattice.hc, lattice.c2 // 2 + 1)
        assert [make_pair(*fam["pair"]) for fam in prop["families"]] == list(div.pairs)

    def test_derived_low_degree_pairs(self):
        for doc in catalog.low_degree_corollaries():
            fams = classify_low_degree(doc["surface_degree"], doc["type"])
            (fam,) = [f for f in fams if f.case_label == doc["case"]]
            assert (fam.pair, fam.k_min) == (make_pair(*doc["pair"]), doc["k_min"])


def irreducible_orbits(degree):
    """The irreducible kinds (normalized a, b) of a degree, read from its kind
    catalog, grouped into duality orbits: orbits in least-representative
    order, members in sort_key order."""
    orbits = {}
    for e in enumerate_kinds(EnumerationConfig(degree)).entries:
        if not is_reducible_type(degree_matrix(e.representative)):
            key = frozenset((e.signature, e.signature.anti_transpose()))
            orbits.setdefault(key, []).append((e.representative.a, e.representative.b))
    return list(orbits.values())


class TestSurfaceTypeCensus:
    """The surface types are derived from the kind catalogs: pin their census,
    so a change to the enumeration or to is_reducible_type fails here first."""

    IRREDUCIBLE = {2: 1, 3: 3, 4: 8}
    ORBITS = {2: 1, 3: 2, 4: 5}  # after the exclusion
    EXCLUDED = ((0, 0, 1), (1, 2, 2))

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_census(self, degree):
        orbits = irreducible_orbits(degree)
        n_kinds = sum(map(len, orbits))
        assert n_kinds == self.IRREDUCIBLE[degree], (
            f"degree {degree}: {n_kinds} irreducible kinds, expected {self.IRREDUCIBLE[degree]}"
        )
        kept = [o for o in orbits if self.EXCLUDED not in o]
        assert len(kept) == self.ORBITS[degree], (
            f"degree {degree}: {len(kept)} orbits after the exclusion, "
            f"expected {self.ORBITS[degree]}"
        )
        # each type holds its orbit, shifted by +1
        derived = [list(pairs) for label, pairs in classifier._surface_types(degree).items()
                   if label != "reducible"]
        assert derived == [[make_pair(a, b).shift(1) for a, b in o] for o in kept]

    def test_the_one_excluded_kind(self):
        assert set(classifier._EXCLUDED_KINDS) == {self.EXCLUDED}
        # an irreducible quartic kind that is its own dual
        assert [self.EXCLUDED] in irreducible_orbits(4)

    def test_one_reducible_quadric_kind(self):
        assert classifier._surface_types(2)["reducible"] == (make_pair((1, 2), (2, 3)),)


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


# a table's invariants are computed once per table, and each entry on it is
# still compared with them: a wrong table at one shift or one d is refused.
# Offset 1 makes the degree a half-integer, offset 2 the genus, and offset 6
# leaves both wrong integers.  Shift 2 is RESIDUAL: a table without
# invariants is skipped only when its twist sums are equal, so a wrong one
# is refused, not dropped
@pytest.mark.parametrize("offset", [1, 2, 6])
@pytest.mark.parametrize("shift, provenance", [(1000, FAMILY_II), (2, RESIDUAL)])
def test_a_wrong_shift_table_is_refused(monkeypatch, shift, provenance, offset):
    wrong = one_twist_off(classifier.surface_generator_table, shift, offset)
    monkeypatch.setattr(classifier, "surface_generator_table", wrong)
    with pytest.raises(ClassificationError,
                       match=rf"^cross-check failed for F2 class .* \({provenance}\): table "):
        classify_quartic(divisor("F2"), k_max=2000)


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


def _linkage_one_genus_off(monkeypatch):
    real = classifier.residual_invariants

    def off(c, ci):
        linked = real(c, ci)
        return CurveInvariants(linked.degree, linked.genus + 1)
    monkeypatch.setattr(classifier, "residual_invariants", off)


@pytest.mark.parametrize("patch, message", [
    (_no_classes, re.escape("F2: no integer class of degree 11, genus 14 at shift 3") + "$"),
    (_an_extra_rigid_class, re.escape(f"F2: no pivot table resolves the rigid class {cls(5, 0)}")
     + "$"),
    (_linkage_one_genus_off, "F2: linking "),
])
def test_each_refusal_names_its_check(monkeypatch, patch, message):
    patch(monkeypatch)
    with pytest.raises(ClassificationError, match=f"^{message}"):
        classify_quartic(divisor("F2"), k_max=6)


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
