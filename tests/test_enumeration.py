import functools
import importlib
import itertools
import json
import pkgutil
import tracemalloc
from math import comb

import pytest

from acmcurves import (
    EnumerationConfig,
    enumerate_kinds,
    enumerate_pairs,
    make_pair,
    match_families,
    normalize,
    pair_signature,
    stable_cap,
)
import acmcurves
from acmcurves import enumeration
from acmcurves.catalog import kind_families
from acmcurves.enumeration import KindCatalog, KindEntry
from acmcurves.liaison import CiProfile
from acmcurves.pairs import DegreeMatrix, PairError, WeakAdmissiblePair, degree_matrix, kind_signature
from acmcurves.picard import PicardLattice
from acmcurves.resolutions import BettiTable, CurveInvariants, InvalidTableError


def brute_force_pairs(degree: int, b_cap: int) -> set[WeakAdmissiblePair]:
    """Independent oracle: scan all nondecreasing tuples outright."""
    found = set()
    for t in range(2, degree + 1):
        for a in itertools.combinations_with_replacement(range(0, b_cap), t):
            if a[0] != 0:
                continue
            for b in itertools.combinations_with_replacement(range(1, b_cap + 1), t):
                if all(ai < bi for ai, bi in zip(a, b)) and sum(b) - sum(a) == degree:
                    found.add(make_pair(a, b))
    return found


def count_pairs(degree: int, b_cap: int) -> int:
    """Independent counter: the normalized pairs of a degree with b_t <= b_cap,
    by a dynamic program over (a_t, b_t, trace) written from the definition
    (a_1 = 0, a and b nondecreasing, a_i < b_i, trace = degree, length >= 2).

    ends[a][b] counts the prefixes of the current trace whose last index is
    (a, b).  A prefix ending at (a, b) extends one ending componentwise at or
    below it with b - a less trace, so below[tr][a][b], the count of prefixes
    of trace tr ending at or below (a, b), gives each level from the earlier
    ones.  The one prefix of length 1 and full trace, ((0,), (degree,)), is
    not a pair."""
    size = b_cap + 1
    below = [[[0] * size for _ in range(size)] for _ in range(degree + 1)]
    for tr in range(1, degree + 1):
        ends = [[0] * size for _ in range(size)]
        for a in range(b_cap):
            for b in range(a + 1, min(a + tr, b_cap) + 1):
                ends[a][b] = (a == 0 and b == tr) + below[tr - (b - a)][a][b]
        acc = below[tr]
        for a in range(size):
            for b in range(size):
                acc[a][b] = (ends[a][b] + (acc[a - 1][b] if a else 0) + (acc[a][b - 1] if b else 0)
                             - (acc[a - 1][b - 1] if a and b else 0))
    return below[degree][b_cap][b_cap] - 1


@functools.cache
def reference_kinds(cfg: EnumerationConfig) -> dict:
    """Signature -> (least pair, pair count), grouped one pair at a time
    by the reference kind_signature(degree_matrix(p)), which shares no
    code with the one-pass pair_signature; every pair also checks that
    pair_signature agrees with it.  The least pair of each kind is also
    componentwise least in a, so its b_t is the least of the kind."""
    kinds = {}
    lows = {}
    for p in enumerate_pairs(cfg):
        sig = kind_signature(degree_matrix(p))
        assert pair_signature(p) == sig, p
        least, count = kinds.get(sig, (p, 0))
        kinds[sig] = (min(least, p, key=lambda q: q.sort_key), count + 1)
        lows[sig] = tuple(map(min, lows.get(sig, p.a), p.a))
    for sig, (least, _) in kinds.items():
        assert least.a == lows[sig], (least, lows[sig])
    return kinds


# every bound from the degree to stable_cap + degree at degrees 2..5,
# and the complete degree-6 catalog
REFERENCE_CASES = [
    (d, cap) for d in range(2, 6) for cap in range(d, stable_cap(d) + d + 1)
] + [(6, 26)]

# every bound from the degree to stable_cap at degrees 2..4, and the
# first bounds at degree 5, where the brute force stays under a second
BRUTE_FORCE_CASES = [
    (d, cap) for d in range(2, 5) for cap in range(d, stable_cap(d) + 1)
] + [(5, cap) for cap in range(5, 10)]


class TestEnumeratePairs:
    def test_degree2_cap2(self):
        # hand/oracle enumeration: two trace-2 normalized pairs fit under b_t <= 2
        got = set(enumerate_pairs(EnumerationConfig(2, 2)))
        assert got == {make_pair((0, 0), (1, 1)), make_pair((0, 1), (1, 2))}
        assert got == brute_force_pairs(2, 2)

    def test_degree2_cap4_contains_shifted_family(self):
        got = set(enumerate_pairs(EnumerationConfig(2, 4)))
        for n in range(3):
            assert normalize(make_pair((1, 1 + n), (2, 2 + n))) in got

    def test_degree4_contains_all_ones(self):
        got = enumerate_pairs(EnumerationConfig(4, 4))
        assert make_pair((0, 0, 0, 0), (1, 1, 1, 1)) in got

    @pytest.mark.parametrize("degree,cap", BRUTE_FORCE_CASES)
    def test_against_brute_force(self, degree, cap):
        got = enumerate_pairs(EnumerationConfig(degree, cap))
        assert len(got) == len(set(got))
        assert set(got) == brute_force_pairs(degree, cap)

    @pytest.mark.parametrize("degree,cap,total", [(4, 10, 380), (5, 17, 8919), (6, 26, 274875)])
    def test_pinned_pair_totals(self, degree, cap, total):
        # measured with the exhaustive walk before the kind catalog was
        # built from gap-compressed pairs; the catalog's counts must agree
        cfg = EnumerationConfig(degree, cap)
        assert len(enumerate_pairs(cfg)) == total
        assert sum(e.count for e in enumerate_kinds(cfg).entries) == total

    @pytest.mark.parametrize("degree,cap", [
        (d, cap) for d in range(2, 6) for cap in range(d, stable_cap(d) + d + 1)
    ] + [(6, 12), (6, 26), (6, 32)])
    def test_catalog_counts_agree_with_the_independent_counter(self, degree, cap):
        cfg = EnumerationConfig(degree, cap)
        assert sum(e.count for e in enumerate_kinds(cfg).entries) == count_pairs(degree, cap)

    @pytest.mark.parametrize("degree,cap,total", [(7, 37, 10494329), (8, 50, 477761938)])
    def test_independent_counter_at_degrees_7_and_8(self, degree, cap, total):
        # the degree-7 row of `kind_census.py 7` and the degree-8 pair total of
        # the keys-only walk, both from code the counter shares nothing with
        assert count_pairs(degree, cap) == total

    def test_lengths_and_normal_form(self):
        for p in enumerate_pairs(EnumerationConfig(5)):
            assert 2 <= p.length <= 5
            assert p.a[0] == 0
            assert p.degree == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnumerationConfig(1)
        with pytest.raises(ValueError):
            EnumerationConfig(4, 3)
        assert EnumerationConfig(4).b_cap == stable_cap(4) == 10


class TestKindCatalog:
    def test_degree2_has_two_kinds(self):
        kinds = enumerate_kinds(EnumerationConfig(2))
        assert len(kinds) == 2
        want = {
            pair_signature(make_pair((1, 1), (2, 2))),
            pair_signature(make_pair((1, 2), (2, 3))),
        }
        assert kinds.signatures() == want

    def test_degree3_kind_count(self):
        # 13 kinds: the 8 cataloged families, with 5 of them split by
        # entries that sit below the BIG threshold at small parameters
        assert len(enumerate_kinds(EnumerationConfig(3))) == 13

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_signatures_stable_beyond_default_cap(self, degree):
        cap = stable_cap(degree)
        base = enumerate_kinds(EnumerationConfig(degree, cap)).signatures()
        wider = enumerate_kinds(EnumerationConfig(degree, cap + degree)).signatures()
        assert base == wider

    def test_degree4_needs_more_than_twice_the_degree(self):
        # the all-BIG length-4 kind first appears at b_t = 10
        small = enumerate_kinds(EnumerationConfig(4, 8)).signatures()
        full = enumerate_kinds(EnumerationConfig(4, 10)).signatures()
        assert small < full
        witness = pair_signature(make_pair((0, 3, 6, 9), (1, 4, 7, 10)))
        assert witness in full - small

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_closed_under_duality(self, degree):
        sigs = enumerate_kinds(EnumerationConfig(degree)).signatures()
        assert {s.anti_transpose() for s in sigs} == sigs

    @pytest.mark.parametrize("degree,cap", REFERENCE_CASES)
    def test_representative_is_least_and_counts_add_up(self, degree, cap):
        cfg = EnumerationConfig(degree, cap)
        entries = enumerate_kinds(cfg).entries
        got = {e.signature: (e.representative, e.count) for e in entries}
        assert len(got) == len(entries)
        assert got == reference_kinds(cfg)
        keys = [e.representative.sort_key for e in entries]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_all_ones_kinds_number_degree_to_the_degree_minus_1(self, degree):
        """The kinds whose representative has every diagonal gap b_i - a_i = 1
        number d^(d-1): 2, 9, 64, 625 and 7 776 at degrees 2..6.  This is a
        pattern measured on the catalogs, not a theorem."""
        kinds = enumerate_kinds(EnumerationConfig(degree))
        ones = [e for e in kinds.entries
                if all(b - a == 1 for a, b in zip(e.representative.a, e.representative.b))]
        assert len(ones) == degree ** (degree - 1)

    def test_cap_of_a_billion_keeps_the_kinds(self):
        # degree 2 pairs are exactly (0, x), (1, x + 1) with x < cap, and
        # x = 0 is a kind of its own; a cap this large must neither build
        # a table of cap entries nor change the kinds
        tracemalloc.start()
        try:
            two = enumerate_kinds(EnumerationConfig(2, 10**9)).entries
            huge = {d: enumerate_kinds(EnumerationConfig(d, 10**9)).entries for d in (3, 4, 5)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert [(e.representative, e.count) for e in two] == [
            (make_pair((0, 0), (1, 1)), 1),
            (make_pair((0, 1), (1, 2)), 10**9 - 1),
        ]
        for degree, entries in huge.items():
            stable = enumerate_kinds(EnumerationConfig(degree)).entries
            assert [(e.signature, e.representative) for e in entries] == [
                (e.signature, e.representative) for e in stable
            ]

    def test_degree6_catalog_is_compact(self):
        # 14 137 kinds in ~5.7 MiB: slotted objects whose signatures share
        # their rows; with an instance __dict__ per object and a copy of
        # every row per kind the same catalog kept 13.4 MiB
        tracemalloc.start()
        try:
            kinds = enumerate_kinds(EnumerationConfig(6))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kinds) == 14137
        assert retained < 9 * 2**20

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_signatures_share_equal_rows(self, degree):
        rows = [row for e in enumerate_kinds(EnumerationConfig(degree)).entries
                for row in e.signature.cells]
        assert len({id(row) for row in rows}) == len(set(rows))

    def test_every_representative_is_validated(self, monkeypatch):
        pairs = set()

        def new(cls, a, b, check=WeakAdmissiblePair.__new__):
            obj = check(cls, a, b)
            pairs.add(obj)
            return obj
        monkeypatch.setattr(WeakAdmissiblePair, "__new__", new)
        kinds = enumerate_kinds(EnumerationConfig(4, 8))
        for e in kinds.entries:
            assert e.representative in pairs
            # the catalog builds no matrix: build and validate each one here
            assert e.signature == kind_signature(degree_matrix(e.representative))


def test_every_record_is_slotted():
    # a catalog holds three records per kind and a quartic table one entry
    # per class, so every record is a named tuple with no instance
    # __dict__, and no class is a dataclass, whose module loads `inspect`
    classes = {
        cls
        for info in pkgutil.iter_modules(acmcurves.__path__)
        for module in [importlib.import_module(f"acmcurves.{info.name}")]
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    }
    records = {cls for cls in classes if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert {c.__name__ for c in records} == {
        "WeakAdmissiblePair", "DegreeMatrix", "KindSignature",
        "EnumerationConfig", "KindEntry", "KindCatalog",
        "PicardLattice", "DivisorClass", "WatanabeCase",
        "BettiTable", "CurveInvariants", "CiProfile",
        "QuarticDivisor", "ClassificationEntry", "LowDegreeFamily",
        "Constraint", "PairFamily", "Row",
    }
    for cls in records:
        assert "__slots__" in vars(cls), cls
        assert "__dict__" not in dir(cls), cls
    assert [cls for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


def _built(build):
    """What a construction gives: the record and its len, or its error."""
    try:
        record = build()
    except ValueError as err:
        return type(err), str(err)
    return type(record), record, len(record)


_DEGREE3 = enumerate_kinds(EnumerationConfig(3))


# (record class, fields, a change of them, what the changed record builds to)
_CONSTRUCTIONS = [
    (WeakAdmissiblePair, ((0, 1), (1, 2)), {"b": (0, 0)},
     (PairError, "a_i < b_i violated at index 1")),
    (DegreeMatrix, (2, ((1, 1), (0, 1))), {"degree": 3},
     (ValueError, "trace 2 does not equal the declared degree 3")),
    (EnumerationConfig, (5, None), {"b_cap": 4},
     (ValueError, "b_cap below the degree misses kinds with BIG entries")),
    (PicardLattice, (4, 1, -2), {"c2": 2},
     (ValueError, "determinant 7 must be negative (signature (1,1))")),
    (BettiTable, ((3, 1), (4,)), {"syz": (0,)}, (InvalidTableError, "nonpositive twist")),
    (CurveInvariants, (3, 0), {"degree": 0}, (ValueError, "degree must be positive, got 0")),
    (CiProfile, (4, 2), {"s_prime": 0},
     (ValueError, "linking surface degrees must be positive")),
    (KindCatalog, tuple(_DEGREE3), {"entries": _DEGREE3.entries[:1]},
     (KindCatalog, (3, _DEGREE3.b_cap, _DEGREE3.entries[:1]), 1)),
]


@pytest.mark.parametrize("cls,fields,change,want", _CONSTRUCTIONS,
                         ids=[case[0].__name__ for case in _CONSTRUCTIONS])
def test_every_construction_path_checks_alike(cls, fields, change, want):
    # `_make` and `_replace` build through the constructor: a checked
    # record raises the constructor's error, an unsorted table is sorted,
    # a default bound is filled in, and a catalog's len stays its number
    # of entries
    record = cls(*fields)
    assert _built(lambda: cls._make(fields)) == _built(lambda: record)
    changed = record._asdict() | change
    assert _built(lambda: cls(**changed)) == want
    assert _built(lambda: cls._make(changed.values())) == want
    assert _built(lambda: record._replace(**change)) == want


def merged_gaps(p: WeakAdmissiblePair) -> list[int]:
    values = sorted(p.a + p.b)
    return [y - x for x, y in zip(values, values[1:])]


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_gap_compression_keeps_every_kind(degree):
    # any gap > d between the merged values of a and b can shrink to d
    # without changing the kind, so pairs with all gaps <= d suffice
    cfg = EnumerationConfig(degree)
    kinds = reference_kinds(cfg)
    for least, _ in kinds.values():
        assert max(merged_gaps(least)) <= degree
    compressed = {
        pair_signature(p)
        for p in enumerate_pairs(cfg)
        if max(merged_gaps(p)) <= degree
    }
    assert compressed == set(kinds)


def shrink_to_least(p: WeakAdmissiblePair, degree: int) -> WeakAdmissiblePair:
    """The sharp gap lemma, written from its statement: lower every gap
    a_i - b_{i-1} above tau_i = d - g_{i-1} - g_i to tau_i, keeping the
    diagonal gaps g_i = b_i - a_i."""
    g = [y - x for x, y in zip(p.a, p.b)]
    a, b = [0], [g[0]]
    for i in range(1, len(g)):
        tau = degree - g[i - 1] - g[i]
        assert tau >= 0  # the sum of the other diagonal gaps
        a.append(b[-1] + min(p.a[i] - p.b[i - 1], tau))
        b.append(a[-1] + g[i])
    return make_pair(a, b)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_gap_lemma_over_full_ranges(degree):
    # every pair under stable_cap + d keeps its kind when each gap above
    # its tau shrinks to it, and all pairs of one kind shrink to its least
    cfg = EnumerationConfig(degree, stable_cap(degree) + degree)
    least = {sig: p for sig, (p, _) in reference_kinds(cfg).items()}
    for p in enumerate_pairs(cfg):
        sig = kind_signature(degree_matrix(p))
        q = shrink_to_least(p, degree)
        assert kind_signature(degree_matrix(q)) == sig, (p, q)
        assert q == least[sig], (p, q)


LEAF_CASES = REFERENCE_CASES + [(5, 25)]


@pytest.mark.parametrize("degree,cap", LEAF_CASES)
def test_catalog_walks_one_least_pair_per_kind(degree, cap):
    # the catalog's walk yields exactly the least pair of each kind, once,
    # and the count it derives from each is the number of pairs of its kind
    cfg = EnumerationConfig(degree, cap)
    leaves = list(enumeration._walk(cfg, True))
    got = {make_pair(a, b): comb(m + cap - b[-1], m) for a, b, m in leaves}
    assert len(got) == len(leaves)
    assert got == dict(reference_kinds(cfg).values())
    assert sum(got.values()) == len(enumerate_pairs(cfg))


def test_degree7_walk_pins():
    # 222 605 kinds at (7, 37), whose counts add up to count_pairs(7, 37),
    # and 7^6 of them with every diagonal gap 1, that is of length 7
    leaves = total = ones = 0
    for a, b, m in enumeration._walk(EnumerationConfig(7, 37), True):
        leaves += 1
        total += comb(m + 37 - b[-1], m)
        ones += len(a) == 7
    assert (leaves, total, ones) == (222605, 10494329, 7**6)


def reference_json(catalog: KindCatalog) -> str:
    return json.dumps(catalog.to_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize("degree,cap", [
    (d, cap) for d in range(2, 7) for cap in range(d, stable_cap(d) + d + 1)
])
def test_json_chunks_equal_json_dumps(degree, cap):
    # the writer `pairs enumerate` streams, byte for byte the reference, at
    # every bound the CLI accepts up to degree 6
    catalog = enumerate_kinds(EnumerationConfig(degree, cap))
    chunks = list(catalog.json_chunks())
    assert "".join(chunks) == reference_json(catalog)
    # the head, one piece per kind, the tail
    assert len(chunks) == len(catalog) + 2


@pytest.mark.parametrize("entries", [
    (),
    # a count past 2^64, and a signature whose rows are not the shared ones
    (KindEntry(kind_signature(degree_matrix(make_pair((0, 0), (1, 2)))),
               make_pair((0, 0), (1, 2)), 10**30),),
    tuple(KindEntry(pair_signature(p), p, i) for i, p in enumerate(
        [make_pair((0, 5, 9), (1, 6, 11)), make_pair((0, 0), (1, 2))])),
], ids=["empty", "planted", "unsorted"])
def test_json_chunks_of_planted_catalogs(entries):
    catalog = KindCatalog(3, 9, entries)
    chunks = list(catalog.json_chunks())
    assert "".join(chunks) == reference_json(catalog)
    assert len(chunks) == len(entries) + 2


class TestMatching:
    def test_degree_mismatch_rejected(self):
        kinds = enumerate_kinds(EnumerationConfig(3))
        with pytest.raises(ValueError, match="degree"):
            match_families(kinds, kind_families(4)[:1])

    def test_empty_expected_reports_everything_unmatched(self):
        kinds = enumerate_kinds(EnumerationConfig(3))
        _, generated = match_families(kinds, ())
        assert generated == set()

    def test_min_matrices_all_occur(self):
        kinds = enumerate_kinds(EnumerationConfig(3))
        matched, _ = match_families(kinds, kind_families(3))
        assert all(ok for _, ok in matched)

    @pytest.mark.parametrize(
        "degree,cap", [(2, 4), (3, 6), (4, 8), (4, 10)]
    )
    def test_families_explain_the_whole_catalog(self, degree, cap):
        kinds = enumerate_kinds(EnumerationConfig(degree, cap))
        matched, generated = match_families(kinds, kind_families(degree))
        assert all(ok for _, ok in matched) and generated == kinds.signatures()

    @pytest.mark.parametrize("degree,cap", [(2, 4), (3, 6), (4, 8)])
    def test_families_cover_every_pair(self, degree, cap):
        enumerated = set(enumerate_pairs(EnumerationConfig(degree, cap)))
        instances = set()
        for fam in kind_families(degree):
            instances |= set(fam.instances(cap))
        assert instances == enumerated


def test_op_level_match_of_the_degree4_minimum_matrices():
    kinds = enumerate_kinds(EnumerationConfig(4, 8))
    expected = tuple(f for f in kind_families(4) if f.name != "M29")
    assert len(expected) == 28
    matched, _ = match_families(kinds, expected)
    assert all(ok for _, ok in matched)


def test_enumeration_is_deterministic():
    cfg = EnumerationConfig(4, 8)
    assert enumerate_pairs(cfg) == enumerate_pairs(cfg)
    assert enumerate_kinds(cfg) == enumerate_kinds(cfg)
