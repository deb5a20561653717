"""The failure paths of `reproduce`: a target fed a wrong expected value
must FAIL the row that checks it, with its detail, and pass the others.

Each case edits a deep copy of the packaged catalog and serves it in
place of `catalog.raw`, so the real catalog and the other tests are
untouched.  The other cases patch a computing function that `reproduce`
calls, so a computed value is wrong against the real catalog.
"""

import copy
import json

import pytest

from acmcurves import catalog, reproduce
from acmcurves.classifier import COMPLETE_INTERSECTION, FAMILY_II, RESIDUAL, RIGID
from acmcurves.cli import run
from acmcurves.labels import DIVISOR_LABELS
from acmcurves.pairs import make_pair, pair_signature
from acmcurves.picard import DivisorClass
from acmcurves.resolutions import CurveInvariants, ci_table


@pytest.fixture
def serve_catalog(monkeypatch):
    """Serve an edited deep copy of the expected catalog to `reproduce`."""

    def apply(edit):
        doc = copy.deepcopy(catalog.raw())
        edit(doc)
        monkeypatch.setattr(catalog, "raw", lambda: doc)

    return apply


def _family(doc, degree, name):
    return next(f for f in doc["kind_families"][str(degree)] if f["name"] == name)


def _failing(target):
    return {r.label: r.detail for r in reproduce.run_target(target) if not r.ok}


def _assert_cli_fails(capsys, target, labels):
    assert run(["reproduce", target]) == 1
    table = capsys.readouterr().out
    assert all(f"FAIL  [{target}] {label}" in table for label in labels)
    assert run(["reproduce", target, "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert {r["row"] for r in rows if r["status"] == "FAIL"} == set(labels)


TYPE_2X2_ROW = "degree-3 type 2x2 case {}: resolutions for k in [0,5]"

F4_MISMATCH = (
    "mismatch at k=3: expected {(4, -1): CurveInvariants(degree=14, genus=28)}, "
    "emitted {(4, -1): CurveInvariants(degree=15, genus=28)}"
)

CASES = [
    # the mapped parameters break the dual family's constraint at once ...
    ("degree3-kinds", lambda doc: _family(doc, 3, "M3")["dual_map"].update(n="n-2"),
     {"duality M3^a = M4":
      "0 parameter choices; at {'n': 3} the mapped {'n': 1} breaks M4's constraints"}),
    # ... or after one good choice, so the row cannot pass on its count alone
    ("degree3-kinds", lambda doc: _family(doc, 3, "M3")["dual_map"].update(n="5-n"),
     {"duality M3^a = M4":
      "1 parameter choices; at {'n': 4} the mapped {'n': 1} breaks M4's constraints"}),
    # the mapped instance has another matrix, at once or after one good choice
    ("degree3-kinds", lambda doc: _family(doc, 3, "M6")["dual_map"].update(n="n+1"),
     {"duality M6^a = M7":
      "0 parameter choices; at {'n': 2} the anti-transposed matrix is not M7's at {'n': 3}"}),
    ("degree3-kinds", lambda doc: _family(doc, 3, "M6")["dual_map"].update(n="n+n-2"),
     {"duality M6^a = M7":
      "1 parameter choices; at {'n': 3} the anti-transposed matrix is not M7's at {'n': 4}"}),
    ("F4", lambda doc: doc["quartic_propositions"]["F4"]["families"][1].update(degree=[4, 2]),
     {"family ((1, 3), (4, 4)) classes and invariants for k in [3,6]": F4_MISMATCH}),
    ("low-degree-corollaries",
     lambda doc: doc["low_degree_corollaries"][0]["gens"].__setitem__(0, "2+k"),
     {"degree-2 type smooth case main: resolutions for k in [1,6]": ""}),
    # case B renamed C: C is not computed, and the computed B is not listed
    ("low-degree-corollaries",
     lambda doc: next(
         d for d in doc["low_degree_corollaries"] if d["case"] == "B"
     ).update(case="C"),
     {TYPE_2X2_ROW.format(case): "computed cases ['A', 'B']" for case in "AC"}),
    ("liaison-table", lambda doc: doc["liaison_table"][0].update(residual=[3, 2]),
     {"(1,0) in (4,1) -> (3,2)": "computed (3,1)"}),
]


@pytest.mark.parametrize("target,edit,failing", CASES, ids=[
    "constraint-at-once", "constraint-later", "matrix-at-once", "matrix-later",
    "family-degree", "low-degree-gens", "low-degree-case-renamed", "liaison-residual",
])
def test_wrong_expected_value_fails_its_row(serve_catalog, capsys, target, edit, failing):
    serve_catalog(edit)
    assert _failing(target) == failing
    _assert_cli_fails(capsys, target, failing)


def test_wrong_linkage_fails_the_table_and_double_linkage(monkeypatch, capsys):
    real = reproduce.residual_invariants

    def genus_off(c, ci):
        r = real(c, ci)
        return CurveInvariants(r.degree, r.genus + 1)

    monkeypatch.setattr(reproduce, "residual_invariants", genus_off)
    failing = _failing("liaison-table")
    table = {
        f"({d['start'][0]},{d['start'][1]}) in ({d['ci'][0]},{d['ci'][1]}) -> "
        f"({d['residual'][0]},{d['residual'][1]})":
            f"computed ({d['residual'][0]},{d['residual'][1] + 1})"
        for d in catalog.raw()["liaison_table"]
    }
    assert failing == {**table, "double linkage is the identity (1000 random inputs)": ""}
    _assert_cli_fails(capsys, "liaison-table", failing)


def test_family_rows_check_the_attached_pair(monkeypatch, capsys):
    # the two FAMILY_II pairs of F2 swapped on the computed rows: each
    # family's classes now sit under the other family's pair
    real = reproduce.classify_quartic

    def swapped(div, k_max):
        entries = real(div, k_max=k_max)
        p, q = {e.pair for e in entries if e.provenance == FAMILY_II}
        other = {p: q, q: p}
        return [
            e._replace(pair=other[e.pair]) if e.provenance == FAMILY_II else e
            for e in entries
        ]

    monkeypatch.setattr(reproduce, "classify_quartic", swapped)
    rows = reproduce.run_target("F2")
    failing = [r.label for r in rows if not r.ok]
    assert failing == [
        "family ((1, 1, 1), (2, 2, 3)) classes and invariants for k in [3,6]",
        "family ((1, 2, 2), (3, 3, 3)) classes and invariants for k in [3,6]",
    ]
    assert len(rows) == 7
    _assert_cli_fails(capsys, "F2", failing)


@pytest.mark.parametrize("label", DIVISOR_LABELS)
def test_stray_family_class_fails_its_family_row(monkeypatch, capsys, label):
    # the first FAMILY_II row of shift 5 relabelled as shift 4: every
    # class the catalog expects is still emitted at k = 4, next to one
    # class it does not list
    real = reproduce.classify_quartic

    def stray(div, k_max):
        entries = real(div, k_max=k_max)
        i = next(i for i, e in enumerate(entries) if e.provenance == FAMILY_II and e.shift == 5)
        entries[i] = entries[i]._replace(shift=4)
        return entries

    monkeypatch.setattr(reproduce, "classify_quartic", stray)
    rows = reproduce.run_target(label)
    first_family = next(r.label for r in rows if r.label.startswith("family "))
    failing = {r.label: r.detail for r in rows if not r.ok}
    assert list(failing) == [first_family]
    assert failing[first_family].startswith("mismatch at k=4: ")
    _assert_cli_fails(capsys, label, failing)


@pytest.mark.parametrize("label", DIVISOR_LABELS)
def test_stray_complete_intersection_fails_its_row(monkeypatch, capsys, label):
    # an extra 7H row past k_max = 6, whose table and invariants agree, so
    # the cross-check row cannot see it
    real = reproduce.classify_quartic

    def stray(div, k_max):
        entries = real(div, k_max=k_max)
        last = [e for e in entries if e.provenance == COMPLETE_INTERSECTION][-1]
        return entries + [last._replace(
            cls=DivisorClass(7, 0), invariants=CurveInvariants(28, 99), resolution=ci_table(4, 7)
        )]

    monkeypatch.setattr(reproduce, "classify_quartic", stray)
    failing = _failing(label)
    assert failing == {"complete intersections dH for d in [2,6]": ""}
    _assert_cli_fails(capsys, label, failing)


def _with_first_family_row(monkeypatch, **changes):
    """Append to every quartic table a copy of its first FAMILY_II row with
    `changes` applied."""
    real = reproduce.classify_quartic

    def patched(div, k_max):
        entries = real(div, k_max=k_max)
        first = next(e for e in entries if e.provenance == FAMILY_II)
        return entries + [first._replace(**changes)]

    monkeypatch.setattr(reproduce, "classify_quartic", patched)


@pytest.mark.parametrize("label", DIVISOR_LABELS[1:])  # F1 lists no residual class
def test_stray_residual_fails_the_residual_rows(monkeypatch, capsys, label):
    # every listed residual class is still computed, next to one the
    # catalog does not list; its table agrees with its class, so the
    # cross-check row cannot see it
    _with_first_family_row(monkeypatch, provenance=RESIDUAL)
    failing = _failing(label)
    residuals = catalog.raw()["quartic_propositions"][label]["residuals"]
    assert len(failing) == len(residuals) > 0
    assert all(row.startswith("residual class ") for row in failing)
    assert all("; computed {" in detail for detail in failing.values())
    _assert_cli_fails(capsys, label, failing)


@pytest.mark.parametrize("label,provenance", [
    (label, provenance) for label in DIVISOR_LABELS
    for provenance in (RIGID, RESIDUAL, FAMILY_II, COMPLETE_INTERSECTION)
    if (label, provenance) != ("F1", RESIDUAL)  # F1 lists no residual class
])
def test_repeated_entry_fails_the_rows_of_its_provenance(monkeypatch, capsys, label, provenance):
    # the first entry of the provenance computed twice: the same class,
    # table and invariants, so only a row that counts the class can see it
    before = reproduce.run_target(label)
    real = reproduce.classify_quartic
    first = next(e for e in real(reproduce.divisor(label), k_max=reproduce.DIVISOR_K_MAX)
                 if e.provenance == provenance)

    def repeated(div, k_max):
        entries = real(div, k_max=k_max)
        i = entries.index(first)
        return entries[:i + 1] + entries[i:]

    monkeypatch.setattr(reproduce, "classify_quartic", repeated)
    rows = reproduce.run_target(label)
    prefix = {RIGID: "rigid classes = ", RESIDUAL: "residual class ",
              FAMILY_II: f"family {first.pair} ",
              COMPLETE_INTERSECTION: "complete intersections "}[provenance]
    failing = [r.label for r in rows if not r.ok]
    assert failing and all(row.startswith(prefix) for row in failing)
    assert failing == [r.label for r in before if r.label.startswith(prefix)]
    # the last row, the cross-check, counts the entries; every other row
    # keeps its label, and every passing one its text
    assert rows[-1].label.startswith("lattice/resolution cross-check") and rows[-1].ok
    assert [r.label for r in rows[:-1]] == [r.label for r in before[:-1]]
    assert [r for r in rows[:-1] if r.ok] == [r for r in before[:-1] if r.label not in failing]
    _assert_cli_fails(capsys, label, failing)


# F1 lists no residual class, and F3's two share one (pair, shift)
@pytest.mark.parametrize("label", ["F2", "F4", "F5"])
def test_residual_repeated_under_an_earlier_group_fails_the_residual_rows(
        monkeypatch, capsys, label):
    # the last RESIDUAL class computed once more, under the (pair, shift)
    # of the first: a group read before the class's own
    real = reproduce.classify_quartic

    def repeated(div, k_max):
        entries = real(div, k_max=k_max)
        first, *_, last = [e for e in entries if e.provenance == RESIDUAL]
        assert (first.pair, first.shift) != (last.pair, last.shift)
        return entries + [last._replace(pair=first.pair, shift=first.shift)]

    monkeypatch.setattr(reproduce, "classify_quartic", repeated)
    failing = _failing(label)
    residuals = catalog.raw()["quartic_propositions"][label]["residuals"]
    assert len(failing) == len(residuals)
    assert all(row.startswith("residual class ") for row in failing)
    assert all(": None" in detail for detail in failing.values())
    _assert_cli_fails(capsys, label, failing)


@pytest.mark.parametrize("label", DIVISOR_LABELS)
def test_family_row_under_an_unlisted_pair_fails_every_family_row(monkeypatch, capsys, label):
    _with_first_family_row(monkeypatch, pair=make_pair((0, 0), (1, 3)))
    rows = reproduce.run_target(label)
    failing = {r.label: r.detail for r in rows if not r.ok}
    assert list(failing) == [r.label for r in rows if r.label.startswith("family ")]
    assert all(
        detail.startswith("mismatch at k=3 under ((0, 0), (1, 3)): expected {}, emitted {")
        for detail in failing.values()
    )
    _assert_cli_fails(capsys, label, failing)


@pytest.mark.parametrize("degree", [3, 4])
def test_kind_missing_from_the_catalog_fails_the_generation_row(monkeypatch, capsys, degree):
    # the last kind that is not self-dual and no family's minimal instance,
    # with its anti-transpose, dropped from the enumerated catalog: the
    # families still generate both, and every other row still passes
    real = reproduce.enumerate_kinds
    families = catalog.kind_families(degree)
    minimal = {pair_signature(f.min_instance()) for f in families}
    gone, kept = set(), []

    def dropped(cfg):
        kinds = real(cfg)
        sig = next(e.signature for e in reversed(kinds.entries)
                   if e.signature.anti_transpose() != e.signature
                   and not {e.signature, e.signature.anti_transpose()} & minimal)
        gone.update({sig, sig.anti_transpose()})
        kept[:] = [e for e in kinds.entries if e.signature not in gone]
        return kinds._replace(entries=tuple(kept))

    monkeypatch.setattr(reproduce, "enumerate_kinds", dropped)
    target = f"degree{degree}-kinds"
    failing = _failing(target)
    assert len(gone) == 2
    assert failing == {
        f"all {len(kept)} catalog kinds generated by the {len(families)} families":
            f"generated but not in the catalog: {sorted(s.render() for s in gone)}"
    }
    _assert_cli_fails(capsys, target, failing)


def test_extra_computed_case_fails_the_rows_of_its_type(monkeypatch, capsys):
    real = reproduce.classify_low_degree

    def extra(surface_degree, type_tag):
        fams = real(surface_degree, type_tag)
        if type_tag == "2x2":
            fams.append(fams[-1]._replace(case_label="C"))
        return fams

    monkeypatch.setattr(reproduce, "classify_low_degree", extra)
    failing = {TYPE_2X2_ROW.format(case): "computed cases ['A', 'B', 'C']" for case in "AB"}
    assert _failing("low-degree-corollaries") == failing
    _assert_cli_fails(capsys, "low-degree-corollaries", failing)
