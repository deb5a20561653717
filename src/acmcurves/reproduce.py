"""Batch verification of every cataloged table against computed output.

Each target re-derives one block of the expected catalog
(data/catalog.json) from scratch and reports one PASS/FAIL row per
checked fact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from . import catalog
from .classifier import (
    COMPLETE_INTERSECTION,
    FAMILY_II,
    RESIDUAL,
    RIGID,
    classify_low_degree,
    classify_quartic,
    cross_check,
    divisor,
)
from .enumeration import EnumerationConfig, enumerate_kinds, match_families, stable_cap
from .catalog import eval_affine, parse_affine
from .labels import DIVISOR_LABELS, TARGET_NAMES
from .liaison import CiProfile, link_is_involution_check, residual_invariants
from .pairs import anti_transpose, degree_matrix, make_pair
from .picard import DivisorClass
from .resolutions import BettiTable, CurveInvariants

# the degree-4 catalog is checked at this bound; the family tables are
# complete at every bound, so no kind goes unexplained even below stable_cap
DEGREE4_CAP = 8
DIVISOR_K_MAX = 6
LOW_DEGREE_K_SPAN = 6
LINK_SAMPLES = 1000
LINK_SEED = 20250809


@dataclass(frozen=True)
class Row:
    target: str
    label: str
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    @property
    def line(self) -> str:
        """The row as one report line: status, target, label, detail."""
        line = f"{self.status}  [{self.target}] {self.label}"
        return f"{line}  ({self.detail})" if self.detail else line

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "row": self.label,
            "status": self.status,
            "detail": self.detail,
        }


def _kinds_rows(degree: int, b_cap: int) -> list[Row]:
    target = f"degree{degree}-kinds"
    families = catalog.kind_families(degree)
    kinds = enumerate_kinds(EnumerationConfig(degree, b_cap))
    report = match_families(kinds, families)
    rows = [
        Row(target, f"{name} kind present at minimum parameters", ok)
        for name, ok in report.matched
    ]
    rows.append(
        Row(
            target,
            f"all {len(kinds)} catalog kinds generated by the {len(families)} families",
            not report.unmatched_signatures,
            f"unexplained: {[s.render() for s in report.unmatched_signatures]}"
            if report.unmatched_signatures else "",
        )
    )
    sigs = kinds.signatures()
    rows.append(
        Row(
            target,
            "catalog closed under duality (anti-transposed kinds present)",
            {s.anti_transpose() for s in sigs} == sigs,
        )
    )
    window = degree + 3
    for fam in families:
        partner = catalog.family_by_name(degree, fam.dual_name)
        ok = True
        checked = 0
        for env in fam.envs(window):
            mapped = fam.map_params(env)
            if not all(c.holds(mapped) for c in partner.constraints):
                ok = False
                break
            lhs = anti_transpose(degree_matrix(fam.instantiate(env)))
            rhs = degree_matrix(partner.instantiate(mapped))
            if lhs != rhs:
                ok = False
                break
            checked += 1
        rows.append(
            Row(
                target,
                f"duality {fam.name}^a = {fam.dual_name}",
                ok and checked > 0,
                f"{checked} parameter choices",
            )
        )
    return rows


def _expected_class(exprs: list[str], k: int) -> DivisorClass:
    env = {"k": k}
    return DivisorClass(
        eval_affine(parse_affine(exprs[0]), env),
        eval_affine(parse_affine(exprs[1]), env),
    )


def _poly(coeffs: list[int], k: int) -> int:
    # [c1, c0] or [c2, c1, c0]
    value = 0
    for c in coeffs:
        value = value * k + c
    return value


def _divisor_rows(label: str) -> list[Row]:
    expected = catalog.quartic_proposition(label)
    div = divisor(label)
    entries = classify_quartic(div, k_max=DIVISOR_K_MAX)
    rows: list[Row] = []

    rigid = {e.cls: e.invariants for e in entries if e.provenance == RIGID}
    want_rigid = {
        DivisorClass(*r["class"]): CurveInvariants(r["degree"], r["genus"])
        for r in expected["rigid"]
    }
    rows.append(
        Row(
            label,
            f"rigid classes = {sorted(want_rigid)}",
            rigid == want_rigid,
            f"computed {sorted(rigid)}" if rigid != want_rigid else "",
        )
    )

    by_k: dict[int, dict[DivisorClass, CurveInvariants]] = {}
    for e in entries:
        if e.provenance == FAMILY_II:
            by_k.setdefault(e.shift, {})[e.cls] = e.invariants
    for fam in expected["families"]:
        ok = True
        detail = ""
        for k in range(fam["k_min"], DIVISOR_K_MAX + 1):
            want = {
                _expected_class(c, k): CurveInvariants(
                    _poly(fam["degree"], k), _poly(fam["genus"], k)
                )
                for c in fam["classes"]
            }
            have = by_k.get(k, {})
            if not all(have.get(cls) == inv for cls, inv in want.items()):
                ok = False
                detail = f"mismatch at k={k}: expected {want}, emitted {have}"
                break
        pair = make_pair(*fam["pair"])
        rows.append(
            Row(label, f"family {pair} classes and invariants for k in "
                       f"[{fam['k_min']},{DIVISOR_K_MAX}]", ok, detail)
        )

    residual = {
        (e.cls, e.invariants) for e in entries if e.provenance == RESIDUAL
    }
    for r in expected["residuals"]:
        cls = DivisorClass(*r["class"])
        inv = CurveInvariants(r["degree"], r["genus"])
        linked = residual_invariants(
            CurveInvariants(*r["partner"]), CiProfile(*r["ci"])
        )
        rows.append(
            Row(
                label,
                f"residual class {cls} has invariants ({r['degree']},{r['genus']})",
                (cls, inv) in residual and linked == inv,
                f"linkage of {tuple(r['partner'])} in {tuple(r['ci'])} gives "
                f"({linked.degree},{linked.genus})",
            )
        )

    ci_expected = expected["complete_intersections"]
    ci_have = {
        e.cls: e.invariants
        for e in entries
        if e.provenance == COMPLETE_INTERSECTION
    }
    ci_ok = all(
        ci_have.get(DivisorClass(dd, 0))
        == CurveInvariants(_poly(ci_expected["degree"], dd), _poly(ci_expected["genus"], dd))
        for dd in range(2, DIVISOR_K_MAX + 1)
    )
    rows.append(Row(label, f"complete intersections dH for d in [2,{DIVISOR_K_MAX}]", ci_ok))

    rows.append(
        Row(
            label,
            f"lattice/resolution cross-check on all {len(entries)} entries",
            all(cross_check(e, div.lattice) for e in entries),
        )
    )
    return rows


def _low_degree_rows() -> list[Row]:
    target = "low-degree-corollaries"
    rows = []
    for doc in catalog.low_degree_corollaries():
        fams = classify_low_degree(doc["surface_degree"], doc["type"])
        fam = next(f for f in fams if f.case_label == doc["case"])
        ok = fam.pair == make_pair(*doc["pair"]) and fam.k_min == doc["k_min"]
        for k in range(doc["k_min"], doc["k_min"] + LOW_DEGREE_K_SPAN):
            want = BettiTable(
                tuple(eval_affine(parse_affine(e), {"k": k}) for e in doc["gens"]),
                tuple(eval_affine(parse_affine(e), {"k": k}) for e in doc["syz"]),
            )
            if fam.table(k) != want:
                ok = False
                break
        rows.append(
            Row(
                target,
                f"degree-{doc['surface_degree']} type {doc['type']} case "
                f"{doc['case']}: resolutions for k in "
                f"[{doc['k_min']},{doc['k_min'] + LOW_DEGREE_K_SPAN - 1}]",
                ok,
            )
        )
    return rows


def _liaison_rows() -> list[Row]:
    target = "liaison-table"
    rows = []
    for doc in catalog.liaison_table():
        start = CurveInvariants(*doc["start"])
        ci = CiProfile(*doc["ci"])
        got = residual_invariants(start, ci)
        want = CurveInvariants(*doc["residual"])
        rows.append(
            Row(
                target,
                f"({start.degree},{start.genus}) in ({ci.s},{ci.s_prime}) -> "
                f"({want.degree},{want.genus})",
                got == want,
                f"computed ({got.degree},{got.genus})" if got != want else "",
            )
        )
    rng = random.Random(LINK_SEED)
    ok = True
    for _ in range(LINK_SAMPLES):
        s, s_prime = rng.randint(1, 12), rng.randint(1, 12)
        while s * s_prime < 2:  # a (1,1) intersection links nothing
            s, s_prime = rng.randint(1, 12), rng.randint(1, 12)
        degree = rng.randint(1, s * s_prime - 1)
        c = CurveInvariants(degree, rng.randint(0, 60))
        if not link_is_involution_check(c, CiProfile(s, s_prime)):
            ok = False
            break
    rows.append(Row(target, f"double linkage is the identity ({LINK_SAMPLES} random inputs)", ok))
    return rows


# target name -> the rows it checks, in report order
TARGETS = dict(zip(TARGET_NAMES, (
    partial(_kinds_rows, 2, stable_cap(2)),
    partial(_kinds_rows, 3, stable_cap(3)),
    partial(_kinds_rows, 4, DEGREE4_CAP),
    *(partial(_divisor_rows, label) for label in DIVISOR_LABELS),
    _low_degree_rows,
    _liaison_rows,
), strict=True))


def run_target(target: str) -> list[Row]:
    if target not in TARGETS:
        raise KeyError(f"unknown target {target!r}; expected one of {tuple(TARGETS)}")
    return TARGETS[target]()
