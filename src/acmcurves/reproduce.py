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
from .labels import DIVISOR_LABELS, TARGET_NAMES
from .liaison import CiProfile, residual_invariants
from .pairs import WeakAdmissiblePair, anti_transpose, degree_matrix, make_pair
from .picard import DivisorClass
from .resolutions import BettiTable, CurveInvariants, surface_generator_table

# the degree-4 catalog is checked at this bound; the family tables are
# complete at every bound, so no kind goes unexplained even below stable_cap
DEGREE4_CAP = 8
DIVISOR_K_MAX = 6
LOW_DEGREE_K_SPAN = 6
LINK_SAMPLES = 1000
LINK_SEED = 20250809


@dataclass(frozen=True, slots=True)
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
    matched, unmatched = match_families(kinds, families)
    rows = [Row(target, f"{name} kind present at minimum parameters", ok) for name, ok in matched]
    rows.append(
        Row(
            target,
            f"all {len(kinds)} catalog kinds generated by the {len(families)} families",
            not unmatched,
            f"unexplained: {[s.render() for s in unmatched]}" if unmatched else "",
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
    by_name = {f.name: f for f in families}
    for fam in families:
        dual = by_name[fam.dual_name]
        checked, broken = 0, ""
        for env in fam.envs(degree + 3):
            mapped = fam.map_params(env)
            if not all(c.holds(mapped) for c in dual.constraints):
                broken = f"; at {env} the mapped {mapped} breaks {dual.name}'s constraints"
                break
            matrix = anti_transpose(degree_matrix(fam.instantiate(env)))
            if matrix != degree_matrix(dual.instantiate(mapped)):
                broken = f"; at {env} the anti-transposed matrix is not {dual.name}'s at {mapped}"
                break
            checked += 1
        rows.append(
            Row(
                target,
                f"duality {fam.name}^a = {fam.dual_name}",
                checked > 0 and not broken,
                f"{checked} parameter choices{broken}",
            )
        )
    return rows


def _at(exprs: list[str], k: int) -> tuple[int, ...]:
    """The catalog's affine expressions in k, evaluated at k."""
    return tuple(catalog.eval_affine(catalog.parse_affine(e), {"k": k}) for e in exprs)


def _poly(coeffs: list[int], k: int) -> int:
    # [c1, c0] or [c2, c1, c0]
    value = 0
    for c in coeffs:
        value = value * k + c
    return value


def _divisor_rows(label: str) -> list[Row]:
    expected = catalog.raw()["quartic_propositions"][label]
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

    # a table's FAMILY_II rows by (attached pair, shift): each family row
    # checks only the classes emitted under its own pair
    emitted: dict[tuple[WeakAdmissiblePair, int], dict[DivisorClass, CurveInvariants]] = {}
    for e in entries:
        if e.provenance == FAMILY_II:
            emitted.setdefault((e.pair, e.shift), {})[e.cls] = e.invariants
    for fam in expected["families"]:
        pair = make_pair(*fam["pair"])
        detail = ""
        for k in range(fam["k_min"], DIVISOR_K_MAX + 1):
            inv = CurveInvariants(_poly(fam["degree"], k), _poly(fam["genus"], k))
            want = {DivisorClass(*_at(c, k)): inv for c in fam["classes"]}
            have = emitted.get((pair, k), {})
            if have != want:
                detail = f"mismatch at k={k}: expected {want}, emitted {have}"
                break
        rows.append(
            Row(label, f"family {pair} classes and invariants for k in "
                       f"[{fam['k_min']},{DIVISOR_K_MAX}]", not detail, detail)
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

    ci = expected["complete_intersections"]
    ci_want = {
        DivisorClass(d, 0): CurveInvariants(_poly(ci["degree"], d), _poly(ci["genus"], d))
        for d in range(2, DIVISOR_K_MAX + 1)
    }
    ci_have = {e.cls: e.invariants for e in entries if e.provenance == COMPLETE_INTERSECTION}
    rows.append(
        Row(label, f"complete intersections dH for d in [2,{DIVISOR_K_MAX}]", ci_have == ci_want)
    )

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
    for doc in catalog.raw()["low_degree_corollaries"]:
        fams = classify_low_degree(doc["surface_degree"], doc["type"])
        fam = next(f for f in fams if f.case_label == doc["case"])
        ok = fam.pair == make_pair(*doc["pair"]) and fam.k_min == doc["k_min"] and all(
            surface_generator_table(fam.pair, k)
            == BettiTable(_at(doc["gens"], k), _at(doc["syz"], k))
            for k in range(doc["k_min"], doc["k_min"] + LOW_DEGREE_K_SPAN)
        )
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
    for doc in catalog.raw()["liaison_table"]:
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
        c, ci = CurveInvariants(degree, rng.randint(0, 60)), CiProfile(s, s_prime)
        if residual_invariants(residual_invariants(c, ci), ci) != c:
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
