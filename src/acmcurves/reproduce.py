"""Batch verification of every cataloged table against computed output.

Each target re-derives one block of the expected catalog
(data/catalog.json) from scratch and reports one PASS/FAIL row per
checked fact.  Each target reads the computed result once; every row
compares whole values: a slice of that result with the catalog's, as
``have == want``, so a computed value the catalog does not list fails a
row as surely as a listed one that is missing, wrong or computed twice.

Two computed results have no row yet: F1 lists no residual class, so it
has no residual row and a stray RESIDUAL row in F1 passes; and FAMILY_III
rows have no catalog block, so only the lattice/resolution cross-check
sees them.
"""

from __future__ import annotations

import random
from collections import defaultdict, namedtuple
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
from .pairs import anti_transpose, degree_matrix, make_pair
from .picard import DivisorClass
from .resolutions import BettiTable, CurveInvariants, surface_generator_table

# the degree-4 catalog is checked at this bound; the family tables are
# complete at every bound, so they generate exactly the catalog's kinds
# even below stable_cap
DEGREE4_CAP = 8
DIVISOR_K_MAX = 6
LOW_DEGREE_K_SPAN = 6
LINK_SAMPLES = 1000
LINK_SEED = 20250809


class Row(namedtuple("Row", "target label ok detail", defaults=("",))):
    __slots__ = ()

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
    matched, generated = match_families(kinds, families)
    sigs = kinds.signatures()
    rows = [Row(target, f"{name} kind present at minimum parameters", ok) for name, ok in matched]
    rows.append(Row(
        target,
        f"all {len(kinds)} catalog kinds generated by the {len(families)} families",
        sigs == generated,
        "; ".join(f"{name}: {sorted(s.render() for s in diff)}" for name, diff in (
            ("unexplained", sigs - generated),
            ("generated but not in the catalog", generated - sigs),
        ) if diff),
    ))
    rows.append(Row(target, "catalog closed under duality (anti-transposed kinds present)",
                    {s.anti_transpose() for s in sigs} == sigs))
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
        rows.append(Row(target, f"duality {fam.name}^a = {fam.dual_name}",
                        checked > 0 and not broken, f"{checked} parameter choices{broken}"))
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


def _classes(docs: list[dict]) -> dict[DivisorClass, CurveInvariants]:
    """The catalog's {class: invariants} of a list of class documents."""
    return {DivisorClass(*r["class"]): CurveInvariants(r["degree"], r["genus"]) for r in docs}


def _merged(groups: dict) -> dict[DivisorClass, CurveInvariants]:
    """One provenance's {class: invariants} across its (pair, shift) groups."""
    return {cls: inv for classes in groups.values() for cls, inv in classes.items()}


def _divisor_rows(label: str) -> list[Row]:
    expected = catalog.raw()["quartic_propositions"][label]
    div = divisor(label)
    entries = classify_quartic(div, k_max=DIVISOR_K_MAX)
    # provenance -> (attached pair, shift) -> {class: invariants}.  A class
    # its provenance already holds maps to None in every group that holds
    # it: no catalog value is None, so a repeated entry fails the rows of
    # its provenance
    table: dict[str, dict] = defaultdict(dict)
    for e in entries:
        groups = table[e.provenance]
        held = [classes for classes in groups.values() if e.cls in classes]
        for classes in held + [groups.setdefault((e.pair, e.shift), {})]:
            classes[e.cls] = None if held else e.invariants

    rigid, want_rigid = _merged(table[RIGID]), _classes(expected["rigid"])
    rows = [Row(label, f"rigid classes = {sorted(want_rigid)}", rigid == want_rigid,
                f"computed {sorted(rigid)}" if rigid != want_rigid else "")]

    # a family row reads the FAMILY_II groups under its own pair and under
    # every pair the catalog does not list, so a stray pair fails them all;
    # its detail names the first group that differs, unlisted pairs first
    listed = {make_pair(*fam["pair"]) for fam in expected["families"]}
    for fam in expected["families"]:
        pair = make_pair(*fam["pair"])
        want = {
            (pair, k): dict.fromkeys(
                (DivisorClass(*_at(c, k)) for c in fam["classes"]),
                CurveInvariants(_poly(fam["degree"], k), _poly(fam["genus"], k)),
            )
            for k in range(fam["k_min"], DIVISOR_K_MAX + 1)
        }
        have = {key: classes for key, classes in table[FAMILY_II].items()
                if key[0] == pair or key[0] not in listed}
        detail = next((
            f"mismatch at k={k}{'' if p == pair else f' under {p}'}: "
            f"expected {want.get((p, k), {})}, emitted {have.get((p, k), {})}"
            for p, k in sorted({**want, **have}, key=lambda key: (key[0] == pair, key[1]))
            if want.get((p, k)) != have.get((p, k))
        ), "")
        rows.append(Row(label, f"family {pair} classes and invariants for k in "
                               f"[{fam['k_min']},{DIVISOR_K_MAX}]", have == want, detail))

    residual, want_residual = _merged(table[RESIDUAL]), _classes(expected["residuals"])
    for r in expected["residuals"]:
        inv = CurveInvariants(r["degree"], r["genus"])
        linked = residual_invariants(CurveInvariants(*r["partner"]), CiProfile(*r["ci"]))
        rows.append(Row(
            label,
            f"residual class {DivisorClass(*r['class'])} has invariants ({inv.degree},{inv.genus})",
            (residual, linked) == (want_residual, inv),
            f"linkage of {tuple(r['partner'])} in {tuple(r['ci'])} gives "
            f"({linked.degree},{linked.genus})"
            + (f"; computed {residual}" if residual != want_residual else ""),
        ))

    ci = expected["complete_intersections"]
    ci_want = {
        DivisorClass(d, 0): CurveInvariants(_poly(ci["degree"], d), _poly(ci["genus"], d))
        for d in range(2, DIVISOR_K_MAX + 1)
    }
    rows.append(Row(label, f"complete intersections dH for d in [2,{DIVISOR_K_MAX}]",
                    _merged(table[COMPLETE_INTERSECTION]) == ci_want))
    rows.append(Row(label, f"lattice/resolution cross-check on all {len(entries)} entries",
                    all(cross_check(e, div.lattice) for e in entries)))
    return rows


def _low_degree_rows() -> list[Row]:
    docs = catalog.raw()["low_degree_corollaries"]
    # (degree, type) -> the cases the catalog lists; each type is classified once
    cases: dict[tuple[int, str], set[str]] = defaultdict(set)
    for doc in docs:
        cases[doc["surface_degree"], doc["type"]].add(doc["case"])
    computed = {key: {f.case_label: f for f in classify_low_degree(*key)} for key in cases}
    rows = []
    for doc in docs:
        key = (doc["surface_degree"], doc["type"])
        fams, ks = computed[key], range(doc["k_min"], doc["k_min"] + LOW_DEGREE_K_SPAN)
        fam = fams.get(doc["case"])
        have = fam and (set(fams), fam.pair, fam.k_min,
                        [surface_generator_table(fam.pair, k) for k in ks])
        want = (cases[key], make_pair(*doc["pair"]), doc["k_min"],
                [BettiTable(_at(doc["gens"], k), _at(doc["syz"], k)) for k in ks])
        rows.append(Row(
            "low-degree-corollaries",
            f"degree-{key[0]} type {key[1]} case {doc['case']}: resolutions for k in "
            f"[{ks[0]},{ks[-1]}]",
            have == want,
            f"computed cases {sorted(fams)}" if set(fams) != cases[key] else "",
        ))
    return rows


def _liaison_rows() -> list[Row]:
    target = "liaison-table"
    rows = []
    for doc in catalog.raw()["liaison_table"]:
        start = CurveInvariants(*doc["start"])
        ci = CiProfile(*doc["ci"])
        got = residual_invariants(start, ci)
        want = CurveInvariants(*doc["residual"])
        rows.append(Row(
            target,
            f"({start.degree},{start.genus}) in ({ci.s},{ci.s_prime}) -> "
            f"({want.degree},{want.genus})",
            got == want,
            f"computed ({got.degree},{got.genus})" if got != want else "",
        ))
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
        raise ValueError(f"unknown target {target!r}; expected one of {tuple(TARGETS)}")
    return TARGETS[target]()
