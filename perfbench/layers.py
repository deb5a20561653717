"""The traced layers: which library functions are wrapped, and the
per-layer metrics computed from the recorder after a traced run.

Layers are the package modules.  Every per-layer metric is reported on
every workload; a function a workload never calls reads 0.  Values are
per traced round (totals divided by the number of traced rounds), so
the self times of all spans add up to ``trace.wall_s``: the library's
``*.self_s`` plus ``bench.self_s`` (the benchmark's own op glue and the
share of wrapper cost that lands outside the wrapped calls).
"""

from __future__ import annotations

import importlib
import sys


def _items(field):
    def after(rec, args, kwargs, result, err):
        if err is None:
            rec.count(field, len(result))
    return after


def _solve(rec, args, kwargs, result, err):
    lo = args[2] if len(args) > 2 else kwargs["dh_min"]
    hi = args[3] if len(args) > 3 else kwargs["dh_max"]
    rec.count("picard.solve_classes.slices", hi - lo + 1)
    if err is None:
        rec.count("picard.solve_classes.items", len(result))


def _residual(rec, args, kwargs, result, err):
    if err is not None:
        rec.count("liaison.residual_invariants.errors")


def _run_target(rec, args, kwargs, result, err):
    if err is None:
        rec.count("reproduce.run_target.items", len(result))
        rec.count("reproduce.run_target.rows_failed", sum(not row.ok for row in result))


# span name -> (module, attribute, after-call hook)
TARGETS = {
    "pairs.make_pair": ("acmcurves.pairs", "make_pair", None),
    "pairs.degree_matrix": ("acmcurves.pairs", "degree_matrix", None),
    "pairs.kind_signature": ("acmcurves.pairs", "kind_signature", None),
    "pairs.pair_signature": ("acmcurves.pairs", "pair_signature", None),
    "pairs.normalize": ("acmcurves.pairs", "normalize", None),
    "enumeration.enumerate_pairs": (
        "acmcurves.enumeration", "enumerate_pairs", _items("enumeration.enumerate_pairs.items")),
    "enumeration.enumerate_kinds": (
        "acmcurves.enumeration", "enumerate_kinds", _items("enumeration.enumerate_kinds.items")),
    "enumeration.match_families": ("acmcurves.enumeration", "match_families", None),
    "resolutions.surface_generator_table": ("acmcurves.resolutions", "surface_generator_table", None),
    "resolutions.pivot_syzygy_table": ("acmcurves.resolutions", "pivot_syzygy_table", None),
    "resolutions.degree_from_betti": ("acmcurves.resolutions", "degree_from_betti", None),
    "resolutions.genus_from_betti": ("acmcurves.resolutions", "genus_from_betti", None),
    "picard.solve_classes": ("acmcurves.picard", "solve_classes", _solve),
    "picard.watanabe_candidates": ("acmcurves.picard", "watanabe_candidates", None),
    "picard.plane_curve_classes": ("acmcurves.picard", "plane_curve_classes", None),
    "liaison.residual_invariants": ("acmcurves.liaison", "residual_invariants", _residual),
    "classifier.classify_quartic": (
        "acmcurves.classifier", "classify_quartic", _items("classifier.classify_quartic.items")),
    "classifier.cross_check": ("acmcurves.classifier", "cross_check", None),
    "classifier.rigid_classes": ("acmcurves.classifier", "rigid_classes", None),
    "catalog.raw": ("acmcurves.catalog", "raw", None),
    "reproduce.run_target": ("acmcurves.reproduce", "run_target", _run_target),
    "cli.run": ("acmcurves.cli", "run", None),
}

# called up to hundreds of thousands of times per operation: aggregated
HOT = (
    "pairs.make_pair", "pairs.degree_matrix", "pairs.kind_signature", "pairs.pair_signature",
    "pairs.normalize", "resolutions.surface_generator_table", "resolutions.pivot_syzygy_table",
    "resolutions.degree_from_betti", "resolutions.genus_from_betti", "picard.solve_classes",
    "liaison.residual_invariants", "classifier.cross_check",
)

COUNTERS = (
    "enumeration.enumerate_pairs.items",
    "enumeration.enumerate_kinds.items",
    "picard.solve_classes.slices",
    "picard.solve_classes.items",
    "liaison.residual_invariants.errors",
    "classifier.classify_quartic.items",
    "reproduce.run_target.items",
    "reproduce.run_target.rows_failed",
)

RATIOS = {
    # waste ratio of enumeration: kinds kept per pair generated
    "enumeration.kinds_per_pair": ("enumeration.enumerate_kinds.items", "enumeration.enumerate_pairs.items"),
    # classes found per D.H slice tried
    "picard.solve_classes.hit_ratio": ("picard.solve_classes.items", "picard.solve_classes.slices"),
}

# measured by the cli-session workload outside the traced rounds
EXTRAS = ("cli.import_s", "cli.floor_ms", "reproduce.script_s")
TRACE = ("trace.wall_s", "trace.overhead_s", "bench.self_s")


def metric_names() -> list[str]:
    names = []
    for target in TARGETS:
        names += [f"{target}.calls", f"{target}.self_s"]
    return names + list(COUNTERS) + list(RATIOS) + list(EXTRAS) + list(TRACE)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name in RATIOS:
        return "ratio"
    return "count"


def targets() -> dict[str, tuple]:
    """TARGETS with module names resolved to imported modules."""
    return {
        name: (importlib.import_module(mod), attr, after)
        for name, (mod, attr, after) in TARGETS.items()
    }


def library_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "acmcurves" or n.startswith("acmcurves.")]


def metrics(rec, traced_rounds: int, traced_wall: float, untraced_wall: float, extras: dict) -> dict:
    """Per-round per-layer metrics from a recorder that saw ``traced_rounds`` rounds."""
    n = max(traced_rounds, 1)
    totals = rec.totals()
    out: dict[str, float] = {}
    for target in TARGETS:
        t = totals.get(target, {"calls": 0, "self_s": 0.0})
        out[f"{target}.calls"] = t["calls"] / n
        out[f"{target}.self_s"] = t["self_s"] / n
    for c in COUNTERS:
        out[c] = rec.counters.get(c, 0) / n
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    for name in EXTRAS:
        out[name] = extras.get(name, 0.0)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["bench.self_s"] = sum(t["self_s"] for name, t in totals.items() if name.startswith("op.")) / n
    return out
