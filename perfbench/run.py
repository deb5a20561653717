#!/usr/bin/env python3
"""Run one workload of the acmcurves benchmark and print its result.

Usage, from the root of an acmcurves checkout:

    python3 perfbench/run.py --workload kind-census --seed 1 --seconds 20 --trace 0

Workloads: kind-census, quartic-tables, cli-session (see workloads.py).
The library is imported from ./src; nothing is installed.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: set-up time of a fresh process (median of five), median round
wall time, peak RSS (of this process, or of the largest child for
cli-session), items per second, and the median and 90th percentile of
operation latency.  With ``--trace 1`` the same rounds run first
untraced and then with every layer function wrapped, and the metrics
are the per-layer ones of layers.py; the spans go to
``.perfbench_out/spans-<workload>-<seed>.json``.

Output: a ``{"stamp": ...}`` line (interpreter, CPU count, commit or
source digest, seed, load average at start), a ``{"detail": ...}``
line (sample counts and the first problems found), and last the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
operations that raised or whose output an oracle rejected; the error
rate is failed / attempted.  Exit code 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads
from spans import Recorder, instrument
from speed import SpeedLog
from summary import percentile, supported_percentile

SETUP_RUNS = 5
SETUP_CODE = (
    "import acmcurves, acmcurves.catalog; acmcurves.catalog.raw(); acmcurves.known_divisors()"
)
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import acmcurves.cli; print(time.perf_counter() - t)"
)
REQUIRED = ("src/acmcurves/__init__.py", "src/acmcurves/data/catalog.json", "scripts/reproduce_all.py")


def stamp(root: str, args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "acmcurves")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg": os.getloadavg(),
    }


def child_runs(ctx, root: str, code: str, label: str) -> list[tuple[str, float]]:
    """SETUP_RUNS fresh interpreters running ``code``: (stdout, seconds) of each.

    With a speed log, each time is rescaled by kernel samples around it.
    """
    out = []
    for _ in range(SETUP_RUNS):
        if ctx.speed is not None:
            ctx.speed.sample()
        start = time.perf_counter()
        rc, stdout, stderr, seconds, _ = workloads.spawn(root, [sys.executable, "-c", code])
        if ctx.speed is not None:
            ctx.speed.sample()
            seconds *= ctx.speed.factor(start, start + seconds)
        ctx.record(label, [] if rc == 0 else [f"exit {rc}: {stderr.strip()[-200:]}"])
        out.append((stdout, seconds))
    return out


def plain_run(wl, ctx, root: str, seconds: float) -> tuple[dict, dict]:
    ctx.speed = SpeedLog()
    setup = [s for _, s in child_runs(ctx, root, SETUP_CODE, "setup")]
    rounds = workloads.measure(wl, ctx, seconds)
    wl.verify(ctx)
    ctx.speed.sample()
    if isinstance(wl, workloads.CliSession):
        rss_kib = wl.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def figures(factor):
        ops = [t for r in rounds for t in r.times(factor)]
        lat = [s for s, _ in ops]
        item_s = sum(s for s, items in ops if items is not None)
        items = sum(items for _, items in ops if items is not None)
        return {
            "wall_s": statistics.median(r.wall(factor) for r in rounds),
            "items_per_s": items / item_s if item_s else 0.0,
            "op_p50_ms": percentile(lat, 0.5) * 1000,
            "op_p90_ms": percentile(lat, 0.9) * 1000,
        }, len(lat), items

    rescaled, samples, items = figures(ctx.speed.factor)
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mib": rss_kib / 1024} | rescaled
    raw, _, _ = figures(None)
    kernel = ctx.speed.seconds
    detail = {
        "rounds": len(rounds),
        "ops_sampled": samples,
        "supported_percentile": supported_percentile(samples),
        "items": items,
        "raw": raw,
        "speed_samples": len(kernel),
        "kernel_s": {"min": min(kernel), "median": statistics.median(kernel), "max": max(kernel)},
    }
    if isinstance(wl, workloads.KindCensus):
        start, end = wl.large_interval
        detail["degree6"] = {
            "kinds": wl.large_kinds,
            "raw_s": end - start,
            "rescaled_s": (end - start) * ctx.speed.factor(start, end),
        }
    return metrics, detail


def traced_run(wl, ctx, root: str, seconds: float, seed: int) -> tuple[dict, dict]:
    if isinstance(wl, workloads.CliSession):
        wl.in_process = True
    plain = workloads.measure(wl, ctx, seconds / 2)
    rec = Recorder(hot=layers.HOT)
    targets = layers.targets()
    ctx.rec = rec
    try:
        with instrument(rec, targets, layers.library_modules()):
            traced = workloads.measure(wl, ctx, seconds / 2)
    finally:
        ctx.rec = None
    extras = {}
    if isinstance(wl, workloads.CliSession):
        wl.in_process = False
        wl.verify(ctx)
        imports = child_runs(ctx, root, IMPORT_CODE, "import acmcurves.cli")
        floor = child_runs(ctx, root, "pass", "python -c pass")
        start, end = wl.script_interval
        extras = {
            "cli.import_s": statistics.median(float(out) for out, _ in imports),
            "cli.floor_ms": statistics.median(s for _, s in floor) * 1000,
            "reproduce.script_s": end - start,
        }
    else:
        wl.verify(ctx)
    traced_wall = statistics.fmean(r.wall() for r in traced)
    metrics = layers.metrics(
        rec, len(traced), traced_wall, statistics.fmean(r.wall() for r in plain), extras
    )
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    rec.dump(os.path.join(out_dir, f"spans-{wl.name}-{seed}.json"))
    self_sum = sum(t["self_s"] for t in rec.totals().values()) / len(traced)
    detail = {
        "untraced_rounds": len(plain),
        "traced_rounds": len(traced),
        "spans_kept": len(rec.spans),
        "aggregates": len(rec.aggregates),
        "self_sum_s": self_sum,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = [rel for rel in REQUIRED if not os.path.isfile(os.path.join(root, rel))]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root of an acmcurves checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    print(json.dumps({"stamp": stamp(root, args)}), flush=True)
    wl = workloads.make(args.workload, args.seed, root)
    ctx = workloads.Context()
    if args.trace:
        metrics, detail = traced_run(wl, ctx, root, args.seconds, args.seed)
        unit = layers.unit
    else:
        metrics, detail = plain_run(wl, ctx, root, args.seconds)
        unit = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "items_per_s": "1/s",
                "op_p50_ms": "ms", "op_p90_ms": "ms"}.get
    detail["problems"] = ctx.problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
