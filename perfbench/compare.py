#!/usr/bin/env python3
"""Collect result sets of the benchmark and compare two of them.

    python3 perfbench/compare.py collect --seeds 1-10 --out A.json [--workload W ...] [--trace 0|1]
    python3 perfbench/compare.py report A.json
    python3 perfbench/compare.py diff PARENT.json CHANGE.json

``collect`` runs perfbench/run.py once per (seed, workload) from the
current directory, which must be the root of a checkout, and writes the
stamped results to one JSON file.  ``report`` prints each metric's
median, quartiles and spread (quartile distance over median).  ``diff``
gives a verdict per (workload, end-to-end metric) against the bounds in
BENCHMARK.json, by the rules in summary.verdict: better, unchanged, worse
or unresolved.  It exits 1 when any verdict is 'worse' or the change
failed an operation the parent did not, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from summary import spread, verdict

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(x) for x in text.split(",")]


def collect(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in parse_seeds(args.seeds):
        for name in names:
            argv = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            run = {"workload": name, "seed": seed, "trace": args.trace, "result": lines[-1]}
            for line in lines[:-1]:
                run.update(line)
            runs.append(run)
            r = run["result"]
            print(f"{name} seed {seed}: attempted {r['attempted']} failed {r['failed']}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


def values(result_set: dict, trace: int = 0) -> dict[tuple, list[float]]:
    """(workload, metric) -> values in run order, for runs with the given trace flag."""
    out: dict[tuple, list[float]] = {}
    for run in result_set["runs"]:
        if run["trace"] == trace:
            for name, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def failures(result_set: dict) -> dict[str, int]:
    out: dict[str, int] = {}
    for run in result_set["runs"]:
        out[run["workload"]] = out.get(run["workload"], 0) + run["result"]["failed"]
    return out


def report(args) -> int:
    with open(args.results, encoding="utf-8") as fh:
        rs = json.load(fh)
    print(f"{'workload':<15} {'metric':<40} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for trace in (0, 1):
        for (wl, name), xs in sorted(values(rs, trace).items()):
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            print(f"{wl:<15} {name:<40} {len(xs):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread(xs):>7.3f}")
    print("failed operations:", failures(rs))
    return 0


def diff(args) -> int:
    spec = load_spec()
    with open(args.parent, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change = json.load(fh)
    pv, cv = values(parent), values(change)
    regressed = False
    print(f"{'workload':<15} {'metric':<13} {'parent':>11} {'change':>11} {'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for wl in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (wl["name"], m["name"])
            if key not in pv or key not in cv:
                continue
            v = verdict(pv[key], cv[key], m["bound"], m["better"])
            regressed |= v == "worse"
            p_med, c_med = statistics.median(pv[key]), statistics.median(cv[key])
            delta = (c_med - p_med) / abs(p_med) if p_med else float("inf")
            print(f"{wl['name']:<15} {m['name']:<13} {p_med:>11.5g} {c_med:>11.5g} {delta:>+8.1%} "
                  f"{spread(pv[key]):>7.3f} {m['bound']:>6.2f}  {v}")
    pf, cf = failures(parent), failures(change)
    for wl, n in sorted(cf.items()):
        if n > pf.get(wl, 0):
            print(f"{wl}: {n} failed operations (parent {pf.get(wl, 0)})")
            regressed = True
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--seeds", required=True, help="N-M or a comma-separated list")
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("results")
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return {"collect": collect, "report": report, "diff": diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
