"""The benchmark's workloads and their seeded inputs.

Every workload is a closed loop driven by one client: the next operation
starts when the previous one has returned.  A round is one fixed batch of
operations; ``measure`` runs rounds until the time budget is spent.
Outputs are checked after each operation, outside its timing, by
``oracles``; an operation that raises or whose output fails a check is
counted as failed.

The library is reached through module attributes at call time
(``acm.enumerate_kinds``), so the wrappers that ``spans.instrument``
installs for the traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from time import perf_counter

import oracles

CHILD_TIMEOUT_S = 60
FAILURES_KEPT = 20


class Context:
    """Operation tally of one run.

    ``rec`` is the span recorder of a traced run; ``speed`` the speed log
    of an untraced one, sampled before an operation when it is due.
    """

    def __init__(self):
        self.rec = None
        self.speed = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < FAILURES_KEPT:
                self.problems.append(f"{label}: {problems[0]}")

    def op(self, label: str, fn, check):
        """Run fn() as one timed operation, then check its output untimed.

        Returns (output, (start, end)); output is None when fn raised.
        """
        if self.speed is not None and self.speed.due():
            self.speed.sample()
        start = perf_counter()
        try:
            if self.rec is None:
                out = fn()
            else:
                with self.rec.operation("op." + label):
                    out = fn()
        except Exception as err:  # a failed operation is counted, not fatal
            end = perf_counter()
            self.record(label, [f"raised {err!r}"])
            return None, (start, end)
        end = perf_counter()
        try:
            problems = check(out)
        except Exception as err:  # malformed output the oracle cannot read
            problems = [f"unreadable output: {err!r}"]
        self.record(label, problems)
        return out, (start, end)


class Round:
    """One round of operations: when each ran, and the items it made.

    Every op is a latency sample and counts toward the round's wall time;
    ops with ``items`` count toward items per second.
    """

    def __init__(self):
        self.ops: list[tuple[float, float, int | None]] = []

    def add(self, interval: tuple[float, float], items: int | None = None) -> None:
        self.ops.append((interval[0], interval[1], items))

    def times(self, factor=None) -> list[tuple[float, int | None]]:
        """(seconds, items) per op, rescaled by ``factor(start, end)`` if given."""
        return [
            ((end - start) * (factor(start, end) if factor else 1.0), items)
            for start, end, items in self.ops
        ]

    def wall(self, factor=None) -> float:
        return sum(s for s, _ in self.times(factor))


def measure(workload, ctx: Context, seconds: float) -> list[Round]:
    """Rounds until ``seconds`` have passed and ``workload.min_ops`` ops ran."""
    rounds: list[Round] = []
    start = perf_counter()
    while (
        not rounds
        or perf_counter() - start < seconds
        or sum(len(r.ops) for r in rounds) < workload.min_ops
    ):
        rounds.append(workload.round(ctx))
    if ctx.speed is not None:
        ctx.speed.sample()
    return rounds


def spawn(root: str, argv: list[str]) -> tuple[int, str, str, float, int]:
    """Run a child from spawn to exit with src/ on its path.

    Returns (exit code, stdout, stderr, seconds, peak RSS in KiB); output
    goes through files under .perfbench_out so no pipe can fill up.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "child.out"), "w+b") as fo, \
            open(os.path.join(out_dir, "child.err"), "w+b") as fe:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=root, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return proc.returncode, fo.read().decode(), fe.read().decode(), seconds, usage.ru_maxrss


def _acm():
    import acmcurves
    import acmcurves.catalog

    return acmcurves


# ------------------------------------------------------------ kind-census

class KindCensus:
    """enumerate_kinds over the degree-5 growth profile, then degree 6.

    A round is the degree-5 calls at caps 10..19, with cap 19 twice, in a
    seed-shuffled order.  With eleven calls a round, the median falls in
    the middle of the cap-15 calls and the 90th percentile in the middle
    of the cap-19 calls, not on the edge between two caps.  After the
    rounds, one degree-6 catalog at cap 26 is built and checked: it sets
    the peak RSS, and its time is reported in the detail line, not in the
    gated metrics, because one 9-second call on a shared machine spreads
    by 7-10% between runs.  Degrees 2..4 at seeded caps
    are checked against the brute force once per run, untimed.
    """

    name = "kind-census"
    min_ops = 1
    SWEEP = (5, tuple(range(10, 20)) + (19,))
    LARGE = (6, 26)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.small = [(d, self.rng.randint(2 * d, (d - 1) ** 2 + 3)) for d in (2, 3, 4)]
        self.large_interval = (0.0, 0.0)
        self.large_kinds = 0

    @staticmethod
    def entries(catalog) -> list[tuple]:
        return [
            (e.signature.cells, e.representative.a, e.representative.b)
            for e in catalog.entries
        ]

    def _call(self, ctx: Context, d: int, cap: int):
        acm = _acm()
        return ctx.op(
            f"enumerate_kinds d={d}",
            lambda: acm.enumerate_kinds(acm.EnumerationConfig(d, cap)),
            lambda cat: oracles.kinds_problems(d, cap, self.entries(cat)),
        )

    def round(self, ctx: Context) -> Round:
        r = Round()
        d, caps = self.SWEEP
        caps = list(caps)
        self.rng.shuffle(caps)
        for cap in caps:
            cat, interval = self._call(ctx, d, cap)
            r.add(interval, len(cat) if cat is not None else 0)
        return r

    def verify(self, ctx: Context) -> None:
        cat, self.large_interval = self._call(ctx, *self.LARGE)
        self.large_kinds = len(cat) if cat is not None else 0
        self.check_small(ctx)

    def check_small(self, ctx: Context) -> None:
        for d, cap in self.small:
            self._call(ctx, d, cap)


# --------------------------------------------------------- quartic-tables

def random_gram(rng: random.Random) -> tuple[int, int, int]:
    """An even rank-2 Gram matrix (h2, hc, c2) of negative determinant."""
    while True:
        h2, hc, c2 = rng.choice((2, 4, 6)), rng.randint(-5, 5), rng.choice(range(-6, 7, 2))
        if h2 * c2 - hc * hc < 0:
            return h2, hc, c2


class QuarticTables:
    """classify_quartic for F1..F5 at a large k_max, plus the solver and liaison.

    Each round: the five tables at K_MAX (one op each); for each of
    LATTICES seeded Gram matrices one op of solve_classes on D.H in
    1..SOLVE_SLICES, plane_curve_classes to PLANE_SLICES and
    watanabe_candidates; BATCHES batches of residual_invariants.
    Liaison batches take ~8 ms, solver ops ~25 ms
    and tables 150-270 ms, in counts 5, 15 and 5: the median falls in the
    middle of the solver ops and the 90th percentile in the middle of the
    tables (the third-costliest divisor), not on the edge between groups.
    Items are classification entries.
    """

    name = "quartic-tables"
    min_ops = 1
    K_MAX = 2000
    LATTICES = 15
    SOLVE_SLICES = 10000
    PLANE_SLICES = 300
    COMPLETE_TO = 12  # slices brute-forced for completeness
    BATCHES = 5
    BATCH = 5000

    def __init__(self, seed: int, root: str):
        rng = self.rng = random.Random(seed)
        with open(os.path.join(root, "src", "acmcurves", "data", "catalog.json"), encoding="utf-8") as fh:
            self.props = json.load(fh)["quartic_propositions"]
        self.lattices = []
        while len(self.lattices) < self.LATTICES:
            # gcd(h2, hc) = 1: every D.H slice is solved, so each solver op
            # costs about the same whatever the seed; the five quartic
            # lattices and the cli-session cover gcd > 1
            g = random_gram(rng)
            if math.gcd(g[0], g[1]) == 1:
                self.lattices.append((g, rng.choice(range(-4, 17, 2))))
        self.batches = []
        for _ in range(self.BATCHES):
            batch = []
            while len(batch) < self.BATCH:
                s, t = rng.randint(1, 8), rng.randint(1, 8)
                if s * t >= 2:
                    batch.append((rng.randint(1, s * t - 1), rng.randint(0, 40), s, t))
            self.batches.append(batch)

    @staticmethod
    def records(entries) -> list[tuple]:
        return [
            ((e.cls.a, e.cls.b), e.invariants.degree, e.invariants.genus, e.provenance,
             e.resolution.gens, e.resolution.syz)
            for e in entries
        ]

    def round(self, ctx: Context) -> Round:
        acm = _acm()
        r = Round()
        labels = sorted(self.props)
        self.rng.shuffle(labels)
        for label in labels:
            div = acm.divisor(label)
            out, interval = ctx.op(
                "classify_quartic",
                lambda: acm.classify_quartic(div, k_max=self.K_MAX),
                lambda es: oracles.quartic_problems(label, self.props[label], self.records(es), self.K_MAX),
            )
            r.add(interval, len(out) if out is not None else 0)
        for g, s in self.lattices:
            lattice = acm.PicardLattice(*g)
            _, interval = ctx.op(
                "solver",
                lambda: (
                    acm.solve_classes(lattice, s, 1, self.SOLVE_SLICES),
                    acm.plane_curve_classes(lattice, self.PLANE_SLICES),
                    acm.watanabe_candidates(lattice),
                ),
                lambda out: self._solver_problems(g, s, *out),
            )
            r.add(interval)
        for batch in self.batches:
            inputs = [(acm.CurveInvariants(d, g), acm.CiProfile(s, t)) for d, g, s, t in batch]
            _, interval = ctx.op(
                "residual_invariants",
                lambda: [acm.residual_invariants(c, ci) for c, ci in inputs],
                lambda outs: [
                    f"residual of {b} is ({o.degree},{o.genus})"
                    for b, o in zip(batch, outs)
                    if (o.degree, o.genus) != oracles.residual(*b)
                ] or ([] if len(outs) == len(batch) else ["missing outputs"]),
            )
            r.add(interval)
        return r

    def _solver_problems(self, g, s, solved, plane, cases) -> list[str]:
        problems = oracles.slice_problems(
            g, s, 1, self.SOLVE_SLICES, [(c.a, c.b) for c in solved], self.COMPLETE_TO)
        # plane classes: every one on its slice, none missing on the small slices
        plane = [(c.a, c.b) for c in plane]
        problems += [
            f"gram {g}: {x} is not a plane-curve class"
            for x in plane
            if not 1 <= (e := oracles.gram_dot(g, x, (1, 0))) <= self.PLANE_SLICES
            or oracles.gram_dot(g, x, x) != (e - 1) * (e - 2) - 2
        ]
        small = [x for x in plane if oracles.gram_dot(g, x, (1, 0)) <= self.COMPLETE_TO]
        problems += oracles.plane_problems(g, self.COMPLETE_TO, small)
        return problems + oracles.watanabe_problems(g, [
            (c.self_int, c.dh_min, c.dh_max, [(x.a, x.b) for x in c.classes]) for c in cases
        ])

    def verify(self, ctx: Context) -> None:
        pass


# ------------------------------------------------------------ cli-session

def random_pair(rng: random.Random, d: int, max_len: int = 4) -> tuple[list[int], list[int]]:
    """A normalized weak admissible pair of degree d."""
    t = rng.randint(2, min(d, max_len))
    cuts = sorted(rng.sample(range(1, d), t - 1))
    gaps = [y - x for x, y in zip([0] + cuts, cuts + [d])]
    a = [0]
    for i in range(1, t):
        a.append(a[-1] + max(rng.randint(0, 3), gaps[i - 1] - gaps[i]))
    return a, [x + g for x, g in zip(a, gaps)]


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def dual_of(a, b):
    """The normalized pair whose degree matrix is the anti-transpose."""
    da = [-x for x in reversed(b)]
    db = [-x for x in reversed(a)]
    return [x - da[0] for x in da], [x - da[0] for x in db]


class CliSession:
    """Sequential `acmcurves` child processes, in decks of 34 commands.

    A deck holds 2 each of pairs matrix/dual/signature, pairs enumerate
    at degrees 2, 3, 4 and five times at degree 5, res build for cases
    ii/iii/ci, 2 picard solve, 2 liaison, 3 classify quartic and the ten
    reproduce targets, in a seeded order.  The degree-5 enumerations are
    the slowest calls and a seventh of the deck, so the 90th percentile
    falls inside their group, not on the edge between two kinds of call.
    A run plays decks until 100 calls and the time budget are both
    reached; scripts/reproduce_all.py runs once per run, after the decks.
    The traced run replays the same argv lists in process through
    ``acmcurves.cli.run`` with stdout captured.
    """

    name = "cli-session"
    min_ops = 100

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root
        with open(os.path.join(root, "src", "acmcurves", "data", "catalog.json"), encoding="utf-8") as fh:
            self.props = json.load(fh)["quartic_propositions"]
        self.targets = list(oracles.pinned()["reproduce_rows"])
        self.max_rss_kib = 0
        self.in_process = False
        self.script_interval = (0.0, 0.0)

    # -- the command mix
    def deck(self) -> list[tuple[list[str], object]]:
        rng = self.rng
        cmds = []
        for action, check in (("matrix", self._matrix), ("dual", self._dual), ("signature", self._signature)):
            for _ in range(2):
                a, b = random_pair(rng, rng.randint(2, 5))
                shift = rng.randint(-3, 3)
                a, b = [x + shift for x in a], [x + shift for x in b]
                cmds.append((["pairs", action, f"--a={_csv(a)}", f"--b={_csv(b)}"],
                             lambda doc, a=a, b=b, check=check: check(a, b, doc)))
        for d in (2, 3, 4):
            cap = rng.randint(2 * d, (d - 1) ** 2 + 3)
            cmds.append((["pairs", "enumerate", "--degree", str(d), "--cap", str(cap)],
                         lambda doc, d=d, cap=cap: self._kinds(d, cap, doc)))
        for _ in range(5):  # at the default cap, 17
            cmds.append((["pairs", "enumerate", "--degree", "5"], lambda doc: self._kinds(5, 17, doc)))
        cmds += self._res_commands(rng)
        for _ in range(2):
            g, s = random_gram(rng), rng.choice(range(-4, 17, 2))
            lo = rng.randint(1, 10)
            hi = lo + rng.randint(0, 8)
            cmds.append((["picard", "solve", f"--gram={_csv(g)}", f"--self-int={s}", f"--dh={lo}..{hi}"],
                         lambda doc, g=g, s=s, lo=lo, hi=hi: self._solve(g, s, lo, hi, doc)))
        for _ in range(2):
            s, t = rng.randint(1, 6), rng.randint(2, 6)
            d, genus, twice = rng.randint(1, s * t - 1), rng.randint(0, 20), rng.random() < 0.5
            argv = ["liaison", "--degree", str(d), "--genus", str(genus), "--s", str(s), "--t", str(t)]
            cmds.append((argv + (["--twice"] if twice else []),
                         lambda doc, x=(d, genus, s, t, twice): self._liaison(*x, doc)))
        for _ in range(3):
            label = rng.choice(sorted(self.props))
            cmds.append((["classify", "quartic", "--divisor", label],
                         lambda doc, label=label: self._quartic(label, doc)))
        for target in self.targets:
            cmds.append((["reproduce", target, "--format", "json"],
                         lambda doc, target=target: self._reproduce(target, doc)))
        rng.shuffle(cmds)
        return cmds

    def _res_commands(self, rng):
        cmds = []
        while True:  # case ii at a shift where the table is a curve
            d = rng.randint(2, 5)
            a, b = random_pair(rng, d)
            k = rng.randint(1, 6)
            gens, syz = oracles.table_ii(a, b, k, d)
            if oracles.betti_invariants(gens, syz):
                cmds.append((["res", "build", "--case", "ii", f"--a={_csv(a)}", f"--b={_csv(b)}",
                              "--k", str(k), "--surface-degree", str(d)],
                             lambda doc, t=(gens, syz): self._table(t, doc)))
                break
        while True:  # case iii at a pivot that keeps every twist positive
            d = rng.randint(2, 5)
            a, b = random_pair(rng, d)
            j0 = rng.randint(1, len(b))
            gens, syz = oracles.table_iii(a, b, j0, d)
            if gens[0] > 0 and oracles.betti_invariants(gens, syz):
                cmds.append((["res", "build", "--case", "iii", f"--a={_csv(a)}", f"--b={_csv(b)}",
                              "--j0", str(j0), "--surface-degree", str(d)],
                             lambda doc, t=(gens, syz): self._table(t, doc)))
                break
        f, g = rng.randint(1, 6), rng.randint(1, 6)
        cmds.append((["res", "build", "--case", "ci", "--a", str(f), "--b", str(g)],
                     lambda doc, t=((min(f, g), max(f, g)), (f + g,)): self._table(t, doc)))
        return cmds

    # -- oracles on the JSON documents
    @staticmethod
    def _matrix(a, b, doc):
        want = [[max(y - x, 0) for y in b] for x in a]
        return [] if doc == {"degree": sum(b) - sum(a), "entries": want} else [f"matrix of {a},{b}: {doc}"]

    @staticmethod
    def _dual(a, b, doc):
        da, db = dual_of(a, b)
        return [] if doc == {"a": da, "b": db} else [f"dual of {a},{b}: {doc}"]

    @staticmethod
    def _signature(a, b, doc):
        d = sum(b) - sum(a)
        want = [list(r) for r in oracles.signature(a, b, d)]
        return [] if doc == {"degree": d, "cells": want} else [f"signature of {a},{b}: {doc}"]

    @staticmethod
    def _kinds(d, cap, doc):
        if doc["degree"] != d or doc["b_cap"] != cap:
            return [f"asked degree {d} cap {cap}, got {doc['degree']} cap {doc['b_cap']}"]
        entries = [
            (k["signature"]["cells"], k["representative"]["a"], k["representative"]["b"])
            for k in doc["kinds"]
        ]
        return oracles.kinds_problems(d, cap, entries)

    @staticmethod
    def _table(t, doc):
        gens, syz = t
        degree, genus = oracles.betti_invariants(gens, syz)
        want = {"gens": list(gens), "syz": list(syz), "degree": degree, "genus": genus}
        return [] if doc == want else [f"table {want}: got {doc}"]

    @staticmethod
    def _solve(g, s, lo, hi, doc):
        have = [tuple(c) for c in doc["classes"]]
        want = sorted(set().union(*(oracles.brute_classes(g, s, e) for e in range(lo, hi + 1))))
        return [] if have == want else [f"solve {g} D2={s} {lo}..{hi}: {have} != {want}"]

    @staticmethod
    def _liaison(d, genus, s, t, twice, doc):
        want = oracles.residual(d, genus, s, t)
        if twice:
            want = oracles.residual(*want, s, t)
        return [] if doc == {"degree": want[0], "genus": want[1]} else [f"liaison: {doc} != {want}"]

    def _quartic(self, label, doc):
        records = [
            (e["class"], e["degree"], e["genus"], e["provenance"],
             e["resolution"]["gens"], e["resolution"]["syz"])
            for e in doc
        ]
        return oracles.quartic_problems(label, self.props[label], records, 6)

    @staticmethod
    def _reproduce(target, doc):
        rows = oracles.pinned()["reproduce_rows"][target]
        if len(doc) != rows or any(r["status"] != "PASS" for r in doc):
            return [f"{target}: {sum(r['status'] == 'PASS' for r in doc)}/{len(doc)} PASS, pinned {rows} rows"]
        return []

    # -- execution
    def _invoke(self, argv: list[str]):
        if self.in_process:
            import acmcurves.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = acmcurves.cli.run(argv)
            return code, out.getvalue(), err.getvalue()
        code, out, err, _, rss = spawn(self.root, [sys.executable, "-m", "acmcurves.cli"] + argv)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        return code, out, err

    @staticmethod
    def _checked(result, check):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        return check(json.loads(out))

    def round(self, ctx: Context) -> Round:
        r = Round()
        for argv, check in self.deck():
            _, interval = ctx.op(
                " ".join(argv[:2]), lambda: self._invoke(argv), lambda res: self._checked(res, check)
            )
            r.add(interval, 1)
        return r

    def reproduce_all(self):
        code, out, err, _, rss = spawn(self.root, [sys.executable, os.path.join("scripts", "reproduce_all.py")])
        self.max_rss_kib = max(self.max_rss_kib, rss)
        return code, out, err

    @staticmethod
    def _script_problems(result):
        code, out, _ = result
        total = sum(oracles.pinned()["reproduce_rows"].values())
        lines = out.strip().splitlines()
        if code != 0 or not lines or lines[-1] != f"{total}/{total} rows pass" or "FAIL" in out:
            return [f"reproduce_all.py exit {code}, last line {lines[-1] if lines else ''!r}"]
        return []

    def verify(self, ctx: Context) -> None:
        """One run of scripts/reproduce_all.py: exit 0 and every row passing."""
        _, self.script_interval = ctx.op("reproduce_all.py", self.reproduce_all, self._script_problems)


def make(name: str, seed: int, root: str):
    if name == "kind-census":
        return KindCensus(seed)
    if name == "quartic-tables":
        return QuarticTables(seed, root)
    if name == "cli-session":
        return CliSession(seed, root)
    raise KeyError(name)


WORKLOADS = ("kind-census", "quartic-tables", "cli-session")
