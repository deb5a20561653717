import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import acmcurves
from acmcurves import cli
from acmcurves.cli import run
from acmcurves.labels import DIVISOR_LABELS
from acmcurves.reproduce import TARGETS, run_target
from conftest import weak_pairs
from test_enumeration import brute_force_pairs, count_pairs


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def reference_document(argv):
    """The document a command prints, built from its records' `to_json`:
    `pairs enumerate` and `classify quartic` stream their text, so theirs is
    built here; every other handler returns its document."""
    args = cli._build_parser().parse_args(argv)
    if args.handler is cli._pairs_enumerate:
        cfg = acmcurves.EnumerationConfig(args.degree, args.cap)
        return acmcurves.enumerate_kinds(cfg).to_json()
    if args.handler is cli._classify_quartic:
        entries = acmcurves.classify_quartic(acmcurves.divisor(args.divisor), k_max=args.kmax)
        return [e.to_json() for e in entries]
    return args.handler(args)[0]


def layout(columns, rows) -> str:
    """A table as one string, each column left-justified to its widest cell."""
    cells = [list(columns)] + [[str(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells)


def reference_table(argv) -> str:
    """The text a table view prints, less its final newline, built in one
    piece from the library's records."""
    args = cli._build_parser().parse_args(argv)
    handler = args.handler
    if handler is cli._pairs_matrix:
        m = acmcurves.degree_matrix(acmcurves.make_pair(args.a, args.b))
        return "\n".join(" ".join(map(str, r)) for r in m.entries)
    if handler is cli._pairs_signature:
        return acmcurves.pair_signature(acmcurves.make_pair(args.a, args.b)).render()
    if handler is cli._pairs_enumerate:
        kinds = acmcurves.enumerate_kinds(acmcurves.EnumerationConfig(args.degree, args.cap))
        head = f"degree {kinds.degree}, b_cap {kinds.b_cap}: {len(kinds)} kinds\n"
        return head + layout(("signature", "representative", "count"), [
            (e.signature.render(), repr(e.representative), e.count) for e in kinds.entries])
    if handler is cli._picard_watanabe:
        lattice = (acmcurves.divisor(args.divisor).lattice if args.divisor
                   else acmcurves.PicardLattice(*args.gram))
        cases = [c.to_json() for c in acmcurves.watanabe_candidates(lattice)]
        return layout(("case", "classes", "side_condition"), [
            (c["label"], " ".join(map(str, c["classes"])) or "(none)",
             c.get("side_condition", "")) for c in cases])
    if handler is cli._classify_quartic:
        entries = acmcurves.classify_quartic(acmcurves.divisor(args.divisor), k_max=args.kmax)
        return layout(("class", "degree", "genus", "provenance", "description"), [
            (e.cls, e.invariants.degree, e.invariants.genus, e.provenance, e.description)
            for e in entries])
    if handler is cli._classify_low:
        return layout(("case", "k", "gens", "syz"), [
            (fam.case_label, k, ",".join(map(str, t.gens)), ",".join(map(str, t.syz)))
            for fam in acmcurves.classify_low_degree(args.degree, args.type_tag)
            for k in range(fam.k_min, args.kmax + 1)
            for t in [acmcurves.surface_generator_table(fam.pair, k)]])
    assert handler is cli._reproduce
    rows = run_target(args.target)
    return "\n".join([r.line for r in rows] + [f"{sum(r.ok for r in rows)}/{len(rows)} rows pass"])


def never(*args, **kwargs):
    """Patched over a library name that a refusal must not reach."""
    raise AssertionError("the library was called")


class TestPairsCommands:
    def test_matrix(self, capsys):
        doc = invoke_json(capsys, "pairs", "matrix", "--a", "1,1", "--b", "2,4")
        assert doc == {"degree": 4, "entries": [[1, 3], [1, 3]]}

    def test_matrix_rejects_bad_pair(self, capsys):
        code, out, err = invoke(capsys, "pairs", "matrix", "--a", "1,2", "--b", "2,2")
        assert code == 1
        assert "a_i < b_i violated at index 2" in err

    def test_normalize_dual_signature(self, capsys):
        doc = invoke_json(capsys, "pairs", "normalize", "--a", "5,7", "--b", "6,9")
        assert doc == {"a": [0, 2], "b": [1, 4]}
        doc = invoke_json(capsys, "pairs", "dual", "--a", "0,3", "--b", "3,4")
        assert doc == {"a": [0, 1], "b": [1, 4]}
        doc = invoke_json(capsys, "pairs", "signature", "--a", "0,2", "--b", "2,4")
        assert doc == {"degree": 4, "cells": [[2, "BIG"], [0, 2]]}

    def test_reducible(self, capsys):
        doc = invoke_json(capsys, "pairs", "reducible", "--a", "0,2", "--b", "2,4")
        assert doc == {"reducible": True}

    def test_enumerate(self, capsys):
        doc = invoke_json(capsys, "pairs", "enumerate", "--degree", "2", "--cap", "4")
        assert doc["degree"] == 2 and doc["b_cap"] == 4
        assert len(doc["kinds"]) == 2
        reps = [k["representative"] for k in doc["kinds"]]
        assert {"a": [0, 0], "b": [1, 1]} in reps


class TestResCommands:
    def test_build_ci(self, capsys):
        doc = invoke_json(capsys, "res", "build", "--case", "ci", "--a", "4", "--b", "3")
        assert doc == {"degree": 12, "genus": 19, "gens": [3, 4], "syz": [7]}

    def test_build_case_ii(self, capsys):
        doc = invoke_json(
            capsys, "res", "build", "--case", "ii", "--a", "1,1", "--b", "2,4",
            "--k", "3", "--surface-degree", "4",
        )
        assert doc["gens"] == [4, 4, 4] and doc["syz"] == [5, 7]
        assert (doc["degree"], doc["genus"]) == (13, 21)

    def test_build_case_iii(self, capsys):
        doc = invoke_json(
            capsys, "res", "build", "--case", "iii", "--a", "1,1", "--b", "2,4",
            "--j0", "2", "--surface-degree", "4",
        )
        assert doc["gens"] == [1, 1] and doc["syz"] == [2]

    def test_invariants(self, capsys):
        doc = invoke_json(capsys, "res", "invariants", "--gens", "3,3,3,3", "--syz", "4,4,4")
        assert (doc["degree"], doc["genus"]) == (6, 3)

    def test_invariants_rejects_bad_shape(self, capsys):
        code, _, err = invoke(capsys, "res", "invariants", "--gens", "1,1", "--syz", "2,2")
        assert code == 1 and "shape" in err

    # every 400th normalized pair of degrees 2-5 with b_t <= 12, and the
    # README's two pairs
    SAMPLED = [
        p for d in range(2, 6) for p in acmcurves.enumerate_pairs(acmcurves.EnumerationConfig(d, 12))
    ][::400] + [acmcurves.make_pair((1, 1), (2, 4)), acmcurves.make_pair((1, 2), (3, 4))]

    @pytest.mark.parametrize("p", SAMPLED, ids=repr)
    def test_surface_degree_is_the_pairs_own(self, capsys, p):
        # the same document, or the same refusal, with and without the flag,
        # at shifts on both sides of the least one and at every pivot
        argv = ["res", "build", "--a", ",".join(map(str, p.a)), "--b", ",".join(map(str, p.b))]
        twists = [("ii", "--k", k) for k in (-p.a[0], 1 - p.a[0], 3, 7)]
        twists += [("iii", "--j0", j0) for j0 in range(p.length + 2)]
        for case, flag, value in twists:
            without = invoke(capsys, *argv, "--case", case, f"{flag}={value}")
            given = invoke(capsys, *argv, "--case", case, f"{flag}={value}",
                           "--surface-degree", str(p.degree))
            assert without == given, (case, value)
        assert without[0] == 1 and "out of range" in without[2]

    def test_missing_flags(self, capsys):
        code, _, err = invoke(capsys, "res", "build", "--case", "ii", "--a", "1,1", "--b", "2,4")
        assert code == 1

    @pytest.mark.parametrize("argv, error", [
        # a flag that its case does not read was once ignored, with exit 0
        (["--case", "ci", "--a", "4", "--b", "3", "--surface-degree", "99", "--k", "5",
          "--j0", "2"], "--case ci takes no --k or --j0 or --surface-degree"),
        (["--case", "ii", "--a", "0,0,1", "--b", "1,2,2", "--k", "3", "--j0", "7"],
         "--case ii takes no --j0"),
        (["--case", "ci", "--a", "4", "--b", "3", "--k", "5"], "--case ci takes no --k"),
        (["--case", "ci", "--a", "4", "--b", "3", "--j0", "1"], "--case ci takes no --j0"),
        (["--case", "ci", "--a", "4", "--b", "3", "--surface-degree", "7"],
         "--case ci takes no --surface-degree"),
        (["--case", "iii", "--a", "0,0,1", "--b", "1,2,2", "--j0", "1", "--k", "3"],
         "--case iii takes no --k"),
        # before any work: the pair is not read, so its fault is not the one named
        (["--case", "ii", "--a", "2,1", "--b", "1,1", "--k", "3", "--j0", "1"],
         "--case ii takes no --j0"),
    ])
    def test_flag_of_another_case_refused_up_front(self, capsys, monkeypatch, argv, error):
        for name in ("make_pair", "ci_table", "surface_generator_table", "pivot_syzygy_table"):
            monkeypatch.setattr(f"acmcurves.{name}", never)
        assert invoke(capsys, "res", "build", *argv) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("gens, syz, error", [
        ("", "", "shape: expected one more generator than syzygies, got 0 vs 0; "
                 "degree must be positive, got 0"),
        ("0,3", "3", "nonpositive twist"),
    ], ids=["empty", "zero-twist"])
    def test_invariants_refusals_exactly(self, capsys, gens, syz, error):
        # BettiTable checks every twist of outside input; an empty table
        # reaches the shape and degree checks, never an IndexError
        code, out, err = invoke(capsys, "res", "invariants", "--gens", gens, "--syz", syz)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("case, flag, good, bad, bad_error", [
        ("ii", "--k", "3", "-5", "nonpositive twist: shift -5 is too negative"),
        ("iii", "--j0", "2", "9", "pivot index 9 out of range 1..2"),
    ])
    def test_surface_degree_mismatch(self, capsys, case, flag, good, bad, bad_error):
        # the one check that --surface-degree equals the pair's degree; a
        # missing twist is reported before it, a bad twist after it
        argv = ["res", "build", "--case", case, "--a", "1,1", "--b", "2,4"]
        for extra, error in [
            (["--surface-degree", "5", flag, good], "pair has degree 4, surface degree 5"),
            (["--surface-degree", "5"], f"{flag} is required for case {case}"),
            (["--surface-degree", "5", flag, bad], "pair has degree 4, surface degree 5"),
            (["--surface-degree", "4", flag, bad], bad_error),
        ]:
            code, out, err = invoke(capsys, *argv, *extra)
            assert code == 1 and out == ""
            assert err == f"error: {error}\n" and "Traceback" not in err


class TestPicardCommands:
    def test_solve(self, capsys):
        doc = invoke_json(
            capsys, "picard", "solve", "--gram", "4,1,-2",
            "--self-int", "-2", "--dh", "1..3",
        )
        assert doc == {"classes": [[0, 1]]}

    # worked by hand from h2*D^2 = (D.H)^2 + det*b^2: on 2,1,0, -det = 1 and
    # h2*D^2 = 8, so (D.H - b)(D.H + b) = 8 gives D.H = +-3 only; on 4,1,-2
    # at D^2 = 0, -det = 9 and D.H = +-3b
    @pytest.mark.parametrize("gram,self_int,dh,expected", [
        ("2,1,0", "4", "-1000..1000", [[-2, 1], [-1, -1], [1, 1], [2, -1]]),
        ("4,1,-2", "0", "-7..7", [[-2, 2], [-1, -2], [-1, 1], [0, 0], [1, -1], [1, 2], [2, -2]]),
    ], ids=["square-det", "isotropic"])
    def test_solve_worked_by_hand(self, capsys, gram, self_int, dh, expected):
        doc = invoke_json(
            capsys, "picard", "solve", "--gram", gram,
            f"--self-int={self_int}", f"--dh={dh}",
        )
        assert doc == {"classes": expected}

    def test_solve_det_longer_than_span(self, capsys):
        # -det has 600 digits: the solver scans the 1000 degrees one by one
        doc = invoke_json(
            capsys, "picard", "solve", "--gram", f"4,{10**299 + 7},-2",
            "--self-int=0", "--dh", "1..1000",
        )
        assert doc == {"classes": []}

    def test_watanabe_by_divisor(self, capsys):
        doc = invoke_json(capsys, "picard", "watanabe", "--divisor", "F3")
        by_label = {c["label"]: c for c in doc["cases"]}
        assert by_label["D2=0, 3<=D.H<=4"]["classes"] == [[0, 1], [2, -1]]
        assert "side_condition" in by_label["D2=4, D.H=6"]

    def test_plane(self, capsys):
        doc = invoke_json(capsys, "picard", "plane", "--gram", "4,1,-2", "--dh-max", "4")
        assert doc == {"classes": [[0, 1], [1, -1], [1, 0]]}

    def test_invariants(self, capsys):
        doc = invoke_json(
            capsys, "picard", "invariants", "--gram", "4,6,4", "--class", "0,1"
        )
        assert doc == {"degree": 6, "genus": 3, "self_intersection": 4}


class TestLiaisonCommand:
    def test_example(self, capsys):
        doc = invoke_json(
            capsys, "liaison", "--degree", "1", "--genus", "0", "--s", "4", "--t", "2"
        )
        assert doc == {"degree": 7, "genus": 6}

    def test_twice_is_identity(self, capsys):
        doc = invoke_json(
            capsys, "liaison", "--degree", "5", "--genus", "2", "--s", "4", "--t", "3",
            "--twice",
        )
        assert doc == {"degree": 5, "genus": 2}

    def test_domain_error(self, capsys):
        code, _, err = invoke(
            capsys, "liaison", "--degree", "9", "--genus", "0", "--s", "2", "--t", "2"
        )
        assert code == 1 and "positive" in err


class TestClassifyCommands:
    def test_quartic_json(self, capsys):
        doc = invoke_json(capsys, "classify", "quartic", "--divisor", "F4", "--kmax", "3")
        rigid = [e for e in doc if e["provenance"] == "RIGID"]
        assert [e["class"] for e in rigid] == [[0, 1]]
        assert all({"degree", "genus", "resolution"} <= set(e) for e in doc)

    def test_low(self, capsys):
        doc = invoke_json(capsys, "classify", "low", "--degree", "3", "--type", "3x3")
        assert doc[0]["pair"] == {"a": [1, 1, 1], "b": [2, 2, 2]}
        assert doc[0]["tables"][0]["gens"] == [2, 2, 2, 3]

    @pytest.mark.parametrize("degree,type_tag", [
        ("2", "smooth"), ("2", "reducible"), ("3", "2x2"), ("3", "3x3"),
    ])
    def test_low_family_documents(self, capsys, degree, type_tag):
        # each family's document: its pair's degree, the splitting type and
        # the note on the reducible quadric's families alone, and the
        # constructor's table at each k from k_min
        doc = invoke_json(capsys, "classify", "low", "--degree", degree, "--type", type_tag,
                          "--kmax", "9")
        for fam in doc:
            pair = acmcurves.make_pair(fam["pair"]["a"], fam["pair"]["b"])
            assert fam["surface_degree"] == sum(pair.b) - sum(pair.a) == int(degree)
            assert fam["tables"] == [
                acmcurves.surface_generator_table(pair, k).to_json() | {"k": k}
                for k in range(fam["k_min"], 10)
            ]
        split = [{key: fam[key] for key in ("n", "note") if key in fam} for fam in doc]
        if type_tag == "reducible":
            note = "tables generated by the surface-generator constructor"
            assert split == [{"n": n, "note": note} for n in (1, 2, 3)]
        else:
            assert split == [{}] * len(doc)


class TestHarness:
    def test_usage_error_exit_code(self, capsys):
        assert run(["pairs", "matrix", "--a", "1,1"]) == 2
        assert run(["nonsense"]) == 2

    @pytest.mark.parametrize("argv", [
        ["pairs", "enumerate", "--degree", "3"],
        ["pairs", "enumerate", "--degree", "5"],
        ["classify", "quartic", "--divisor", "F5"],
        *(["classify", "quartic", "--divisor", f"F{i}", "--kmax", "40"] for i in range(1, 6)),
        *(["reproduce", target, "--format", "json"] for target in TARGETS),
        ["picard", "solve", "--gram", "4,1,-2", "--self-int=0", "--dh", "1..200"],
    ], ids=" ".join)
    def test_json_round_trip_byte_identical(self, argv, capsys):
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
        # and the records' own document, tuples and all, prints as json.dumps writes it
        assert json.dumps(reference_document(argv), indent=2, sort_keys=True) + "\n" == out

    def test_table_mode_carries_same_data(self, capsys):
        doc = invoke_json(capsys, "classify", "quartic", "--divisor", "F1", "--kmax", "3")
        code, table, _ = invoke(
            capsys, "classify", "quartic", "--divisor", "F1", "--kmax", "3",
            "--format", "table",
        )
        assert code == 0
        for entry in doc:
            assert str(entry["degree"]) in table
            assert entry["provenance"] in table

    @pytest.mark.parametrize("target", TARGETS)
    def test_reproduce_targets_pass(self, target, capsys):
        code, out, _ = invoke(capsys, "reproduce", target)
        assert code == 0
        assert "FAIL" not in out

    def test_reproduce_json_mode(self, capsys):
        doc = invoke_json(capsys, "reproduce", "liaison-table", "--format", "json")
        assert all(row["status"] == "PASS" for row in doc)

    def test_run_target_unknown(self):
        message = ("unknown target 'degree9-kinds'; expected one of ('degree2-kinds', "
                   "'degree3-kinds', 'degree4-kinds', 'F1', 'F2', 'F3', 'F4', 'F5', "
                   "'low-degree-corollaries', 'liaison-table')")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_target("degree9-kinds")

    def test_runtime_loads_only_the_standard_library(self):
        # -S keeps the start-up hooks of site-packages (.pth files) out of
        # sys.modules, so what is left is what the library and the CLI import
        src = str(Path(acmcurves.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, json, sys\n"
            "from acmcurves.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [run(['reproduce', 'F1']),\n"
            "             run(['classify', 'quartic', '--divisor', 'F2', '--format', 'table'])]\n"
            "allowed = set(sys.stdlib_module_names) | {'acmcurves', '__main__'}\n"
            "extra = {name.partition('.')[0] for name in sys.modules} - allowed\n"
            "print(json.dumps([codes, sorted(extra)]))\n"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        assert json.loads(out.stdout) == [[0, 0], []]

    @pytest.mark.parametrize("argv,loaded", [
        (["pairs", "matrix", "--a", "1,1", "--b", "2,4"], ["pairs"]),
        (["liaison", "--degree", "1", "--genus", "0", "--s", "4", "--t", "2"],
         ["liaison", "resolutions"]),
        (["res", "invariants", "--gens", "2,2", "--syz", "4"], ["resolutions"]),
        (["res", "build", "--case", "ci", "--a", "4", "--b", "3"], ["resolutions"]),
        (["picard", "solve", "--gram", "4,1,-2", "--self-int", "-2", "--dh", "1..3"], ["picard"]),
        (["classify", "quartic", "--divisor", "F4", "--kmax", "3"],
         ["classifier", "pairs", "picard", "resolutions"]),
        (["classify", "low", "--degree", "2", "--type", "reducible"],
         ["classifier", "pairs", "picard", "resolutions"]),
        (["picard", "watanabe", "--divisor", "F1"],
         ["classifier", "pairs", "picard", "resolutions"]),
        (["pairs", "enumerate", "--degree", "3"], ["enumeration", "pairs"]),
        (["reproduce", "F1"],
         ["catalog", "classifier", "enumeration", "liaison", "pairs", "picard", "reproduce",
          "resolutions"]),
    ], ids=["pairs-matrix", "liaison", "res-invariants", "res-build-ci", "picard-solve",
            "classify-quartic", "classify-low", "watanabe-divisor", "pairs-enumerate", "reproduce"])
    def test_command_loads_only_the_modules_it_uses(self, argv, loaded):
        # every module but the package, the CLI and its choice labels is loaded
        # by the handler that runs
        assert self.modules_loaded_by(argv) == [0, sorted(loaded + ["cli", "labels"])]

    @pytest.mark.parametrize("argv,loaded", [
        (["pairs", "matrix", "--a", "1,2", "--b", "2,2"], ["pairs"]),
        (["liaison", "--degree", "13", "--genus", "2", "--s", "4", "--t", "3"],
         ["liaison", "resolutions"]),
        (["res", "build", "--case", "ii", "--a", "1,1", "--b", "2,4", "--k", "-3"],
         ["pairs", "resolutions"]),
    ], ids=["pairs-matrix", "liaison", "res-build"])
    def test_refusal_loads_only_the_modules_it_reached(self, argv, loaded):
        # `run` catches a refusal as a plain ValueError, so reporting it
        # loads no module the handler did not reach
        assert self.modules_loaded_by(argv) == [1, sorted(loaded + ["cli", "labels"])]

    @staticmethod
    def modules_loaded_by(argv):
        """[exit code, the `acmcurves` modules loaded] of `run(argv)` in a
        fresh `python -S` child."""
        src = str(Path(acmcurves.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, json, sys\n"
            "from acmcurves.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = run({argv!r})\n"
            "names = sorted(m.partition('.')[2] for m in sys.modules if m.startswith('acmcurves.'))\n"
            "print(json.dumps([code, names]))\n"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        return json.loads(out.stdout)

    @staticmethod
    def loaded_by(argvs, heavy):
        """[exit codes, whether each `heavy` module is loaded] of one
        `python -S` child that runs every argv.  A baseline child that
        imports only the stdlib modules the library uses tells whether
        this Python loads one of them regardless; then the test skips."""
        src = str(Path(acmcurves.__file__).resolve().parents[1])
        check = f"[m in sys.modules for m in {heavy!r}]"
        baseline = ("import bisect, collections, functools, itertools, json, math\n"
                    "import operator, os, random, re, sys\n"
                    f"print(any({check}))\n")
        out = subprocess.run([sys.executable, "-S", "-c", baseline], capture_output=True,
                             text=True, timeout=60, check=True)
        if out.stdout.strip() == "True":
            pytest.skip(f"this Python loads one of {heavy} on its own")
        code = (
            "import contextlib, io, json, sys\n"
            "from acmcurves.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [run(argv) for argv in {argvs!r}]\n"
            f"print(json.dumps([codes, {check}]))\n"
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        return json.loads(out.stdout)

    def test_commands_load_no_typing(self):
        # the library names types only in annotations, which are never
        # evaluated, and finds its data next to its source
        argvs = [["classify", "quartic", "--divisor", "F2"],
                 ["res", "build", "--case", "ci", "--a", "4", "--b", "3"],
                 ["reproduce", "F1"]]
        assert self.loaded_by(argvs, ("typing", "importlib.resources")) == [[0, 0, 0], [False, False]]

    def test_commands_load_no_dataclasses(self):
        # every record is a named tuple, so no command imports `dataclasses`,
        # which would load `inspect` (and with it `ast`, `dis` and `tokenize`)
        argvs = [["classify", "quartic", "--divisor", "F2"],
                 ["res", "build", "--case", "ci", "--a", "4", "--b", "3"],
                 ["reproduce", "F1"],
                 ["pairs", "matrix", "--a", "1,1", "--b", "2,4"]]
        assert self.loaded_by(argvs, ("dataclasses", "inspect")) == [[0, 0, 0, 0], [False, False]]

    def test_every_library_name_the_cli_reads_is_public(self):
        # the CLI reads the library only as `acm.X`; a name missing from the
        # package's lazy table would otherwise fail on its one command alone
        tree = ast.parse(Path(acmcurves.cli.__file__).read_text())
        names = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "acm"
        }
        assert {"make_pair", "enumerate_kinds"} <= names
        assert names - set(acmcurves.__all__) == set()

    def test_classification_error_exits_1_without_traceback(self, capsys, monkeypatch):
        from acmcurves import classifier

        prose = dict(classifier._PROSE["F4"])
        del prose[(classifier.FAMILY_III, acmcurves.DivisorClass(1, -1))]
        monkeypatch.setitem(classifier._PROSE, "F4", prose)
        code, out, err = invoke(capsys, "classify", "quartic", "--divisor", "F4", "--kmax", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: F4: no description for the FAMILY_III class")
        assert err.count("\n") == 1 and "Traceback" not in err


SMALL = st.integers(-6, 12)
# +-(10^999 - 1), the longest integers accepted, and one of 1001 digits
EDGE_INTS = st.sampled_from([10**999 - 1, -(10**999 - 1), 10**1000]).map(str)
INTS = SMALL.map(str) | EDGE_INTS


def csv(xs):
    return ",".join(map(str, xs))


LISTS = st.lists(SMALL, max_size=5).map(csv) | EDGE_INTS | st.just(csv([0] * 1001))
# any list, or the entries --gram or --class takes: an even lattice has an
# even positive H^2 and an even C^2
GRAMS = LISTS | st.tuples(st.integers(1, 6), SMALL, st.integers(-3, 6)).map(
    lambda g: csv([2 * g[0], g[1], 2 * g[2]]))
CLASSES = LISTS | st.tuples(SMALL, SMALL).map(csv)
# a --dh span of 10^6 + 1 is refused up front; no drawn span runs past 19
RANGES = st.tuples(INTS, INTS).map("..".join) | INTS | st.just("0..1000000")
KMAX = INTS | st.just("10001")
# degrees 6 and 7 run to their bound; 8 and above are refused up front
ENUMERATE_DEGREES = st.sampled_from([str(d) for d in range(-6, 13) if d not in (6, 7)]) | EDGE_INTS


def optional(values):
    return st.none() | values


# independent lists, or the two sequences of a valid pair
PAIR_FLAGS = st.fixed_dictionaries({"--a": LISTS, "--b": LISTS}) | weak_pairs(max_degree=5).map(
    lambda p: {"--a": csv(p.a), "--b": csv(p.b)})

# every leaf command but `reproduce`, whose targets are run one by one
# above: {flag: value} of one command line; None leaves the flag out,
# and True gives a flag that takes no value
FUZZED_COMMANDS = {
    **{("pairs", name): PAIR_FLAGS
       for name in ("matrix", "normalize", "dual", "signature", "reducible")},
    ("pairs", "enumerate"): st.fixed_dictionaries(
        {"--degree": ENUMERATE_DEGREES, "--cap": optional(INTS)}),
    ("res", "build"): st.builds(dict.__or__, PAIR_FLAGS, st.fixed_dictionaries({
        "--case": st.sampled_from(["ci", "ii", "iii"]), "--k": optional(INTS),
        "--j0": optional(INTS), "--surface-degree": optional(INTS)})),
    ("res", "invariants"): st.fixed_dictionaries({"--gens": LISTS, "--syz": LISTS}),
    ("picard", "solve"): st.fixed_dictionaries(
        {"--gram": GRAMS, "--self-int": INTS, "--dh": RANGES}),
    ("picard", "watanabe"): st.fixed_dictionaries(
        {"--divisor": optional(st.sampled_from(DIVISOR_LABELS)), "--gram": optional(GRAMS)}),
    ("picard", "plane"): st.fixed_dictionaries({"--gram": GRAMS, "--dh-max": INTS}),
    ("picard", "invariants"): st.fixed_dictionaries({"--gram": GRAMS, "--class": CLASSES}),
    ("liaison",): st.fixed_dictionaries({"--degree": INTS, "--genus": INTS, "--s": INTS,
                                         "--t": INTS, "--twice": optional(st.just(True))}),
    ("classify", "quartic"): st.fixed_dictionaries(
        {"--divisor": st.sampled_from(DIVISOR_LABELS), "--kmax": optional(KMAX)}),
    ("classify", "low"): st.fixed_dictionaries({
        "--degree": st.sampled_from(["2", "3"]) | INTS,
        "--type": st.sampled_from(["smooth", "reducible", "2x2", "3x3", "4x4"]),
        "--kmax": optional(KMAX)}),
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZED_COMMANDS)))
    argv = list(command)
    for flag, value in draw(FUZZED_COMMANDS[command]).items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")  # the = form takes a leading minus sign
    return argv + [f"--format={draw(st.sampled_from(['json', 'table']))}"]


class TestRefusals:
    """Every refusal of the library is a ValueError, which `run` reports
    in one `error:` line with exit code 1."""

    def test_every_library_error_is_a_value_error(self):
        # the package's modules are walked, so a new error class of
        # another kind fails here; `cli._TooLarge` is an argument bound
        # that argparse must not echo as a ValueError's usage error
        package = Path(acmcurves.__file__).parent
        errors = {
            obj for info in pkgutil.iter_modules([str(package)])
            for obj in vars(importlib.import_module(f"acmcurves.{info.name}")).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == f"acmcurves.{info.name}"
        }
        assert {e.__name__ for e in errors} >= {
            "ClassificationError", "InvalidTableError", "LinkageError", "PairError", "_TooLarge"}
        assert [e for e in errors if not issubclass(e, ValueError)] == [cli._TooLarge]

    @settings(max_examples=300, deadline=None)
    @given(fuzzed_argv())
    def test_run_never_raises(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("\n")
        elif code == 2:
            assert out == ""
        elif argv[-1] == "--format=json":
            json.loads(out)


class TestAdditionalPaths:
    def test_watanabe_by_gram(self, capsys):
        doc = invoke_json(capsys, "picard", "watanabe", "--gram", "4,4,0")
        by_label = {c["label"]: c["classes"] for c in doc["cases"]}
        assert by_label["D2=0, 3<=D.H<=4"] == [[0, 1], [2, -1]]

    def test_negative_class_coefficients(self, capsys):
        doc = invoke_json(
            capsys, "picard", "invariants", "--gram", "4,3,-2", "--class=2,-1"
        )
        assert (doc["degree"], doc["genus"]) == (5, 2)

    def test_twists_must_be_positive(self, capsys):
        code, _, err = invoke(
            capsys, "res", "invariants", "--gens=-1,1", "--syz", "2"
        )
        assert code == 1 and "nonpositive twist" in err

    def test_classify_low_reducible(self, capsys):
        doc = invoke_json(
            capsys, "classify", "low", "--degree", "2", "--type", "reducible",
            "--kmax", "1",
        )
        assert [f["n"] for f in doc] == [1, 2, 3]
        assert doc[0]["tables"][0]["gens"] == [2, 2, 3]

    def test_bad_gram_length(self, capsys):
        code, _, err = invoke(
            capsys, "picard", "solve", "--gram", "4,1", "--self-int", "0",
            "--dh", "1..2",
        )
        assert code == 1 and "three integers" in err

    @pytest.mark.parametrize("argv,code,error", [
        (["pairs", "matrix", "--a=1,x", "--b=2,3"], 2,
         "acmcurves pairs matrix: error: argument --a: expected comma-separated integers, "
         "got '1,x'"),
        (["picard", "solve", "--gram", "4,1,-2", "--self-int=0", "--dh=1..x"], 2,
         "acmcurves picard solve: error: argument --dh: expected MIN..MAX, got '1..x'"),
        (["res", "build", "--case", "ci", "--a", "1,2", "--b", "3"], 1,
         "error: --case ci expects single integers for --a and --b"),
        (["picard", "invariants", "--gram", "4,1,-2", "--class=1,2,3"], 1,
         "error: --class expects two integers A,B"),
        (["liaison", "--degree", "0", "--genus", "0", "--s", "2", "--t", "2"], 1,
         "error: degree must be positive, got 0"),
        (["res", "build", "--case", "ci", "--a", "0", "--b", "3"], 1,
         "error: complete intersection degrees must be positive"),
    ], ids=["pairs-list", "picard-range", "ci-lists", "class-length", "liaison-degree",
            "ci-degree"])
    def test_refusal_names_its_argument(self, capsys, argv, code, error):
        got, out, err = invoke(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.splitlines()[-1] == error
        assert "Traceback" not in err
        if code == 1:
            assert err == error + "\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "low", "--degree", "3", "--type", "4x4"],
        ["classify", "quartic", "--divisor", "F6"],
    ], ids=["type", "divisor"])
    def test_an_unknown_name_is_a_usage_error(self, capsys, argv):
        # `--type` and `--divisor` take their choices from `labels`
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: acmcurves {argv[0]} {argv[1]} ")
        assert f"invalid choice: {argv[-1]!r}" in err.splitlines()[-1]

    def test_a_known_type_at_another_degree_is_a_refusal(self, capsys):
        assert invoke(capsys, "classify", "low", "--degree", "2", "--type", "2x2") == (
            1, "", "error: unknown type 2/2x2; expected one of 2/reducible, 2/smooth, 3/2x2, "
            "3/3x3\n")

    @pytest.mark.parametrize("argv, flag, value", [
        (["pairs", "matrix", "--a", "1,,1", "--b", "2,4"], "--a", "1,,1"),
        (["pairs", "matrix", "--a=1,1,", "--b=2,4,"], "--a", "1,1,"),
        (["res", "invariants", "--gens", ",1", "--syz", "2"], "--gens", ",1"),
        (["picard", "solve", "--gram", "4,1,,-2", "--self-int=0", "--dh", "1..2"],
         "--gram", "4,1,,-2"),
        (["picard", "invariants", "--gram", "4,6,4", "--class", "0,1,"], "--class", "0,1,"),
    ], ids=["inner", "trailing", "leading", "gram", "class"])
    def test_empty_list_entry_refused(self, capsys, argv, flag, value):
        # an empty entry is malformed, not dropped; "" alone is the empty list
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f": error: argument {flag}: expected comma-separated integers, got {value!r}")

    def test_enumerate_cap_below_degree(self, capsys):
        code, _, err = invoke(capsys, "pairs", "enumerate", "--degree", "4", "--cap", "3")
        assert code == 1 and "b_cap" in err

    def test_enumerate_degree_8_refused_up_front(self, capsys, monkeypatch):
        monkeypatch.setattr("acmcurves.enumerate_kinds", never)
        code, out, err = invoke(capsys, "pairs", "enumerate", "--degree", "8")
        assert code == 1 and out == ""
        assert err.startswith("error: --degree 8 is out of reach: degree 7 alone prints")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_enumerate_cap_above_bound_refused_up_front(self, capsys, monkeypatch):
        monkeypatch.setattr("acmcurves.enumerate_kinds", never)
        for degree, cap, bound in [("2", "1000000000", 6), ("5", "100", 22)]:
            code, out, err = invoke(capsys, "pairs", "enumerate", "--degree", degree, "--cap", cap)
            assert code == 1 and out == ""
            assert err.startswith(f"error: --cap {cap} is above {bound} for degree {degree}")
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_enumerate_cap_at_bound_succeeds(self, capsys):
        doc = invoke_json(capsys, "pairs", "enumerate", "--degree", "2", "--cap", "6")
        assert doc["b_cap"] == 6 and len(doc["kinds"]) == 2

    def test_enumerate_largest_accepted_cap_succeeds(self, capsys):
        # degree 6 at the largest cap it accepts, stable_cap(6) + 6 = 32;
        # the same call at degree 7 takes seconds, too long for tier-1
        start = time.perf_counter()
        code = run(["pairs", "enumerate", "--degree", "6", "--cap", "32"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["degree"], doc["b_cap"], len(doc["kinds"])) == (6, 32, 14137)
        assert sum(k["count"] for k in doc["kinds"]) == count_pairs(6, 32)
        assert elapsed < 1.0

    def test_enumerate_largest_accepted_degree_succeeds(self, capsys):
        # degree 7, the largest accepted, at its least cap: 4 471 kinds in
        # ~0.07 s, each kind one pair
        start = time.perf_counter()
        code = run(["pairs", "enumerate", "--degree", "7", "--cap", "7"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        doc = json.loads(out)
        kinds = {acmcurves.kind_signature(acmcurves.degree_matrix(p))
                 for p in brute_force_pairs(7, 7)}
        assert (doc["degree"], doc["b_cap"], len(doc["kinds"])) == (7, 7, len(kinds))
        assert sum(k["count"] for k in doc["kinds"]) == count_pairs(7, 7)
        assert elapsed < 1.0

    def test_solve_dh_range_above_bound_refused_up_front(self, capsys, monkeypatch):
        monkeypatch.setattr("acmcurves.solve_classes", never)
        code, out, err = invoke(
            capsys, "picard", "solve", "--gram", "4,1,-2", "--self-int", "-2",
            "--dh", "0..1000000",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --dh 0..1000000 spans 1000001 degrees, more than 1000000")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_solve_dh_range_at_bound_succeeds(self, capsys):
        # a span of exactly 10^6 degrees, the largest accepted
        start = time.perf_counter()
        doc = invoke_json(capsys, "picard", "solve", "--gram", "4,1,-4", "--self-int=-2",
                          "--dh", "1..1000000")
        elapsed = time.perf_counter() - start
        classes = acmcurves.solve_classes(acmcurves.PicardLattice(4, 1, -4), -2, 1, 10**6)
        assert doc == {"classes": sorted(c.to_json() for c in classes)}
        assert elapsed < 2.0

    def test_plane_dh_max_is_bounded_by_degree_6_only(self, capsys):
        # no plane-curve class has a degree above 6, so a 1000-digit
        # --dh-max prints what --dh-max 6 prints
        args = ("picard", "plane", "--gram", "4,1,-2", "--dh-max")
        code, out, err = invoke(capsys, *args, "1" + "0" * 999)
        assert code == 0 and err == ""
        assert out == invoke(capsys, *args, "6")[1]
        assert json.loads(out) == {"classes": [[0, 1], [1, -1], [1, 0]]}

    @pytest.mark.parametrize("argv", [
        ("classify", "quartic", "--divisor", "F1"),
        ("classify", "low", "--degree", "2", "--type", "smooth"),
    ])
    def test_kmax_above_bound_refused_up_front(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("acmcurves.classify_quartic", never)
        monkeypatch.setattr("acmcurves.classify_low_degree", never)
        code, out, err = invoke(capsys, *argv, "--kmax", "10001")
        assert code == 1 and out == ""
        assert err.startswith("error: --kmax 10001 is above 10000")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_quartic_kmax_at_bound_succeeds(self, capsys):
        # the largest --kmax accepted, on the divisor with the most rows
        start = time.perf_counter()
        code, out, err = invoke(capsys, "classify", "quartic", "--divisor", "F5",
                                "--kmax", "10000")
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        entries = acmcurves.classify_quartic(acmcurves.divisor("F5"), k_max=10000)
        assert len(json.loads(out)) == len(entries)
        assert elapsed < 2.0

    def test_low_kmax_at_bound_succeeds(self, capsys):
        start = time.perf_counter()
        doc = invoke_json(capsys, "classify", "low", "--degree", "3", "--type", "2x2",
                          "--kmax", "10000")
        elapsed = time.perf_counter() - start
        families = acmcurves.classify_low_degree(3, "2x2")
        assert [len(fam["tables"]) for fam in doc] == [10001 - fam.k_min for fam in families]
        assert elapsed < 2.0

    @pytest.mark.parametrize("degree, type_tag, kmax, k_min", [
        ("2", "smooth", "-5", 1), ("2", "reducible", "0", 1), ("3", "2x2", "-1", 0),
    ])
    def test_kmax_below_k_min_refused_up_front(self, capsys, monkeypatch,
                                               degree, type_tag, kmax, k_min):
        # below every family's k_min no table is listed: refused, not an
        # exit 0 with empty "tables"
        argv = ("classify", "low", "--degree", degree, "--type", type_tag, "--kmax")
        monkeypatch.setattr("acmcurves.classifier.surface_generator_table", never)
        code, out, err = invoke(capsys, *argv, kmax)
        assert code == 1 and out == ""
        assert err.startswith(f"error: --kmax {kmax} is below {k_min}, the least k_min of "
                              f"{degree}/{type_tag}")
        assert err.count("\n") == 1 and "Traceback" not in err
        monkeypatch.undo()
        doc = invoke_json(capsys, *argv, str(k_min))
        assert doc and all([t["k"] for t in fam["tables"]] == [k_min] for fam in doc)

    def test_solve_rejects_zero_h2(self, capsys):
        code, out, err = invoke(
            capsys, "picard", "solve", "--gram", "0,1,0", "--self-int", "0",
            "--dh", "1..3",
        )
        assert code == 1 and out == ""
        assert "surface degree" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [["solve", "--self-int=-2", "--dh", "1..3"], ["watanabe"]],
                             ids=["solve", "watanabe"])
    def test_consecutive_fibonacci_gram(self, capsys, command):
        # 313-digit entries: -det = fib(1499)^2 is a square far longer than the span
        fib = [0, 1]
        while len(fib) <= 1500:
            fib.append(fib[-1] + fib[-2])
        gram = f"--gram={fib[1500]},{fib[1499]},0"
        code, out, err = invoke(capsys, "picard", *command, gram)
        assert code == 0, err
        assert err == ""
        json.loads(out)

    @pytest.mark.parametrize("argv", [
        ("liaison", "--degree", "1", "--genus", "0", "--s", "1" + "0" * 2500, "--t", "1" + "0" * 2500),
        ("picard", "invariants", "--gram", "4,6,4", "--class", ",".join(["1" + "0" * 2500] * 2)),
        ("res", "build", "--case", "ci", "--a", "1" + "0" * 2500, "--b", "1" + "0" * 2500),
        ("liaison", "--degree", "9" * 5000, "--genus", "0", "--s", "2", "--t", "2"),
        ("picard", "solve", "--gram", "4,1,-2", "--self-int", "-2", "--dh", "1.." + "9" * 5000),
        ("pairs", "signature", "--a", "0,0", "--b=-" + "9" * 1001 + ",1"),
    ], ids=["liaison", "picard-invariants", "res-build-ci", "5000-digits", "range", "list"])
    def test_huge_integer_refused_up_front(self, capsys, monkeypatch, argv):
        for name in ("residual_invariants", "dot", "ci_table", "solve_classes", "make_pair"):
            monkeypatch.setattr(f"acmcurves.{name}", never)
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: integer arguments are limited to 1000 digits\n"

    @pytest.mark.parametrize("command", ["matrix", "signature", "reducible", "normalize"])
    def test_long_list_refused_up_front(self, capsys, monkeypatch, command):
        # matrix, signature and reducible build t x t cells; every list is bounded alike
        for name in ("degree_matrix", "pair_signature", "make_pair"):
            monkeypatch.setattr(f"acmcurves.{name}", never)
        long = ",".join(["0"] * 1001)
        code, out, err = invoke(capsys, "pairs", command, "--a", long, "--b", "1")
        assert code == 2 and out == ""
        assert err == "error: integer lists are limited to 1000 entries\n"

    def test_thousand_entry_lists_pass(self, capsys):
        doc = invoke_json(capsys, "pairs", "normalize", "--a", ",".join(["3"] * 1000),
                          "--b", ",".join(["4"] * 1000))
        assert doc == {"a": [0] * 1000, "b": [1] * 1000}

    @pytest.mark.parametrize("name,argv", [
        ("degree_matrix", ["pairs", "matrix", "--a", "0,0", "--b", "1,1"]),
        ("enumerate_kinds", ["pairs", "enumerate", "--degree", "2"]),
        ("solve_classes", ["picard", "solve", "--gram", "4,1,-2", "--self-int=-2", "--dh", "1..3"]),
        ("plane_curve_classes", ["picard", "plane", "--gram", "4,1,-2", "--dh-max", "4"]),
        ("classify_quartic", ["classify", "quartic", "--divisor", "F1", "--kmax", "3"]),
        ("classify_low_degree", ["classify", "low", "--degree", "2", "--type", "smooth"]),
        ("residual_invariants", ["liaison", "--degree", "1", "--genus", "0", "--s", "4", "--t", "2"]),
        ("dot", ["picard", "invariants", "--gram", "4,6,4", "--class", "0,1"]),
        ("ci_table", ["res", "build", "--case", "ci", "--a", "4", "--b", "3"]),
        ("make_pair", ["pairs", "signature", "--a", "0,0", "--b", "1,1"]),
    ])
    def test_refusal_patches_reach_the_command(self, capsys, monkeypatch, name, argv):
        # the positive control of the refusal tests: the same patch on a
        # within-bound argv is called, so a refusal that passes was not vacuous
        monkeypatch.setattr(f"acmcurves.{name}", never)
        with pytest.raises(AssertionError, match="the library was called"):
            run(argv)

    def test_thousand_digit_integers_pass(self, capsys):
        n = int("9" * 1000)
        doc = invoke_json(capsys, "liaison", "--degree", "1", "--genus", "0",
                          "--s", str(n), "--t", f"+{n}")
        assert doc["degree"] == n * n - 1

    def test_closed_stdout_pipe_exits_quietly(self):
        # each command streams: the reader closes the pipe after the first
        # line, while the writer still has rows to write
        src = str(Path(acmcurves.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for command, first in [
            (["classify", "quartic", "--divisor", "F1", "--kmax", "2000"], b"[\n"),
            (["pairs", "enumerate", "--degree", "6"], b"{\n"),
            (["pairs", "enumerate", "--degree", "6", "--format", "table"],
             b"degree 6, b_cap 26: 14137 kinds\n"),
        ]:
            argv = [sys.executable, "-m", "acmcurves.cli", *command]
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=env) as proc:
                assert proc.stdout.readline() == first
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 1
            assert err == b"", command

    # the first line of each comes well before the last: the degree-6
    # catalog, and every reproduce target after the first
    @pytest.mark.parametrize("script", [["kind_census.py", "6"], ["reproduce_all.py"]],
                             ids=["kind_census", "reproduce_all"])
    def test_scripts_exit_quietly_into_a_closed_pipe(self, script):
        root = Path(acmcurves.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        argv = [sys.executable, str(root / "scripts" / script[0]), *script[1:]]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() != b""
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""


# one argv per leaf command, and the commands that have a table view;
# the others print their JSON under --format table
LEAF_COMMANDS = {
    "pairs matrix": ["pairs", "matrix", "--a", "1,1", "--b", "2,4"],
    "pairs normalize": ["pairs", "normalize", "--a", "5,7", "--b", "6,9"],
    "pairs dual": ["pairs", "dual", "--a", "0,3", "--b", "3,4"],
    "pairs signature": ["pairs", "signature", "--a", "0,2", "--b", "2,4"],
    "pairs reducible": ["pairs", "reducible", "--a", "0,2", "--b", "2,4"],
    "pairs enumerate": ["pairs", "enumerate", "--degree", "3"],
    "res build": ["res", "build", "--case", "ii", "--a", "1,1", "--b", "2,4",
                  "--k", "3", "--surface-degree", "4"],
    "res invariants": ["res", "invariants", "--gens", "3,3,3,3", "--syz", "4,4,4"],
    "picard solve": ["picard", "solve", "--gram", "4,1,-2", "--self-int", "-2", "--dh", "1..3"],
    "picard watanabe": ["picard", "watanabe", "--divisor", "F3"],
    "picard plane": ["picard", "plane", "--gram", "4,1,-2", "--dh-max", "4"],
    "picard invariants": ["picard", "invariants", "--gram", "4,6,4", "--class", "0,1"],
    "liaison": ["liaison", "--degree", "1", "--genus", "0", "--s", "4", "--t", "2"],
    "classify quartic": ["classify", "quartic", "--divisor", "F4", "--kmax", "3"],
    "classify low": ["classify", "low", "--degree", "3", "--type", "3x3"],
    "reproduce": ["reproduce", "liaison-table"],
}
TABLE_VIEWS = {
    "pairs matrix", "pairs signature", "pairs enumerate", "picard watanabe",
    "classify quartic", "classify low", "reproduce",
}


class TestOutputContract:
    @pytest.mark.parametrize("name", sorted(LEAF_COMMANDS))
    def test_formats(self, name, capsys):
        argv = LEAF_COMMANDS[name]
        code, as_json, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(as_json), indent=2, sort_keys=True) + "\n" == as_json
        code, as_table, _ = invoke(capsys, *argv, "--format", "table")
        assert code == 0
        if name in TABLE_VIEWS:
            with pytest.raises(ValueError):
                json.loads(as_table)
        else:
            assert as_table == as_json
        code, default, _ = invoke(capsys, *argv)
        assert code == 0
        assert default == (as_table if name == "reproduce" else as_json)



BIG_MATRIX = ["pairs", "matrix", "--a", ",".join(map(str, range(1000))),
              "--b", ",".join(map(str, range(1, 1001)))]


class TestTableViews:
    """Each table view prints, byte for byte, its layout built as one
    string from all its cells, though it reaches `run` a line at a time."""

    @pytest.mark.parametrize("argv", [
        *(LEAF_COMMANDS[name] for name in sorted(TABLE_VIEWS)),
        ["pairs", "enumerate", "--degree", "5"],
        ["classify", "quartic", "--divisor", "F5", "--kmax", "1000"],
        ["classify", "low", "--degree", "3", "--type", "2x2", "--kmax", "1000"],
        BIG_MATRIX,
    ], ids=lambda argv: " ".join(argv)[:60])
    def test_equals_the_reference(self, argv, capsys):
        code, out, err = invoke(capsys, *argv, "--format", "table")
        assert (code, err) == (0, "")
        assert out == reference_table(argv) + "\n"

    def test_degree_2_catalog_written_by_hand(self, capsys):
        # b_cap = stable_cap(2) = 4.  A pair of degree 2 is ((0, a2), (1, a2 + 1)),
        # with b_2 = a2 + 1 <= 4.  Its cells b_j - a_i, with d = 2 shown as B:
        # a2 = 0 gives 1,1 / 1,1; each a2 = 1, 2, 3 gives 1,B / 0,1, whose
        # least pair is the one at a2 = 1.  Each column is left-justified to
        # its widest cell, so the count column ends in spaces
        code, out, err = invoke(capsys, "pairs", "enumerate", "--degree", "2", "--format", "table")
        assert (code, err) == (0, "")
        assert out == (
            "degree 2, b_cap 4: 2 kinds\n"
            "signature  representative    count\n"
            "1,1 / 1,1  ((0, 0), (1, 1))  1    \n"
            "1,B / 0,1  ((0, 1), (1, 2))  3    \n"
        )

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_pieces_go_out_1000_to_a_write(self, fmt, monkeypatch):
        # the JSON is the catalog's head, one piece per kind and its tail;
        # the table is the head line, the header and one line per kind
        argv = ["pairs", "enumerate", "--degree", "5", "--format", fmt]
        pieces = len(acmcurves.enumerate_kinds(acmcurves.EnumerationConfig(5))) + 2
        want = (reference_table(argv) if fmt == "table"
                else json.dumps(reference_document(argv), indent=2, sort_keys=True))
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
        assert run(argv) == 0
        assert "".join(writes) == want + "\n"
        # 1 082 kinds: two batches, then the newline
        assert len(writes) == -(-pieces // 1000) + 1 == 3
        assert writes[-1] == "\n"


# the two documents that stream from their row templates; every other
# command builds its document and prints it through json.dumps
STREAMED = {"pairs enumerate", "classify quartic"}


class TestJsonWriter:
    """`run` writes a built document as `json.dumps(doc, indent=2, sort_keys=True)`,
    and the two streamed documents without it, byte for byte the same text."""

    @pytest.mark.parametrize("name", sorted(set(LEAF_COMMANDS) - STREAMED))
    def test_built_document_is_written_by_json_dumps(self, name, capsys, monkeypatch):
        argv = [*LEAF_COMMANDS[name], "--format", "json"]
        doc = reference_document(argv)
        dumps, calls = json.dumps, []

        def recording(obj, **kwargs):
            calls.append((obj, kwargs))
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", recording)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert calls == [(doc, {"indent": 2, "sort_keys": True})]
        assert out == dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        *(["pairs", "enumerate", "--degree", str(d)] for d in (2, 3, 4, 5)),
        ["pairs", "enumerate", "--degree", "4", "--cap", "4"],
        *(["classify", "quartic", "--divisor", f"F{i}", "--kmax", "3"] for i in range(1, 6)),
        ["classify", "quartic", "--divisor", "F5", "--kmax", "300"],
    ], ids=" ".join)
    def test_streamed_document_does_not_reach_json_dumps(self, argv, capsys, monkeypatch):
        want = json.dumps(reference_document(argv), indent=2, sort_keys=True) + "\n"
        monkeypatch.setattr(cli.json, "dumps", never)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == want

    @pytest.mark.parametrize("argv, row_key", [
        (["pairs", "enumerate", "--degree", "5"], '"count"'),
        (["classify", "quartic", "--divisor", "F5", "--kmax", "1000"], '"class"'),
    ], ids=["pairs enumerate --degree 5", "classify quartic --divisor F5 --kmax 1000"])
    def test_streamed_rows_go_out_in_several_writes(self, argv, row_key, monkeypatch):
        # more rows than one batch of 1 000 pieces holds, so no single write carries them all
        want = json.dumps(reference_document(argv), indent=2, sort_keys=True) + "\n"
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
        assert run(argv) == 0
        assert "".join(writes) == want
        assert sum(row_key in w for w in writes) > 1

    @pytest.mark.parametrize("argv", [
        ["picard", "solve", "--gram", "4,1,-2", "--self-int=0", "--dh", "1..5000"],
        *(["classify", "low", "--degree", d, "--type", t, "--kmax", "1000"]
          for d, t in (("2", "smooth"), ("2", "reducible"), ("3", "2x2"), ("3", "3x3"))),
        BIG_MATRIX,
    ], ids=lambda argv: " ".join(argv)[:60])
    def test_large_built_document_equals_the_reference(self, argv, capsys):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(reference_document(argv), indent=2, sort_keys=True) + "\n"
