import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acmcurves
from acmcurves import degree_matrix, make_pair, normalize, pair_signature
from acmcurves.catalog import (
    Constraint,
    PairFamily,
    eval_affine,
    kind_families,
    parse_affine,
)


def family(degree: int, name: str) -> PairFamily:
    return {f.name: f for f in kind_families(degree)}[name]


class TestAffineExpressions:
    @pytest.mark.parametrize(
        "text,env,value",
        [
            ("3", {}, 3),
            ("n", {"n": 7}, 7),
            ("2+n", {"n": 0}, 2),
            ("3+n-m", {"n": 5, "m": 2}, 6),
            ("n-m+1", {"n": 2, "m": 2}, 1),
            ("0", {}, 0),
        ],
    )
    def test_parse_and_eval(self, text, env, value):
        assert eval_affine(parse_affine(text), env) == value

    @pytest.mark.parametrize("bad", ["", "2+", "n*m", "2n", "+-3", "n m"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_affine(bad)


class TestConstraints:
    def test_operators(self):
        assert Constraint.parse("m<n").holds({"m": 1, "n": 2})
        assert not Constraint.parse("m<n").holds({"m": 2, "n": 2})
        assert Constraint.parse("m<=n").holds({"m": 2, "n": 2})
        assert Constraint.parse("n>=1").holds({"n": 1})
        assert Constraint.parse("k+1==m").holds({"k": 0, "m": 1})

    def test_rejects_missing_operator(self):
        with pytest.raises(ValueError, match="comparison"):
            Constraint.parse("m+n")


class TestPairFamily:
    def test_instantiate_normalizes(self):
        fam = family(4, "M1")
        assert fam.instantiate({}) == make_pair((0, 0), (1, 3))

    def test_min_instance_and_matrix(self):
        fam = family(4, "M5")
        assert fam.min_instance() == make_pair((0, 2), (2, 4))
        assert degree_matrix(fam.min_instance()).entries == ((2, 4), (0, 2))

    def test_instances_respect_the_bound(self):
        fam = family(4, "M5")
        got = fam.instances(6)
        assert got == [
            normalize(make_pair((0, 2 + n), (2, 4 + n))) for n in range(3)
        ]

    def test_envs_respect_constraints(self):
        fam = family(4, "M13")  # 0 <= m < n
        envs = fam.envs(2)
        assert envs == [{"m": 0, "n": 1}, {"m": 0, "n": 2}, {"m": 1, "n": 2}]

    def test_dual_parameter_map(self):
        fam = family(4, "M13")
        assert fam.dual_name == "M17"
        assert fam.map_params({"m": 1, "n": 4}) == {"m": 3, "n": 4}

    def test_signatures_straddle_the_big_threshold(self):
        fam = family(3, "M6")
        sigs = fam.signatures(6)
        assert len(sigs) == 2  # small entry at n=2, BIG from n=3 on
        assert pair_signature(make_pair((0, 0, 1), (1, 1, 2))) in sigs

    def test_every_cataloged_family_is_instantiable(self):
        for degree in (2, 3, 4):
            for fam in kind_families(degree):
                p = fam.min_instance()
                assert p.degree == degree

    def test_from_json_roundtrip(self):
        fam = PairFamily.from_json(
            4,
            {
                "name": "X",
                "a": ["0", "1+m"],
                "b": ["2", "3+m"],
                "params": ["m"],
                "constraints": ["m>=0"],
                "min": {"m": 0},
            },
        )
        assert fam.dual_name == "X"  # defaults to self
        assert fam.instantiate({"m": 2}) == make_pair((0, 3), (2, 5))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^no family catalog for degree 7$"):
            kind_families(7)


def test_parameters_always_raise_some_bounded_b_entry():
    # instances(b_cap) scans parameter values up to b_cap; that is
    # exhaustive because every parameter enters some b entry with
    # coefficient +1 next to a positive constant
    for degree in (2, 3, 4):
        for fam in kind_families(degree):
            for param in fam.params:
                assert any(
                    dict(expr).get(param) == 1 and dict(expr).get("", 0) >= 1
                    for expr in fam.b
                ), (fam.name, param)


def _run_python(code: str) -> str:
    src = str(Path(acmcurves.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True).stdout


def test_importing_the_library_leaves_the_expected_data_unread():
    # `import acmcurves` loads no submodule, and the computing modules
    # behind its public names never import the catalog reader, so the
    # expected values stay independent of the code under test
    out = _run_python(
        "import sys, acmcurves\n"
        "bare = sorted(m for m in sys.modules if m.startswith('acmcurves.'))\n"
        "from acmcurves import *\n"
        "print(bare, sorted(m for m in sys.modules if m in "
        "('acmcurves.catalog', 'acmcurves.families', 'acmcurves.reproduce')))\n"
    )
    assert out == "[] []\n"


def test_importing_liaison_leaves_pairs_unloaded():
    # resolutions reads WeakAdmissiblePair only in annotations, so the
    # liaison formulas load the twist tables and nothing of the pair code
    out = _run_python(
        "import sys, acmcurves.liaison\n"
        "print(sorted(m for m in sys.modules if m.startswith('acmcurves')))\n"
    )
    assert out == "['acmcurves', 'acmcurves.liaison', 'acmcurves.resolutions']\n"


# the public names of the package, by defining module
PUBLIC_NAMES = {
    "pairs": [
        "BIG", "DegreeMatrix", "KindSignature", "PairError", "WeakAdmissiblePair",
        "anti_transpose", "degree_matrix", "dual_pair", "is_reducible_type", "kind_signature",
        "make_pair", "normalize", "pair_signature",
    ],
    "enumeration": [
        "EnumerationConfig", "KindCatalog", "enumerate_kinds", "enumerate_pairs",
        "match_families", "stable_cap",
    ],
    "resolutions": [
        "BettiTable", "CurveInvariants", "InvalidTableError", "ci_table", "degree_from_betti",
        "genus_from_betti", "invariants_from_betti", "surface_generator_table",
        "pivot_syzygy_table", "validate",
    ],
    "picard": [
        "DivisorClass", "H", "PicardLattice", "adjunction_genus", "dot", "plane_curve_classes",
        "quartic_lattice", "solve_classes", "watanabe_candidates",
    ],
    "liaison": ["CiProfile", "LinkageError", "residual_invariants"],
    "classifier": [
        "ClassificationEntry", "ClassificationError", "QuarticDivisor", "classify_low_degree",
        "classify_quartic", "cross_check", "divisor", "known_divisors",
    ],
}


def test_lazy_package_attributes_are_the_defining_modules_objects():
    # a fresh process, so no other test has loaded a name first
    out = _run_python(
        "import importlib, json, acmcurves\n"
        "listed = dir(acmcurves)\n"
        f"public = {PUBLIC_NAMES!r}\n"
        "same = [name for module, names in public.items() for name in names\n"
        "        if getattr(acmcurves, name)\n"
        "        is getattr(importlib.import_module('acmcurves.' + module), name)]\n"
        "star = {}\n"
        "exec('from acmcurves import *', star)\n"
        "try:\n"
        "    acmcurves.no_such_name\n"
        "    missing = 'no error'\n"
        "except AttributeError as err:\n"
        "    missing = str(err)\n"
        "print(json.dumps([same, sorted(acmcurves.__all__), listed, sorted(star), missing]))\n"
    )
    same, all_names, listed, star, missing = json.loads(out)
    names = sorted(name for names in PUBLIC_NAMES.values() for name in names)
    assert len(names) == 49
    assert sorted(same) == names
    assert all_names == names
    assert set(names) <= set(listed)
    assert sorted(set(star) - {"__builtins__"}) == names
    assert missing == "module 'acmcurves' has no attribute 'no_such_name'"
