"""scripts/kind_census.py: one catalog per degree gives the same census as
one catalog per bound of the growth profile."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acmcurves
from acmcurves import EnumerationConfig, enumerate_kinds

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kind_census.py"

# `kind_census.py 6` as printed when the script built one catalog for
# every bound of the profile
CENSUS_6 = """\
 d  cap   pairs  kinds  growth profile (kinds at cap 2d, 2d+1, ...)
 2    4       4      2  [2, 2, 2]
 3    6      31     13  [13, 13, 13]
 4   10     380    104  [100, 103, 104, 104, 104]
 5   17    8919   1082  [864, 950, 1010, 1047, 1067, 1077, 1081, 1082, 1082, 1082]
 6   26  274875  14137  [7657, 9006, 10237, 11301, 12170, 12840, 13330, 13667, 13883, 14011, 14081, 14116, 14131, 14136, 14137, 14137, 14137]
"""


@pytest.fixture(scope="module")
def census_6() -> str:
    src = str(Path(acmcurves.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, str(SCRIPT), "6"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert out.stderr == ""
    return out.stdout


def test_census_6_is_pinned(census_6):
    assert census_6 == CENSUS_6


def test_profile_counts_the_catalog_at_each_cap(census_6):
    # every cap of degrees 2..5; at degree 6, where each catalog costs
    # ~0.4 s, the first cap, stable_cap and the last
    rows = census_6.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [2, 3, 4, 5, 6]
    for row in rows:
        d, cap, pairs, kinds, profile = row.split(maxsplit=4)
        d, cap, profile = int(d), int(cap), json.loads(profile)
        caps = range(2 * d, cap + 3)
        assert len(profile) == len(caps)
        catalog = enumerate_kinds(EnumerationConfig(d, cap))
        assert (int(pairs), int(kinds)) == (sum(e.count for e in catalog.entries), len(catalog))
        for c, kinds_at_c in zip(caps, profile):
            if d < 6 or c in (12, 26, 28):
                assert kinds_at_c == len(enumerate_kinds(EnumerationConfig(d, c))), (d, c)


@pytest.mark.parametrize("arg", ["abc", "8", "1.5", "", "1", "0", "-3"])
def test_bad_max_degree_refused_up_front(arg, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("kind_census", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def no_catalog(cfg):
        raise AssertionError(f"built a catalog at {cfg}")
    monkeypatch.setattr(script, "enumerate_kinds", no_catalog)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), arg])
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: max_degree must be an integer of at most 7")
    assert err.count("\n") == 1
