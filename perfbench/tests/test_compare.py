"""The compare command: verdicts per (workload, metric) and its exit code."""

import json

import compare


def result_set(path, walls, failed=0):
    runs = [
        {"workload": "kind-census", "seed": i, "trace": 0,
         "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                    "metrics": {"wall_s": {"value": w, "unit": "s"}}}}
        for i, w in enumerate(walls)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


PARENT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]


def test_diff_passes_within_the_bound(tmp_path, capsys):
    parent = result_set(tmp_path / "p.json", PARENT)
    change = result_set(tmp_path / "c.json", [x * 1.03 for x in PARENT])
    assert compare.main(["diff", parent, change]) == 0
    assert "unchanged" in capsys.readouterr().out


def test_diff_fails_on_a_regression(tmp_path, capsys):
    parent = result_set(tmp_path / "p.json", PARENT)
    change = result_set(tmp_path / "c.json", [x * 1.5 for x in PARENT])
    assert compare.main(["diff", parent, change]) == 1
    assert "worse" in capsys.readouterr().out


def test_diff_reports_a_gain(tmp_path, capsys):
    parent = result_set(tmp_path / "p.json", PARENT)
    change = result_set(tmp_path / "c.json", [x * 0.5 for x in PARENT])
    assert compare.main(["diff", parent, change]) == 0
    assert "better" in capsys.readouterr().out


def test_diff_fails_when_the_change_fails_operations(tmp_path):
    parent = result_set(tmp_path / "p.json", PARENT)
    change = result_set(tmp_path / "c.json", PARENT, failed=1)
    assert compare.main(["diff", parent, change]) == 1
