"""BENCHMARK.json names what the benchmark reports."""

import json
import os

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_metrics_match_the_traced_run():
    s = spec()
    assert [m["name"] for m in s["per_layer"]] == layers.metric_names()
    assert all(m["unit"] == layers.unit(m["name"]) for m in s["per_layer"])


def test_end_to_end_bounds():
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(bounds) == {"setup_s", "wall_s", "peak_rss_mib", "items_per_s", "op_p50_ms", "op_p90_ms"}
