"""A wrong or failing output is counted in failed / attempted."""

import json
import os

import acmcurves
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_correct_small_catalogs_pass():
    ctx = workloads.Context()
    workloads.KindCensus(seed=3).check_small(ctx)
    assert (ctx.attempted, ctx.failed) == (3, 0)


def test_a_corrupted_catalog_is_counted(monkeypatch):
    real = acmcurves.enumerate_kinds

    def corrupted(cfg):
        catalog = real(cfg)
        if cfg.degree != 3:
            return catalog
        first = catalog.entries[0]
        wrong = type(first)(first.signature, catalog.entries[1].representative, first.count)
        return type(catalog)(catalog.degree, catalog.b_cap, (wrong,) + catalog.entries[1:])

    monkeypatch.setattr(acmcurves, "enumerate_kinds", corrupted)
    ctx = workloads.Context()
    workloads.KindCensus(seed=3).check_small(ctx)
    assert (ctx.attempted, ctx.failed) == (3, 1)
    assert "d=3" in ctx.problems[0]


def test_a_raising_operation_is_counted():
    ctx = workloads.Context()
    out, (start, end) = ctx.op("boom", lambda: 1 / 0, lambda out: [])
    assert out is None and end >= start
    assert (ctx.attempted, ctx.failed) == (1, 1)


def test_a_wrong_cli_document_is_counted():
    session = workloads.CliSession(seed=5, root=ROOT)
    session.in_process = True
    ctx = workloads.Context()
    deck = session.deck()
    argv, check = next((a, c) for a, c in deck if a[:2] == ["liaison", "--degree"])
    code, out, err = session._invoke(argv)
    assert code == 0 and check(json.loads(out)) == []
    ctx.op("liaison", lambda: (0, out.replace('"genus": ', '"genus": 1'), ""),
           lambda res: session._checked(res, check))
    ctx.op("liaison", lambda: (1, "", "error: boom"), lambda res: session._checked(res, check))
    assert (ctx.attempted, ctx.failed) == (2, 2)


def test_a_full_in_process_deck_is_correct():
    session = workloads.CliSession(seed=7, root=ROOT)
    session.in_process = True
    ctx = workloads.Context()
    session.round(ctx)
    assert (ctx.attempted, ctx.failed, ctx.problems) == (34, 0, [])
