"""Command-line front end.

One executable, one subcommand per module: pairs / res / picard /
liaison / classify, plus `reproduce` for the batch verification
targets.  Exit codes: 0 success, 1 domain error (diagnostic on stderr),
2 usage error.  Output is JSON by default.  `pairs matrix`, `pairs
signature`, `pairs enumerate`, `picard watanabe`, `classify quartic`,
`classify low` and `reproduce` (by default) have a table view under
`--format table`; the other commands print their JSON there too.
`pairs enumerate` refuses degrees above 7 and a `--cap` above
`stable_cap(degree) + degree`; `picard solve` refuses a `--dh` range of
more than 10^6 degrees, `picard plane` a `--dh-max` above 10^6, and
`classify quartic|low` a `--kmax` above 10^4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .classifier import (
    ClassificationError,
    DIVISOR_LABELS,
    classify_low_degree,
    classify_quartic,
    divisor,
)
from .enumeration import EnumerationConfig, enumerate_kinds, stable_cap
from .liaison import CiProfile, residual_invariants
from .pairs import (
    degree_matrix,
    dual_pair,
    is_reducible_type,
    kind_signature,
    make_pair,
    normalize,
)
from .picard import (
    DivisorClass,
    H,
    PicardLattice,
    adjunction_genus,
    dot,
    plane_curve_classes,
    solve_classes,
    watanabe_candidates,
)
from .reproduce import TARGETS, run_target
from .resolutions import (
    BettiTable,
    CurveInvariants,
    InvalidTableError,
    ci_table,
    invariants_from_betti,
    surface_generator_table,
    pivot_syzygy_table,
    validate,
)

DOMAIN_ERRORS = (ClassificationError, ValueError, KeyError)

# the largest degree `pairs enumerate` finishes in bounded time and memory
MAX_ENUMERATE_DEGREE = 7
# the most degrees `picard solve --dh` and `picard plane --dh-max` scan, and
# the largest `classify quartic|low --kmax`.  The scan takes ~0.5 s at the
# bound; printing is slower: ~2 s at --kmax 10^4, and ~10 s for the 5*10^5
# classes of D^2 = 0 on (4, 1, -2), whose -det = 9 is a square
MAX_DEGREE_SPAN = 10**6
MAX_KMAX = 10**4


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}")


def _table(columns: tuple[str, ...], rows):
    """A table renderer: `rows` (consumed when it is called) aligned under `columns`."""
    def render() -> str:
        cells = [list(columns)] + [[str(v) for v in row] for row in rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
        return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells)
    return render


def _lattice(gram: list[int]) -> PicardLattice:
    if len(gram) != 3:
        raise ValueError("--gram expects three integers H2,HC,C2")
    return PicardLattice(*gram)


# -- handlers: args -> (JSON document, table renderer or None[, exit code])

def _pairs_matrix(args):
    m = degree_matrix(make_pair(args.a, args.b))
    return m.to_json(), lambda: "\n".join(" ".join(map(str, r)) for r in m.entries)


def _pairs_normalize(args):
    return normalize(make_pair(args.a, args.b)).to_json(), None


def _pairs_dual(args):
    return dual_pair(make_pair(args.a, args.b)).to_json(), None


def _pairs_signature(args):
    sig = kind_signature(degree_matrix(make_pair(args.a, args.b)))
    return sig.to_json(), sig.render


def _pairs_reducible(args):
    return {"reducible": is_reducible_type(degree_matrix(make_pair(args.a, args.b)))}, None


def _pairs_enumerate(args):
    if args.degree > MAX_ENUMERATE_DEGREE:
        raise ValueError(
            f"--degree {args.degree} is out of reach: degree 7 alone takes ~9 s and "
            "~330 MiB for its 222 605 kinds, and the kind count grows ~16-fold per degree"
        )
    cfg = EnumerationConfig(args.degree, args.cap)
    complete = stable_cap(cfg.degree)
    if cfg.b_cap > complete + cfg.degree:
        raise ValueError(
            f"--cap {cfg.b_cap} is above {complete + cfg.degree} for degree {cfg.degree}: the "
            f"kind catalog is complete at cap {complete}; a larger cap only grows the counts"
        )
    kinds = enumerate_kinds(cfg)
    rows = _table(
        ("signature", "representative", "count"),
        ((e.signature.render(), repr(e.representative), e.count) for e in kinds.entries),
    )
    head = f"degree {kinds.degree}, b_cap {kinds.b_cap}: {len(kinds)} kinds\n"
    return kinds.to_json(), lambda: head + rows()


def _res_build(args):
    if args.case == "ci":
        if len(args.a) != 1 or len(args.b) != 1:
            raise ValueError("--case ci expects single integers for --a and --b")
        table = ci_table(args.a[0], args.b[0])
    elif args.surface_degree is None:
        raise ValueError("--surface-degree is required for cases ii and iii")
    else:
        p = make_pair(args.a, args.b)
        flag = "k" if args.case == "ii" else "j0"
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for case {args.case}")
        # the constructors take the surface degree from the pair
        if p.degree != args.surface_degree:
            raise ValueError(f"pair has degree {p.degree}, surface degree {args.surface_degree}")
        build = surface_generator_table if args.case == "ii" else pivot_syzygy_table
        table = build(p, getattr(args, flag))
    return table.to_json() | invariants_from_betti(table).to_json(), None


def _res_invariants(args):
    table = BettiTable(tuple(args.gens), tuple(args.syz))
    problems = validate(table)
    if problems:
        raise InvalidTableError("; ".join(problems))
    return table.to_json() | invariants_from_betti(table).to_json(), None


def _picard_solve(args):
    lo, hi = args.dh
    if hi - lo + 1 > MAX_DEGREE_SPAN:
        raise ValueError(
            f"--dh {lo}..{hi} spans {hi - lo + 1} degrees, more than {MAX_DEGREE_SPAN}: "
            "the solver takes ~0.05 s per 10^5 degrees"
        )
    classes = solve_classes(_lattice(args.gram), args.self_int, lo, hi)
    return {"classes": [c.to_json() for c in sorted(classes)]}, None


def _picard_watanabe(args):
    lattice = divisor(args.divisor).lattice if args.divisor else _lattice(args.gram)
    cases = [case.to_json() for case in watanabe_candidates(lattice)]
    render = _table(
        ("case", "classes", "side_condition"),
        ((c["label"], " ".join(map(str, c["classes"])) or "(none)", c.get("side_condition", ""))
         for c in cases),
    )
    return {"lattice": lattice.to_json(), "cases": cases}, render


def _picard_plane(args):
    if args.dh_max > MAX_DEGREE_SPAN:
        raise ValueError(
            f"--dh-max {args.dh_max} is above {MAX_DEGREE_SPAN}: each degree is one "
            "solver slice, ~0.05 s per 10^5 degrees"
        )
    classes = plane_curve_classes(_lattice(args.gram), args.dh_max)
    return {"classes": [c.to_json() for c in sorted(classes)]}, None


def _picard_invariants(args):
    lattice = _lattice(args.gram)
    if len(args.cls) != 2:
        raise ValueError("--class expects two integers A,B")
    x = DivisorClass(*args.cls)
    return {
        "degree": dot(lattice, x, H),
        "self_intersection": dot(lattice, x, x),
        "genus": adjunction_genus(lattice, x),
    }, None


def _liaison(args):
    inv = CurveInvariants(args.degree, args.genus)
    ci = CiProfile(args.s, args.t)
    out = residual_invariants(inv, ci)
    if args.twice:
        out = residual_invariants(out, ci)
    return out.to_json(), None


def _check_kmax(args) -> None:
    if args.kmax > MAX_KMAX:
        raise ValueError(
            f"--kmax {args.kmax} is above {MAX_KMAX}: the tables grow linearly with it, "
            f"and F1..F5 take ~4 s at {MAX_KMAX}"
        )


def _classify_quartic(args):
    _check_kmax(args)
    entries = classify_quartic(divisor(args.divisor), k_max=args.kmax)
    render = _table(
        ("class", "degree", "genus", "provenance", "description"),
        ((e.cls, e.invariants.degree, e.invariants.genus, e.provenance, e.description)
         for e in entries),
    )
    return [e.to_json() for e in entries], render


def _classify_low(args):
    _check_kmax(args)
    fams = classify_low_degree(args.degree, args.type_tag)
    tables = [[(k, fam.table(k)) for k in range(fam.k_min, args.kmax + 1)] for fam in fams]
    doc = [
        fam.to_json() | {"tables": [t.to_json() | {"k": k} for k, t in shifts]}
        for fam, shifts in zip(fams, tables)
    ]
    render = _table(
        ("case", "k", "gens", "syz"),
        ((fam.case_label, k, ",".join(map(str, t.gens)), ",".join(map(str, t.syz)))
         for fam, shifts in zip(fams, tables) for k, t in shifts),
    )
    return doc, render


def _reproduce(args):
    rows = run_target(args.target)
    n_ok = sum(r.ok for r in rows)
    report = "\n".join([r.line for r in rows] + [f"{n_ok}/{len(rows)} rows pass"])
    return [r.to_json() for r in rows], lambda: report, 0 if n_ok == len(rows) else 1


@contextmanager
def _command(sub, name: str, handler, fmt: str = "json", **kwargs):
    """Leaf command `name`: the body adds its arguments, then `--format` and `handler`."""
    p = sub.add_parser(name, **kwargs)
    yield p
    p.add_argument("--format", choices=("json", "table"), default=fmt)
    p.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="acmcurves",
        description="ACM curve classification arithmetic on surfaces in P^3",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pairs = sub.add_parser("pairs", help="weak admissible pairs and kinds")
    psub = pairs.add_subparsers(dest="action", required=True)
    for name, handler in (("matrix", _pairs_matrix), ("normalize", _pairs_normalize),
                          ("dual", _pairs_dual), ("signature", _pairs_signature),
                          ("reducible", _pairs_reducible)):
        with _command(psub, name, handler) as p:
            p.add_argument("--a", type=_int_list, required=True)
            p.add_argument("--b", type=_int_list, required=True)
    with _command(psub, "enumerate", _pairs_enumerate) as p:
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--cap", type=int, default=None)

    res = sub.add_parser("res", help="resolution twist tables")
    rsub = res.add_subparsers(dest="action", required=True)
    with _command(rsub, "build", _res_build) as p:
        p.add_argument("--case", choices=("ci", "ii", "iii"), required=True)
        p.add_argument("--a", type=_int_list, required=True,
                       help="pair a-sequence; for --case ci the first surface degree")
        p.add_argument("--b", type=_int_list, required=True,
                       help="pair b-sequence; for --case ci the second surface degree")
        p.add_argument("--k", type=int, default=None, help="shift for case ii")
        p.add_argument("--j0", type=int, default=None, help="1-based pivot for case iii")
        p.add_argument("--surface-degree", type=int, default=None)
    with _command(rsub, "invariants", _res_invariants) as p:
        p.add_argument("--gens", type=_int_list, required=True)
        p.add_argument("--syz", type=_int_list, required=True)

    pic = sub.add_parser("picard", help="rank-2 lattice arithmetic")
    csub = pic.add_subparsers(dest="action", required=True)
    with _command(csub, "solve", _picard_solve) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--self-int", type=int, required=True)
        p.add_argument("--dh", type=_int_range, required=True, metavar="MIN..MAX")
    with _command(csub, "watanabe", _picard_watanabe) as p:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--divisor", choices=DIVISOR_LABELS)
        group.add_argument("--gram", type=_int_list, metavar="H2,HC,C2")
    with _command(csub, "plane", _picard_plane) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--dh-max", type=int, required=True)
    with _command(csub, "invariants", _picard_invariants) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--class", dest="cls", type=_int_list, required=True, metavar="A,B")

    with _command(sub, "liaison", _liaison, help="degree/genus of linked curves") as p:
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", type=int, required=True, help="degree of the second surface")
        p.add_argument("--twice", action="store_true", help="link twice (identity check)")

    cls = sub.add_parser("classify", help="classification tables")
    ksub = cls.add_subparsers(dest="action", required=True)
    with _command(ksub, "quartic", _classify_quartic) as p:
        p.add_argument("--divisor", choices=DIVISOR_LABELS, required=True)
        p.add_argument("--kmax", type=int, default=6)
    with _command(ksub, "low", _classify_low) as p:
        p.add_argument("--degree", type=int, choices=(2, 3), required=True)
        p.add_argument("--type", dest="type_tag", required=True,
                       help="smooth|reducible (degree 2), 2x2|3x3 (degree 3)")
        p.add_argument("--kmax", type=int, default=6)

    with _command(sub, "reproduce", _reproduce, "table", help="re-derive a cataloged table") as p:
        p.add_argument("target", choices=TARGETS)
    return top


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, render, *code = args.handler(args)
        table = args.format == "table" and render is not None
        print(render() if table else json.dumps(doc, indent=2, sort_keys=True))
        return code[0] if code else 0
    except DOMAIN_ERRORS as err:
        message = err.args[0] if err.args else str(err)
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # stays quiet, and fail without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
