"""Command-line front end.

One executable, one subcommand per module: pairs / res / picard /
liaison / classify, plus `reproduce` for the batch verification
targets.  Exit codes: 0 success, 1 domain error (diagnostic on stderr),
2 usage error.  Output is JSON by default; `--format table` renders the
same fields as aligned text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import (
    ClassificationError,
    DIVISOR_LABELS,
    classify_low_degree,
    classify_quartic,
    divisor,
)
from .enumeration import EnumerationConfig, enumerate_kinds
from .liaison import CiProfile, residual_invariants
from .pairs import (
    PairError,
    anti_transpose,
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

DOMAIN_ERRORS = (
    PairError,
    InvalidTableError,
    ClassificationError,
    ValueError,
    KeyError,
)

# the largest degree `pairs enumerate` finishes in bounded time and memory
MAX_ENUMERATE_DEGREE = 7


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}")


def _emit(doc, fmt: str, table_renderer=None) -> None:
    if fmt == "json" or table_renderer is None:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(table_renderer(doc))


def _render_rows(rows: list[dict], columns: list[str]) -> str:
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="acmcurves",
        description="ACM curve classification arithmetic on surfaces in P^3",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pairs = sub.add_parser("pairs", help="weak admissible pairs and kinds")
    psub = pairs.add_subparsers(dest="action", required=True)
    for name in ("matrix", "normalize", "dual", "signature", "reducible"):
        p = psub.add_parser(name)
        p.add_argument("--a", type=_int_list, required=True)
        p.add_argument("--b", type=_int_list, required=True)
        p.add_argument("--format", choices=("json", "table"), default="json")
    p = psub.add_parser("enumerate")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")

    res = sub.add_parser("res", help="resolution twist tables")
    rsub = res.add_subparsers(dest="action", required=True)
    p = rsub.add_parser("build")
    p.add_argument("--case", choices=("ci", "ii", "iii"), required=True)
    p.add_argument("--a", type=_int_list, required=True,
                   help="pair a-sequence; for --case ci the first surface degree")
    p.add_argument("--b", type=_int_list, required=True,
                   help="pair b-sequence; for --case ci the second surface degree")
    p.add_argument("--k", type=int, default=None, help="shift for case ii")
    p.add_argument("--j0", type=int, default=None, help="1-based pivot for case iii")
    p.add_argument("--surface-degree", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p = rsub.add_parser("invariants")
    p.add_argument("--gens", type=_int_list, required=True)
    p.add_argument("--syz", type=_int_list, required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")

    pic = sub.add_parser("picard", help="rank-2 lattice arithmetic")
    csub = pic.add_subparsers(dest="action", required=True)
    p = csub.add_parser("solve")
    p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
    p.add_argument("--self-int", type=int, required=True)
    p.add_argument("--dh", type=_int_range, required=True, metavar="MIN..MAX")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p = csub.add_parser("watanabe")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--divisor", choices=DIVISOR_LABELS)
    group.add_argument("--gram", type=_int_list, metavar="H2,HC,C2")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p = csub.add_parser("plane")
    p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
    p.add_argument("--dh-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p = csub.add_parser("invariants")
    p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
    p.add_argument("--class", dest="cls", type=_int_list, required=True, metavar="A,B")
    p.add_argument("--format", choices=("json", "table"), default="json")

    lia = sub.add_parser("liaison", help="degree/genus of linked curves")
    lia.add_argument("--degree", type=int, required=True)
    lia.add_argument("--genus", type=int, required=True)
    lia.add_argument("--s", type=int, required=True)
    lia.add_argument("--t", type=int, required=True, help="degree of the second surface")
    lia.add_argument("--twice", action="store_true", help="link twice (identity check)")
    lia.add_argument("--format", choices=("json", "table"), default="json")

    cls = sub.add_parser("classify", help="classification tables")
    ksub = cls.add_subparsers(dest="action", required=True)
    p = ksub.add_parser("quartic")
    p.add_argument("--divisor", choices=DIVISOR_LABELS, required=True)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p = ksub.add_parser("low")
    p.add_argument("--degree", type=int, choices=(2, 3), required=True)
    p.add_argument("--type", dest="type_tag", required=True,
                   help="smooth|reducible (degree 2), 2x2|3x3 (degree 3)")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--format", choices=("json", "table"), default="json")

    rep = sub.add_parser("reproduce", help="re-derive a cataloged table")
    rep.add_argument("target", choices=TARGETS)
    rep.add_argument("--format", choices=("json", "table"), default="table")
    return top


def _pair_from_args(args):
    return make_pair(args.a, args.b)


def _lattice(gram: list[int]) -> PicardLattice:
    if len(gram) != 3:
        raise ValueError("--gram expects three integers H2,HC,C2")
    return PicardLattice(*gram)


def _classes_doc(classes) -> list[list[int]]:
    return [c.to_json() for c in sorted(classes)]


def _run_pairs(args) -> None:
    if args.action == "enumerate":
        if args.degree > MAX_ENUMERATE_DEGREE:
            raise ValueError(
                f"--degree {args.degree} is out of reach: degree 7 alone takes ~35 s and "
                "~330 MiB for 10.5 M pairs, and the pair count grows ~38-fold per degree"
            )
        cfg = EnumerationConfig(args.degree, args.cap)
        kinds = enumerate_kinds(cfg)
        def render(doc):
            rows = [
                {
                    "signature": e.signature.render(),
                    "representative": repr(e.representative),
                    "count": e.count,
                }
                for e in kinds.entries
            ]
            head = f"degree {kinds.degree}, b_cap {kinds.b_cap}: {len(kinds)} kinds"
            return head + "\n" + _render_rows(rows, ["signature", "representative", "count"])
        _emit(kinds.to_json(), args.format, render)
        return
    p = _pair_from_args(args)
    if args.action == "matrix":
        _emit(degree_matrix(p).to_json(), args.format,
              lambda d: "\n".join(" ".join(map(str, r)) for r in d["entries"]))
    elif args.action == "normalize":
        _emit(normalize(p).to_json(), args.format)
    elif args.action == "dual":
        _emit(dual_pair(p).to_json(), args.format)
    elif args.action == "signature":
        _emit(kind_signature(degree_matrix(p)).to_json(), args.format,
              lambda d: kind_signature(degree_matrix(p)).render())
    elif args.action == "reducible":
        _emit({"reducible": is_reducible_type(degree_matrix(p))}, args.format)


def _run_res(args) -> None:
    if args.action == "invariants":
        table = BettiTable(tuple(args.gens), tuple(args.syz))
        problems = validate(table)
        if problems:
            raise InvalidTableError("; ".join(problems))
        inv = invariants_from_betti(table)
        doc = table.to_json() | inv.to_json()
        _emit(doc, args.format)
        return
    if args.case == "ci":
        if len(args.a) != 1 or len(args.b) != 1:
            raise ValueError("--case ci expects single integers for --a and --b")
        table = ci_table(args.a[0], args.b[0])
    else:
        if args.surface_degree is None:
            raise ValueError("--surface-degree is required for cases ii and iii")
        p = _pair_from_args(args)
        if args.case == "ii":
            if args.k is None:
                raise ValueError("--k is required for case ii")
            table = surface_generator_table(p, args.k, args.surface_degree)
        else:
            if args.j0 is None:
                raise ValueError("--j0 is required for case iii")
            table = pivot_syzygy_table(p, args.j0, args.surface_degree)
    inv = invariants_from_betti(table)
    _emit(table.to_json() | inv.to_json(), args.format)


def _run_picard(args) -> None:
    if args.action == "watanabe":
        lattice = divisor(args.divisor).lattice if args.divisor else _lattice(args.gram)
        cases = [case.to_json() for case in watanabe_candidates(lattice)]
        doc = {"lattice": lattice.to_json(), "cases": cases}
        def render(_):
            rows = [
                {
                    "case": c["label"],
                    "classes": " ".join(map(str, c["classes"])) or "(none)",
                    "side_condition": c.get("side_condition", ""),
                }
                for c in cases
            ]
            return _render_rows(rows, ["case", "classes", "side_condition"])
        _emit(doc, args.format, render)
        return
    lattice = _lattice(args.gram)
    if args.action == "solve":
        lo, hi = args.dh
        classes = solve_classes(lattice, args.self_int, lo, hi)
        _emit({"classes": _classes_doc(classes)}, args.format)
    elif args.action == "plane":
        classes = plane_curve_classes(lattice, args.dh_max)
        _emit({"classes": _classes_doc(classes)}, args.format)
    elif args.action == "invariants":
        if len(args.cls) != 2:
            raise ValueError("--class expects two integers A,B")
        x = DivisorClass(*args.cls)
        doc = {
            "degree": dot(lattice, x, H),
            "self_intersection": dot(lattice, x, x),
            "genus": adjunction_genus(lattice, x),
        }
        _emit(doc, args.format)


def _run_liaison(args) -> None:
    inv = CurveInvariants(args.degree, args.genus)
    ci = CiProfile(args.s, args.t)
    out = residual_invariants(inv, ci)
    if args.twice:
        out = residual_invariants(out, ci)
    _emit(out.to_json(), args.format)


def _run_classify(args) -> None:
    if args.action == "quartic":
        entries = classify_quartic(divisor(args.divisor), k_max=args.kmax)
        doc = [e.to_json() for e in entries]
        def render(_):
            rows = [
                {
                    "class": str(e.cls),
                    "degree": e.invariants.degree,
                    "genus": e.invariants.genus,
                    "provenance": e.provenance,
                    "description": e.description,
                }
                for e in entries
            ]
            return _render_rows(rows, ["class", "degree", "genus", "provenance", "description"])
        _emit(doc, args.format, render)
        return
    fams = classify_low_degree(args.degree, args.type_tag)
    doc = []
    for fam in fams:
        tables = [
            fam.table(k).to_json() | {"k": k}
            for k in range(fam.k_min, args.kmax + 1)
        ]
        doc.append(fam.to_json() | {"tables": tables})
    def render(_):
        rows = []
        for fam in fams:
            for k in range(fam.k_min, args.kmax + 1):
                t = fam.table(k)
                rows.append(
                    {
                        "case": fam.case_label,
                        "k": k,
                        "gens": ",".join(map(str, t.gens)),
                        "syz": ",".join(map(str, t.syz)),
                    }
                )
        return _render_rows(rows, ["case", "k", "gens", "syz"])
    _emit(doc, args.format, render)


def _run_reproduce(args) -> int:
    rows = run_target(args.target)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in rows], indent=2, sort_keys=True))
    else:
        for r in rows:
            line = f"{r.status}  [{r.target}] {r.label}"
            if r.detail:
                line += f"  ({r.detail})"
            print(line)
        n_ok = sum(r.ok for r in rows)
        print(f"{n_ok}/{len(rows)} rows pass")
    return 0 if all(r.ok for r in rows) else 1


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "pairs":
            _run_pairs(args)
        elif args.command == "res":
            _run_res(args)
        elif args.command == "picard":
            _run_picard(args)
        elif args.command == "liaison":
            _run_liaison(args)
        elif args.command == "classify":
            _run_classify(args)
        elif args.command == "reproduce":
            return _run_reproduce(args)
        return 0
    except DOMAIN_ERRORS as err:
        message = err.args[0] if err.args else str(err)
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
