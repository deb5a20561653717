"""Command-line front end.

One executable, one subcommand per module: pairs / res / picard /
liaison / classify, plus `reproduce` for the batch verification
targets.  Exit codes: 0 success; 1 a refusal of the library, which is
always a `ValueError` (an internal consistency failure,
`ClassificationError`, is one), with one diagnostic line on stderr; 2
usage error.  Output is JSON by default.  `pairs matrix`, `pairs
signature`, `pairs enumerate`, `picard watanabe`, `classify quartic`,
`classify low` and `reproduce` (by default) have a table view under
`--format table`; the other commands print their JSON there too.
`pairs enumerate` refuses degrees above 7 and a `--cap` above
`stable_cap(degree) + degree`; `picard solve` refuses a `--dh` range of
more than 10^6 degrees, and `classify quartic|low` a `--kmax` above
10^4.  `picard plane` needs no bound on `--dh-max`: it solves at most six
slices, as no plane-curve class has a degree above 6.  Every integer
argument is limited to 1000 digits, and every integer list to 1000
entries (exit 2).  `res build` refuses a twist flag that its case
does not read: `--k`, `--j0` and `--surface-degree` with `--case ci`,
`--j0` with `ii` and `--k` with `iii`.

This module writes every byte of output; the library's records give
only their `to_json` documents.  Every command but two builds its
document from them and prints `json.dumps(doc, indent=2,
sort_keys=True)`.  The two big documents stream, byte for byte that
same text, from the row templates below: `pairs enumerate` writes its
catalog through `_catalog_json` and `classify quartic` its entries
through `_entries_json`, one piece per row through `_json_list`, so
neither builds the document or its whole text.  A table view is
likewise one piece per line.  `run` alone decides how much text goes to
stdout at once: it joins the pieces 1 000 at a time, so a row is not a
write of its own.  Each handler builds its rows and finishes every
check that can fail before the first byte is written.

Start-up: building the parser needs only `labels`, which imports
nothing.  The handlers read library names as `acm.X`, and the package
imports the module that defines X on first use (PEP 562); the one
handler import is `reproduce`.  So each command loads only the modules
it runs: `pairs matrix` loads `pairs` alone, and only `reproduce` loads
`catalog`.  `run` reports a refusal as the `ValueError` it is, so a
refused command, too, loads only the modules its handler reached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote

import acmcurves as acm

from .labels import DIVISOR_LABELS, LOW_DEGREE_TYPES, TARGET_NAMES

# Each bound keeps a command's time and memory finite; README has the
# measured times.  The largest `pairs enumerate --degree`: degree 7 prints
# 250.7 MiB of JSON for 222 605 kinds, and the kind count grows ~16-fold
# per degree
MAX_ENUMERATE_DEGREE = 7
# the most degrees `picard solve --dh` covers: the solver tests each degree
# its congruences allow, and on a square -det it can find a class every two
# degrees
MAX_DEGREE_SPAN = 10**6
# the largest `classify quartic|low --kmax`: the tables grow linearly with
# it, to ~12 MiB of JSON at 10^4
MAX_KMAX = 10**4
# the most digits of one integer argument.  Every result is at most cubic
# in the arguments (the genus formulas), so its digits stay below Python's
# 4300-digit limit on printing an integer
MAX_INT_DIGITS = 1000
# the most entries of one integer list: `pairs matrix|signature|reducible`
# build t x t cells, so 10^6 cells and ~8.6 MiB of JSON at 1000
MAX_LIST_ENTRIES = 1000


class _TooLarge(Exception):
    """An integer argument longer than MAX_INT_DIGITS, or a list longer than
    MAX_LIST_ENTRIES.  Not a ValueError, so argparse lets it through
    instead of echoing the value."""


def _int(text: str) -> int:
    """The one parser of integer arguments: refuses more than
    MAX_INT_DIGITS digits before converting."""
    if len(text.strip().lstrip("+-")) > MAX_INT_DIGITS:
        raise _TooLarge(f"integer arguments are limited to {MAX_INT_DIGITS} digits")
    return int(text)


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty entry is refused, and "" is the empty list."""
    entries = text.split(",") if text else []
    if len(entries) > MAX_LIST_ENTRIES:
        raise _TooLarge(f"integer lists are limited to {MAX_LIST_ENTRIES} entries")
    try:
        return [_int(x) for x in entries]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return _int(lo), _int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}")


def _table(columns: tuple[str, ...], rows):
    """A table renderer: `rows` (consumed when it is called) aligned under
    `columns`, one piece per line.  It holds every cell, as each column is
    as wide as its widest cell, but never the whole text."""
    def render():
        cells = [list(columns)] + [[str(v) for v in row] for row in rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
        sep = ""
        for row in cells:
            yield sep + "  ".join(v.ljust(w) for v, w in zip(row, widths))
            sep = "\n"
    return render


def _json_list(texts: Iterable[str], indent: str, end: str = "") -> Iterator[str]:
    """The pieces of a JSON list of the given item texts, as
    json.dumps(indent=2) writes a list whose closing "]" is at `indent`:
    one piece per item, the first with the opening "[", and a last piece
    that closes the list and appends `end`.  No piece is empty, and no
    items give the one piece "[]" + `end`."""
    sep = "[\n"
    for text in texts:
        yield sep + text
        sep = ",\n"
    yield ("[]" if sep == "[\n" else f"\n{indent}]") + end


# the text of one `KindEntry.to_json()` in a catalog's "kinds" list, as
# json.dumps(indent=2, sort_keys=True) writes it: keys sorted, and each
# depth's indent written out.  The slots are the count, the items of a and
# of b, the signature rows and the degree
_KIND_JSON = """\
    {{
      "count": {},
      "representative": {{
        "a": [
          {}
        ],
        "b": [
          {}
        ]
      }},
      "signature": {{
        "cells": [
          {}
        ],
        "degree": {}
      }}
    }}"""


def _catalog_json(kinds) -> Iterator[str]:
    """``json.dumps(kinds.to_json(), indent=2, sort_keys=True)`` of a
    `KindCatalog`, byte for byte, in n + 2 pieces for n kinds: the head
    up to the "kinds" list, one piece per kind, and the list's closing
    with the tail.  The text of each distinct signature row is made
    once: a catalog has far fewer distinct rows than kinds (4 074 for
    222 605 kinds at degree 7)."""
    yield f'{{\n  "b_cap": {kinds.b_cap},\n  "degree": {kinds.degree},\n  "kinds": '
    rows: dict[tuple, str] = {}

    def row_text(row: tuple) -> str:
        text = rows.get(row)
        if text is None:
            cells = ",\n            ".join(['"BIG"' if c == acm.BIG else str(c) for c in row])
            text = rows[row] = f"[\n            {cells}\n          ]"
        return text

    yield from _json_list((_KIND_JSON.format(
        count, ",\n          ".join(map(str, rep.a)), ",\n          ".join(map(str, rep.b)),
        ",\n          ".join(map(row_text, sig.cells)), sig.degree,
    ) for sig, rep, count in kinds.entries), "  ", "\n}")


# the text of one `ClassificationEntry.to_json()` in a list, as
# json.dumps(indent=2, sort_keys=True) writes it: keys sorted, each
# depth's indent written out, and the optional "k" and "pivot" lines
# (each with its line break before and its comma) in their sorted places
_ENTRY_JSON = """\
  {{
    "class": [
      {},
      {}
    ],
    "degree": {},
    "description": {},
    "divisor": {},
    "genus": {},{}
    "minimal": {},{}
    "provenance": {},
    "resolution": {{
      "gens": {},
      "syz": {}
    }}
  }}"""


def _entries_json(entries) -> Iterator[str]:
    """``json.dumps([e.to_json() for e in entries], indent=2,
    sort_keys=True)`` of `ClassificationEntry` rows, byte for byte, in
    n + 1 pieces for n entries: one per entry and the list's closing.
    The text of each distinct table, with its "minimal" flag, is made
    once: the classes of one table share it."""
    tables: dict[tuple, tuple[str, str, str]] = {}

    def twists(values: tuple[int, ...]) -> str:
        items = ",\n        ".join(map(str, values))
        return f"[\n        {items}\n      ]" if values else "[]"

    def entry_text(e) -> str:
        table = tables.get(e.resolution)
        if table is None:
            table = tables[e.resolution] = (
                "true" if e.minimal else "false",
                twists(e.resolution.gens), twists(e.resolution.syz),
            )
        minimal, gens, syz = table
        return _ENTRY_JSON.format(
            e.cls.a, e.cls.b, e.invariants.degree, _quote(e.description), _quote(e.divisor),
            e.invariants.genus, "" if e.shift is None else f'\n    "k": {e.shift},', minimal,
            "" if e.pivot is None else f'\n    "pivot": {e.pivot},', _quote(e.provenance),
            gens, syz,
        )

    return _json_list(map(entry_text, entries), "")


def _lattice(gram: list[int]):
    if len(gram) != 3:
        raise ValueError("--gram expects three integers H2,HC,C2")
    return acm.PicardLattice(*gram)


# -- handlers: args -> (JSON document or an iterator of its text pieces,
#    table renderer, which returns its text pieces, or None[, exit code]).
#    A handler finishes every check that can fail before it returns, so a
#    refusal writes nothing to stdout

def _pairs_matrix(args):
    m = acm.degree_matrix(acm.make_pair(args.a, args.b))
    return m.to_json(), lambda: ("\n".join(" ".join(map(str, r)) for r in m.entries),)


def _pairs_normalize(args):
    return acm.normalize(acm.make_pair(args.a, args.b)).to_json(), None


def _pairs_dual(args):
    return acm.dual_pair(acm.make_pair(args.a, args.b)).to_json(), None


def _pairs_signature(args):
    sig = acm.pair_signature(acm.make_pair(args.a, args.b))
    return sig.to_json(), lambda: (sig.render(),)


def _pairs_reducible(args):
    m = acm.degree_matrix(acm.make_pair(args.a, args.b))
    return {"reducible": acm.is_reducible_type(m)}, None


def _pairs_enumerate(args):
    if args.degree > MAX_ENUMERATE_DEGREE:
        raise ValueError(
            f"--degree {args.degree} is out of reach: degree 7 alone prints 250.7 MiB of JSON "
            "for its 222 605 kinds, and the kind count grows ~16-fold per degree"
        )
    cfg = acm.EnumerationConfig(args.degree, args.cap)
    complete = acm.stable_cap(cfg.degree)
    if cfg.b_cap > complete + cfg.degree:
        raise ValueError(
            f"--cap {cfg.b_cap} is above {complete + cfg.degree} for degree {cfg.degree}: the "
            f"kind catalog is complete at cap {complete}; a larger cap only grows the counts"
        )
    kinds = acm.enumerate_kinds(cfg)
    rows = _table(
        ("signature", "representative", "count"),
        ((e.signature.render(), repr(e.representative), e.count) for e in kinds.entries),
    )
    head = f"degree {kinds.degree}, b_cap {kinds.b_cap}: {len(kinds)} kinds\n"
    return _catalog_json(kinds), lambda: chain((head,), rows())


# the twist flags of `res build` that each case does not read
_RES_UNUSED = {"ci": ("k", "j0", "surface_degree"), "ii": ("j0",), "iii": ("k",)}


def _res_build(args):
    given = [f"--{flag.replace('_', '-')}" for flag in _RES_UNUSED[args.case]
             if getattr(args, flag) is not None]
    if given:
        raise ValueError(f"--case {args.case} takes no {' or '.join(given)}")
    if args.case == "ci":
        if len(args.a) != 1 or len(args.b) != 1:
            raise ValueError("--case ci expects single integers for --a and --b")
        table = acm.ci_table(args.a[0], args.b[0])
    else:
        p = acm.make_pair(args.a, args.b)
        flag = "k" if args.case == "ii" else "j0"
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for case {args.case}")
        # the constructors take the surface degree from the pair; a given one must agree
        if args.surface_degree not in (None, p.degree):
            raise ValueError(f"pair has degree {p.degree}, surface degree {args.surface_degree}")
        build = acm.surface_generator_table if args.case == "ii" else acm.pivot_syzygy_table
        table = build(p, getattr(args, flag))
    return table.to_json() | acm.invariants_from_betti(table).to_json(), None


def _res_invariants(args):
    table = acm.BettiTable(tuple(args.gens), tuple(args.syz))
    problems = acm.validate(table)
    if problems:
        raise acm.InvalidTableError("; ".join(problems))
    return table.to_json() | acm.invariants_from_betti(table).to_json(), None


def _picard_solve(args):
    lo, hi = args.dh
    if hi - lo + 1 > MAX_DEGREE_SPAN:
        raise ValueError(
            f"--dh {lo}..{hi} spans {hi - lo + 1} degrees, more than {MAX_DEGREE_SPAN}: "
            "on a square -det the solver can find a class every two degrees"
        )
    classes = acm.solve_classes(_lattice(args.gram), args.self_int, lo, hi)
    return {"classes": sorted([c.to_json() for c in classes])}, None


def _picard_watanabe(args):
    if args.divisor:
        lattice = acm.divisor(args.divisor).lattice
    else:
        lattice = _lattice(args.gram)
    cases = [case.to_json() for case in acm.watanabe_candidates(lattice)]
    render = _table(
        ("case", "classes", "side_condition"),
        ((c["label"], " ".join(map(str, c["classes"])) or "(none)", c.get("side_condition", ""))
         for c in cases),
    )
    return {"lattice": lattice.to_json(), "cases": cases}, render


def _picard_plane(args):
    classes = acm.plane_curve_classes(_lattice(args.gram), args.dh_max)
    return {"classes": sorted([c.to_json() for c in classes])}, None


def _picard_invariants(args):
    lattice = _lattice(args.gram)
    if len(args.cls) != 2:
        raise ValueError("--class expects two integers A,B")
    x = acm.DivisorClass(*args.cls)
    return {
        "degree": acm.dot(lattice, x, acm.H),
        "self_intersection": acm.dot(lattice, x, x),
        "genus": acm.adjunction_genus(lattice, x),
    }, None


def _liaison(args):
    inv = acm.CurveInvariants(args.degree, args.genus)
    ci = acm.CiProfile(args.s, args.t)
    out = acm.residual_invariants(inv, ci)
    if args.twice:
        out = acm.residual_invariants(out, ci)
    return out.to_json(), None


def _check_kmax(args) -> None:
    if args.kmax > MAX_KMAX:
        raise ValueError(
            f"--kmax {args.kmax} is above {MAX_KMAX}: the tables grow linearly with it, "
            f"to ~12 MiB of JSON for a quartic table at {MAX_KMAX}"
        )


def _classify_quartic(args):
    _check_kmax(args)
    entries = acm.classify_quartic(acm.divisor(args.divisor), k_max=args.kmax)
    render = _table(
        ("class", "degree", "genus", "provenance", "description"),
        ((e.cls, e.invariants.degree, e.invariants.genus, e.provenance, e.description)
         for e in entries),
    )
    return _entries_json(entries), render


def _classify_low(args):
    _check_kmax(args)
    fams = acm.classify_low_degree(args.degree, args.type_tag)
    k_min = min(fam.k_min for fam in fams)
    if args.kmax < k_min:
        raise ValueError(f"--kmax {args.kmax} is below {k_min}, the least k_min of "
                         f"{args.degree}/{args.type_tag}: no family would have a table")
    tables = [
        [(k, acm.surface_generator_table(fam.pair, k)) for k in range(fam.k_min, args.kmax + 1)]
        for fam in fams
    ]
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
    # the one handler import: `reproduce` stays out of the package's lazy
    # names, so that `from acmcurves import *` leaves `catalog` and
    # `reproduce` unread
    from .reproduce import run_target

    rows = run_target(args.target)
    n_ok = sum(r.ok for r in rows)
    report = "\n".join([r.line for r in rows] + [f"{n_ok}/{len(rows)} rows pass"])
    return [r.to_json() for r in rows], lambda: (report,), 0 if n_ok == len(rows) else 1


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
        p.add_argument("--degree", type=_int, required=True)
        p.add_argument("--cap", type=_int, default=None)

    res = sub.add_parser("res", help="resolution twist tables")
    rsub = res.add_subparsers(dest="action", required=True)
    with _command(rsub, "build", _res_build) as p:
        p.add_argument("--case", choices=("ci", "ii", "iii"), required=True)
        p.add_argument("--a", type=_int_list, required=True,
                       help="pair a-sequence; for --case ci the first surface degree")
        p.add_argument("--b", type=_int_list, required=True,
                       help="pair b-sequence; for --case ci the second surface degree")
        p.add_argument("--k", type=_int, default=None, help="shift for case ii")
        p.add_argument("--j0", type=_int, default=None, help="1-based pivot for case iii")
        p.add_argument("--surface-degree", type=_int, default=None,
                       help="for cases ii and iii; if given, must equal the pair's degree")
    with _command(rsub, "invariants", _res_invariants) as p:
        p.add_argument("--gens", type=_int_list, required=True)
        p.add_argument("--syz", type=_int_list, required=True)

    pic = sub.add_parser("picard", help="rank-2 lattice arithmetic")
    csub = pic.add_subparsers(dest="action", required=True)
    with _command(csub, "solve", _picard_solve) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--self-int", type=_int, required=True)
        p.add_argument("--dh", type=_int_range, required=True, metavar="MIN..MAX")
    with _command(csub, "watanabe", _picard_watanabe) as p:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--divisor", choices=DIVISOR_LABELS)
        group.add_argument("--gram", type=_int_list, metavar="H2,HC,C2")
    with _command(csub, "plane", _picard_plane) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--dh-max", type=_int, required=True)
    with _command(csub, "invariants", _picard_invariants) as p:
        p.add_argument("--gram", type=_int_list, required=True, metavar="H2,HC,C2")
        p.add_argument("--class", dest="cls", type=_int_list, required=True, metavar="A,B")

    with _command(sub, "liaison", _liaison, help="degree/genus of linked curves") as p:
        p.add_argument("--degree", type=_int, required=True)
        p.add_argument("--genus", type=_int, required=True)
        p.add_argument("--s", type=_int, required=True)
        p.add_argument("--t", type=_int, required=True, help="degree of the second surface")
        p.add_argument("--twice", action="store_true", help="link twice (identity check)")

    cls = sub.add_parser("classify", help="classification tables")
    ksub = cls.add_subparsers(dest="action", required=True)
    with _command(ksub, "quartic", _classify_quartic) as p:
        p.add_argument("--divisor", choices=DIVISOR_LABELS, required=True)
        p.add_argument("--kmax", type=_int, default=6)
    with _command(ksub, "low", _classify_low) as p:
        p.add_argument("--degree", type=_int, choices=tuple(LOW_DEGREE_TYPES), required=True)
        p.add_argument("--type", dest="type_tag", required=True,
                       choices=list(chain(*LOW_DEGREE_TYPES.values())),
                       help=", ".join(f"{'|'.join(tags)} (degree {d})"
                                      for d, tags in LOW_DEGREE_TYPES.items()))
        p.add_argument("--kmax", type=_int, default=6)

    with _command(sub, "reproduce", _reproduce, "table", help="re-derive a cataloged table") as p:
        p.add_argument("target", choices=TARGET_NAMES)
    return top


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except _TooLarge as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        doc, render, *code = args.handler(args)
        if args.format == "table" and render is not None:
            pieces = iter(render())
        elif iter(doc) is doc:  # an iterator of text pieces, written as they come
            pieces = doc
        else:
            pieces = iter((json.dumps(doc, indent=2, sort_keys=True),))
        # looked up here, not at import, so a redirected stdout gets the text
        write = sys.stdout.write
        # 1 000 pieces per write: one write per row would be one small
        # write into the pipe per row.  No piece is empty, so a batch is
        # empty only once the pieces run out
        for chunk in iter(lambda: "".join(islice(pieces, 1000)), ""):
            write(chunk)
        write("\n")
        return code[0] if code else 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def exit_with(program) -> None:
    """Exit with `program()`'s code, or with 1 and no traceback when the reader closes stdout."""
    try:
        code = program()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


def main() -> None:
    exit_with(run)


if __name__ == "__main__":
    main()
