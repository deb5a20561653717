"""Output oracles of the benchmark.

Nothing here imports ``acmcurves``: every expected value is computed
from the definitions (clamped differences, Gram-matrix arithmetic,
Betti sums, the linkage formulas) or read from ``data/catalog.json``
as plain JSON.  Each ``*_problems`` function returns a list of
human-readable problems; an empty list means the output is correct.

Run ``python3 perfbench/oracles.py --pin`` to recompute the kind
digests in ``pinned.json`` by brute force (a few seconds).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import sys
from functools import lru_cache

BIG = "BIG"  # the marker the library's JSON uses for entries >= the degree
SURFACE_DEGREE = 4

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


@lru_cache(maxsize=1)
def pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- kinds

def signature(a, b, d: int) -> tuple:
    """Kind cells of the pair: clamped difference b_j - a_i, or BIG at >= d."""
    return tuple(
        tuple(BIG if bj - ai >= d else max(bj - ai, 0) for bj in b) for ai in a
    )


def brute_kinds(d: int, cap: int) -> dict[tuple, tuple]:
    """Signature -> least normalized representative (a, b), by brute force.

    Every nondecreasing a with a_1 = 0 and entries <= cap, combined with
    every tuple of positive diagonal gaps summing to d; pairs whose b is
    not nondecreasing or exceeds cap are dropped.  Representatives are
    least under (length, a, b).
    """
    best: dict[tuple, tuple] = {}
    for t in range(2, d + 1):
        gap_tuples = [g for g in itertools.product(range(1, d + 1), repeat=t) if sum(g) == d]
        for tail in itertools.combinations_with_replacement(range(cap + 1), t - 1):
            a = (0,) + tail
            for gaps in gap_tuples:
                b = tuple(x + g for x, g in zip(a, gaps))
                if b[-1] > cap or any(b[i] > b[i + 1] for i in range(t - 1)):
                    continue
                sig = signature(a, b, d)
                key = (t, a, b)
                old = best.get(sig)
                if old is None or key < (len(old[0]), old[0], old[1]):
                    best[sig] = (a, b)
    return best


def kinds_digest(entries) -> str:
    """SHA-256 over the sorted (signature, representative) set; counts excluded."""
    lines = sorted(
        json.dumps([[list(r) for r in cells], list(a), list(b)]) for cells, a, b in entries
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def kinds_problems(d: int, cap: int, entries: list[tuple]) -> list[str]:
    """Check a kind catalog given as (cells, a, b) triples.

    Every entry must be a normalized degree-d pair under the cap whose
    own signature is the listed one, with no signature twice.  Degrees
    <= 4 are compared with the brute force; higher degrees with the
    count and digest in ``pinned.json``.
    """
    problems = []
    seen = set()
    for cells, a, b in entries:
        cells = tuple(tuple(r) for r in cells)
        a, b = tuple(a), tuple(b)
        t = len(a)
        ok = (
            t >= 2 and len(b) == t and a[0] == 0 and b[-1] <= cap
            and all(a[i] <= a[i + 1] and b[i] <= b[i + 1] for i in range(t - 1))
            and all(x < y for x, y in zip(a, b))
            and sum(b) - sum(a) == d
        )
        if not ok:
            problems.append(f"degree {d} cap {cap}: {a},{b} is not a normalized pair of the catalog")
        elif signature(a, b, d) != cells:
            problems.append(f"degree {d} cap {cap}: {a},{b} does not have signature {cells}")
        if cells in seen:
            problems.append(f"degree {d} cap {cap}: signature {cells} listed twice")
        seen.add(cells)
    if d <= 4:
        want = {(sig, rep) for sig, rep in brute_kinds(d, cap).items()}
        have = {(tuple(tuple(r) for r in c), (tuple(a), tuple(b))) for c, a, b in entries}
        if want != have:
            problems.append(
                f"degree {d} cap {cap}: {len(have - want)} kinds not in the brute force, "
                f"{len(want - have)} missing"
            )
        return problems
    pin = pinned()["kinds"].get(f"{d}:{cap}")
    if pin is None:
        return problems + [f"degree {d} cap {cap}: no pinned digest"]
    if len(entries) != pin["count"]:
        problems.append(f"degree {d} cap {cap}: {len(entries)} kinds, pinned {pin['count']}")
    elif kinds_digest(entries) != pin["digest"]:
        problems.append(f"degree {d} cap {cap}: kind set differs from the pinned digest")
    return problems


# ------------------------------------------------------------- lattices

def gram_dot(g: tuple, x: tuple, y: tuple) -> int:
    h2, hc, c2 = g
    return h2 * x[0] * y[0] + hc * (x[0] * y[1] + x[1] * y[0]) + c2 * x[1] * y[1]


def brute_classes(g: tuple, s: int, e: int) -> set[tuple]:
    """All (a, b) with D.D = s and D.H = e on the Gram matrix g.

    h2 * D.D = (D.H)^2 + det * b^2, so b^2 = (e^2 - h2*s) / -det, which
    bounds the scan over b; a is then forced by D.H = e.
    """
    h2, hc, c2 = g
    det = h2 * c2 - hc * hc
    top = e * e - h2 * s
    if top < 0:
        return set()
    bound = math.isqrt(top // -det) + 1
    out = set()
    for b in range(-bound, bound + 1):
        if (e - hc * b) % h2 == 0:
            x = ((e - hc * b) // h2, b)
            if gram_dot(g, x, x) == s:
                out.add(x)
    return out


def slice_problems(g: tuple, s: int, lo: int, hi: int, classes, complete_to: int) -> list[str]:
    """Solved classes must lie on the slice; below ``complete_to`` none may be missing."""
    have = set(classes)
    problems = [
        f"gram {g}: class {x} has D.D={gram_dot(g, x, x)}, D.H={gram_dot(g, x, (1, 0))}"
        for x in have
        if gram_dot(g, x, x) != s or not lo <= gram_dot(g, x, (1, 0)) <= hi
    ]
    for e in range(lo, min(hi, complete_to) + 1):
        missing = brute_classes(g, s, e) - have
        if missing:
            problems.append(f"gram {g}: D.D={s}, D.H={e} misses {sorted(missing)}")
    return problems


def plane_problems(g: tuple, dh_max: int, classes) -> list[str]:
    have = set(classes)
    want = set()
    for e in range(1, dh_max + 1):
        want |= brute_classes(g, (e - 1) * (e - 2) - 2, e)
    if have != want:
        return [f"gram {g}: plane classes differ ({len(have - want)} extra, {len(want - have)} missing)"]
    return []


WATANABE_CASES = ((-2, 1, 3), (0, 3, 4), (2, 5, 5), (4, 6, 6))


def watanabe_problems(g: tuple, cases: list[tuple]) -> list[str]:
    """``cases`` are (self_int, dh_min, dh_max, classes) in the paper's order."""
    if [c[:3] for c in cases] != list(WATANABE_CASES):
        return [f"gram {g}: cases {[c[:3] for c in cases]} are not {WATANABE_CASES}"]
    problems = []
    for s, lo, hi, classes in cases:
        want = set().union(*(brute_classes(g, s, e) for e in range(lo, hi + 1)))
        if set(classes) != want:
            problems.append(f"gram {g}: case D2={s} gives {sorted(classes)}, expected {sorted(want)}")
    return problems


def residual(degree: int, genus: int, s: int, t: int) -> tuple[int, int]:
    """Direct linkage in an (s, t) complete intersection."""
    d2 = s * t - degree
    return d2, genus + (d2 - degree) * (s + t - 4) // 2


# ------------------------------------------------------ resolution tables

def betti_invariants(gens, syz) -> tuple[int, int] | None:
    twice = sum(x * x for x in syz) - sum(x * x for x in gens)
    six = sum(x ** 3 for x in syz) - sum(x ** 3 for x in gens)
    if twice % 2 or twice <= 0 or six % 6:
        return None
    return twice // 2, 1 + six // 6 - twice


def table_ii(a, b, k: int, d: int) -> tuple[tuple, tuple]:
    return tuple(sorted([x + k for x in a] + [d])), tuple(sorted(x + k for x in b))


def table_iii(a, b, j0: int, d: int) -> tuple[tuple, tuple]:
    shift = d - b[j0 - 1]
    return (
        tuple(sorted(shift + x for x in a)),
        tuple(sorted(shift + x for i, x in enumerate(b) if i != j0 - 1)),
    )


# --------------------------------------------------- quartic tables

_TERM = re.compile(r"([+-]?)(\d+|k)")


def affine(expr: str, k: int) -> int:
    """Value of an expression like 'k-2' or '-1' at k."""
    text = expr.replace(" ", "")
    if not re.fullmatch(r"([+-]?(\d+|k))+", text):
        raise ValueError(f"unsupported expression {expr!r}")
    return sum(
        (-1 if sign == "-" else 1) * (k if tok == "k" else int(tok))
        for sign, tok in _TERM.findall(text)
    )


def poly(coeffs, k: int) -> int:
    value = 0
    for c in coeffs:
        value = value * k + c
    return value


def quartic_problems(label: str, prop: dict, records: list[tuple], k_max: int) -> list[str]:
    """Check one divisor's classification table against the catalog.

    ``records`` are (class, degree, genus, provenance, gens, syz) with
    class an (a, b) pair.  Every entry's degree and genus must follow from
    its class on the Gram matrix (4, d_i, 2g_i - 2) and from its twist
    table.  RIGID, FAMILY_II (every k in [k_min, k_max], identified by its
    table), RESIDUAL and COMPLETE_INTERSECTION entries must equal the
    catalog's closed forms exactly.
    """
    d_i, g_i = prop["curve"]
    g = (SURFACE_DEGREE, d_i, 2 * g_i - 2)
    problems = []
    by_kind: dict[str, set] = {}
    family_ii: dict[tuple, set] = {}
    for cls, degree, genus, prov, gens, syz in records:
        cls = tuple(cls)
        lattice = (gram_dot(g, cls, (1, 0)), gram_dot(g, cls, cls) // 2 + 1)
        if lattice != (degree, genus) or betti_invariants(gens, syz) != (degree, genus):
            problems.append(
                f"{label} {prov} {cls}: listed ({degree},{genus}), lattice {lattice}, "
                f"table {betti_invariants(gens, syz)}"
            )
        by_kind.setdefault(prov, set()).add((cls, degree, genus))
        if prov == "FAMILY_II":
            family_ii.setdefault((tuple(gens), tuple(syz)), set()).add((cls, degree, genus))

    want_ii: dict[tuple, set] = {}
    for fam in prop["families"]:
        pa, pb = fam["pair"]
        for k in range(fam["k_min"], k_max + 1):
            inv = (poly(fam["degree"], k), poly(fam["genus"], k))
            want_ii[table_ii(pa, pb, k, SURFACE_DEGREE)] = {
                ((affine(c[0], k), affine(c[1], k)),) + inv for c in fam["classes"]
            }
    if family_ii != want_ii:
        bad = sorted(t for t in set(family_ii) | set(want_ii) if family_ii.get(t) != want_ii.get(t))
        problems.append(f"{label}: FAMILY_II differs from the closed forms at tables {bad[:3]}")

    want = {
        "RIGID": {(tuple(r["class"]), r["degree"], r["genus"]) for r in prop["rigid"]},
        "RESIDUAL": {(tuple(r["class"]), r["degree"], r["genus"]) for r in prop["residuals"]},
        "COMPLETE_INTERSECTION": {
            ((dd, 0), poly(prop["complete_intersections"]["degree"], dd),
             poly(prop["complete_intersections"]["genus"], dd))
            for dd in range(2, k_max + 1)
        },
    }
    for prov, expected in want.items():
        if by_kind.get(prov, set()) != expected:
            problems.append(f"{label}: {prov} entries differ from the catalog")
    for r in prop["residuals"]:
        if residual(*r["partner"], *r["ci"]) != (r["degree"], r["genus"]):
            problems.append(f"{label}: catalog residual {r['class']} fails the linkage formula")
    return problems


def main(argv: list[str]) -> int:
    if argv != ["--pin"]:
        print("usage: python3 perfbench/oracles.py --pin", file=sys.stderr)
        return 2
    doc = pinned()
    caps = {5: range(10, 20), 6: (26,)}
    kinds = {}
    for d, cap_list in caps.items():
        for cap in cap_list:
            best = brute_kinds(d, cap)
            kinds[f"{d}:{cap}"] = {
                "count": len(best),
                "digest": kinds_digest((s, a, b) for s, (a, b) in best.items()),
            }
            print(d, cap, kinds[f"{d}:{cap}"], flush=True)
    doc["kinds"] = kinds
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
