#!/usr/bin/env python3
"""Census of kind catalogs: how many kinds per degree, and where the
catalog stops growing as the enumeration bound rises.

Usage: python scripts/kind_census.py [max_degree]

Each degree takes one catalog, at ``stable_cap(d)``.  A kind first
appears at the bound equal to its representative's ``b_t`` (the least
pair of a kind is componentwise least; see ``enumerate_kinds``), so the
growth profile at bound c counts the entries whose representative has
``b_t <= c``.  A max_degree below 2 is refused, since no catalog exists
there, and so is one above ``MAX_ENUMERATE_DEGREE``: the degree-8 catalog
alone would need ~2.4 GiB: ~4.1 M kinds at the ~0.6 KiB of peak RSS that
a degree-7 kind costs.
"""

import sys
from bisect import bisect_right

from acmcurves import EnumerationConfig, enumerate_kinds, stable_cap
from acmcurves.cli import MAX_ENUMERATE_DEGREE, exit_with


def main() -> int:
    arg = sys.argv[1] if len(sys.argv) > 1 else "5"
    try:
        max_degree = int(arg)
    except ValueError:
        max_degree = None
    if max_degree is None or not 2 <= max_degree <= MAX_ENUMERATE_DEGREE:
        print(f"error: max_degree must be an integer of at most {MAX_ENUMERATE_DEGREE} and at "
              f"least 2, got {arg!r}", file=sys.stderr)
        return 2
    print(f"{'d':>2} {'cap':>4} {'pairs':>7} {'kinds':>6}  growth profile (kinds at cap 2d, 2d+1, ...)")
    for d in range(2, max_degree + 1):
        cap = stable_cap(d)
        catalog = enumerate_kinds(EnumerationConfig(d, cap))
        first_caps = sorted(e.representative.b[-1] for e in catalog.entries)
        profile = [bisect_right(first_caps, c) for c in range(2 * d, cap + 3)]
        pairs = sum(e.count for e in catalog.entries)
        print(f"{d:>2} {cap:>4} {pairs:>7} {len(catalog):>6}  {profile}")
    return 0


if __name__ == "__main__":
    exit_with(main)
