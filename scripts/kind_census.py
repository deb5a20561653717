#!/usr/bin/env python3
"""Census of kind catalogs: how many kinds per degree, and where the
catalog stops growing as the enumeration bound rises.

Usage: python scripts/kind_census.py [max_degree]
"""

import sys

from acmcurves import EnumerationConfig, enumerate_kinds, stable_cap


def main() -> int:
    max_degree = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"{'d':>2} {'cap':>4} {'pairs':>7} {'kinds':>6}  growth profile (kinds at cap 2d, 2d+1, ...)")
    for d in range(2, max_degree + 1):
        cap = stable_cap(d)
        profile = []
        for c in range(2 * d, cap + 3):
            catalog = enumerate_kinds(EnumerationConfig(d, c))
            profile.append(len(catalog))
            if c == cap:
                stable = catalog
        pairs = sum(e.count for e in stable.entries)
        print(f"{d:>2} {cap:>4} {pairs:>7} {len(stable):>6}  {profile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
