"""Exhaustive enumeration of normalized weak admissible pairs.

A normalized pair of degree d has a_1 = 0, diagonal gaps b_i - a_i >= 1
summing to d (so the length t is between 2 and d), and nondecreasing
a and b.  Bounding b_t makes the set finite; the kind catalog stops
changing once the bound reaches ``stable_cap(d)``: the last kind to
appear is the all-BIG staircase of length d, whose smallest
representative is ((0, d-1, 2(d-1), ...), (1, d, ...)) with
b_t = (d-1)^2 + 1.

Each kind has a componentwise-least pair, so a kind first appears at
the bound equal to the b_t of that pair.  Fix a kind and its diagonal
gaps g_i = b_i - a_i.  A normalized pair is of that kind exactly when a
solves a system of difference constraints: a_1 = 0; a_{i+1} - a_i >=
max(0, g_i - g_{i+1}), which keeps a and b nondecreasing; and for each
cell (i, j) off the diagonal, b_j - a_i = a_j + g_j - a_i gives
a_j - a_i <= -g_j where the cell is 0, = v - g_j where it is v, and
>= d - g_j where it is BIG.  Each of these is one or two bounds
x_j - x_i <= c, so the solutions are closed under componentwise min x
(if x_i comes from the solution y, then x_j <= y_j <= y_i + c =
x_i + c), and they are bounded below by 0, so the kind has a
componentwise-least pair.  It shares its length and gaps with every
pair of the kind, so it is also the least by ``sort_key``, and its
b_t = a_t + g_t is the least b_t of the kind.

Both public enumerations run on one depth-first walk, ``_walk``.  It
extends the prefixes of a and b one index at a time, with a running
trace, and carries a flat integer key for the leading block of the
degree matrix, clamped as in the kind signature.  Extending from index
i appends column i above the diagonal (b_i - a_j for j < i, which is
positive, clamped at d for BIG) and then the diagonal gap g_i; each
cell takes ``d.bit_length()`` bits.  The part below the diagonal needs
no cells: b_j - a_i = g_i + g_j - (b_i - a_j), and g_i + g_j <= d, so
delta(a_i, b_j) is 0 where b_i - a_j is BIG and follows from the key
elsewhere.  Two leaves therefore share a key exactly when they are of
the same kind (the leading cell, g_1 >= 1, fixes the length), and the
key costs O(t) per node instead of O(t^2) per pair.

The gap lemma prunes the walk for the catalog.  Where
a_i - b_{i-1} >= d, every value of a and b up to index i - 1 lies at or
below b_{i-1} and every later one at or above a_i, so that gap
separates BIG cells (b_j - a_k for k < i <= j) from zero cells
(b_k - a_j); stretching it, or shrinking it down to d, keeps the kind.
No other gap between neighbouring values of a and b can reach d, as
each lies inside a diagonal gap b_i - a_i <= d - 1.  ``_walk`` takes
``max_gap`` and keeps a_i <= b_{i-1} + max_gap, counting in m the
indices where a_i - b_{i-1} = max_gap.  With max_gap = d it yields only
the gap-compressed pairs, and each stands for exactly
comb(m + b_cap - b_t, m) pairs: stretch its m gaps of d by e_j >= 0
with sum(e_j) <= b_cap - b_t.  Every pair shrinks to exactly one
compressed pair, and the least pair of a kind is compressed, so the
catalog keeps its representatives and its exact counts while the walk
visits about one pair in three at degree 5 (3 981 of 12 895 at bound
19).  A compressed pair has b_t <= d + (t - 1) d <= d^2, so past that
bound the walk stops growing and only the counts do.
``enumerate_pairs`` passes max_gap = b_cap, which prunes nothing (and m
stays 0), so it remains the exhaustive reference.

``enumerate_kinds`` folds the leaves into one entry per key, so its
memory grows with the number of kinds, not of pairs; it builds the
validated ``WeakAdmissiblePair`` and, with the one-pass
``pairs.pair_signature``, the ``KindSignature`` only for the
representative of each kind.  A kind then costs ~440 bytes at degree 7:
three slotted objects, the tuples a and b and the tuple of t rows.  The
rows themselves are shared, because a degree has far fewer distinct
rows than kinds (4 074 for 222 605 kinds at degree 7), so equal rows
are one object across the catalog.  ``kind_signature(degree_matrix(p))`` is
the slow reference path, and the tests check the catalog and
``pair_signature`` against it pair by pair over full ranges of degree
and bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import comb

from .pairs import KindSignature, PairError, WeakAdmissiblePair, pair_signature


def stable_cap(degree: int) -> int:
    """Smallest default bound at which the kind catalog is complete."""
    return max(2 * degree, (degree - 1) ** 2 + 1)


@dataclass(frozen=True, slots=True)
class EnumerationConfig:
    degree: int
    b_cap: int | None = None

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if self.b_cap is None:
            object.__setattr__(self, "b_cap", stable_cap(self.degree))
        if self.b_cap < self.degree:
            raise ValueError("b_cap below the degree misses kinds with BIG entries")


def _walk(
    cfg: EnumerationConfig, max_gap: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Yield (a, b, key, m) for every normalized pair with b_t <= b_cap
    and a_i - b_{i-1} <= max_gap at every i >= 2, where m counts the
    indices with a_i - b_{i-1} = max_gap.

    Children are visited in increasing (gap, a_i) order, so among the
    pairs of one kind (which share their gaps, the diagonal of the key)
    the first one yielded is the least by ``sort_key``.  Each check the
    reference path makes per pair is an O(1) test at the extension: a
    and b nondecreasing and a_i < b_i on every new index, and a leaf is
    exactly an extension whose gap brings the trace to the degree.
    """
    d, cap = cfg.degree, cfg.b_cap
    w = d.bit_length()
    stack = [((0,), (g,), g, g, 0) for g in range(d - 1, 0, -1)]
    while stack:
        a, b, trace, key, m = stack.pop()
        i = len(a)
        rest = d - trace
        a_last, b_last = a[-1], b[-1]
        # the new column above the diagonal, packed and shifted into place,
        # indexed by b_i - b_last; it is all BIG from b_i = a_last + d on,
        # so larger indices are clamped to its last entry
        col = []
        for bi in range(b_last, min(a_last + d, cap) + 1):
            cells = 0
            for aj in a:
                cells = cells << w | (bi - aj if bi - aj < d else d)
            col.append(cells << w)
        big = len(col) - 1
        head = key << w * (i + 1)
        a_max = b_last + max_gap
        children = []
        for g in range(1, rest + 1):
            for ai in range(max(a_last, b_last - g), min(a_max, cap - g) + 1):
                bi = ai + g
                if not (a_last <= ai < bi and b_last <= bi):
                    raise PairError(f"walk left the normalized pairs at {a + (ai,)}, {b + (bi,)}")
                child_key = head | col[min(bi - b_last, big)] | g
                child_m = m + (ai == a_max)
                if g == rest:
                    yield a + (ai,), b + (bi,), child_key, child_m
                else:
                    children.append((a + (ai,), b + (bi,), trace + g, child_key, child_m))
        stack.extend(reversed(children))


def enumerate_pairs(cfg: EnumerationConfig) -> list[WeakAdmissiblePair]:
    """All normalized pairs of the configured degree with b_t <= b_cap,
    sorted by (length, a, b)."""
    return sorted(
        (WeakAdmissiblePair(a, b) for a, b, _, _ in _walk(cfg, cfg.b_cap)),
        key=lambda p: p.sort_key,
    )


@dataclass(frozen=True, slots=True)
class KindEntry:
    signature: KindSignature
    representative: WeakAdmissiblePair
    count: int

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "representative": self.representative.to_json(),
            "count": self.count,
        }


@dataclass(frozen=True, slots=True)
class KindCatalog:
    degree: int
    b_cap: int
    entries: tuple[KindEntry, ...]

    def signatures(self) -> set[KindSignature]:
        return {e.signature for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "b_cap": self.b_cap,
            "kinds": [e.to_json() for e in self.entries],
        }


def enumerate_kinds(cfg: EnumerationConfig) -> KindCatalog:
    """The kind catalog: one entry per kind, in one pass of the walk.

    The gap-compressed leaves are folded into ``key -> [a, b, count]``,
    each adding the number of pairs it stands for, and keeping the first
    pair seen, which is the lexicographically least normalized pair of
    its kind, so output is stable across runs.  By the difference
    constraints in the module docstring that pair is componentwise
    least too, so a kind is in the catalog at every bound from its
    ``representative.b[-1]`` on and at none below: one catalog at
    ``stable_cap`` gives the kind count at every bound, as
    ``scripts/kind_census.py`` reads it.  Only those
    representatives are built and validated, and their signatures come
    from the one-pass ``pair_signature``, which builds no
    ``DegreeMatrix``; ``kind_signature(degree_matrix(p))`` is the
    reference it is tested against.  Memory grows with the number of
    kinds, not of pairs: at degree 7 the catalog retains ~93 MiB
    (~440 bytes per kind, its rows shared) and the call peaks at
    ~154 MiB RSS on a 2-vCPU Xeon under Python 3.11.
    """
    cap = cfg.b_cap
    groups: dict[int, list] = {}
    for a, b, key, m in _walk(cfg, cfg.degree):
        count = comb(m + cap - b[-1], m)
        group = groups.get(key)
        if group is None:
            groups[key] = [a, b, count]
        else:
            group[2] += count
    entries = []
    for a, b, count in sorted(groups.values(), key=lambda g: (len(g[0]), g[0], g[1])):
        rep = WeakAdmissiblePair(a, b)
        entries.append(KindEntry(pair_signature(rep), rep, count))
    return KindCatalog(cfg.degree, cfg.b_cap, tuple(entries))


@dataclass(frozen=True, slots=True)
class FamilyMatchReport:
    """Family-aware matching: a parametrized family can straddle several
    kinds (entries cross the BIG threshold as parameters grow), so the
    catalog is compared against every instance within the bound."""

    matched: tuple[tuple[str, bool], ...]  # (family name, min instance found?)
    unmatched_signatures: tuple[KindSignature, ...]


def match_families(catalog: KindCatalog, families: Iterable) -> FamilyMatchReport:
    """Match a kind catalog against families that give ``name``, ``degree``,
    ``min_instance()`` and ``signatures(b_cap)``, as ``catalog.PairFamily``
    does; this module does not import the expected data."""
    sigs = catalog.signatures()
    matched = []
    generated: set[KindSignature] = set()
    for fam in families:
        if fam.degree != catalog.degree:
            raise ValueError(
                f"family {fam.name} has degree {fam.degree}, catalog degree {catalog.degree}"
            )
        matched.append((fam.name, pair_signature(fam.min_instance()) in sigs))
        generated |= fam.signatures(catalog.b_cap)
    unmatched = tuple(
        e.signature for e in catalog.entries if e.signature not in generated
    )
    return FamilyMatchReport(tuple(matched), unmatched)
