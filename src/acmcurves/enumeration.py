"""Exhaustive enumeration of normalized weak admissible pairs.

A normalized pair of degree d has a_1 = 0, diagonal gaps b_i - a_i >= 1
summing to d (so the length t is between 2 and d), and nondecreasing
a and b.  Bounding b_t makes the set finite; the kind catalog stops
changing once the bound reaches ``stable_cap(d)``: the last kind to
appear is the all-BIG staircase of length d, whose smallest
representative is ((0, d-1, 2(d-1), ...), (1, d, ...)) with
b_t = (d-1)^2 + 1.

Both public enumerations run on one depth-first walk, ``_walk``, which
extends the prefixes of a and b one index at a time with a running
trace.  For the catalog it visits only the least pair of each kind, by
the sharp gap lemma.  Write g_i = b_i - a_i for the diagonal gaps,
h_i = a_i - b_{i-1} for the gap at index i >= 2 (it may be negative),
and tau_i = d - g_{i-1} - g_i, the sum of the other diagonal gaps, so
tau_i >= 0.  A pair is fixed by a_1 = 0, its g and its h.

Lemma.  The kind of a pair holds its g, and at each i >= 2 either the
exact h_i, when h_i < tau_i, or only the fact that h_i >= tau_i; and
every h_i in [tau_i, oo) gives the same kind.

Proof.  The diagonal of the kind is g.  Let h_i >= tau_i.  For
k < i <= j, b_j - a_k >= b_i - a_{i-1} = g_{i-1} + h_i + g_i >= d, so
the cell (k, j) is BIG, and b_k - a_j <= b_{i-1} - a_i = -h_i <= 0, so
the cell (j, k) is 0.  Every other cell is b_j - a_k with j and k on
one side of i, which does not involve h_i.  So moving h_i anywhere in
[tau_i, oo), which shifts a_j and b_j for j >= i by one amount, keeps a
and b nondecreasing and keeps every cell.  Let h_i < tau_i instead.  If
h_i >= 0, the cell (i-1, i) is b_i - a_{i-1} = g_{i-1} + h_i + g_i,
which lies in (0, d), so the kind holds it and with it h_i.  If h_i < 0,
the cell (i, i-1) is b_{i-1} - a_i = -h_i > 0, and it is at most
b_i - a_i = g_i < d, so the kind holds it exactly.  The cell (i-1, i) is
BIG exactly when h_i >= tau_i, so the kind tells the two cases apart.

So the pairs of a kind are those with its g, its exact h_i below tau_i,
and h_i >= tau_i at its other m indices.  Setting those m gaps to tau_i
gives the kind's least pair, which is componentwise least, as each a_j
and b_j grows with every h_i; it is also the least by ``sort_key``, and
its b_t is the least b_t of the kind, so a kind first appears at the
bound equal to that b_t.  It is the one pair of the kind with every
h_i <= tau_i.  The count: the kind's other pairs add e_j >= 0 to the m
gaps at tau_i, which adds sum(e_j) to b_t, so under the bound b_cap the
kind has the pairs with sum(e_j) <= b_cap - b_t, and there are exactly
comb(m + b_cap - b_t, m) of them.  A least pair has
b_t = d + sum(h_i) <= d + sum(tau_i) = (t - 2) d + g_1 + g_t, which is
at most (t - 1)(d - 1) + 1 <= (d - 1)^2 + 1, so past that bound the
walk stops growing and only the counts do.

``_walk`` with ``least`` keeps a_i <= b_{i-1} + tau_i, that is
b_i - a_{i-1} <= d, and counts in m the indices at equality, so it
yields each kind's least pair once, with its count: 14 137 pairs at
degree 6 and 222 605 at degree 7, one per kind.  ``enumerate_pairs``
walks with no bound on the gaps, so it remains the exhaustive
reference.  The walk hands its leaves over in ``sort_key`` order, the
one order of both enumerations, so neither caller sorts.

``enumerate_kinds`` builds one entry per leaf, so its memory grows
with the number of kinds, not of pairs; it builds the validated
``WeakAdmissiblePair`` and the ``KindSignature`` only for the
representative of each kind.  Every entry of a least pair lies in
0..min(b_cap, stable_cap(d)), so each call tabulates the cells of that
square once (``signature_table``) and reads each kind's stored
signature rows from the table, not cell by cell.  A kind then costs
~485 bytes at degree 7: three named tuples, the tuples a and b and the
tuple of t rows.  The rows themselves are shared, because a degree has
far fewer distinct rows than kinds (4 074 for 222 605 kinds at degree
7), so equal rows are one object across the catalogs of a process
(``_ROWS``, which keeps them for the life of the process).  The table
and the store serve the catalog alone: a one-off kind is
``pairs.pair_signature``, the reference
``kind_signature(degree_matrix(p))``, and the tests check the catalog's
table against it pair by pair over full ranges of degree and bound.

The three named tuples of a kind stay tracked by the cyclic garbage
collector, which untracks only exact tuples, so with the collector on
every collection of the oldest generation walks each kind built so far.
Nothing in a catalog forms a reference cycle: a dropped catalog is freed
by reference counting alone, and the collector would find nothing in
it.  So ``enumerate_kinds`` builds with the collector paused, and hands
back its caller's state: it turns the collector on again only if it
was on before the call, also when the build raises, and never runs a
collection itself.  This is the one place in the library that touches
the collector.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import comb
from operator import itemgetter

from .pairs import BIG, Cell, KindSignature, WeakAdmissiblePair, pair_signature


def stable_cap(degree: int) -> int:
    """Smallest default bound at which the kind catalog is complete."""
    return max(2 * degree, (degree - 1) ** 2 + 1)


class EnumerationConfig(namedtuple("EnumerationConfig", "degree b_cap")):
    """A degree and a bound on b_t; the bound defaults to ``stable_cap``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, degree: int, b_cap: int | None = None) -> EnumerationConfig:
        if degree < 2:
            raise ValueError("degree must be at least 2")
        if b_cap is None:
            b_cap = stable_cap(degree)
        if b_cap < degree:
            raise ValueError("b_cap below the degree misses kinds with BIG entries")
        return tuple.__new__(cls, (degree, b_cap))


def _walk(
    cfg: EnumerationConfig, least: bool
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield (a, b, m) for the normalized pairs with b_t <= b_cap, in
    ``sort_key`` order: every one, with m = 0, or with ``least`` the
    least pair of each kind, with m the number of its gaps
    a_i - b_{i-1} at tau_i = d - g_{i-1} - g_i.

    No extension needs a check: the loops start a_i at
    max(a_{i-1}, b_{i-1} - g) and set b_i = a_i + g with g >= 1, so
    a_i >= a_{i-1}, b_i >= b_{i-1} and a_i < b_i by construction, and a
    leaf is exactly an extension by the closing gap g = d - trace.  Both
    callers build each leaf as a validated ``WeakAdmissiblePair``, which
    is the one check of the pair.  The leaves are collected per length
    t and each length is sorted as plain tuples: among leaves of one
    length, (a, b, m) orders as (a, b), since no two share a and b.
    """
    d, cap = cfg.degree, cfg.b_cap
    by_length: list[list] = [[] for _ in range(d + 1)]
    stack = [((0,), (g,), g, 0) for g in range(1, d)]
    while stack:
        a, b, trace, m = stack.pop()
        rest = d - trace
        a_last, b_last = a[-1], b[-1]
        for g in range(1, rest):
            # a_i - b_{i-1} <= tau_i is b_i - a_{i-1} <= d
            a_max = a_last + d - g if least else cap
            for ai in range(max(a_last, b_last - g), min(a_max, cap - g) + 1):
                stack.append((a + (ai,), b + (ai + g,), trace + g, m + (ai == a_max)))
        a_max = a_last + d - rest if least else cap
        leaves = by_length[len(a) + 1]
        for ai in range(max(a_last, b_last - rest), min(a_max, cap - rest) + 1):
            leaves.append((a + (ai,), b + (ai + rest,), m + (ai == a_max)))
    for leaves in by_length:
        leaves.sort()
        yield from leaves


def enumerate_pairs(cfg: EnumerationConfig) -> list[WeakAdmissiblePair]:
    """All normalized pairs of the configured degree with b_t <= b_cap,
    sorted by (length, a, b)."""
    return [WeakAdmissiblePair(a, b) for a, b, _ in _walk(cfg, False)]


class KindEntry(namedtuple("KindEntry", "signature representative count")):
    # signature: KindSignature, representative: WeakAdmissiblePair, count: int
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "representative": self.representative.to_json(),
            "count": self.count,
        }


class KindCatalog(namedtuple("KindCatalog", "degree b_cap entries")):
    """The kinds of one degree under one bound; ``len`` counts the
    entries, not the three fields, so ``_make`` builds through the
    constructor, which never asks for the length."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

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


class _RowStore(dict):
    """Maps each signature row to its one stored copy: ``store[row]``
    returns the copy, and stores ``row`` itself when it is new."""

    __slots__ = ()

    def __missing__(self, row: tuple[Cell, ...]) -> tuple[Cell, ...]:
        self[row] = row
        return row


# the one stored copy of each equal signature row.  A catalog repeats its
# signature rows far more often than it has distinct ones (1 422 165 rows
# of 222 605 kinds at degree 7, but only 4 074 distinct), so every
# signature from a ``signature_table`` keeps its rows here, and the
# catalogs of one process share them.  Each row of a degree-d pair is a
# row of the degree-d kind catalog, so this holds at most 72, 281, 1 072
# and 4 074 rows for degrees 4 to 7.  Kept for the process, not per call:
# with a store per call, eleven degree-5 catalogs (the kind-census round)
# took 44.6 ms against 42.5 ms, medians of 7 alternating fresh processes
# on 2 vCPUs.
_ROWS = _RowStore()


def _cells(a: Iterable[int], xs: Sequence[int], d: int) -> list[tuple[Cell, ...]]:
    # the catalog's clamp rule, written apart from ``pairs.kind_signature``:
    # row i holds the kind cell of x - a_i for each x in xs
    return [tuple([0 if x <= ai else BIG if x - ai >= d else x - ai for x in xs]) for ai in a]


def signature_table(
    degree: int, top: int
) -> Callable[[tuple[int, ...], tuple[int, ...]], tuple[tuple[Cell, ...], ...]]:
    """For the pairs of one degree whose entries all lie in 0..top, a
    function of a and b that gives the stored rows of the pair's kind
    cells, from a table of the cells built once.

    Row a of the table holds the cell of x - a for every x in 0..top, so
    a pair's row i is row a_i read at b_1, ..., b_t, which ``itemgetter``
    reads in C, with no comparison per cell (a pair has t >= 2, so it
    reads a tuple, not one cell).  The table holds
    (top + 1)^2 cells and lives as long as the function returned.  It
    checks neither the degree nor the range of the a and b it is given.
    """
    cells = range(top + 1)
    rows_of = _cells(cells, cells, degree).__getitem__
    stored = _ROWS.__getitem__

    def rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[Cell, ...], ...]:
        return tuple(map(stored, map(itemgetter(*b), map(rows_of, a))))

    return rows


def enumerate_kinds(cfg: EnumerationConfig) -> KindCatalog:
    """The kind catalog: one entry per kind, in one pass of the walk.

    The walk yields the least pair of each kind once, with the number
    of pairs of its kind (see the module docstring), in the
    representatives' ``sort_key`` order, so output is stable across
    runs.  A representative is componentwise least, so a kind is
    in the catalog at every bound from its ``representative.b[-1]`` on
    and at none below: one catalog at ``stable_cap`` gives the kind
    count at every bound, as ``scripts/kind_census.py`` reads it.  Each
    representative is built and validated, and its signature rows are
    read from a table of the cells of this degree, built once per call
    for the entries 0..min(b_cap, stable_cap(degree))
    (``signature_table``).  Their cells are ``pair_signature(rep)``'s,
    the reference the table is tested against.  ``KindSignature`` and
    ``KindEntry`` check nothing, so each is built from its fields with
    ``tuple.__new__``.  Memory grows with the number of kinds, not of
    pairs: at degree 7 the catalog retains ~103 MiB (~485 bytes per
    kind, its rows shared) and the call peaks at ~137 MiB RSS on a
    2-vCPU Xeon under Python 3.11.

    The walk and the build run with the cyclic garbage collector paused:
    every kind adds tracked named tuples that form no cycle, so a
    collection would only walk them (module docstring).  The caller's
    state comes back when the call returns or raises; a collector the
    caller had off stays off, and the call never collects.  At degree 7
    the call takes ~1.3 s this way against ~2.1 s with the collector on
    (medians of 7 alternating fresh processes, same machine).
    """
    d, cap = cfg.degree, cfg.b_cap
    # every entry of a least pair is at most b_t <= stable_cap (module docstring)
    rows = signature_table(d, min(cap, stable_cap(d)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return KindCatalog(d, cap, tuple([
            tuple.__new__(KindEntry, (
                tuple.__new__(KindSignature, (d, rows(a, b))),
                WeakAdmissiblePair(a, b),
                comb(m + cap - b[-1], m),
            ))
            for a, b, m in _walk(cfg, True)
        ]))
    finally:
        if was_enabled:
            gc.enable()


def match_families(
    catalog: KindCatalog, families: Iterable
) -> tuple[list[tuple[str, bool]], set[KindSignature]]:
    """Match a kind catalog against families that give ``name``, ``degree``,
    ``min_instance()`` and ``signatures(b_cap)``, as ``catalog.PairFamily``
    does; this module does not import the expected data.

    Returns ``(matched, generated)``: ``matched`` holds (family name,
    whether its minimal instance's kind is in the catalog) per family, in
    order; ``generated`` the kinds of every family instance within the
    catalog's bound, so the families explain the catalog exactly when it
    equals ``catalog.signatures()``.  A parametrized family can straddle
    several kinds (entries cross the BIG threshold as parameters grow),
    so every instance within the bound is compared, not only the minimal
    one.  The expected kinds are ``pair_signature``'s."""
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
    return matched, generated
