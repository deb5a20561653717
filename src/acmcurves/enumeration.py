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
reference.

``enumerate_kinds`` builds one entry per leaf, so its memory grows
with the number of kinds, not of pairs; it builds the validated
``WeakAdmissiblePair`` and, with the one-pass ``pairs.pair_signature``,
the ``KindSignature`` only for the representative of each kind.  A kind
then costs ~485 bytes at degree 7: three named tuples, the tuples a
and b and the tuple of t rows.  The rows themselves are shared, because
a degree has far fewer distinct rows than kinds (4 074 for 222 605
kinds at degree 7), so equal rows are one object across the catalog.
``kind_signature(degree_matrix(p))`` is the slow reference path, and
the tests check the catalog and ``pair_signature`` against it pair by
pair over full ranges of degree and bound.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import comb

from .pairs import BIG, KindSignature, WeakAdmissiblePair, pair_signature


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
    """Yield (a, b, m) for the normalized pairs with b_t <= b_cap: every
    one, with m = 0, or with ``least`` the least pair of each kind, with
    m the number of its gaps a_i - b_{i-1} at tau_i = d - g_{i-1} - g_i.

    No extension needs a check: the loop starts a_i at
    max(a_{i-1}, b_{i-1} - g) and sets b_i = a_i + g with g >= 1, so
    a_i >= a_{i-1}, b_i >= b_{i-1} and a_i < b_i by construction, and a
    leaf is exactly an extension whose gap brings the trace to the
    degree.  Both callers build each leaf as a validated
    ``WeakAdmissiblePair``, which is the one check of the pair.
    """
    d, cap = cfg.degree, cfg.b_cap
    stack = [((0,), (g,), g, 0) for g in range(1, d)]
    while stack:
        a, b, trace, m = stack.pop()
        rest = d - trace
        a_last, b_last = a[-1], b[-1]
        for g in range(1, rest + 1):
            # a_i - b_{i-1} <= tau_i is b_i - a_{i-1} <= d
            a_max = a_last + d - g if least else cap
            for ai in range(max(a_last, b_last - g), min(a_max, cap - g) + 1):
                bi = ai + g
                child_m = m + (ai == a_max)
                if g == rest:
                    yield a + (ai,), b + (bi,), child_m
                else:
                    stack.append((a + (ai,), b + (bi,), trace + g, child_m))


def enumerate_pairs(cfg: EnumerationConfig) -> list[WeakAdmissiblePair]:
    """All normalized pairs of the configured degree with b_t <= b_cap,
    sorted by (length, a, b)."""
    return sorted(
        (WeakAdmissiblePair(a, b) for a, b, _ in _walk(cfg, False)),
        key=lambda p: p.sort_key,
    )


class KindEntry(namedtuple("KindEntry", "signature representative count")):
    # signature: KindSignature, representative: WeakAdmissiblePair, count: int
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "representative": self.representative.to_json(),
            "count": self.count,
        }


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

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.to_json(), indent=2, sort_keys=True)``, byte
        for byte, in n + 2 pieces for n kinds: the head up to the "kinds"
        list, one piece per kind, and the tail.

        Each kind is written from one template (``_KIND_JSON``), and the
        text of each distinct signature row once: a catalog has far fewer
        distinct rows than kinds (see the module docstring).  So no
        document is built, and memory stays that of the catalog."""
        yield f'{{\n  "b_cap": {self.b_cap},\n  "degree": {self.degree},\n  "kinds": '
        rows: dict[tuple, str] = {}

        def row_text(row: tuple) -> str:
            text = rows.get(row)
            if text is None:
                cells = ",\n            ".join(['"BIG"' if c == BIG else str(c) for c in row])
                text = rows[row] = f"[\n            {cells}\n          ]"
            return text

        sep = "[\n"
        for sig, rep, count in self.entries:
            yield sep + _KIND_JSON.format(
                count, ",\n          ".join(map(str, rep.a)),
                ",\n          ".join(map(str, rep.b)),
                ",\n          ".join(map(row_text, sig.cells)), sig.degree,
            )
            sep = ",\n"
        yield "\n  ]\n}" if self.entries else "[]\n}"


def enumerate_kinds(cfg: EnumerationConfig) -> KindCatalog:
    """The kind catalog: one entry per kind, in one pass of the walk.

    The walk yields the least pair of each kind once, with the number
    of pairs of its kind (see the module docstring), and the entries are
    sorted by their representatives' ``sort_key``, so output is stable
    across runs.  A representative is componentwise least, so a kind is
    in the catalog at every bound from its ``representative.b[-1]`` on
    and at none below: one catalog at ``stable_cap`` gives the kind
    count at every bound, as ``scripts/kind_census.py`` reads it.  Each
    representative is built and validated, and its signature comes from
    the one-pass ``pair_signature``, which builds no ``DegreeMatrix``;
    ``kind_signature(degree_matrix(p))`` is the reference it is tested
    against.  Memory grows with the number of kinds, not of pairs: at
    degree 7 the catalog retains ~103 MiB (~485 bytes per kind, its rows
    shared) and the call peaks at ~137 MiB RSS on a 2-vCPU Xeon under
    Python 3.11.
    """
    cap = cfg.b_cap
    entries = []
    for a, b, m in sorted(_walk(cfg, True), key=lambda leaf: (len(leaf[0]), leaf[0], leaf[1])):
        rep = WeakAdmissiblePair(a, b)
        entries.append(KindEntry(pair_signature(rep), rep, comb(m + cap - b[-1], m)))
    return KindCatalog(cfg.degree, cfg.b_cap, tuple(entries))


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
    one."""
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
