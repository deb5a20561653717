"""Weak admissible pairs and their degree matrices.

A weak admissible pair is two nondecreasing integer sequences
``a = (a_1, ..., a_t)`` and ``b = (b_1, ..., b_t)`` with ``t >= 2`` and
``a_i < b_i`` for every ``i``.  Its degree is ``sum(b_i - a_i)`` and two
pairs are equivalent when they differ by a common integer shift.  The
degree matrix has entries delta(a_i, b_j) = max(b_j - a_i, 0), the
difference with nonpositive values clamped to zero; its trace equals
the degree.

Kinds abstract the degree matrix entry-wise: zero stays zero, a value
strictly between 0 and the degree is kept exactly, and anything >= the
degree collapses to a single BIG marker.  There are finitely many kinds
per degree, which is what makes the family catalogs finite.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from operator import getitem, itemgetter

BIG = "BIG"

Cell = int | str  # 0, a value in (0, d), or BIG


class PairError(ValueError):
    """Raised when sequences do not form a weak admissible pair."""


class WeakAdmissiblePair(namedtuple("WeakAdmissiblePair", "a b")):
    """Two integer tuples a and b, checked by ``__new__``, which
    ``_make`` and ``_replace`` go through too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, a: tuple[int, ...], b: tuple[int, ...]) -> "WeakAdmissiblePair":
        if len(a) == len(b) > 1:
            x0, y0 = a[0], b[0]
            for x, y in zip(a, b):
                if x >= y or x < x0 or y < y0:
                    break
                x0, y0 = x, y
            else:
                return tuple.__new__(cls, (a, b))
        # something failed: the checks below name the first fault
        if len(a) != len(b):
            raise PairError(f"sequences differ in length ({len(a)} vs {len(b)})")
        if len(a) < 2:
            raise PairError(f"length must be at least 2, got {len(a)}")
        for i in range(1, len(a)):
            if a[i] < a[i - 1]:
                raise PairError(f"a is not nondecreasing at index {i + 1}")
        for i in range(1, len(b)):
            if b[i] < b[i - 1]:
                raise PairError(f"b is not nondecreasing at index {i + 1}")
        for i, (ai, bi) in enumerate(zip(a, b)):
            if ai >= bi:
                raise PairError(f"a_i < b_i violated at index {i + 1}")

    @property
    def length(self) -> int:
        return len(self.a)

    @property
    def degree(self) -> int:
        return sum(self.b) - sum(self.a)

    @property
    def sort_key(self) -> tuple:
        return (self.length, self.a, self.b)

    def shift(self, k: int) -> "WeakAdmissiblePair":
        """The equivalent pair with k added to every entry."""
        return WeakAdmissiblePair(
            tuple(x + k for x in self.a), tuple(x + k for x in self.b)
        )

    def to_json(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}

    def __repr__(self) -> str:
        return f"({self.a}, {self.b})"


def make_pair(a: Iterable[int], b: Iterable[int]) -> WeakAdmissiblePair:
    """Validate two integer sequences as a weak admissible pair."""
    return WeakAdmissiblePair(tuple(int(x) for x in a), tuple(int(x) for x in b))


def normalize(p: WeakAdmissiblePair) -> WeakAdmissiblePair:
    """The equivalent pair with a_1 = 0.  Idempotent."""
    return p if p.a[0] == 0 else p.shift(-p.a[0])


class DegreeMatrix(namedtuple("DegreeMatrix", "degree entries")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, degree: int, entries: tuple[tuple[int, ...], ...]) -> "DegreeMatrix":
        t = len(entries)
        if t < 2 or set(map(len, entries)) != {t}:
            raise ValueError("entries must form a square matrix of size >= 2")
        if min(chain.from_iterable(entries)) < 0:
            raise ValueError("entries must be nonnegative")
        self = tuple.__new__(cls, (degree, entries))
        if self.trace != degree:
            raise ValueError(f"trace {self.trace} does not equal the declared degree {degree}")
        return self

    @property
    def trace(self) -> int:
        return sum(map(getitem, self.entries, range(len(self.entries))))

    def to_json(self) -> dict:
        return {"degree": self.degree, "entries": [list(r) for r in self.entries]}


def _anti_transpose(grid: tuple[tuple, ...]) -> tuple[tuple, ...]:
    # entry (i, j) -> (t+1-j, t+1-i): reflection across the antidiagonal
    t = len(grid)
    return tuple(
        tuple(grid[t - 1 - j][t - 1 - i] for j in range(t)) for i in range(t)
    )


def anti_transpose(m: DegreeMatrix) -> DegreeMatrix:
    return DegreeMatrix(m.degree, _anti_transpose(m.entries))


def degree_matrix(p: WeakAdmissiblePair) -> DegreeMatrix:
    """The matrix of clamped differences delta(a_i, b_j).

    Shift-invariant, so equivalent pairs share one matrix; the diagonal
    entries are the positive gaps b_i - a_i, hence trace = degree.
    """
    b = p.b
    # delta(ai, bj), written out: a call per cell costs more than the cell
    entries = tuple([tuple([bj - ai if bj > ai else 0 for bj in b]) for ai in p.a])
    return DegreeMatrix(p.degree, entries)


def dual_pair(p: WeakAdmissiblePair) -> WeakAdmissiblePair:
    """The normalized pair whose degree matrix is the anti-transpose.

    Built by negating and reversing both sequences (then shifting to
    a_1 = 0); an involution up to equivalence.
    """
    a = tuple(-x for x in reversed(p.b))
    b = tuple(-x for x in reversed(p.a))
    return normalize(WeakAdmissiblePair(a, b))


class KindSignature(namedtuple("KindSignature", "degree cells")):
    """Entry-wise abstraction of a degree matrix.

    Cells are 0, an exact value v with 0 < v < degree, or BIG for
    entries >= degree.  Two pairs are of the same kind exactly when
    their signatures are equal.
    """

    __slots__ = ()

    def anti_transpose(self) -> "KindSignature":
        return KindSignature(self.degree, _anti_transpose(self.cells))

    def to_json(self) -> dict:
        return {"degree": self.degree, "cells": [list(r) for r in self.cells]}

    def render(self) -> str:
        return " / ".join(
            ",".join("B" if c == BIG else str(c) for c in row) for row in self.cells
        )


def kind_signature(m: DegreeMatrix) -> KindSignature:
    """The kind of a validated degree matrix.

    ``kind_signature(degree_matrix(p))`` is the reference that the
    tests hold ``pair_signature(p)`` to, and that ``reproduce`` reads for
    the families' expected kinds (``catalog.PairFamily.signatures``,
    ``enumeration.match_families``): it builds each cell from the
    checked matrix, apart from ``_cells``, so a wrong clamp rule there
    cannot agree with itself.
    """
    d = m.degree
    cells = tuple([tuple([v if v < d else BIG for v in row]) for row in m.entries])
    return KindSignature(d, cells)


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
# signature from ``pair_signature`` and from a ``signature_table`` keeps
# its rows here, and the two share them.  Each row of a degree-d pair is a
# row of the degree-d kind catalog, so this holds at most 72, 281, 1 072
# and 4 074 rows for degrees 4 to 7.
_ROWS = _RowStore()


def _cells(a: Iterable[int], xs: Sequence[int], d: int) -> list[tuple[Cell, ...]]:
    # the clamp rule, the one place it is written: row i holds the kind
    # cell of x - a_i for each x in xs
    return [tuple([0 if x <= ai else BIG if x - ai >= d else x - ai for x in xs]) for ai in a]


def pair_signature(p: WeakAdmissiblePair) -> KindSignature:
    """The kind of a pair, in one pass over a and b.

    Each cell comes straight from the pair: 0 where b_j <= a_i, BIG where
    b_j - a_i >= d, the difference otherwise; no ``DegreeMatrix`` is
    built and no check is made.  The pair's constructor is the one
    check: a and b have one length, so the cells are square; they are
    clamped, so nonnegative; and b_i > a_i at every i, so the diagonal
    sums to sum(b) - sum(a), which is ``p.degree``.  The kind catalog
    uses ``signature_table`` instead, which gives the same rows.
    """
    d = p.degree
    return KindSignature(d, tuple(map(_ROWS.__getitem__, _cells(p.a, p.b, d))))


def signature_table(
    degree: int, top: int
) -> Callable[[tuple[int, ...], tuple[int, ...]], tuple[tuple[Cell, ...], ...]]:
    """For the pairs of one degree whose entries all lie in 0..top, a
    function of a and b that gives the stored rows of
    ``pair_signature``'s cells, from a table of the cells built once.

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


def is_reducible_type(m: DegreeMatrix) -> bool:
    """True when some entry immediately below the diagonal is zero.

    A zero at (i+1, i) forces a full zero block below it, so every
    determinant realizing the matrix factors and the surface splits.
    """
    return any(m.entries[i + 1][i] == 0 for i in range(len(m.entries) - 1))
