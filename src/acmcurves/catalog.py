"""The one reader of the packaged expected-value catalog (data/catalog.json).

`raw` reads the file on each call (~0.2 ms), so each caller gets a
document of its own: an edit to one caller's copy cannot change what
another checks against.  Its pair families of each degree, such as
``((0, 2+n), (2, 4+n)) for n >= 0``, are affine integer expressions in
a few bounded parameters, which `kind_families` parses into
`PairFamily` objects to instantiate.  The other blocks (the quartic
classification tables, the low-degree corollaries, the liaison table)
are plain JSON, which `reproduce` reads from `raw()` as they stand.  No
computing module (pairs, enumeration, resolutions, picard, liaison,
classifier) imports this one, so the expected values stay independent
of the code under test.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
from collections import namedtuple

from .pairs import KindSignature, WeakAdmissiblePair, make_pair, normalize, pair_signature

_TERM = r"(?:\d+|[A-Za-z_]\w*)"
# a whole expression: terms after the first carry an explicit sign
_AFFINE_RE = re.compile(rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
_SIGNED_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+)|([A-Za-z_]\w*))")


def parse_affine(text: str) -> dict[str, int]:
    """Parse an affine integer expression like '3+n-m'.

    Returns coefficients keyed by parameter name, with the constant
    under the empty key.  Every term after the first needs an explicit
    sign, so strings like '2n' are rejected rather than guessed at.
    """
    if not _AFFINE_RE.fullmatch(text):
        raise ValueError(f"cannot parse affine expression {text!r}")
    terms: dict[str, int] = {}
    for sign, number, name in _SIGNED_TERM_RE.findall(text):
        value = int(number) if number else 1
        terms[name] = terms.get(name, 0) + (-value if sign == "-" else value)
    return terms


def eval_affine(terms: dict[str, int], env: dict[str, int]) -> int:
    value = terms.get("", 0)
    for name, coef in terms.items():
        if name:
            value += coef * env[name]
    return value


_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq, "<": operator.lt, ">": operator.gt}
# alternatives are tried in order, so '<=' wins over '<' at the same place
_OP_RE = re.compile("(<=|>=|==|<|>)")


class Constraint(namedtuple("Constraint", "lhs op rhs")):
    """``lhs op rhs``: two parsed affine expressions and a comparison."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Constraint":
        parts = _OP_RE.split(text, maxsplit=1)
        if len(parts) != 3:
            raise ValueError(f"no comparison operator in constraint {text!r}")
        left, op, right = parts
        return cls(parse_affine(left), op, parse_affine(right))

    def holds(self, env: dict[str, int]) -> bool:
        return _OPS[self.op](eval_affine(self.lhs, env), eval_affine(self.rhs, env))


class PairFamily(namedtuple("PairFamily", (
    "name",  # str
    "degree",  # int
    "a",  # tuple[dict[str, int], ...]
    "b",  # tuple[dict[str, int], ...]
    "params",  # tuple[str, ...]
    "constraints",  # tuple[Constraint, ...]
    "min_params",  # dict[str, int]
    "dual_name",  # str
    "dual_map",  # dict[str, dict[str, int]]
))):
    """One parametrized family from a degree catalog."""

    __slots__ = ()

    @classmethod
    def from_json(cls, degree: int, doc: dict) -> "PairFamily":
        return cls(
            name=doc["name"],
            degree=degree,
            a=tuple(parse_affine(e) for e in doc["a"]),
            b=tuple(parse_affine(e) for e in doc["b"]),
            params=tuple(doc.get("params", [])),
            constraints=tuple(Constraint.parse(c) for c in doc.get("constraints", [])),
            min_params=doc.get("min", {}),
            dual_name=doc.get("dual", doc["name"]),
            dual_map={k: parse_affine(v) for k, v in doc.get("dual_map", {}).items()},
        )

    def instantiate(self, env: dict[str, int]) -> WeakAdmissiblePair:
        """The normalized pair at the given parameter values."""
        a = [eval_affine(e, env) for e in self.a]
        b = [eval_affine(e, env) for e in self.b]
        return normalize(make_pair(a, b))

    def min_instance(self) -> WeakAdmissiblePair:
        return self.instantiate(self.min_params)

    def map_params(self, env: dict[str, int]) -> dict[str, int]:
        """Parameter values of the dual family for this instance."""
        return {k: eval_affine(expr, env) for k, expr in self.dual_map.items()}

    def envs(self, limit: int) -> list[dict[str, int]]:
        """All parameter assignments with values in [0, limit] meeting the constraints."""
        out = []
        for values in itertools.product(range(limit + 1), repeat=len(self.params)):
            env = dict(zip(self.params, values))
            if all(c.holds(env) for c in self.constraints):
                out.append(env)
        return out

    def instances(self, b_cap: int) -> list[WeakAdmissiblePair]:
        """Every normalized instance whose largest entry is at most b_cap.

        Each parameter enters some b-entry with coefficient +1, so
        scanning parameter values up to b_cap is exhaustive.
        """
        pairs = []
        for env in self.envs(b_cap):
            p = self.instantiate(env)
            if p.b[-1] <= b_cap:
                pairs.append(p)
        return pairs

    def signatures(self, b_cap: int) -> set[KindSignature]:
        """The kinds of the instances, by ``pair_signature``."""
        return {pair_signature(p) for p in self.instances(b_cap)}


def raw() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def kind_families(degree: int) -> tuple[PairFamily, ...]:
    """The parametrized pair families cataloged for a degree."""
    docs = raw()["kind_families"].get(str(degree))
    if docs is None:
        raise ValueError(f"no family catalog for degree {degree}")
    return tuple(PairFamily.from_json(degree, doc) for doc in docs)
