"""Parametrized families of weak admissible pairs.

The finite catalogs for each degree are families such as
``((0, 2+n), (2, 4+n)) for n >= 0``: affine integer expressions in a few
bounded parameters.  The family tables ship in ``data/catalog.json`` so
corrections stay diffable; this module parses and instantiates them.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .pairs import KindSignature, WeakAdmissiblePair, make_pair, normalize, pair_signature

_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+|[A-Za-z_]\w*)")


def parse_affine(text: str) -> dict[str, int]:
    """Parse an affine integer expression like '3+n-m'.

    Returns coefficients keyed by parameter name, with the constant
    under the empty key.  Every term after the first needs an explicit
    sign, so strings like '2n' are rejected rather than guessed at.
    """
    terms: dict[str, int] = {}
    pos = 0
    end = len(text.rstrip())
    first = True
    while pos < end:
        match = _TERM_RE.match(text, pos)
        if match is None or (not first and not match.group(1)):
            raise ValueError(f"cannot parse affine expression {text!r}")
        pos = match.end()
        sign = -1 if match.group(1) == "-" else 1
        tok = match.group(2)
        if tok.isdigit():
            terms[""] = terms.get("", 0) + sign * int(tok)
        else:
            terms[tok] = terms.get(tok, 0) + sign
        first = False
    if first:
        raise ValueError(f"cannot parse affine expression {text!r}")
    return terms


def eval_affine(terms: dict[str, int], env: dict[str, int]) -> int:
    value = terms.get("", 0)
    for name, coef in terms.items():
        if name:
            value += coef * env[name]
    return value


_OPS = {
    "<=": lambda x, y: x <= y,
    ">=": lambda x, y: x >= y,
    "<": lambda x, y: x < y,
    ">": lambda x, y: x > y,
    "==": lambda x, y: x == y,
}


@dataclass(frozen=True)
class Constraint:
    lhs: tuple[tuple[str, int], ...]
    op: str
    rhs: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "Constraint":
        for op in ("<=", ">=", "==", "<", ">"):
            if op in text:
                left, right = text.split(op, 1)
                return cls(
                    tuple(parse_affine(left).items()),
                    op,
                    tuple(parse_affine(right).items()),
                )
        raise ValueError(f"no comparison operator in constraint {text!r}")

    def holds(self, env: dict[str, int]) -> bool:
        return _OPS[self.op](
            eval_affine(dict(self.lhs), env), eval_affine(dict(self.rhs), env)
        )


@dataclass(frozen=True)
class PairFamily:
    """One parametrized family from a degree catalog."""

    name: str
    degree: int
    a: tuple[tuple[tuple[str, int], ...], ...]
    b: tuple[tuple[tuple[str, int], ...], ...]
    params: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    min_params: tuple[tuple[str, int], ...]
    dual_name: str
    dual_map: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]

    @classmethod
    def from_json(cls, degree: int, doc: dict) -> "PairFamily":
        a = tuple(tuple(parse_affine(e).items()) for e in doc["a"])
        b = tuple(tuple(parse_affine(e).items()) for e in doc["b"])
        params = tuple(doc.get("params", []))
        constraints = tuple(Constraint.parse(c) for c in doc.get("constraints", []))
        min_params = tuple(sorted(doc.get("min", {}).items()))
        dual_map = tuple(
            (k, tuple(parse_affine(v).items()))
            for k, v in sorted(doc.get("dual_map", {}).items())
        )
        return cls(
            name=doc["name"],
            degree=degree,
            a=a,
            b=b,
            params=params,
            constraints=constraints,
            min_params=min_params,
            dual_name=doc.get("dual", doc["name"]),
            dual_map=dual_map,
        )

    def instantiate(self, env: dict[str, int]) -> WeakAdmissiblePair:
        """The normalized pair at the given parameter values."""
        a = [eval_affine(dict(e), env) for e in self.a]
        b = [eval_affine(dict(e), env) for e in self.b]
        return normalize(make_pair(a, b))

    def min_instance(self) -> WeakAdmissiblePair:
        return self.instantiate(dict(self.min_params))

    def map_params(self, env: dict[str, int]) -> dict[str, int]:
        """Parameter values of the dual family for this instance."""
        return {k: eval_affine(dict(expr), env) for k, expr in self.dual_map}

    def envs(self, limit: int) -> list[dict[str, int]]:
        """All parameter assignments with values in [0, limit] meeting the constraints."""
        if not self.params:
            return [{}]
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
        return {pair_signature(p) for p in self.instances(b_cap)}
