"""Formal power series in named parameters with operator coefficients.

The Weyl-algebra identities verified in ``umbra.heisenberg`` (group
law, commutation relation, twisted-convolution composition) involve
exponentials of raising operators, which do not exist as exact matrices
on a capped space.  They do exist order by order: both sides of each
identity are expanded as formal series in the group parameters, and
coefficient operators are compared multi-index by multi-index.

Exactness bookkeeping: a coefficient operator built from words of
length <= M (the series order) moves basis degrees by at most M, so on
a space capped at n_max every column with basis index <= n_max - M is
computed exactly, truncation notwithstanding.  Callers pick the output
degree D and working cap n_max = D + M accordingly; comparisons are
restricted to the exact columns.

Coefficients are kept as linear combinations (rational, operator)
rather than materialized matrices so that products of the same pair of
operators are computed once; ``_ProductCache`` memoizes on identity of
the shared power tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    CapMismatchError,
    LinearOp,
    ONE,
    ZERO,
    as_fraction,
)
from . import kernels

Index = tuple[int, ...]
Term = tuple[Fraction, LinearOp]


class MultiPoly:
    """Sparse exact polynomial in ``nvars`` variables, truncated at a
    total order; used for the scalar bookkeeping of substitutions like
    (s + s' + x y')^a."""

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars: int, order: int, terms: Mapping[Index, Fraction] | None = None):
        self.nvars = nvars
        self.order = order
        self.terms: dict[Index, Fraction] = {}
        if terms:
            for idx, q in terms.items():
                if len(idx) != nvars:
                    raise CapMismatchError("multi-index arity mismatch")
                if sum(idx) <= order and q:
                    self.terms[idx] = as_fraction(q)

    @classmethod
    def constant(cls, nvars: int, order: int, q: Fraction | int) -> "MultiPoly":
        return cls(nvars, order, {(0,) * nvars: as_fraction(q)})

    @classmethod
    def variable(cls, nvars: int, order: int, slot: int) -> "MultiPoly":
        idx = [0] * nvars
        idx[slot] = 1
        return cls(nvars, order, {tuple(idx): ONE})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for idx, q in other.terms.items():
            s = out.get(idx, ZERO) + q
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return MultiPoly(self.nvars, self.order, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Index, Fraction] = {}
        for ia, qa in self.terms.items():
            ta = sum(ia)
            for ib, qb in other.terms.items():
                if ta + sum(ib) > self.order:
                    continue
                idx = tuple(x + y for x, y in zip(ia, ib))
                s = out.get(idx, ZERO) + qa * qb
                if s:
                    out[idx] = s
                else:
                    out.pop(idx, None)
        return MultiPoly(self.nvars, self.order, out)

    def scale(self, q: Fraction | int) -> "MultiPoly":
        q = as_fraction(q)
        return MultiPoly(
            self.nvars, self.order,
            {idx: q * v for idx, v in self.terms.items()} if q else {},
        )

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars or self.order != other.order:
            raise CapMismatchError("mixed multipolynomial shapes")


class _ProductCache:
    """Memoized operator products keyed by operand identity.  Sound as
    long as the operand objects stay alive, which the cache itself
    guarantees by keeping references."""

    def __init__(self) -> None:
        self._products: dict[tuple[int, int], LinearOp] = {}
        self._keep: list[tuple[LinearOp, LinearOp]] = []

    def prod(self, a: LinearOp, b: LinearOp) -> LinearOp:
        key = (id(a), id(b))
        hit = self._products.get(key)
        if hit is None:
            hit = a @ b
            self._products[key] = hit
            self._keep.append((a, b))
        return hit


class OpWordTable:
    """Shared powers L^b, R^c and products L^b R^c for one model's
    ladder pair, up to a word length."""

    def __init__(self, lowering: LinearOp, raising: LinearOp, order: int):
        if lowering.cap != raising.cap:
            raise CapMismatchError("ladder operators at different caps")
        self.cap = lowering.cap
        self.order = order
        self.low_pows = [LinearOp.identity(self.cap)]
        self.high_pows = [LinearOp.identity(self.cap)]
        for _ in range(order):
            self.low_pows.append(lowering @ self.low_pows[-1])
            self.high_pows.append(raising @ self.high_pows[-1])
        self._low_high: dict[tuple[int, int], LinearOp] = {}
        self._high_low: dict[tuple[int, int], LinearOp] = {}
        self.cache = _ProductCache()

    def low_then_high_word(self, b: int, c: int) -> LinearOp:
        """L^b o R^c (apply the raisings first)."""
        key = (b, c)
        hit = self._low_high.get(key)
        if hit is None:
            hit = self.cache.prod(self.low_pows[b], self.high_pows[c])
            self._low_high[key] = hit
        return hit

    def high_then_low_word(self, c: int, b: int) -> LinearOp:
        """R^c o L^b (apply the lowerings first)."""
        key = (c, b)
        hit = self._high_low.get(key)
        if hit is None:
            hit = self.cache.prod(self.high_pows[c], self.low_pows[b])
            self._high_low[key] = hit
        return hit


class FormalOpSeries:
    """Truncated formal series sum_idx (coefficient operator) * prod
    params^idx.  Coefficients are linear combinations of shared
    operators, materialized on demand."""

    __slots__ = ("params", "order", "cap", "terms")

    def __init__(self, params: tuple[str, ...], order: int, cap: int):
        self.params = params
        self.order = order
        self.cap = cap
        self.terms: dict[Index, list[Term]] = {}

    def add_term(self, idx: Index, q: Fraction, op: LinearOp) -> None:
        if len(idx) != len(self.params):
            raise CapMismatchError("multi-index arity mismatch")
        if sum(idx) > self.order or not q:
            return
        self.terms.setdefault(idx, []).append((q, op))

    def __add__(self, other: "FormalOpSeries") -> "FormalOpSeries":
        self._check(other)
        out = FormalOpSeries(self.params, self.order, self.cap)
        for idx, lst in self.terms.items():
            out.terms[idx] = list(lst)
        for idx, lst in other.terms.items():
            out.terms.setdefault(idx, []).extend(lst)
        return out

    def scale(self, q: Fraction | int) -> "FormalOpSeries":
        q = as_fraction(q)
        out = FormalOpSeries(self.params, self.order, self.cap)
        if q:
            for idx, lst in self.terms.items():
                out.terms[idx] = [(q * a, op) for a, op in lst]
        return out

    def mul(self, other: "FormalOpSeries", cache: _ProductCache) -> "FormalOpSeries":
        """Series product; coefficient operators compose left-to-right
        (self's operator applied after other's would be wrong: the
        series represent operator-valued functions multiplied in the
        written order, so self_op @ other_op)."""
        self._check(other)
        out = FormalOpSeries(self.params, self.order, self.cap)
        items_b = list(other.terms.items())
        for ia, lst_a in self.terms.items():
            ta = sum(ia)
            for ib, lst_b in items_b:
                if ta + sum(ib) > self.order:
                    continue
                idx = tuple(x + y for x, y in zip(ia, ib))
                bucket = out.terms.setdefault(idx, [])
                for qa, opa in lst_a:
                    for qb, opb in lst_b:
                        bucket.append((qa * qb, cache.prod(opa, opb)))
        return out

    def materialize(self, idx: Index) -> LinearOp:
        """Exact sum of the linear combination at one multi-index."""
        lst = self.terms.get(idx)
        if not lst:
            return LinearOp.zero(self.cap)
        den = 1
        for q, op in lst:
            d = q.denominator * op.den
            den = den * d // math.gcd(den, d)
        cols = kernels.imat_comb([
            ((den // (q.denominator * op.den)) * q.numerator, op.cols)
            for q, op in lst
        ])
        tcols = frozenset().union(*(op.trunc_cols for _, op in lst))
        return LinearOp._sparse(cols, den, self.cap, tcols)

    def indices(self) -> list[Index]:
        return sorted(self.terms, key=lambda idx: (sum(idx), idx))

    def _check(self, other: "FormalOpSeries") -> None:
        if (
            self.params != other.params
            or self.order != other.order
            or self.cap != other.cap
        ):
            raise CapMismatchError("mixed series shapes")


def series_first_difference(
    a: FormalOpSeries, b: FormalOpSeries, columns: Iterable[int]
) -> tuple[Index | None, bool]:
    """(first multi-index, ordered by total order and then
    lexicographically, where the materialized coefficients differ on
    the given columns, or None; tainted), the taint gathered by
    ``LinearOp.compare_on_columns`` over the coefficients compared."""
    a._check(b)
    cols = list(columns)
    keys = sorted(set(a.terms) | set(b.terms), key=lambda idx: (sum(idx), idx))
    tainted = False
    for idx in keys:
        bad, marked = a.materialize(idx).compare_on_columns(b.materialize(idx), cols)
        tainted = tainted or marked
        if bad is not None:
            return idx, tainted
    return None, tainted
