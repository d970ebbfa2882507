"""Formal power series in named parameters with operator coefficients.

The Weyl-algebra identities verified in ``umbra.heisenberg`` (group
law, commutation relation) involve exponentials of raising operators,
which do not exist as exact matrices on a capped space.  They do exist
order by order: both sides of each identity are formal series in the
group parameters, whose coefficients ``umbra.heisenberg`` writes in
closed form, and coefficient operators are compared multi-index by
multi-index.

Exactness bookkeeping: a coefficient operator built from words of
length <= M (the series order) moves basis degrees by at most M, so on
a space capped at n_max every column with basis index <= n_max - M is
computed exactly, truncation notwithstanding.  The checks compare on
the output indices up to D = n_max - M, the exact columns.  An
identity is compared as one series, the difference of its two sides,
whose coefficients are summed on those certified columns only: a word
whose coefficients agree on both sides has numerator 0 there and costs
no arithmetic, though its truncation marks still count.

Each coefficient is a linear combination of ladder words.  A word is a
string over "L" (the lowering operator) and "R" (the raising one), read
in written order, so "LR" is L o R and the product of two words is
their concatenation.  One ``OpWordTable`` per model makes each word's
operator once, letter by letter; the coefficient operators are summed
from those on demand.

A series keeps its coefficients as integer numerators over one series
denominator, order! for the identities' differences, so building one
is plain integer arithmetic.  ``materialize`` reduces each numerator
against the denominator before it sums the word operators, so the
kernels see the multipliers a Fraction coefficient would give them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable

from .core import CapMismatchError, LinearOp, ZERO, outcome
from . import kernels

Index = tuple[int, ...]


class OpWordTable:
    """The operators of one model's ladder words, each made once.

    ``op(word)`` is ``op(word[:-1]) @ op(last letter)``, so no product
    has an identity operand, and column j of a word's operator is
    marked truncated when some path from j through the letters reaches
    a column that one of them marks.  That closure is never weaker than
    the marks of any other bracketing of the same product.
    """

    def __init__(self, lowering: LinearOp, raising: LinearOp):
        if lowering.cap != raising.cap:
            raise CapMismatchError("ladder operators at different caps")
        self.cap = lowering.cap
        self._ops = {"": LinearOp.identity(self.cap), "L": lowering, "R": raising}

    def op(self, word: str) -> LinearOp:
        """The operator of ``word``; the same object on every call."""
        hit = self._ops.get(word)
        if hit is None:
            hit = self.op(word[:-1]) @ self._ops[word[-1]]
            self._ops[word] = hit
        return hit

    # The two helpers below are boundaries that perfbench's tracer
    # names; it refuses to install when one of them is missing.

    def low_then_high_word(self, b: int, c: int) -> LinearOp:
        """L^b o R^c (apply the raisings first)."""
        return self.op("L" * b + "R" * c)

    def high_then_low_word(self, c: int, b: int) -> LinearOp:
        """R^c o L^b (apply the lowerings first)."""
        return self.op("R" * c + "L" * b)


class FormalOpSeries:
    """Truncated formal series sum_idx (coefficient operator) * prod
    params^idx.  Each coefficient is a {word: numerator} combination of
    the words of ``table``, on integer numerators over one series
    denominator ``den`` > 0; the coefficient of a word is its numerator
    over ``den``.  Coefficient operators are materialized on demand."""

    __slots__ = ("params", "order", "table", "terms", "den")

    def __init__(
        self, params: tuple[str, ...], order: int, table: OpWordTable, den: int = 1
    ):
        self.params = params
        self.order = order
        self.table = table
        self.den = den
        self.terms: dict[Index, dict[str, int]] = {}

    def add_numerator(self, idx: Index, n: int, word: str) -> None:
        """Add ``n`` / den times ``word`` at ``idx``; a word whose
        numerators sum to 0 stays, with its marks."""
        coef = self.terms.setdefault(idx, {})
        coef[word] = coef.get(word, 0) + n

    # A boundary that perfbench's tracer names; nothing in the package calls it.

    def mul(self, other: "FormalOpSeries") -> "FormalOpSeries":
        """Series product in the written order: a word of ``self``
        followed by a word of ``other``.  Each product word's operator
        is made here, where its cost belongs."""
        self._check(other)
        out = FormalOpSeries(self.params, self.order, self.table, self.den * other.den)
        op = self.table.op
        items_b = [(ib, sum(ib), coef_b) for ib, coef_b in other.terms.items()]
        for ia, coef_a in self.terms.items():
            room = self.order - sum(ia)
            for ib, tb, coef_b in items_b:
                if tb > room:
                    continue
                idx = tuple(map(operator.add, ia, ib))
                bucket = out.terms.setdefault(idx, {})
                for wa, na in coef_a.items():
                    for wb, nb in coef_b.items():
                        word = wa + wb
                        n = bucket.get(word)
                        if n is None:
                            op(word)
                            bucket[word] = na * nb
                        else:
                            bucket[word] = n + na * nb
        return out

    def materialize(self, idx: Index, columns: Iterable[int]) -> LinearOp:
        """Exact sum of the combination at one multi-index on
        ``columns``, over the words with a nonzero coefficient.  Every
        other column of the result is zero whatever the true sum holds
        there, so it is meant only for comparison on ``columns``; pass
        every column, ``range(cap + 1)``, for the whole sum.  Its marks
        are those of every word there, a word whose coefficients
        cancelled to 0 included."""
        cap = self.table.cap
        coef = self.terms.get(idx, {})
        words = [(n, self.table.op(word)) for word, n in coef.items()]
        tcols = frozenset().union(*(op.trunc_cols for _, op in words))
        # each coefficient n / den in lowest terms, as a Fraction has it
        ops = []
        for n, op in words:
            if n:
                g = math.gcd(n, self.den)
                ops.append((n // g, self.den // g * op.den, op))
        if not ops:
            return LinearOp([kernels.EMPTY] * (cap + 1), 1, cap, tcols)
        den = math.lcm(*(d for _, d, _ in ops))
        terms = [((den // d) * n, op.cols) for n, d, op in ops]
        js = sorted(set(columns))
        part = kernels.imat_comb([(c, [m[j] for j in js]) for c, m in terms])
        cols = [kernels.EMPTY] * (cap + 1)
        for j, col in zip(js, part):
            cols[j] = col
        return LinearOp(cols, den, cap, tcols)

    def indices(self) -> list[Index]:
        return sorted(self.terms, key=lambda idx: (sum(idx), idx))

    def _check(self, other: "FormalOpSeries") -> None:
        if (
            self.params != other.params
            or self.order != other.order
            or self.table is not other.table
        ):
            raise CapMismatchError("mixed series shapes")


def max_abs_entry(op: LinearOp, cols: Iterable[int]) -> Fraction:
    """Largest |entry| of ``op`` over the given columns."""
    return max(
        (abs(Fraction(x, op.den)) for j in cols for x in op.cols[j][1]),
        default=ZERO,
    )


def series_first_difference(
    diff: FormalOpSeries, columns: Iterable[int]
) -> tuple[Index | None, bool, Fraction]:
    """``core.outcome`` over the coefficients of ``diff``, in total order
    and then lexicographically, each summed on ``columns`` only and
    compared with zero there by ``LinearOp.compare_on_columns``: (first
    multi-index where ``diff`` is nonzero, or None; tainted; residual,
    the largest |entry| of that coefficient over ``columns``, else 0).

    ``diff`` is the difference of an identity's two sides.  A word on
    both sides keeps its marks in the difference even where its
    coefficients agree, so the taint is that of comparing the two sides;
    a coefficient whose words all cancel costs no kernel call."""
    cols = list(columns)
    zero = LinearOp.zero(diff.table.cap)
    found, tainted = outcome(
        ((idx, coef), bad is None, marked)
        for idx in diff.indices()
        for coef in (diff.materialize(idx, cols),)
        for bad, marked in (coef.compare_on_columns(zero, cols),)
    )
    idx, coef = found or (None, zero)
    return idx, tainted, max_abs_entry(coef, cols)
