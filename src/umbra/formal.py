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
operator once, letter by letter, and reads a word's marks off the
letters' patterns without forming its operator.

A series keeps its coefficients as integer numerators over one series
denominator, order! for the identities' differences, so building one
is plain integer arithmetic.  ``sums`` adds up one coefficient on the
certified columns in one kernel call, each numerator reduced against
the denominator first, so the kernels see the multipliers a Fraction
coefficient would give them; the comparison reads zero off those sums
without forming an operator.  A caller may name coefficients that can
never be the first to fail (``series_first_difference``'s ``summed``):
those are not summed, and only their marks count.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable

from .core import CapMismatchError, LinearOp, outcome
from . import kernels

Index = tuple[int, ...]


class OpWordTable:
    """The operators of one model's ladder words, each made once.

    ``op(word)`` is ``op(word[:-1]) @ op(last letter)``, so no product
    has an identity operand, and column j of a word's operator is
    marked truncated when some path from j through the letters reaches
    a column that one of them marks.  That closure is never weaker than
    the marks of any other bracketing of the same product.  ``marks``
    reads the same closure off the letters' stored patterns, so a word
    whose sums are never needed costs no arithmetic.
    """

    def __init__(self, lowering: LinearOp, raising: LinearOp):
        if lowering.cap != raising.cap:
            raise CapMismatchError("ladder operators at different caps")
        self.cap = lowering.cap
        self._ops = {"": LinearOp.identity(self.cap), "L": lowering, "R": raising}
        self._marks: dict[str, frozenset[int]] = {"": frozenset()}

    def op(self, word: str) -> LinearOp:
        """The operator of ``word``; the same object on every call."""
        hit = self._ops.get(word)
        if hit is None:
            hit = self.op(word[:-1]) @ self._ops[word[-1]]
            self._ops[word] = hit
        return hit

    def marks(self, word: str) -> frozenset[int]:
        """``op(word).trunc_cols`` with no operator formed: the marks of
        the last letter x, and each column of x whose stored rows meet
        the marks of ``word[:-1]``, as ``LinearOp.__matmul__`` marks
        them; a fold over the letters' patterns, with no arithmetic."""
        hit = self._marks.get(word)
        if hit is None:
            x, rest = self._ops[word[-1]], self.marks(word[:-1])
            hit = self._marks[word] = x.trunc_cols.union(
                j for j, (rows, _) in enumerate(x.cols) if rest and not rest.isdisjoint(rows))
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
    over ``den``.  Coefficients are summed on demand."""

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
        if (self.params, self.order, self.table) != (other.params, other.order, other.table):
            raise CapMismatchError("mixed series shapes")
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

    def sums(self, idx: Index, cols: list[int]) -> tuple[list[kernels.Column], int]:
        """The coefficient at ``idx`` summed on ``cols`` alone, in one
        kernel call over the words with a nonzero numerator: (its
        columns, one for each of ``cols``, over their denominator).  A
        coefficient whose words all cancel is no columns, over 1, and
        costs no kernel call."""
        ops = []
        for word, n in self.terms.get(idx, {}).items():
            if n:
                op = self.table.op(word)
                # n / den in lowest terms, as a Fraction has it
                g = math.gcd(n, self.den)
                ops.append((n // g, self.den // g * op.den, op.cols))
        if not ops:
            return [], 1
        den = math.lcm(*(d for _, d, _ in ops))
        return kernels.imat_comb([((den // d) * n, [m[j] for j in cols]) for n, d, m in ops]), den

    def materialize(self, idx: Index, columns: Iterable[int]) -> LinearOp:
        """Exact sum of the combination at one multi-index on
        ``columns`` (``sums``).  Every other column of the result is
        zero whatever the true sum holds there, so it is meant only for
        comparison on ``columns``; pass every column, ``range(cap + 1)``,
        for the whole sum.  Its marks are those of every word there, a
        word whose coefficients cancelled to 0 included."""
        js = sorted(set(columns))
        part, den = self.sums(idx, js)
        cols = [kernels.EMPTY] * (self.table.cap + 1)
        for j, col in zip(js, part):
            cols[j] = col
        tcols = frozenset().union(*map(self.table.marks, self.terms.get(idx, ())))
        return LinearOp(cols, den, self.table.cap, tcols)


def series_first_difference(
    diff: FormalOpSeries,
    columns: Iterable[int],
    summed: Callable[[Index], bool] = lambda idx: True,
) -> tuple[Index | None, bool, Fraction]:
    """``core.outcome`` over the coefficients of ``diff``, the difference
    of an identity's two sides, in total order and then lexicographically,
    each summed on ``columns`` only (``FormalOpSeries.sums``) and compared
    with zero there, column by column in the order given: (first
    multi-index where ``diff`` is nonzero, or None; tainted; residual,
    the largest |entry| of that coefficient over ``columns``, else 0).
    A coefficient is marked when a compared column up to and including
    its first nonzero one is among its words' marks, cancelled words
    included, so the taint is that of comparing the two sides.  A
    coefficient that ``summed`` rejects, one the caller knows vanishes
    wherever an earlier one does, is not summed and holds: only its
    marks count, on every column."""
    cols, marks_of = list(columns), diff.table.marks
    found, tainted = outcome(
        ((idx, part, den), bad == len(cols), not marks.isdisjoint(cols[: bad + 1]))
        for idx in sorted(diff.terms, key=lambda i: (sum(i), i))
        for part, den in (diff.sums(idx, cols) if summed(idx) else ([], 1),)
        for bad in (next((k for k, (rows, _) in enumerate(part) if rows), len(cols)),)
        for marks in (frozenset().union(*map(marks_of, diff.terms[idx])),)
    )
    idx, part, den = found or (None, [], 1)
    return idx, tainted, Fraction(max((abs(x) for _, vals in part for x in vals), default=0), den)
