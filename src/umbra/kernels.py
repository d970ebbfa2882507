"""Sparse integer matrix kernels.

A matrix is a sequence of columns.  Each column is a pair of tuples
(rows, values): the rows holding a nonzero entry, in increasing order,
and those entries as arbitrary-precision ints.  ``EMPTY`` is a zero
column.  Two flat tuples cost two pointers per nonzero, against one per
entry of a dense matrix and about eight for a tuple per (row, value)
pair, so even the nearly dense ladder words of the factorial models
take little more memory than dense rows.  Every function returns
fresh columns in that form, sharing immutable tuples where it can, and
never mutates its arguments.  A product or combination column with
more than one contribution is summed in a dense list as tall as its
operands, whose nonzeros are then read off in row order: one list
index per multiply-add, and no sort.
"""

from __future__ import annotations

from itertools import compress
from math import gcd

EMPTY: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _height(mats) -> int:
    """One past the largest row holding a nonzero in ``mats``."""
    return max((rows[-1] + 1 for m in mats for rows, _ in m if rows), default=0)


def imat_mul(a, b):
    """Product a @ b, column by column (Gustavson 1978): column j of
    the product is the combination of a's columns that b's column j
    names, summed in a dense list as tall as a."""
    n = _height([a])
    at = range(n)
    out = []
    for rows, vals in b:
        if len(rows) == 1:
            arows, avals = a[rows[0]]
            x = vals[0]
            out.append((arows, tuple(y * x for y in avals)))
            continue
        acc = [0] * n
        for k, x in zip(rows, vals):
            arows, avals = a[k]
            for i, y in zip(arows, avals):
                acc[i] += y * x
        out.append((tuple(compress(at, acc)), tuple(filter(None, acc))))
    return out


def imat_comb(terms):
    """Linear combination sum c * M over the (c, M) pairs in ``terms``,
    all matrices with the same number of columns, each column summed in
    a dense list as tall as the tallest of them."""
    n = _height([m for _, m in terms])
    at = range(n)
    out = []
    for j in range(len(terms[0][1])):
        parts = [(c, m[j]) for c, m in terms if c and m[j][0]]
        if len(parts) == 1:
            c, (rows, vals) = parts[0]
            out.append((rows, vals if c == 1 else tuple(c * x for x in vals)))
            continue
        acc = [0] * n
        for c, (rows, vals) in parts:
            for i, x in zip(rows, vals):
                acc[i] += c * x
        out.append((tuple(compress(at, acc)), tuple(filter(None, acc))))
    return out


def iseq_gcd(cols, seed):
    """gcd of ``seed`` and every nonzero entry; early exit at 1."""
    g = abs(seed)
    for _, vals in cols:
        for x in vals:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g
