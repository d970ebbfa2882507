"""Sparse integer matrix kernels.

A matrix is a sequence of columns.  Each column is a pair of tuples
(rows, values): the rows holding a nonzero entry, in increasing order,
and those entries as arbitrary-precision ints.  ``EMPTY`` is a zero
column.  Two flat tuples cost two pointers per nonzero, against one per
entry of a dense matrix and about eight for a tuple per (row, value)
pair, so even the nearly dense ladder words of the factorial models
take little more memory than dense rows.  Every function returns
fresh columns in that form, sharing immutable tuples where it can, and
never mutates its arguments.
"""

from __future__ import annotations

from math import gcd

EMPTY: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _column(acc: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows = tuple(sorted(i for i, v in acc.items() if v))
    return rows, tuple(acc[i] for i in rows)


def imat_mul(a, b):
    """Product a @ b, column by column (Gustavson 1978): column j of
    the product is the combination of a's columns that b's column j
    names."""
    out = []
    for rows, vals in b:
        if len(rows) == 1:
            arows, avals = a[rows[0]]
            x = vals[0]
            out.append((arows, tuple(y * x for y in avals)))
            continue
        acc: dict[int, int] = {}
        for k, x in zip(rows, vals):
            arows, avals = a[k]
            for i, y in zip(arows, avals):
                acc[i] = acc.get(i, 0) + y * x
        out.append(_column(acc))
    return out


def imat_comb(terms):
    """Linear combination sum c * M over the (c, M) pairs in ``terms``,
    all matrices with the same number of columns."""
    out = []
    for j in range(len(terms[0][1])):
        parts = [(c, m[j]) for c, m in terms if c and m[j][0]]
        if len(parts) == 1:
            c, (rows, vals) = parts[0]
            out.append((rows, vals if c == 1 else tuple(c * x for x in vals)))
            continue
        acc: dict[int, int] = {}
        for c, (rows, vals) in parts:
            for i, x in zip(rows, vals):
                acc[i] = acc.get(i, 0) + c * x
        out.append(_column(acc))
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
