"""Sparse integer matrix kernels.

A matrix is a sequence of columns.  Each column is a pair of tuples
(rows, values): the rows holding a nonzero entry, in increasing order,
and those entries as arbitrary-precision ints.  ``EMPTY`` is a zero
column, and an exact vector is one column over a denominator kept
beside it.  Two flat tuples cost two pointers per nonzero, against one
per entry of a dense matrix and about eight for a tuple per (row,
value) pair, so even the nearly dense ladder words of the factorial
models take little more memory than dense rows.  Every function returns
fresh columns in that form, sharing immutable tuples where it can, and
never mutates its arguments.  The one product loop is ``icol_mul``, a
matrix times one column: ``imat_mul`` runs it on each column of its
right operand, and a vector product calls it directly.  A product or
combination column with more than one contribution is summed in a dense
list, whose nonzeros ``icol`` reads off in row order: one list index
per multiply-add, and no sort.  ``icol_eq`` is the one equality rule.
A row vector is a column of the transpose (``imat_transpose``), so a
row times a matrix is ``icol_mul`` of the transposed matrix too.
"""

from __future__ import annotations

from itertools import compress
from math import gcd

#: A column: its nonzero rows, increasing, and their entries.
Column = tuple[tuple[int, ...], tuple[int, ...]]

EMPTY: Column = ((), ())


def _height(mats) -> int:
    """One past the largest row holding a nonzero in ``mats``."""
    return max((rows[-1] + 1 for m in mats for rows, _ in m if rows), default=0)


def icol(acc) -> Column:
    """The column of a dense list of ints: its nonzeros in row order."""
    return tuple(compress(range(len(acc)), acc)), tuple(filter(None, acc))


def icol_mul(a, col: Column, height: int | None = None) -> Column:
    """Product a @ col for one column: the combination of a's columns
    that ``col`` names, summed in a dense list ``height`` rows tall, or
    by default as tall as the columns it names.  A column with one
    entry, 1, names a's column itself, which comes back as it is."""
    rows, vals = col
    if not rows:
        return EMPTY
    if len(rows) == 1:
        col, x = a[rows[0]], vals[0]
        return col if x == 1 else (col[0], tuple([y * x for y in col[1]]))
    if height is None:
        height = max((a[k][0][-1] + 1 for k in rows if a[k][0]), default=0)
    acc = [0] * height
    for k, x in zip(rows, vals):
        arows, avals = a[k]
        for i, y in zip(arows, avals):
            acc[i] += y * x
    return icol(acc)


def icol_eq(a: Column, da: int, b: Column, db: int) -> bool:
    """Whether column a over the denominator da and column b over db are
    the same rational vector.  Both columns hold only nonzeros, so equal
    vectors have equal rows; over different denominators the numerators
    are compared cross-multiplied."""
    (ra, va), (rb, vb) = a, b
    return ra == rb and (va == vb if da == db
                         else all(x * db == y * da for x, y in zip(va, vb)))


def imat_mul(a, b):
    """Product a @ b, column by column (Gustavson 1978): ``icol_mul``
    of each column of b, every one summed in a list as tall as a."""
    n = _height([a])
    return [icol_mul(a, col, n) for col in b]


def imat_transpose(a, height: int):
    """The transpose of a, whose rows all lie below ``height``: its
    ``height`` columns, column i holding row i of a."""
    rows: list[list[int]] = [[] for _ in range(height)]
    vals: list[list[int]] = [[] for _ in range(height)]
    for j, (arows, avals) in enumerate(a):
        for i, x in zip(arows, avals):
            rows[i].append(j)
            vals[i].append(x)
    return [(tuple(r), tuple(v)) for r, v in zip(rows, vals)]


def imat_comb(terms):
    """Linear combination sum c * M over the (c, M) pairs in ``terms``,
    all matrices with the same number of columns, each column summed in
    a dense list as tall as the tallest of them."""
    n = _height([m for _, m in terms])
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
        out.append(icol(acc))
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
