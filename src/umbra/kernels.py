"""Integer matrix kernels.

Matrices are sequences of row sequences of arbitrary-precision ints.
Every function returns fresh lists and never mutates its arguments.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def imat_mul(a, b):
    """Product of integer matrices, (n x k) @ (k x m)."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def imat_vec(a, v):
    """Matrix times column vector."""
    return [sum(map(mul, row, v)) for row in a]


def ivec_mat(v, a):
    """Row vector times matrix."""
    return [sum(map(mul, v, col)) for col in zip(*a)]


def imat_comb(a, b, ca, cb):
    """Entrywise ca*a + cb*b."""
    return [
        [ca * x + cb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]


def imat_div(a, g):
    """Entrywise exact division by a positive int."""
    return [[x // g for x in row] for row in a]


def iseq_gcd(rows, seed):
    """gcd of ``seed`` and every matrix entry; early exit at 1."""
    g = abs(seed)
    for row in rows:
        for x in row:
            if x:
                g = gcd(g, x)
                if g == 1:
                    return 1
    return g
