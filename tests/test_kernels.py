"""Sparse integer matrix kernels against naive dense references."""

import math
import random

import pytest

from umbra import kernels


def naive_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0
            for r in range(k):
                s += a[i][r] * b[r][j]
            out[i][j] = s
    return out


def rand_mat(rng, n, m, bits, density=0.5):
    return [
        [
            rng.getrandbits(bits) - (1 << (bits - 1)) if rng.random() < density else 0
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def to_cols(a):
    """Dense rows -> sparse (rows, values) columns."""
    out = []
    for j in range(len(a[0])):
        rows = tuple(i for i, row in enumerate(a) if row[j])
        out.append((rows, tuple(a[i][j] for i in rows)))
    return out


def to_dense(cols, nrows):
    out = [[0] * len(cols) for _ in range(nrows)]
    for j, (rows, vals) in enumerate(cols):
        for i, x in zip(rows, vals):
            out[i][j] = x
    return out


def assert_canonical(cols):
    for rows, vals in cols:
        assert list(rows) == sorted(set(rows))
        assert len(vals) == len(rows) and all(vals)


@pytest.mark.parametrize("bits", [8, 62, 200])
def test_imat_mul_matches_naive(bits):
    rng = random.Random(11 * bits)
    a = rand_mat(rng, 7, 5, bits)
    b = rand_mat(rng, 5, 9, bits)
    b[1] = [0] * 9  # a zero row of b: every product term through a's column 1 drops
    for r in b:
        r[4] = 0  # and an empty column
    out = kernels.imat_mul(to_cols(a), to_cols(b))
    assert_canonical(out)
    assert out[4] == kernels.EMPTY
    assert to_dense(out, 7) == naive_mul(a, b)


def test_imat_mul_drops_cancelled_entries():
    a = to_cols([[1, 1], [0, 0]])
    b = to_cols([[1], [-1]])
    assert kernels.imat_mul(a, b) == [kernels.EMPTY]


def test_comb_matches_dense():
    rng = random.Random(5)
    mats = [rand_mat(rng, 4, 6, 64) for _ in range(3)]
    coefs = [3, -7, 0]
    comb = kernels.imat_comb([(c, to_cols(m)) for c, m in zip(coefs, mats)])
    assert_canonical(comb)
    assert to_dense(comb, 4) == [
        [sum(c * m[i][j] for c, m in zip(coefs, mats)) for j in range(6)]
        for i in range(4)
    ]
    a = to_cols(mats[0])
    assert kernels.imat_comb([(1, a), (-1, a)]) == [kernels.EMPTY] * 6
    assert kernels.imat_comb([(1, a)]) == a


def test_gcd_reads_nonzeros():
    rng = random.Random(5)
    a = rand_mat(rng, 4, 4, 64)
    scaled = to_cols([[6 * x for x in row] for row in a])
    g = 0
    for _, vals in scaled:
        for x in vals:
            g = math.gcd(g, x)
    assert g % 6 == 0
    assert kernels.iseq_gcd(scaled, 12) == math.gcd(12, g)
    assert kernels.iseq_gcd(scaled, g) == g
    assert kernels.iseq_gcd([kernels.EMPTY] * 2, 0) == 0
    assert kernels.iseq_gcd([kernels.EMPTY] * 2, -8) == 8
    assert kernels.iseq_gcd(to_cols(a), 1) == 1
