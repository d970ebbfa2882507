"""Integer matrix kernels against naive references."""

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


def rand_mat(rng, n, m, bits):
    return [
        [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(m)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("bits", [8, 62, 200])
def test_imat_mul_matches_naive(bits):
    rng = random.Random(11 * bits)
    a = rand_mat(rng, 7, 5, bits)
    b = rand_mat(rng, 5, 9, bits)
    assert kernels.imat_mul(a, b) == naive_mul(a, b)


def test_vector_products():
    rng = random.Random(3)
    a = rand_mat(rng, 6, 6, 70)
    v = [rng.getrandbits(70) - (1 << 69) for _ in range(6)]
    col = kernels.imat_vec(a, v)
    row = kernels.ivec_mat(v, a)
    assert col == [sum(a[i][j] * v[j] for j in range(6)) for i in range(6)]
    assert row == [sum(v[i] * a[i][j] for i in range(6)) for j in range(6)]


def test_comb_div_gcd():
    rng = random.Random(5)
    a = rand_mat(rng, 4, 4, 64)
    b = rand_mat(rng, 4, 4, 64)
    comb = kernels.imat_comb(a, b, 3, -7)
    assert comb == [
        [3 * x - 7 * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    scaled = [[6 * x for x in row] for row in a]
    assert kernels.imat_div(scaled, 6) == a
    g = 0
    for row in scaled:
        for x in row:
            g = math.gcd(g, x)
    assert g % 6 == 0
    assert kernels.iseq_gcd(scaled, 12) == math.gcd(12, g)
    assert kernels.iseq_gcd(scaled, g) == g
    assert kernels.iseq_gcd([[0, 0]], 0) == 0
    assert kernels.iseq_gcd(a, 1) == 1

