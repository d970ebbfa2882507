"""Sparse integer matrix kernels against naive dense references."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbra import kernels

import reference as ref


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


BIG = st.integers(-(1 << 200), 1 << 200).filter(bool)
SIZE = st.integers(1, 8)


@st.composite
def sparse_cols(draw, nrows, ncols):
    """``ncols`` canonical columns over rows 0..nrows-1 with mixed-sign
    entries of up to 200 bits; a column may be empty or hold a single
    nonzero."""
    cols = []
    for _ in range(ncols):
        rows = tuple(sorted(draw(st.sets(st.integers(0, nrows - 1), max_size=nrows))))
        cols.append((rows, tuple(draw(st.lists(BIG, min_size=len(rows), max_size=len(rows))))))
    return cols


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_imat_mul_matches_the_dict_accumulator(data):
    nrows, inner, ncols = data.draw(SIZE), data.draw(SIZE), data.draw(SIZE)
    a = data.draw(sparse_cols(nrows, inner))
    b = data.draw(sparse_cols(inner, ncols))
    if data.draw(st.booleans()):
        # a's column 0 again, and a column of b taking the difference
        # of the two: that product column cancels to empty
        x = data.draw(BIG)
        a, b = a + [a[0]], b + [((0, inner), (x, -x))]
    out = kernels.imat_mul(a, b)
    assert_canonical(out)
    assert out == ref.sparse_mul(a, b)
    if len(b) > ncols:
        assert out[-1] == kernels.EMPTY


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_imat_comb_matches_the_dict_accumulator(data):
    ncols = data.draw(SIZE)
    mats = [data.draw(sparse_cols(data.draw(SIZE), ncols)) for _ in range(data.draw(st.integers(1, 4)))]
    coefs = [data.draw(BIG | st.just(0)) for _ in mats]
    terms = list(zip(coefs, mats))
    if data.draw(st.booleans()):
        terms.append((-coefs[0], mats[0]))
    out = kernels.imat_comb(terms)
    assert_canonical(out)
    assert out == ref.sparse_comb(terms)
    c = data.draw(BIG)
    assert kernels.imat_comb([(c, mats[0]), (-c, mats[0])]) == [kernels.EMPTY] * ncols


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_icol_mul_matches_the_dict_accumulator(data):
    """One column through the one-column product, sized from the columns
    it names or at a given height, on a rectangular a; the column holds
    one row, names only empty columns of a, cancels to empty, or is
    drawn at random."""
    inner = data.draw(SIZE)
    nrows = data.draw(SIZE.filter(lambda n: n != inner))
    a = data.draw(sparse_cols(nrows, inner))
    col = data.draw(sparse_cols(inner, 1))[0]
    case = data.draw(st.sampled_from(("random", "one row", "empty columns", "cancels")))
    if case == "one row":
        col = ((data.draw(st.integers(0, inner - 1)),), (data.draw(BIG),))
    elif case == "empty columns":
        a = [kernels.EMPTY if k in col[0] else c for k, c in enumerate(a)]
    elif case == "cancels":
        # a's column 0 again, and the column taking the difference of the two
        x = data.draw(BIG)
        a, col = a + [a[0]], ((0, inner), (x, -x))
    want = ref.sparse_mul(a, [col])[0]
    assert kernels.icol_mul(a, col) == want
    assert kernels.icol_mul(a, col, nrows) == want
    assert_canonical([want])
    if case in ("empty columns", "cancels"):
        assert want == kernels.EMPTY


def test_icol_reads_the_nonzeros_of_a_dense_list():
    assert kernels.icol([0, 3, 0, -1, 0]) == ((1, 3), (3, -1))
    assert kernels.icol([0, 0]) == kernels.EMPTY
    assert kernels.icol([]) == kernels.EMPTY


def _rational(col, den):
    rows, vals = col
    return {i: Fraction(x, den) for i, x in zip(rows, vals)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_icol_eq_is_equality_of_the_rational_vectors(data):
    """b is a scaled by k/k (k = 1: the same denominator), then maybe
    given another value or row, or drawn afresh."""
    n = data.draw(SIZE)
    a = data.draw(sparse_cols(n, 1))[0]
    da, k = data.draw(st.integers(1, 1 << 70)), data.draw(st.integers(1, 4))
    b, db = (a[0], tuple(k * x for x in a[1])), k * da
    how = data.draw(st.sampled_from(("same", "value", "row", "fresh")))
    if how == "value" and b[0]:
        b = (b[0], (b[1][0] + (1 if b[1][0] != -1 else 2),) + b[1][1:])
    elif how == "row" and b[0]:
        b = (b[0][:-1] + (b[0][-1] + 1,), b[1])
    elif how == "fresh":
        b, db = data.draw(sparse_cols(n, 1))[0], data.draw(st.sampled_from((da, 2 * da, 3)))
    assert kernels.icol_eq(a, da, b, db) == (_rational(a, da) == _rational(b, db))


def test_icol_eq_cross_multiplies_over_two_denominators():
    half = ((0, 2), (1, 3))
    assert kernels.icol_eq(half, 2, ((0, 2), (2, 6)), 4)
    assert not kernels.icol_eq(half, 2, half, 3)
    assert not kernels.icol_eq(half, 2, ((0, 1), (1, 3)), 2)
    assert not kernels.icol_eq(half, 2, ((0, 2), (1, 4)), 2)
    assert kernels.icol_eq(kernels.EMPTY, 2, kernels.EMPTY, 5)


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
