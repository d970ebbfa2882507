"""Differential tests: the sparse fraction-free LinearOp and Functional
against dense Fraction matrices from ``reference``."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.core import CapMismatchError, Functional, LinearOp, Poly

import reference as ref

ZERO = Fraction(0)

entries = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)


@st.composite
def grids(draw, cap):
    """Square (cap+1) grid, entries[row][col], mixing empty columns,
    all-zero grids, sparse and dense columns."""
    n = cap + 1
    grid = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        kind = draw(st.sampled_from(["empty", "sparse", "dense"]))
        for i in range(n):
            if kind == "dense" or (kind == "sparse" and draw(st.booleans())):
                grid[i][j] = draw(entries)
    return grid


@st.composite
def grid_pairs(draw):
    cap = draw(st.integers(0, 5))
    return cap, draw(grids(cap)), draw(grids(cap))


def vectors(cap):
    return st.lists(st.one_of(st.just(ZERO), entries), min_size=cap + 1, max_size=cap + 1)


def dense(op):
    return [[Fraction(x, op.den) for x in row] for row in op.num]


def two_ways(grid):
    """The same matrix built from its whole grid, column by column, and
    from its nonzero columns."""
    cap = len(grid) - 1
    cols = {j: {i: grid[i][j] for i in range(cap + 1) if grid[i][j]} for j in range(cap + 1)}
    return ref.op_from_grid(grid), ref.op_from_columns(cap, cols)


def assert_canonical(op):
    assert op.den > 0
    assert len(op.cols) == op.cap + 1
    g = op.den
    for rows, vals in op.cols:
        assert list(rows) == sorted(set(rows)) and all(0 <= i <= op.cap for i in rows)
        assert len(vals) == len(rows)
        for x in vals:
            assert x
            g = math.gcd(g, x)
    assert g == 1
    assert op.num == tuple(
        tuple(dict(zip(*op.cols[j])).get(i, 0) for j in range(op.cap + 1))
        for i in range(op.cap + 1)
    )


@settings(max_examples=80, deadline=None)
@given(grid_pairs(), entries)
def test_algebra_matches_dense_reference(pair, q):
    _, ga, gb = pair
    a, b = ref.op_from_grid(ga), ref.op_from_grid(gb)
    cases = [
        (a @ b, ref.m_mul(ga, gb)),
        (a + b, ref.m_add(ga, gb)),
        (a - b, ref.m_add(ga, ref.m_scale(gb, -1))),
        (a.scale(q), ref.m_scale(ga, q)),
        (a.scale(0), ref.m_scale(ga, 0)),
    ]
    for op, want in cases:
        assert_canonical(op)
        assert dense(op) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_vector_products_match_dense_reference(data):
    cap, ga, _ = data.draw(grid_pairs())
    a = ref.op_from_grid(ga)
    v = data.draw(vectors(cap))
    w = data.draw(vectors(cap))
    f = Poly(v, cap)
    assert list(a.apply(f).coeffs) == ref.m_vec(ga, v)
    l = Functional(w, cap)
    assert l.after(a).terms == tuple((j, q) for j, q in enumerate(ref.v_mat(w, ga)) if q)
    assert l.pair(f) == sum((x * y for x, y in zip(w, v)), ZERO)


@settings(max_examples=80, deadline=None)
@given(
    grid_pairs(), st.lists(st.integers(0, 5), max_size=6), st.sets(st.integers(0, 5)),
    st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)),
)
def test_compare_on_columns_finds_the_first_differing_column(pair, picks, shared, ma, mb):
    cap, ga, gb = pair
    # b copies a on the shared columns, so the two agree there even
    # when their denominators differ
    gb = [[ga[i][j] if j in shared else x for j, x in enumerate(row)] for i, row in enumerate(gb)]
    cols = [j for j in picks if j <= cap]
    want = next((j for j in cols if any(ga[i][j] != gb[i][j] for i in range(cap + 1))), None)
    # the taint covers the columns scanned, up to and including the first difference
    scanned = cols if want is None else cols[: cols.index(want) + 1]
    marks = {j for j in ma | mb if j <= cap}
    a = ref.op_from_grid(ga, frozenset(j for j in ma if j <= cap))
    b = ref.op_from_grid(gb, frozenset(j for j in mb if j <= cap))
    assert a.compare_on_columns(b, cols) == (want, any(j in marks for j in scanned))
    same = a.scale(3).scale(Fraction(1, 3))
    assert a.compare_on_columns(same, cols) == (None, any(j in a.trunc_cols for j in cols))


def test_compare_on_columns_across_denominators():
    x = ref.op_from_grid([[Fraction(1, 2), ZERO], [ZERO, Fraction(1)]])
    y = ref.op_from_grid([[Fraction(1, 3), ZERO], [ZERO, Fraction(1)]], frozenset({0}))
    assert (x.den, y.den) == (2, 3)
    assert x.compare_on_columns(y, [1]) == (None, False)
    assert x.compare_on_columns(y, [1, 0]) == (0, True)


def test_compare_on_columns_reads_rows_and_values_on_both_branches():
    one = LinearOp.identity(1)
    swap = ref.op_from_grid([[0, 1], [1, 0]])
    twice = ref.op_from_grid([[1, 0], [0, 2]])
    half = ref.op_from_grid([[Fraction(1, 2), 0], [0, 1]])
    assert half.den == 2
    # same numerators on other rows
    assert one.compare_on_columns(swap, [0, 1]) == (0, False)
    # one denominator, another numerator
    assert one.compare_on_columns(twice, [0, 1]) == (1, False)
    # two denominators: 1/1 == 2/2 on column 1, 1/1 != 1/2 on column 0
    assert one.compare_on_columns(half, [1, 0]) == (0, False)


def test_the_constructor_reduces_sign_and_content():
    op = LinearOp([((0,), (-4,)), ((1,), (6,))], -8, 1, {1})
    assert (op.cols, op.den, op.trunc_cols) == ((((0,), (2,)), ((1,), (-3,))), 4, {1})
    assert op == ref.op_from_grid([[Fraction(1, 2), 0], [0, Fraction(-3, 4)]])
    with pytest.raises(CapMismatchError):
        LinearOp(op.cols, op.den, 2)


@settings(max_examples=80, deadline=None)
@given(grid_pairs())
def test_equal_matrices_built_two_ways_are_equal(pair):
    cap, ga, _ = pair
    x, y = two_ways(ga)
    assert x == y
    # integer columns over a negative denominator with content 6
    den = -6 * math.lcm(*(q.denominator for row in ga for q in row))
    cols = []
    for j in range(cap + 1):
        rows = tuple(i for i in range(cap + 1) if ga[i][j])
        cols.append((rows, tuple(ga[i][j].numerator * (den // ga[i][j].denominator) for i in rows)))
    z = LinearOp(cols, den, cap)
    assert z == x
    assert dense(x) == ga
    l1 = Functional(ga[0], cap)
    l2 = l1.after(LinearOp.identity(cap))
    assert l1 == l2


@settings(max_examples=80, deadline=None)
@given(grid_pairs(), st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
def test_trunc_cols_through_matmul_follow_the_dense_rule(pair, ta, tb):
    cap, ga, gb = pair
    ta = frozenset(j for j in ta if j <= cap)
    tb = frozenset(j for j in tb if j <= cap)
    a = ref.op_from_grid(ga, ta)
    b = ref.op_from_grid(gb, tb)
    # dense statement of the rule: a column of the product is tainted
    # when it was in b, or when b's column reaches a row that a marks
    want = set(tb)
    for j in range(cap + 1):
        if any(gb[i][j] for i in ta):
            want.add(j)
    assert (a @ b).trunc_cols == want
