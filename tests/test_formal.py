"""Formal power series with operator coefficients: the bookkeeping."""

from fractions import Fraction

from umbra.core import LinearOp
from umbra.formal import (
    FormalOpSeries,
    MultiPoly,
    OpWordTable,
    _ProductCache,
    series_first_difference,
)


def deriv_op(cap):
    return LinearOp.from_columns(
        cap, lambda j: {j - 1: Fraction(j)} if j else {}
    )


def mult_t_op(cap):
    return LinearOp.from_columns(
        cap,
        lambda j: {j + 1: Fraction(1)} if j < cap else {},
        trunc_cols=frozenset({cap}),
    )


# -- MultiPoly ---------------------------------------------------------

def test_multipoly_binomial_cube():
    x = MultiPoly.variable(2, 6, 0)
    y = MultiPoly.variable(2, 6, 1)
    s = x + y
    cube = s * s * s
    assert cube.terms == {
        (3, 0): Fraction(1),
        (2, 1): Fraction(3),
        (1, 2): Fraction(3),
        (0, 3): Fraction(1),
    }


def test_multipoly_truncates_at_total_order():
    x = MultiPoly.variable(1, 2, 0)
    cube = x * x * x
    assert cube.terms == {}
    sq = x * x
    assert sq.terms == {(2,): Fraction(1)}


def test_multipoly_scale_drops_zero():
    x = MultiPoly.variable(1, 3, 0)
    z = x.scale(0)
    assert z.terms == {}
    assert x.scale(Fraction(2, 3)).terms == {(1,): Fraction(2, 3)}


def test_multipoly_constant_and_add():
    c = MultiPoly.constant(2, 4, Fraction(5, 2))
    d = MultiPoly.constant(2, 4, Fraction(-5, 2))
    assert (c + d).terms == {}


# -- operator word table -----------------------------------------------

def test_word_table_words_are_products():
    cap = 7
    lo, hi = deriv_op(cap), mult_t_op(cap)
    table = OpWordTable(lo, hi, 3)
    assert table.low_then_high_word(0, 0) == LinearOp.identity(cap)
    assert table.low_then_high_word(1, 0) == lo
    assert table.low_then_high_word(0, 2) == hi @ hi
    assert table.low_then_high_word(2, 1) == (lo @ lo) @ hi
    assert table.high_then_low_word(1, 2) == hi @ (lo @ lo)


def test_product_cache_memoizes_by_identity():
    cap = 4
    cache = _ProductCache()
    a, b = deriv_op(cap), mult_t_op(cap)
    first = cache.prod(a, b)
    second = cache.prod(a, b)
    assert first is second
    assert first == a @ b


# -- series arithmetic -------------------------------------------------

def test_series_mul_convolves_indices():
    cap = 6
    lo = deriv_op(cap)
    cache = _ProductCache()
    s = FormalOpSeries(("x",), 4, cap)
    s.add_term((0,), Fraction(1), LinearOp.identity(cap))
    s.add_term((1,), Fraction(1), lo)
    prod = s.mul(s, cache)
    assert prod.materialize((0,)) == LinearOp.identity(cap)
    assert prod.materialize((1,)) == lo.scale(2)
    assert prod.materialize((2,)) == lo @ lo


def test_series_linear_combination_materializes_exactly():
    cap = 5
    s = FormalOpSeries(("x",), 2, cap)
    s.add_term((1,), Fraction(1, 3), deriv_op(cap))
    s.add_term((1,), Fraction(1, 6), deriv_op(cap))
    assert s.materialize((1,)) == deriv_op(cap).scale(Fraction(1, 2))
    assert s.materialize((2,)) == LinearOp.zero(cap)


def test_series_drops_zero_and_overflow_terms():
    cap = 4
    s = FormalOpSeries(("x", "y"), 2, cap)
    s.add_term((1, 2), Fraction(1), deriv_op(cap))  # total order 3 > 2
    s.add_term((1, 0), Fraction(0), deriv_op(cap))
    assert s.indices() == []


def test_series_first_difference_locates_mismatch():
    cap = 5
    a = FormalOpSeries(("x",), 3, cap)
    b = FormalOpSeries(("x",), 3, cap)
    ident = LinearOp.identity(cap)
    a.add_term((0,), Fraction(1), ident)
    b.add_term((0,), Fraction(1), ident)
    a.add_term((2,), Fraction(1), deriv_op(cap))
    b.add_term((2,), Fraction(1), deriv_op(cap).scale(2))
    cols = list(range(cap + 1))
    assert series_first_difference(a, b, cols) == ((2,), False)
    assert series_first_difference(a, a, cols) == (None, False)
    # a mark on a compared column of either side taints the comparison
    marked = LinearOp.from_columns(cap, {}, trunc_cols=frozenset({4}))
    a.add_term((1,), Fraction(1), marked)
    b.add_term((1,), Fraction(1), marked)
    assert series_first_difference(a, a, cols) == (None, True)
    assert series_first_difference(a, b, cols[:4]) == ((2,), False)
