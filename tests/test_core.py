"""Exact polynomial/operator layer: examples plus randomized properties.

The randomized cases deliberately use coefficients far past 64 bits so
the compiled kernel path is exercised on true bignum operands.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.core import (
    CapMismatchError,
    Functional,
    LinearOp,
    ParameterError,
    Poly,
    format_float,
    format_rational,
    parse_rational,
)

import reference as ref


def mono(k, cap, c=1):
    return Poly([0] * k + [c], cap)


def deriv_op(cap):
    return ref.op_from_columns(
        cap, lambda j: {j - 1: Fraction(j)} if j else {}
    )


def mult_t_op(cap):
    return ref.op_from_columns(
        cap,
        lambda j: {j + 1: Fraction(1)} if j < cap else {},
        trunc_cols=frozenset({cap}),
    )


# -- rationals ---------------------------------------------------------

def test_parse_format_round_trip():
    for text in ["0", "5", "-3", "7/2", "-22/7", "1000000000000000001/3"]:
        q = parse_rational(text)
        assert format_rational(q) == text
    assert parse_rational("4/2") == 2
    with pytest.raises(ParameterError):
        parse_rational("1/0")
    with pytest.raises(ParameterError):
        parse_rational("2.5")


@given(st.fractions())
def test_format_parse_inverse(q):
    assert parse_rational(format_rational(q)) == q


def test_a_float_keeps_its_g_text_only_when_that_reads_back():
    for x, text in [(0.25, "0.25"), (1.0, "1"), (4.0, "4"), (1e6, "1e+06"), (-1e-07, "-1e-07"),
                    (1000001.0, "1000001.0"), (0.9999999, "0.9999999"), (1 / 3, repr(1 / 3))]:
        assert format_float(x) == text


@given(st.floats(allow_nan=False))
def test_a_formatted_float_reads_back(x):
    assert float(format_float(x)) == x


# -- Poly --------------------------------------------------------------

def test_shift_substitute_binomial():
    f = mono(2, 8)
    assert f.shift(1) == Poly([1, 2, 1], 8)


def test_mul_at_cap_sets_flag():
    n = 6
    f = mono(n, n) * mono(1, n)
    assert f == Poly([], n)
    assert f.truncated


def test_add_halves():
    h = mono(2, 4, Fraction(1, 2))
    assert h + h == mono(2, 4)
    assert not (h + h).truncated


def test_poly_eval_and_derivative():
    f = Poly([3, 0, -6, 0, 1], 4)  # He_4
    assert f.eval(2) == ref.p_eval(ref.hermite_he(4), 2)
    assert list(f.derivative().coeffs)[:4] == ref.p_deriv(ref.hermite_he(4))


def test_cap_mismatch_rejected():
    with pytest.raises(CapMismatchError):
        mono(1, 4) + mono(1, 5)


coef = st.integers(min_value=-(10**25), max_value=10**25)
den = st.integers(min_value=1, max_value=10**12)
fracs = st.builds(Fraction, coef, den)


def polys(cap):
    return st.lists(fracs, min_size=0, max_size=cap + 1).map(
        lambda cs: Poly(cs, cap)
    )


@settings(max_examples=60, deadline=None)
@given(polys(6), polys(6), polys(6))
def test_poly_ring_axioms(f, g, h):
    cap = 6
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    lhs = f * (g + h)
    rhs = f * g + f * h
    assert lhs == rhs
    # shift is a ring homomorphism
    y = Fraction(3, 7)
    assert (f + g).shift(y) == f.shift(y) + g.shift(y)


@settings(max_examples=40, deadline=None)
@given(polys(5), st.fractions(), st.fractions())
def test_shift_composes(f, y1, y2):
    assert f.shift(y1).shift(y2) == f.shift(y1 + y2)


# -- LinearOp ----------------------------------------------------------

def test_apply_and_compose_examples():
    d = deriv_op(8)
    assert d.apply(mono(3, 8)) == mono(2, 8, 3)
    dd = d @ d
    assert dd.apply(mono(4, 8)) == mono(2, 8, 12)


def test_commutator_derivative_mult():
    cap = 8
    c = deriv_op(cap) @ mult_t_op(cap) - mult_t_op(cap) @ deriv_op(cap)
    ident = LinearOp.identity(cap)
    # [D, t] = I in exact arithmetic; the top column is polluted by the
    # cap, so compare on degrees <= cap-1 and expect the taint recorded.
    assert c.compare_on_columns(ident, range(cap)) == (None, False)
    assert cap in c.trunc_cols
    assert c.compare_on_columns(ident, range(cap + 1))[1]
    neg = mult_t_op(cap) @ deriv_op(cap) - deriv_op(cap) @ mult_t_op(cap)
    assert neg.compare_on_columns(ident.scale(-1), range(cap)) == (None, False)


def ops(cap):
    entry = fracs

    @st.composite
    def build(draw):
        cols = {}
        for j in range(cap + 1):
            col = {}
            for i in range(cap + 1):
                if draw(st.booleans()):
                    col[i] = draw(entry)
            cols[j] = col
        return ref.op_from_columns(cap, lambda j: cols[j])

    return build()


@settings(max_examples=25, deadline=None)
@given(ops(4), ops(4), ops(4))
def test_operator_algebra_axioms(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a + b) @ c == a @ c + b @ c
    assert a + b == b + a


@settings(max_examples=25, deadline=None)
@given(ops(4), polys(4))
def test_apply_respects_composition(a, f):
    # a is degree-free here (dense random), so stay honest: compare
    # apply-of-compose with compose-of-apply only when nothing truncates
    g = (a @ a).apply(f)
    h = a.apply(a.apply(f))
    if not (g.truncated or h.truncated):
        assert g == h


def test_trunc_cols_propagate_through_matmul():
    cap = 4
    t = mult_t_op(cap)
    # t@t can still move degree cap-1 past the cap: flag must widen
    assert cap in t.trunc_cols
    assert {cap - 1, cap} <= set((t @ t).trunc_cols)
    f = mono(cap, cap)
    assert t.apply(f).truncated
    assert not t.apply(mono(0, cap)).truncated


# -- Functional --------------------------------------------------------

def test_eval_at_zero_functional():
    l0 = Functional((1,), 5)
    assert l0.pair(mono(0, 5)) == 1
    assert l0.pair(mono(3, 5)) == 0
    shift = ref.op_from_columns(
        5, lambda j: {i: c for i, c in enumerate(ref.p_shift([0] * j + [1], 2)) if c}
    )
    shifted = l0.after(shift)
    f = mono(2, 5)
    assert shifted.pair(f) == f.eval(2)
