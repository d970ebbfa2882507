"""Binomial identities, generalized translation, eigenfunction checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import heisenberg, transforms
from umbra.core import ParameterError, Poly
from umbra.models import build_model
from umbra.reports import PASS
from umbra.translations import (
    binomial_check,
    character_check,
    delsarte_eigen_check,
    first_difference,
    generalized_translate,
)

import reference as ref


# -- the binomial identity, first against pure reference arithmetic ----

def classical_basis(name, n):
    if name == "monomial":
        return ref.p_scale([Fraction(0)] * n + [Fraction(1)], Fraction(1, ref.factorial(n)))
    if name == "lower-factorial":
        return ref.p_scale(ref.falling_factorial(n), Fraction(1, ref.factorial(n)))
    return ref.p_scale(ref.rising_factorial(n), Fraction(1, ref.factorial(n)))


@pytest.mark.parametrize("name", ["monomial", "lower-factorial", "upper-factorial"])
def test_binomial_identity_reference_arithmetic(name):
    # p_n(t+y) = sum_k p_k(y) p_{n-k}(t), spot-checked at rational y
    for n in range(6):
        pn = classical_basis(name, n)
        for y in (1, 2, Fraction(-1, 2), Fraction(3, 7)):
            lhs = ref.p_shift(pn, y)
            rhs = [Fraction(0)]
            for k in range(n + 1):
                rhs = ref.p_add(
                    rhs,
                    ref.p_scale(
                        classical_basis(name, n - k),
                        ref.p_eval(classical_basis(name, k), y),
                    ),
                )
            assert ref.p_trim(lhs) == ref.p_trim(rhs), (name, n, y)


@pytest.mark.parametrize("name", ["monomial", "lower-factorial", "upper-factorial"])
def test_binomial_check_passes(name):
    m = build_model(name, 8)
    for n in range(9):
        assert binomial_check(m, n).status == PASS, (name, n)


def test_binomial_check_refuses_hermite():
    with pytest.raises(ParameterError, match="not binomial type"):
        binomial_check(build_model("hermite", 6), 2)


def test_binomial_check_refuses_heat():
    with pytest.raises(ParameterError, match="not binomial type"):
        binomial_check(build_model("heat", 4), 2)


# -- generalized translation -------------------------------------------

def test_translate_is_shift_for_monomials():
    m = build_model("monomial", 8)
    f = Poly([0, 0, 1], 8)
    assert generalized_translate(m, 1, f) == Poly([1, 2, 1], 8)


def test_translate_matches_shift_on_binomial_models():
    for name in ("monomial", "lower-factorial", "upper-factorial"):
        m = build_model(name, 8)
        f = Poly([3, 0, Fraction(5, 2), 1, 0, Fraction(-1, 6)], 8)
        for y in (2, Fraction(-1, 3), Fraction(7, 5)):
            assert generalized_translate(m, y, f) == f.shift(y), (name, y)


def test_translate_zero_step():
    for name, nu in (("monomial", None), ("heat", None), ("bessel", Fraction(5, 2))):
        n = 4 if nu or name == "heat" else 8
        m = build_model(name, n, nu=nu)
        p0, _, p2 = ref.basis(m)[:3]
        f = p2.scale(3) + p0
        assert generalized_translate(m, 0, f) == f, name


def test_heat_translation_is_symmetrized_shift():
    # sum_k y^(2k)/(2k)! d^(2k) = cosh(y d/dt): averages the two shifts
    m = build_model("heat", 6)
    for k in (1, 2, 3):
        f = Poly([0] * (2 * k) + [1], m.degree_cap)
        for y in (1, Fraction(1, 2), Fraction(-3, 2)):
            out = generalized_translate(m, y, f)
            want = (f.shift(y) + f.shift(-y)).scale(Fraction(1, 2))
            assert out == want, (k, y)


def test_heat_double_translation_averages_four_shifts():
    m = build_model("heat", 6)
    y1, y2 = Fraction(1, 2), Fraction(2, 3)
    for k in range(1, 6):
        f = Poly([0] * (2 * k) + [1], m.degree_cap)
        two_step = generalized_translate(m, y1, generalized_translate(m, y2, f))
        quarters = [
            f.shift(s1 * y1 + s2 * y2) for s1 in (1, -1) for s2 in (1, -1)
        ]
        want = (
            quarters[0] + quarters[1] + quarters[2] + quarters[3]
        ).scale(Fraction(1, 4))
        assert two_step == want, k
        flipped = generalized_translate(m, y2, generalized_translate(m, y1, f))
        assert flipped == two_step, k


RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["monomial", "lower-factorial", "upper-factorial"]), st.integers(1, 16), st.data())
def test_translations_on_binomial_models_compose_as_a_group(name, degree, data):
    """T^y T^z f = T^(y+z) f, exactly and unflagged, at rational y, z."""
    m = build_model(name, degree)
    f = Poly(data.draw(st.lists(RATIONAL, max_size=degree + 1)), degree)
    y, z = data.draw(RATIONAL), data.draw(RATIONAL)
    two_step = generalized_translate(m, y, generalized_translate(m, z, f))
    one_step = generalized_translate(m, y + z, f)
    assert two_step == one_step
    assert not two_step.truncated and not one_step.truncated


#: Catalog settings, with two Bessel parameters whose lowering keeps a
#: denominator (L.den = 3 at nu = 1/3, 2 at nu = 3/4; 1 at nu = 5/2).
DEN_MODELS = (
    ("monomial", None), ("lower-factorial", None), ("upper-factorial", None), ("hermite", None),
    ("heat", None), ("bessel", Fraction(5, 2)), ("bessel", Fraction(1, 3)), ("bessel", Fraction(3, 4)),
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DEN_MODELS), st.integers(1, 12), st.data())
def test_catalog_translations_agree_with_the_poly_loop(model, degree, data):
    """generalized_translate on integer columns gives the coefficients
    and flag of the ``Poly`` loop it replaced, inside each model's space
    and at rational y."""
    m = build_model(model[0], degree, model[1])
    step = 2 if m.degree_of_index(1) == 2 else 1
    values = data.draw(st.lists(RATIONAL, max_size=degree + 1))
    cs = [Fraction(0)] * (m.degree_cap + 1)
    for n, c in enumerate(values):
        cs[step * n] = c
    f, y = Poly(cs, m.degree_cap), data.draw(RATIONAL)
    got, want = generalized_translate(m, y, f), ref.translate_by_poly(m, y, f)
    assert (got.coeffs, got.truncated) == (want.coeffs, want.truncated)


def test_a_translation_over_a_lowering_denominator_matches_the_poly_loop():
    """At nu = 1/3 the Bessel lowering has L.den = 3, so the terms of the
    translation need their L.den^(s-k) rescale.  The property test above
    reaches such a model only on some of its draws; this case always
    does."""
    m = build_model("bessel", 6, Fraction(1, 3))
    f = Poly([Fraction(c) for c in (1, 0, -2, 0, Fraction(3, 4), 0, 5)], m.degree_cap)
    y = Fraction(-3, 2)
    got, want = generalized_translate(m, y, f), ref.translate_by_poly(m, y, f)
    assert (got.coeffs, got.truncated) == (want.coeffs, want.truncated)


def test_the_bessel_lowering_keeps_a_denominator_at_nu_one_third():
    """The catalog settings above reach L.den > 1 (so the duals' rescale
    and the translation's common denominator are exercised)."""
    dens = {nu: build_model("bessel", 6, nu).lowering.den for nu in (Fraction(5, 2), Fraction(1, 3), Fraction(3, 4))}
    assert dens == {Fraction(5, 2): 1, Fraction(1, 3): 3, Fraction(3, 4): 2}


def test_hermite_translations_do_not_compose():
    """Hermite is shift-invariant, but Appell with s = 1 is not of
    binomial type: T^y = e^(-D^2/2) e^(yD), so T^1 T^1 = e^(-D^2/2) T^2."""
    m = build_model("hermite", 12)
    f = Poly([0, 0, 1], 12)
    assert generalized_translate(m, 1, generalized_translate(m, 1, f)) == Poly([2, 4, 1], 12)
    assert generalized_translate(m, 2, f) == Poly([3, 4, 1], 12)


def test_bessel_translation_of_basis_element():
    # T^y q_n = sum_k q_k(y) q_{n-k}(t) evaluated through the package,
    # cross-checked against the reference constants
    nu = Fraction(5, 2)
    m = build_model("bessel", 4, nu=nu)
    y = Fraction(1, 2)
    ps = ref.basis(m)
    out = generalized_translate(m, y, ps[2])
    want = Poly([], m.degree_cap)
    for k in range(3):
        qk_at_y = y ** (2 * k) / ref.bessel_c(nu, k)
        want = want + ps[2 - k].scale(qk_at_y)
    assert out == want


# -- exponential characters --------------------------------------------

@pytest.mark.parametrize(
    "name,nu", [("monomial", None), ("heat", None), ("bessel", 2)]
)
def test_character_check_passes(name, nu):
    n = 8 if nu is None and name == "monomial" else 6
    m = build_model(name, n, nu=nu)
    assert character_check(m, 6).status == PASS


def test_character_check_all_models_small_order():
    for name in ("lower-factorial", "upper-factorial", "hermite"):
        m = build_model(name, 6)
        assert character_check(m, 4).status == PASS, name


# -- vacuum eigenfunction property -------------------------------------

def test_delsarte_bessel_and_heat():
    assert delsarte_eigen_check(build_model("bessel", 10, nu=Fraction(5, 2)), 10).status == PASS
    assert delsarte_eigen_check(build_model("heat", 10), 10).status == PASS


def test_delsarte_refuses_hermite():
    with pytest.raises(ParameterError):
        delsarte_eigen_check(build_model("hermite", 6), 4)


@pytest.mark.parametrize("check", [
    heisenberg.group_law_check,
    heisenberg.weyl_relation_check,
    heisenberg.composition_check_formal,
    character_check,
    delsarte_eigen_check,
    transforms.generating_function,
], ids=["group-law", "weyl", "composition", "character", "delsarte", "genfun"])
def test_negative_order_is_rejected(check):
    m = build_model("monomial", 8)
    with pytest.raises(ParameterError, match="order must be >= 0"):
        check(m, -1)


cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
tables = st.dictionaries(cells, st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(tables, tables)
def test_first_difference_is_the_row_major_first(ta, tb):
    def terms(table):
        # each cell q t^i y^j as the product of q t^i and y^j in integer form
        return [((((i, q.numerator),), q.denominator), (((j, 1),), 1)) for (i, j), q in table.items()]

    want = next(
        ((i, j) for i in range(4) for j in range(4) if ta.get((i, j), 0) != tb.get((i, j), 0)),
        None,
    )
    got = first_difference(terms(ta), terms(tb))
    assert got == want
    nonzero = [{k: q for k, q in t.items() if q} for t in (ta, tb)]
    assert (nonzero[0] == nonzero[1]) == (got is None)
