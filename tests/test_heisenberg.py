"""Formal group-law layer, twisted kernels, squared-ladder sl(2)."""

import math
import re
from fractions import Fraction

import pytest

from umbra import heisenberg
from umbra.core import CapShortfallError, ParameterError
from umbra.formal import FormalOpSeries
from umbra.heisenberg import (
    METAPLECTIC_CONSTANTS,
    DiscreteKernel,
    _formal_report,
    _group_law_difference,
    _weyl_difference,
    composition_check_formal,
    generic_sl2_ladder,
    group_law_check,
    metaplectic,
    metaplectic_check,
    metaplectic_sequences,
    sl2_closure_check,
    twisted_convolve,
    twisted_convolve_check,
    weyl_relation_check,
)
from umbra.core import LinearOp
from umbra.models import build_model
from umbra.reports import PASS

import reference as ref

NU = Fraction(5, 2)


# -- the formal series itself ------------------------------------------

def test_rep_series_low_order_coefficients():
    """pi(x, y) = exp(-y L) exp(-x R), the representation on the two
    coordinates that move a word, is both sides of the group law at
    x2 = y2 = 0: its word stays in the closed-form difference there,
    cancelled to 0, as ``group_law_check`` builds it."""
    m = build_model("monomial", 8)
    diff = _group_law_difference(m, 3)
    ident = LinearOp.identity(m.degree_cap)
    every = range(m.degree_cap + 1)
    # x, y slots in that order
    assert {idx: coef for idx, coef in diff.terms.items() if idx[2:] == (0, 0)} == {
        (c, b, 0, 0): {"L" * b + "R" * c: 0} for c in range(4) for b in range(4 - c)
    }
    assert diff.materialize((1, 1, 0, 0), every) == LinearOp.zero(m.degree_cap)
    # at x1 y2 the left side is R L and the right one L R - 1, its phase
    assert diff.terms[(1, 0, 0, 1)] == {"RL": diff.den, "LR": -diff.den, "": diff.den}
    want = m.raising @ m.lowering - m.lowering @ m.raising + ident
    assert diff.materialize((1, 0, 0, 1), every) == want


@pytest.mark.parametrize("order", range(1, 6))
def test_the_closed_form_sides_are_the_exponential_products(order):
    """The difference of the two sides of the group law and of the Weyl
    rule, written in closed form, holds at every multi-index the words
    and rational coefficients that the products of truncated
    exponential series give for lhs - rhs; the group law's are the
    centre-free ones."""
    m = build_model("monomial", 8)

    def rational(s):
        return {idx: {w: Fraction(n, s.den) for w, n in coef.items()} for idx, coef in s.terms.items()}

    def difference(lhs, rhs):
        return ref.s_add(lhs, ref.s_scale(rhs, -1))

    want = {
        (x1, y1, x2, y2): coef
        for (s1, x1, y1, s2, x2, y2), coef in difference(*ref.group_law_sides(order)).items()
        if not s1 | s2
    }
    assert rational(_group_law_difference(m, order)) == want
    assert rational(_weyl_difference(m, order)) == difference(*ref.weyl_sides(order))


def test_rep_series_needs_headroom():
    with pytest.raises(CapShortfallError):
        group_law_check(build_model("monomial", 3), 4)


# -- group law ---------------------------------------------------------

def test_group_law_monomials_order_six():
    m = build_model("monomial", 10)
    r = group_law_check(m, 6)
    assert r.status == PASS and r.max_residual == 0


def test_group_law_heat():
    r = group_law_check(build_model("heat", 8), 4)
    assert r.status == PASS


def test_the_central_exponentials_multiply_as_one():
    """e^(-s1) e^(-s2) = e^(-(s1+s2)), coefficient by coefficient in
    Fractions: the centre acts by a scalar that composes additively."""
    order = 8

    def central(*monomials):
        s = {}
        for idx in monomials:
            ref.s_add_term(s, idx, 1, "", order)
        return ref.s_exp(s, order)

    product = ref.s_mul(central((1, 0)), central((0, 1)), order)
    assert product == central((1, 0), (0, 1))
    assert product[(2, 3)] == {"": Fraction(-1, 12)}


def test_the_central_coordinates_only_scale_the_group_law():
    """On both sides of the six-coordinate group law, the coefficient at
    s1^a s2^d is (-1)^(a+d)/(a! d!) times the one at a = d = 0, over the
    same words: the coordinates ``group_law_check`` leaves out."""
    for side in ref.group_law_sides(4):
        for (a, x1, y1, d, x2, y2), coef in side.items():
            twin = side[(0, x1, y1, 0, x2, y2)]
            scale = Fraction((-1) ** (a + d), math.factorial(a) * math.factorial(d))
            assert coef == {word: scale * q for word, q in twin.items()}


def _words(coef):
    """A coefficient's nonzero words."""
    return {word: q for word, q in coef.items() if q}


def _difference(lhs, rhs):
    diff = ref.s_add(lhs, ref.s_scale(rhs, -1))
    return {idx: _words(coef) for idx, coef in diff.items() if _words(coef)}


@pytest.mark.parametrize("order", range(1, 6))
def test_the_group_laws_one_sided_coefficients_cancel_word_by_word(order):
    """A coefficient of the group law with no power of x1, y1, or none
    of x2, y2, is the same product of exponentials on both sides, so
    each word has one coefficient on both."""
    lhs, rhs = ref.group_law_sides(order)
    one_sided = [
        idx for idx in set(lhs) | set(rhs) if idx[1] == idx[2] == 0 or idx[4] == idx[5] == 0
    ]
    assert len(one_sided) > 1
    for idx in one_sided:
        assert _words(lhs.get(idx, {})) == _words(rhs.get(idx, {})), idx


@pytest.mark.parametrize("order", range(2, 5))
def test_the_composition_is_the_group_law_on_each_pair_of_atoms(order):
    """The composition's difference is the sum over the atom pairs (i, j),
    i in {1, 2} and j in {3, 4}, of c_i c_j times the group law's
    difference at minus the coordinates, placed on atoms i and j: the
    argument by which ``composition_check_formal`` reads the group law's
    report."""
    c = ref.COMPOSITION_COEFFICIENTS
    law = _difference(*ref.group_law_sides(order))
    want = {}
    for (s1, x1, y1, s2, x2, y2), coef in law.items():
        if s1 or s2:
            continue
        for i in (0, 1):
            for j in (2, 3):
                idx = [0] * 8
                idx[2 * i: 2 * i + 2] = x1, y1
                idx[2 * j: 2 * j + 2] = x2, y2
                q = (-1) ** (x1 + y1 + x2 + y2) * c[i] * c[j]
                want[tuple(idx)] = {word: q * p for word, p in coef.items()}
    assert want and _difference(*ref.composition_sides(order)) == want


def test_group_law_flags_corrupted_commutator():
    m = build_model("monomial", 10)
    bad = m._replace(raising=m.raising.scale(2))
    r = group_law_check(bad, 3)
    assert r.status != PASS
    idx = r.first_failure["multi_index"]
    assert sum(idx.values()) == 2
    assert idx == {"x1": 1, "y2": 1}


def test_cap_shortfall_names_the_cap_a_negative_output_index_needs():
    # order 5 at n_max = 3 leaves output index -2; the need is the order
    with pytest.raises(CapShortfallError, match=r"needs a working cap of n_max = 5; "
                       r"model monomial has n_max = 3"):
        group_law_check(build_model("monomial", 3), 5)


# -- Weyl reordering ---------------------------------------------------

def test_weyl_relation_monomials():
    r = weyl_relation_check(build_model("monomial", 10), 6)
    assert r.status == PASS and r.max_residual == 0


def test_weyl_relation_first_order_is_commutator():
    # at order 1 the identity e^(yL)e^(xR) = e^(xy)e^(xR)e^(yL) carries
    # exactly the [L,R] = I relation in its x^1 y^1 slot
    r = weyl_relation_check(build_model("monomial", 6), 1)
    assert r.status == PASS


def test_weyl_relation_bessel():
    r = weyl_relation_check(build_model("bessel", 8, nu=3), 4)
    assert r.status == PASS


def test_composition_formal_monomials():
    r = composition_check_formal(build_model("monomial", 12), 5)
    assert r.status == PASS and r.max_residual == 0


def test_composition_formal_lower_factorial():
    r = composition_check_formal(build_model("lower-factorial", 10), 4)
    assert r.status == PASS


def test_composition_formal_first_order():
    r = composition_check_formal(build_model("monomial", 6), 1)
    assert r.status == PASS


def test_the_composition_builds_no_series_of_its_own(count_calls):
    """Off the premise the composition makes the group law's series
    comparison and no more; on a premise model whose group law the Fock
    pair already keeps, it makes none."""
    calls = count_calls(heisenberg, "series_first_difference")
    m = build_model("monomial", 8)
    off = m._replace(raising=m.raising.scale(2))
    assert off.fock_twin is None
    group_law_check(off, 3)
    law = len(calls)
    assert law > 0
    composition_check_formal(off, 3)
    assert len(calls) == 2 * law
    h = build_model("hermite", 8)
    assert group_law_check(h, 3).passed
    before = len(calls)
    r = composition_check_formal(h, 3)
    assert (r.check, r.model, r.status) == ("twisted-composition", "hermite", PASS)
    assert len(calls) == before


# -- discrete kernels and the twisted product --------------------------

def test_twisted_reorder_atom():
    k1 = DiscreteKernel.atom(1, 0, x=1, y=0)
    k2 = DiscreteKernel.atom(1, 0, x=0, y=1)
    out = twisted_convolve(k1, k2)
    assert out == DiscreteKernel.atom(1, -1, x=1, y=1)


def test_twisted_delta_is_identity():
    k = DiscreteKernel.atom(Fraction(3, 2), Fraction(1, 3), x=2, y=-1)
    assert twisted_convolve(k, DiscreteKernel.delta()) == k
    assert twisted_convolve(DiscreteKernel.delta(), k) == k


def test_twisted_no_phase_when_x1_vanishes():
    k1 = DiscreteKernel.atom(2, 0, x=0, y=Fraction(1, 2))
    k2 = DiscreteKernel.atom(3, 0, x=5, y=7)
    out = twisted_convolve(k1, k2)
    assert out == DiscreteKernel.atom(6, 0, x=5, y=Fraction(15, 2))


def test_twisted_associative_three_atoms():
    k1 = DiscreteKernel.atom(1, 0, x=1, y=2)
    k2 = DiscreteKernel.atom(Fraction(1, 2), Fraction(1, 5), x=-1, y=Fraction(1, 3))
    k3 = DiscreteKernel.atom(3, -1, x=Fraction(2, 7), y=-2)
    assert twisted_convolve(twisted_convolve(k1, k2), k3) == twisted_convolve(
        k1, twisted_convolve(k2, k3)
    )


def test_twisted_convolve_check_report():
    assert twisted_convolve_check().status == PASS


# -- squared ladders ---------------------------------------------------

def test_metaplectic_bracket_on_vacuum_vector():
    m = build_model("monomial", 8)
    l2, r2, z = metaplectic(m)
    comm = (l2 @ r2) - (r2 @ l2)
    p0 = ref.basis(m)[0]
    assert comm.apply(p0) == p0.scale(2)
    assert (z.apply(p0)) == p0.scale(Fraction(1, 2))


def test_metaplectic_constants_fixed():
    for name, nu, n in (
        ("monomial", None, 8),
        ("hermite", None, 8),
        ("heat", None, 6),
        ("bessel", NU, 6),
    ):
        a, b, c, _ = metaplectic_sequences(build_model(name, n, nu=nu))
        assert generic_sl2_ladder(a, b, c).constants == METAPLECTIC_CONSTANTS == (4, -2, 2), name


@pytest.mark.parametrize(
    "name,nu,n",
    [
        ("monomial", None, 10),
        ("lower-factorial", None, 10),
        ("upper-factorial", None, 10),
        ("hermite", None, 10),
        ("heat", None, 6),
        ("bessel", NU, 6),
    ],
)
def test_metaplectic_check_catalog(name, nu, n):
    for r in metaplectic_check(build_model(name, n, nu=nu)):
        assert r.status == PASS, (name, r.check)


@pytest.mark.parametrize("name, nu", [("monomial", None), ("heat", None), ("bessel", NU)])
def test_metaplectic_check_refuses_to_compare_no_column(name, nu):
    # at n_max = 1 the column list range(n_max - 1) is empty: three
    # passes would certify nothing
    with pytest.raises(ParameterError, match="no basis column to compare"):
        metaplectic_check(build_model(name, 1, nu=nu))


@pytest.mark.parametrize("name, nu", [("monomial", None), ("heat", None), ("bessel", NU)])
def test_sl2_closure_check_refuses_a_model_too_small_to_solve_for_constants(name, nu):
    m = build_model(name, 1, nu=nu)
    with pytest.raises(ParameterError, match=rf"{re.escape(m.label())} has n_max = 1"):
        sl2_closure_check(m)


def test_failed_checks_report_the_largest_entry_difference():
    m = build_model("monomial", 8)
    # formal report: the series differ by L/2 at x^1; on the safe
    # degrees 0..3 the largest entry of L/2 = (d/dt)/2 is 3/2
    diff = FormalOpSeries(("x",), 1, m.words, 2)
    diff.add_numerator((1,), 2, "L")
    diff.add_numerator((1,), -1, "L")
    r = _formal_report("probe", m, 1, 3, diff)
    assert r.first_failure == {"multi_index": {"x": 1}}
    assert r.max_residual == Fraction(3, 2)
    # metaplectic: a perturbed lowering operator breaks the brackets
    bump = ref.op_from_columns(m.degree_cap, {4: {1: Fraction(1, 7)}})
    bad = m._replace(lowering=m.lowering + bump)
    l2, r2, z = metaplectic(bad)
    lam, lam_minus, lam_plus = METAPLECTIC_CONSTANTS
    sides = [
        (l2 @ r2 - r2 @ l2, z.scale(lam)),
        (z @ l2 - l2 @ z, l2.scale(lam_minus)),
        (z @ r2 - r2 @ z, r2.scale(lam_plus)),
    ]
    reports = metaplectic_check(bad)
    assert any(r.status != PASS for r in reports)
    for r, (lhs, rhs) in zip(reports, sides):
        if r.first_failure is not None:
            j = r.first_failure["degree"]
            assert r.max_residual == max(
                abs(Fraction(lhs.num[i][j], lhs.den) - Fraction(rhs.num[i][j], rhs.den))
                for i in range(m.degree_cap + 1)
            )


def test_sl2_closure_check_catalog():
    for name, nu, n in (
        ("monomial", None, 10),
        ("heat", None, 6),
        ("bessel", NU, 6),
    ):
        assert sl2_closure_check(build_model(name, n, nu=nu)).status == PASS


def test_metaplectic_sequences_are_model_independent():
    # L^2, R^2, RL + 1/2 act diagonally the same way in every model
    for name, nu, n in (("monomial", None, 8), ("heat", None, 8)):
        m = build_model(name, n, nu=nu)
        a, b, c, _ = metaplectic_sequences(m)
        top = len(a) - 1
        assert a[0] == 0 and all(a[k] == 1 for k in range(1, top + 1))
        assert all(
            b[k] == (2 * k + 1) * (2 * k + 2) for k in range(top)
        )
        assert all(c[k] == 2 * k + Fraction(1, 2) for k in range(top + 1))


def test_generic_ladder_quadratic_sequence_closes():
    n = 8
    a = [k * k for k in range(n + 1)]
    b = [1] * (n + 1)
    c = [2 * k + 1 for k in range(n + 1)]
    res = generic_sl2_ladder(a, b, c)
    assert res.ok
    assert res.lam_plus == 2 and res.lam_minus == -2
    # [lower, raise] p_n = (a_{n+1} b_n - a_n b_{n-1}) p_n = (2n+1) p_n
    # = 1 * c_n, so the bracket closes with lam = 1 here
    assert res.lam == 1


def test_generic_ladder_abelian():
    res = generic_sl2_ladder([0] * 5, [0] * 5, [0] * 5)
    assert res.ok
    assert res.constants == (0, 0, 0)


def test_generic_ladder_rejects_perturbed_sequence():
    m = build_model("heat", 8)
    a, b, c, _ = metaplectic_sequences(m)
    c = list(c)
    c[3] += 1
    res = generic_sl2_ladder(a, b, c)
    assert not res.ok
    assert res.first_violation is not None


@pytest.mark.parametrize("seq, k, delta, want", [
    # a_0 != 0 is reported before any diagonal
    (0, 0, 1, ("lowering-bottom", 0)),
    # a_2 enters the [lower2, raise2] diagonal at index 1 first
    (0, 2, 1, ("commutator-diagonal", 1)),
    # c_3 enters c_3 - c_2 = lam_plus at index 2 before c_2 - c_3 at 3
    (2, 3, 1, ("z-raising", 2)),
])
def test_generic_ladder_reports_its_first_violation(seq, k, delta, want):
    # heat's even sub-ladder closes with (4, -2, 2), and c_0 = 1/2, so
    # the constants come from index 0 and one changed entry breaks only
    # the closure rules that read it, from its lowest index on
    seqs = [list(s) for s in metaplectic_sequences(build_model("heat", 8))[:3]]
    seqs[seq][k] += delta
    res = generic_sl2_ladder(*seqs)
    assert (res.ok, res.first_violation) == (False, want)


def test_generic_ladder_consistent_with_metaplectic():
    for name, nu in (("monomial", None), ("bessel", NU)):
        m = build_model(name, 8, nu=nu)
        res = generic_sl2_ladder(*metaplectic_sequences(m)[:3])
        assert res.ok
        assert res.constants == (4, -2, 2), name


def test_generic_ladder_input_validation():
    with pytest.raises(ParameterError):
        generic_sl2_ladder([0, 1], [0, 1], [0])
    with pytest.raises(ParameterError):
        generic_sl2_ladder([0], [0], [0])
