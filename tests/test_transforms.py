"""Dual expansion, covariant transform, model-to-model maps."""

import contextlib
import dataclasses
import functools
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbra.cli import main
from umbra.core import CapMismatchError, Functional, Poly
from umbra.models import MODEL_NAMES, Parity, build_model, vacuum_op
from umbra.reports import PASS
from umbra.transforms import (
    biorthogonality_check,
    check_transmutation_intertwining,
    covariant_check,
    covariant_w0,
    expand_in_basis,
    generating_function,
    reassemble,
    umbral_map,
)

import reference as ref

NU = Fraction(5, 2)


def catalog():
    return [
        build_model("monomial", 8),
        build_model("lower-factorial", 8),
        build_model("upper-factorial", 8),
        build_model("hermite", 8),
        build_model("heat", 4),
        build_model("bessel", 4, nu=NU),
    ]


# -- expansion in the model basis --------------------------------------

def test_expand_monomial_square():
    m = build_model("monomial", 6)
    c = expand_in_basis(m, Poly.monomial(2, 6))
    assert c[:3] == [0, 0, 2] and not any(c[3:])


def test_expand_lower_factorial_square():
    # t^2 = t + 2 * t(t-1)/2, checked against the reference expansion
    m = build_model("lower-factorial", 6)
    c = expand_in_basis(m, Poly.monomial(2, 6))
    assert c[:3] == [0, 1, 2] and not any(c[3:])
    rebuilt = [Fraction(0)]
    for n, cn in enumerate(c):
        rebuilt = ref.p_add(
            rebuilt,
            ref.p_scale(ref.falling_factorial(n), cn / ref.factorial(n)),
        )
    assert ref.p_trim(rebuilt) == [0, 0, 1]


def test_expand_basis_element_gives_unit_vector():
    for m in catalog():
        c = expand_in_basis(m, m.basis[3])
        assert c[3] == 1 and sum(map(abs, c)) == 1, m.name


def test_reassemble_inverts_expand():
    for m in catalog():
        f = m.basis[1].scale(3) - m.basis[2] + m.basis[0].scale(Fraction(1, 7))
        assert reassemble(m, expand_in_basis(m, f)) == f, m.name


def test_biorthogonality_across_catalog():
    for m in catalog():
        assert biorthogonality_check(m).status == PASS, m.name


# -- covariant transform -----------------------------------------------

def test_w0_lower_factorial_basis_element():
    m = build_model("lower-factorial", 6)
    out = covariant_w0(m, m.basis[2])
    assert out == Poly.monomial(2, 6, Fraction(1, 2))


def test_w0_constant():
    for m in catalog():
        assert covariant_w0(m, m.basis[0]) == Poly.monomial(0, m.degree_cap), m.name


def test_w0_heat_term_by_term():
    # <l0, (d^2)^k f> u^k/k! summed by hand for f = t^4/24
    m = build_model("heat", 4)
    f = Poly.monomial(4, m.degree_cap, Fraction(1, 24))
    rough = [0, 0, 0, 0, Fraction(1, 24)]
    expect = []
    g = rough
    k = 0
    while any(g):
        expect.append(Fraction(g[0], ref.factorial(k)))
        g = ref.p_deriv(ref.p_deriv(g)) + [Fraction(0)]
        k += 1
    expect.append(Fraction(g[0], ref.factorial(k)))
    out = covariant_w0(m, f)
    assert list(out.coeffs)[: len(expect)] == expect
    assert out == Poly.monomial(2, m.degree_cap, Fraction(1, 2))


def test_w0_intertwines_both_ladders():
    for m in catalog():
        assert covariant_check(m).status == PASS, m.name
        f = m.basis[2] + m.basis[1].scale(Fraction(2, 3))
        lhs = covariant_w0(m, m.lowering.apply(f))
        assert lhs == covariant_w0(m, f).derivative(), m.name


def test_w0_at_zero_is_vacuum_pairing():
    for m in catalog():
        f = m.basis[2].scale(5) + m.basis[0]
        assert covariant_w0(m, f).eval(0) == vacuum_op(m).apply(f).coeffs[0], m.name


# -- transmutation maps ------------------------------------------------

def test_umbral_map_monomial_to_lower_factorial():
    src = build_model("monomial", 6)
    dst = build_model("lower-factorial", 6)
    image = umbral_map(src, dst, Poly.monomial(2, 6))
    want = ref.p_mul([Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)])
    assert list(image.coeffs)[:3] == want[:3]  # t(t-1)


def test_umbral_map_monomial_to_hermite():
    src = build_model("monomial", 6)
    dst = build_model("hermite", 6)
    image = umbral_map(src, dst, Poly.monomial(2, 6, Fraction(1, 2)))
    want = ref.p_scale(ref.hermite_he(2), Fraction(1, 2))
    assert list(image.coeffs)[:3] == want[:3]  # (t^2 - 1)/2


def test_umbral_map_identity_when_models_match():
    m = build_model("upper-factorial", 6)
    f = Poly([1, Fraction(2, 3), 0, 4], 6)
    assert umbral_map(m, m, f) == f


def test_umbral_map_round_trip():
    a = build_model("monomial", 8)
    b = build_model("hermite", 8)
    f = Poly([1, 2, 3, 4, 5], 8)
    assert umbral_map(b, a, umbral_map(a, b, f)) == f


def test_umbral_map_even_models_by_index():
    a = build_model("monomial", 4)
    b = build_model("heat", 4)
    # p_2 -> p~_2: t^2/2 -> t^4/24
    image = umbral_map(a, b, a.basis[2])
    assert image == b.basis[2]


def test_intertwining_monomial_to_lower_factorial():
    r = check_transmutation_intertwining(
        build_model("monomial", 8), build_model("lower-factorial", 8)
    )
    assert r.status == PASS


def test_intertwining_monomial_to_heat():
    r = check_transmutation_intertwining(
        build_model("monomial", 4), build_model("heat", 4)
    )
    assert r.status == PASS


def test_intertwining_catches_corrupted_raise():
    src = build_model("monomial", 6)
    dst = build_model("lower-factorial", 6)
    bad = dataclasses.replace(dst, raising=dst.raising.scale(2))
    r = check_transmutation_intertwining(src, bad)
    assert r.status != PASS
    kind, idx = r.first_failure
    assert kind == "raising" and isinstance(idx, int)


EXACT_MAPS_MODELS = (
    ("monomial", None), ("lower-factorial", None), ("upper-factorial", None),
    ("hermite", None), ("heat", None), ("bessel", Fraction(2)), ("bessel", NU),
)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_the_transmutation_check_matches_the_poly_oracle(degree):
    """The check on integer vectors gives the report of the ``Poly``
    loop it replaced, on every ordered pair of the seven models,
    crossing parity and with src = dst."""
    models = [build_model(name, degree, nu) for name, nu in EXACT_MAPS_MODELS]
    for src, dst in itertools.product(models, repeat=2):
        assert check_transmutation_intertwining(src, dst) == ref.transmutation_by_poly(src, dst)


def test_the_transmutation_check_refuses_index_counts_that_differ():
    src, dst = build_model("monomial", 4), build_model("heat", 5)
    for check in (check_transmutation_intertwining, ref.transmutation_by_poly):
        with pytest.raises(CapMismatchError, match="^index counts differ: 4 vs 5$"):
            check(src, dst)


# -- generating tables -------------------------------------------------

def test_generating_table_monomials_is_exponential():
    g = generating_function(build_model("monomial", 6), 6)
    assert g.report.status == PASS
    for k, row in enumerate(g.table):
        want = [Fraction(0)] * k + [Fraction(1, ref.factorial(k))]
        assert list(row)[: k + 1] == want
        assert not any(row[k + 1 :])


def test_generating_table_bessel_rows_are_ladder_reciprocals():
    g = generating_function(build_model("bessel", 4, nu=2), 4)
    assert g.report.status == PASS
    for k, row in enumerate(g.table):
        nonzero = {j: c for j, c in enumerate(row) if c}
        assert nonzero == {2 * k: 1 / ref.bessel_c(2, k)}


def test_generating_table_heat_is_even_exponential():
    g = generating_function(build_model("heat", 4), 4)
    assert g.report.status == PASS
    for k, row in enumerate(g.table):
        nonzero = {j: c for j, c in enumerate(row) if c}
        assert nonzero == {2 * k: Fraction(1, ref.factorial(2 * k))}


# -- round trips over the integers -------------------------------------

VALUES = st.sampled_from([Fraction(0)] * 3 + [Fraction(p, q) for p in (-5, -1, 1, 3) for q in (1, 2, 9)])
SAME_PARITY = (("monomial", "lower-factorial", "upper-factorial", "hermite"), ("heat", "bessel"))


@functools.lru_cache(maxsize=None)
def _catalog_model(name, degree):
    return build_model(name, degree, NU if name == "bessel" else None)


def _in_space(m, values):
    """The polynomial with coefficient values[n] at the degree of index n."""
    cs = [Fraction(0)] * (m.degree_cap + 1)
    for n, v in enumerate(values):
        cs[m.degree_of_index(n)] = v
    return Poly(cs, m.degree_cap)


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize(
    "src,dst", [pair for group in SAME_PARITY for pair in itertools.permutations(group, 2)]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_umbral_map_there_and_back_is_the_identity(src, dst, degree, data):
    a, b = _catalog_model(src, degree), _catalog_model(dst, degree)
    f = _in_space(a, data.draw(st.lists(VALUES, min_size=degree + 1, max_size=degree + 1)))
    back = umbral_map(b, a, umbral_map(a, b, f))
    assert back == f and not back.truncated


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("name", [name for group in SAME_PARITY for name in group])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expansion_recovers_the_reassembled_coefficients(name, degree, data):
    m = _catalog_model(name, degree)
    c = data.draw(st.lists(VALUES, min_size=degree + 1, max_size=degree + 1))
    assert expand_in_basis(m, reassemble(m, c)) == c


@pytest.mark.parametrize("degree", [1, 2, 5, 16, 32])
@pytest.mark.parametrize("name,nu", [
    ("monomial", None), ("lower-factorial", None), ("upper-factorial", None), ("hermite", None),
    ("heat", None), ("bessel", Fraction(5, 2)), ("bessel", Fraction(1, 3)), ("bessel", Fraction(3, 4)),
])
def test_duals_from_integer_rows_are_the_functional_chain(name, nu, degree):
    """D, its rows l_0 L^k computed as integer rows and put over
    vden L.den^n_max, is the operator the chain of ``Functional.after``
    gave, on every catalog setting; at nu = 1/3 and 3/4 the Bessel
    lowering keeps a denominator, so the rows must be rescaled."""
    m = build_model(name, degree, nu)
    assert m.dual_op == ref.dual_op_by_functionals(m)


def test_parity_groups_cover_the_catalog():
    assert sorted(n for group in SAME_PARITY for n in group) == sorted(MODEL_NAMES)
    groups = [{_catalog_model(n, 8).parity for n in group} for group in SAME_PARITY]
    assert groups == [{Parity.ALL}, {Parity.EVEN}]


def test_a_catalog_run_pairs_no_functional_and_builds_few_polys(count_calls):
    """Expansion, reassembly, covariant_w0 and the squared-ladder
    diagonals run on integer operators: ``verify --all`` on
    lower-factorial at degree 32 makes no ``Functional.pair`` call and
    42 ``Poly`` constructions, 33 of them the basis view that the
    generating-function table reads (1,716 and 347 when each expansion
    paired every dual, 70 when the model stored its basis as ``Poly``s
    too)."""
    pairs = count_calls(Functional, "pair")
    polys = count_calls(Poly, "__init__")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", "--degree", "32", "--model", "lower-factorial"]) == 0
    assert len(pairs) == 0
    assert len(polys) <= 50


@pytest.mark.parametrize("argv", [
    ["translate", "--model", "lower-factorial", "--degree", "32", "--y=-3/2", "--poly=1,-2,3/4,0,5"],
    ["transmute", "--from", "lower-factorial", "--to", "hermite", "--degree", "32", "--poly=1,-2,3/4,0,5"],
    ["transmute", "--from", "hermite", "--to", "lower-factorial", "--degree", "32", "--poly=1,-2,3/4,0,5"],
    ["genfun", "--model", "lower-factorial", "--degree", "32", "--order", "12"],
])
def test_exact_commands_make_no_functional_pullback_and_few_fraction_operations(count_calls, argv):
    """translate, transmute and genfun run on integer columns from the
    parsed input to the printed output: no ``Functional.after`` call (32
    per model when D was chained from the vacuum) and at most 5
    Fraction products and sums, none today (330 of each when
    translate summed ``Poly``s)."""
    pullbacks = count_calls(Functional, "after")
    ops = count_calls(Fraction, "__mul__"), count_calls(Fraction, "__add__")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(pullbacks) == 0
    assert sum(map(len, ops)) <= 5
