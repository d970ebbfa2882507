"""Model catalog: ladder axioms, basis identities, parity bookkeeping."""

import contextlib
import dataclasses
import io
from fractions import Fraction

import pytest

from umbra.cli import CHECKS, main
from umbra.core import CapMismatchError, DomainError, LinearOp, ParameterError, Poly, UmbraError
from umbra.models import (
    MODEL_NAMES,
    build_model,
    vacuum_op,
    verify_model,
)
from umbra.reports import PASS
from umbra.transforms import require_model_input
from umbra.translations import binomial_sweep

import reference as ref

NU = Fraction(5, 2)


def catalog(n_max=8, even_n=4):
    out = []
    for name in MODEL_NAMES:
        n = even_n if name in ("heat", "bessel") else n_max
        nu = NU if name == "bessel" else None
        out.append(build_model(name, n, nu=nu))
    return out


FACTORIAL_FAMILIES = {
    "lower-factorial": (ref.falling_factorial, 1),
    "upper-factorial": (ref.rising_factorial, -1),
}


def scaled_family(family, n):
    """family(n)/n! as a coefficient list."""
    return ref.p_scale(family(n), Fraction(1, ref.factorial(n)))


def dense(op):
    """The operator as a grid of Fractions, grid[row][col]."""
    return [[Fraction(x, op.den) for x in row] for row in op.num]


# -- basis elements against the classical families ---------------------

def test_monomial_basis():
    m = build_model("monomial", 6)
    for n in range(7):
        assert m.basis[n] == Poly.monomial(n, 6, Fraction(1, ref.factorial(n)))


def test_lower_factorial_basis_matches_falling_factorials():
    m = build_model("lower-factorial", 32)
    for n in range(33):
        assert m.basis[n] == Poly(scaled_family(ref.falling_factorial, n), 32), n


def test_upper_factorial_basis_matches_rising_factorials():
    m = build_model("upper-factorial", 32)
    for n in range(33):
        assert m.basis[n] == Poly(scaled_family(ref.rising_factorial, n), 32), n


def test_hermite_basis_matches_he_recurrence():
    m = build_model("hermite", 32)
    for n in range(33):
        assert m.basis[n] == Poly(scaled_family(ref.hermite_he, n), 32), n


@pytest.mark.parametrize("degree", [*range(1, 41), 64])
@pytest.mark.parametrize("name", sorted(FACTORIAL_FAMILIES))
def test_factorial_raising_matches_triangular_solve(name, degree):
    family, _ = FACTORIAL_FAMILIES[name]
    m = build_model(name, degree)
    want = ref.raising_from_basis(
        [scaled_family(family, n) for n in range(degree + 1)]
    )
    got = dense(m.raising)
    # the top column keeps t(t-step)^cap less the dropped top term
    assert [row[degree] for row in got] == [row[degree] for row in want]
    assert got == want
    assert m.raising.trunc_cols == {degree}


@pytest.mark.parametrize("degree", [1, 2, 7, 32, 64])
@pytest.mark.parametrize("name", sorted(FACTORIAL_FAMILIES))
def test_factorial_lowering_is_the_unit_difference(name, degree):
    _, step = FACTORIAL_FAMILIES[name]
    m = build_model(name, degree)
    got = dense(m.lowering)
    for j in range(degree + 1):
        mono = [Fraction(0)] * j + [Fraction(1)]
        diff = ref.p_add(ref.p_shift(mono, step), ref.p_scale(mono, -1))
        want = ref.p_trim(ref.p_scale(diff, step))  # f(t+1) - f(t) or f(t) - f(t-1)
        want += [Fraction(0)] * (degree + 1 - len(want))
        assert [row[j] for row in got] == want, j
    assert m.lowering.trunc_cols == frozenset()


def test_heat_basis():
    m = build_model("heat", 4)
    for n in range(5):
        assert m.basis[n] == Poly.monomial(
            2 * n, m.degree_cap, Fraction(1, ref.factorial(2 * n))
        )


def test_bessel_constants_and_basis():
    m = build_model("bessel", 4, nu=NU)
    for n in range(5):
        assert m.basis[n] == Poly.monomial(
            2 * n, m.degree_cap, 1 / ref.bessel_c(NU, n)
        )


REFERENCE_BASES = {
    "monomial": lambda n: [0] * n + [Fraction(1, ref.factorial(n))],
    "lower-factorial": lambda n: scaled_family(ref.falling_factorial, n),
    "upper-factorial": lambda n: scaled_family(ref.rising_factorial, n),
    "hermite": lambda n: scaled_family(ref.hermite_he, n),
    "heat": lambda n: [0] * (2 * n) + [Fraction(1, ref.factorial(2 * n))],
    "bessel": lambda n: [0] * (2 * n) + [1 / ref.bessel_c(NU, n)],
}


@pytest.mark.parametrize("degree", range(1, 41))
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_basis_matrix_columns_match_the_reference_bases(name, degree):
    """Each builder's B: column n is the classical p_n for n <= n_max
    and zero above, with no marks; the ``Poly`` view reads the same."""
    m = build_model(name, degree, nu=NU if name == "bessel" else None)
    size = m.degree_cap + 1
    grid = dense(m.basis_op)
    for n in range(size):
        want = REFERENCE_BASES[name](n) if n <= degree else []
        want = want + [0] * (size - len(want))
        assert [row[n] for row in grid] == want, n
        if n <= degree:
            assert list(m.basis[n].coeffs) == want and not m.basis[n].truncated, n
    assert m.basis_op.trunc_cols == frozenset()
    assert len(m.basis) == degree + 1


# -- lowering in raw polynomial terms ----------------------------------

def test_forward_difference_lowers_falling_factorials():
    m = build_model("lower-factorial", 5)
    p3, p2 = m.basis[3], m.basis[2]
    shifted = p3.shift(1)
    assert shifted - p3 == p2
    assert m.lowering.apply(p3) == p2


def test_backward_difference_lowers_rising_factorials():
    m = build_model("upper-factorial", 5)
    p2, p1 = m.basis[2], m.basis[1]
    assert p2 - p2.shift(-1) == p1
    assert m.lowering.apply(p2) == p1


def test_heat_lowering_is_second_derivative():
    m = build_model("heat", 4)
    f = m.basis[2]  # t^4/24
    assert m.lowering.apply(f) == f.derivative().derivative()
    assert m.lowering.apply(f) == m.basis[1]


def test_bessel_operator_lowers_for_several_nu():
    for nu in (1, 2, Fraction(5, 2), 3, Fraction(1, 3)):
        m = build_model("bessel", 6, nu=nu)
        for n in range(1, 7):
            assert m.lowering.apply(m.basis[n]) == m.basis[n - 1]


# -- the full axiom check over the catalog -----------------------------

@pytest.mark.parametrize(
    "name,nu",
    [(n, NU if n == "bessel" else None) for n in MODEL_NAMES],
)
def test_catalog_verifies(name, nu):
    m = build_model(name, 8 if nu is None and name not in ("heat",) else 6, nu=nu)
    for report in verify_model(m):
        assert report.status == PASS, report.to_dict()


def test_monomial_catalog_at_width_sixteen():
    for report in verify_model(build_model("monomial", 16)):
        assert report.status == PASS


def test_bessel_five_halves_at_twelve():
    for report in verify_model(build_model("bessel", 12, nu=NU)):
        assert report.status == PASS


def test_a_catalog_run_builds_few_operators_from_rationals(count_calls):
    """Every integer operator (the shifts, d/dt, t*, S_down, S_up, the
    cuts of B) enters as integer columns, so ``verify --all`` on monomial
    at degree 32 converts rational entries only for the vacuum row and
    the duals: 3 ``LinearOp.from_columns`` calls (12 when the integer
    operators went through it too)."""
    calls = count_calls(LinearOp, "from_columns")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", "--degree", "32", "--model", "monomial"]) == 0
    assert len(calls) <= 4


def test_corrupted_basis_detected_at_its_index():
    m = build_model("monomial", 6)
    basis = list(m.basis)
    basis[2] = basis[2].scale(2)
    bad = dataclasses.replace(m, basis_op=LinearOp.from_columns(
        m.degree_cap, {n: dict(enumerate(p.coeffs)) for n, p in enumerate(basis)}
    ))
    reports = {r.check: r for r in verify_model(bad)}
    assert reports["ladder-lowering"].status != PASS
    assert reports["ladder-lowering"].first_failure == 2


# -- vacuum ------------------------------------------------------------

def test_vacuum_rows():
    for m in catalog(6, 3):
        for n, p in enumerate(m.basis):
            assert vacuum_op(m).apply(p).coeffs[0] == (1 if n == 0 else 0), m.name


def test_hermite_vacuum_is_gaussian_expectation():
    m = build_model("hermite", 8)
    assert not m.vacuum_is_eval0()
    for k in range(9):
        f = Poly.monomial(k, 8)
        assert vacuum_op(m).apply(f).coeffs[0] == ref.normal_moment(k)


def test_eval0_vacuums():
    for m in catalog(4, 2):
        if m.name != "hermite":
            assert m.vacuum_is_eval0()


def test_eval0_is_read_over_any_denominator():
    """e_0 written over the denominator 2 is still evaluation at 0: the
    vacuum row is compared by value (``kernels.icol_eq``), not by its
    numerators, so binomial still applies and passes."""
    m = build_model("monomial", 6)
    halves = dataclasses.replace(m, vacuum=(((0,), (2,)), 2))
    assert halves.vacuum_is_eval0()
    assert CHECKS["binomial"].applies(halves)
    assert all(r.status == PASS for r in binomial_sweep(halves, 6))


# -- parity / degree bookkeeping ---------------------------------------

def test_even_models_reject_odd_content():
    for name in ("heat", "bessel"):
        m = build_model(name, 3, nu=NU if name == "bessel" else None)
        odd = Poly.monomial(3, m.degree_cap)
        with pytest.raises(DomainError):
            require_model_input(m, odd)


def test_degree_of_index_grading():
    m = build_model("heat", 4)
    assert [m.degree_of_index(j) for j in range(5)] == [0, 2, 4, 6, 8]
    m = build_model("hermite", 4)
    assert [m.degree_of_index(j) for j in range(5)] == [0, 1, 2, 3, 4]


# -- constructor guards ------------------------------------------------

def test_bessel_requires_positive_nu():
    with pytest.raises(ParameterError):
        build_model("bessel", 4, nu=0)
    with pytest.raises(ParameterError):
        build_model("bessel", 4, nu=Fraction(-1, 2))
    with pytest.raises(ParameterError):
        build_model("bessel", 4)  # nu missing entirely


def test_factorial_models_pin_cap_to_top_index():
    for name in FACTORIAL_FAMILIES:
        for cap in (3, 6):
            with pytest.raises(CapMismatchError, match="top raising column"):
                build_model(name, 4, cap=cap)


def test_unknown_model_name():
    with pytest.raises(ParameterError):
        build_model("legendre", 4)


FACTORIAL_CAP = (
    "factorial models need the degree cap equal to the top basis index "
    "(the top raising column is defined relative to cap = n_max)"
)


def _refusals():
    """(name, n_max, nu, cap, error type, message) for each refusal of
    build_model on every catalog name, plus an unknown name.  A bessel
    nu is checked before the size, and an unknown name before its nu."""
    cases = []
    for name in MODEL_NAMES:
        nu = NU if name == "bessel" else None
        cases.append((name, 0, nu, None, ParameterError, "n_max must be >= 1"))
        if name in FACTORIAL_FAMILIES:
            cases += [(name, 4, None, cap, CapMismatchError, FACTORIAL_CAP) for cap in (3, 5)]
        elif name in ("heat", "bessel"):
            cases.append((name, 4, nu, 7, CapMismatchError, "degree cap below top basis degree"))
        else:
            cases.append((name, 4, nu, 3, CapMismatchError, "degree cap below top basis index"))
        if name == "bessel":
            cases += [
                (name, 4, None, None, ParameterError, "bessel model requires --nu"),
                (name, 0, None, 1, ParameterError, "bessel model requires --nu"),
                (name, 4, 0, None, ParameterError, "bessel model needs nu > 0, got 0"),
                (name, 0, "-1/2", 1, ParameterError, "bessel model needs nu > 0, got -1/2"),
            ]
        else:
            message = f"model {name!r} takes no nu parameter"
            cases += [
                (name, 4, NU, None, ParameterError, message),
                (name, 0, 0, 1, ParameterError, message),
            ]
    names = ", ".join(MODEL_NAMES)
    cases += [
        ("legendre", 4, None, None, ParameterError,
         f"unknown model 'legendre'; choose from {names}"),
        ("legendre", 4, 1, None, ParameterError,
         f"unknown model 'legendre'; choose from {names}"),
    ]
    return cases


@pytest.mark.parametrize("name,n_max,nu,cap,error,message", _refusals())
def test_build_model_refusals(name, n_max, nu, cap, error, message):
    with pytest.raises(UmbraError) as caught:
        build_model(name, n_max, nu=nu, cap=cap)
    assert type(caught.value) is error
    assert str(caught.value) == message
