"""Model catalog: ladder axioms, basis identities, parity bookkeeping."""

import functools
from fractions import Fraction

import pytest

from umbra.cli import CHECKS
from umbra.core import (
    CapMismatchError,
    DomainError,
    ParameterError,
    Poly,
    UmbraError,
    integer_vector,
)
from umbra.models import (
    MODEL_NAMES,
    build_model,
    verify_model,
)
from umbra.reports import PASS
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
    ps = ref.basis(build_model("monomial", 6))
    for n in range(7):
        assert ps[n] == Poly([0] * n + [Fraction(1, ref.factorial(n))], 6)


def test_lower_factorial_basis_matches_falling_factorials():
    ps = ref.basis(build_model("lower-factorial", 32))
    for n in range(33):
        assert ps[n] == Poly(scaled_family(ref.falling_factorial, n), 32), n


def test_upper_factorial_basis_matches_rising_factorials():
    ps = ref.basis(build_model("upper-factorial", 32))
    for n in range(33):
        assert ps[n] == Poly(scaled_family(ref.rising_factorial, n), 32), n


def test_hermite_basis_matches_he_recurrence():
    ps = ref.basis(build_model("hermite", 32))
    for n in range(33):
        assert ps[n] == Poly(scaled_family(ref.hermite_he, n), 32), n


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
    ps = ref.basis(m)
    for n in range(5):
        assert ps[n] == Poly([0] * (2 * n) + [Fraction(1, ref.factorial(2 * n))], m.degree_cap)


def test_bessel_constants_and_basis():
    m = build_model("bessel", 4, nu=NU)
    ps = ref.basis(m)
    for n in range(5):
        assert ps[n] == Poly([0] * (2 * n) + [1 / ref.bessel_c(NU, n)], m.degree_cap)


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
    grid, ps = dense(m.basis_op), ref.basis(m)
    for n in range(size):
        want = REFERENCE_BASES[name](n) if n <= degree else []
        want = want + [0] * (size - len(want))
        assert [row[n] for row in grid] == want, n
        if n <= degree:
            assert list(ps[n].coeffs) == want and not ps[n].truncated, n
    assert m.basis_op.trunc_cols == frozenset()
    assert len(ps) == degree + 1


# -- every catalog build against operators built in Fractions ----------

BUILD_NUS = (Fraction(1, 3), Fraction(5, 2), Fraction(7))
BUILDS = [(name, nu) for name in MODEL_NAMES for nu in (BUILD_NUS if name == "bessel" else (None,))]

# the Appell family's variance s at each of its catalog names
_APPELL = {"monomial": 0, "hermite": 1}


def _monomial(j):
    return [Fraction(0)] * j + [Fraction(1)]


@functools.lru_cache(maxsize=None)
def _reference_basis(name, nu, n):
    """p_n of a catalog name from its classical family, as a trimmed
    tuple of Fractions, made once for every degree that reads it."""
    if name in _APPELL:
        p = scaled_family(ref.hermite_he if _APPELL[name] else _monomial, n)
    elif name in FACTORIAL_FAMILIES:
        p = scaled_family(FACTORIAL_FAMILIES[name][0], n)
    else:
        p = ref.p_scale(_monomial(2 * n), 1 / ref.bessel_c(nu or 0, n))
    return tuple(ref.p_trim(p))


@functools.lru_cache(maxsize=None)
def _reference_lowering(name, nu, j):
    """L t^j of a catalog name on the monomial t^j: the derivative, the
    difference step (f(t+step) - f(t)), or the Bessel operator
    f'' + (nu/t) f' on even j and zero on odd j."""
    mono = _monomial(j)
    if name in _APPELL:
        low = ref.p_deriv(mono)
    elif name in FACTORIAL_FAMILIES:
        step = FACTORIAL_FAMILIES[name][1]
        low = ref.p_scale(ref.p_add(ref.p_shift(mono, step), ref.p_scale(mono, -1)), step)
    elif j % 2:
        low = []
    else:
        d1 = ref.p_deriv(mono)
        low = ref.p_add(ref.p_deriv(d1), ref.p_scale(d1[1:], nu or 0))
    return tuple(ref.p_trim(low))


def reference_build(name, nu, n_max):
    """B, L, R and the vacuum row of the catalog model at n_max, built in
    Fractions: B from the family, L on each monomial, R and the vacuum
    by the triangular solve of ``graded_ladders``, whose top column of R
    drops (n_max+1) p_(n_max+1).  The Appell family's R = t* - s d/dt
    drops t^(cap+1) from its top column instead, so that column is
    -s (t^cap)' there; the top column of R is marked in every family."""
    step = 2 if name in ("heat", "bessel") else 1
    cap = step * n_max
    ps = [_reference_basis(name, nu, n) for n in range(n_max + 1)]
    _, high, vac = ref.graded_ladders(ps, step)
    if name in _APPELL:
        top = ref.p_scale(ref.p_deriv(_monomial(cap)), -_APPELL[name])
        for i, row in enumerate(high):
            row[cap] = top[i] if i < len(top) else Fraction(0)

    def op(columns, marks=frozenset()):
        return ref.op_from_columns(cap, lambda j: dict(enumerate(columns(j))), marks)

    return (
        op(lambda j: ps[j] if j <= n_max else ()),
        op(lambda j: _reference_lowering(name, nu, j)),
        op(lambda j: [row[j] for row in high], {cap}),
        {i: q for i, q in enumerate(vac) if q},
    )


@pytest.mark.parametrize("degree", range(1, 41))
@pytest.mark.parametrize(
    "name,nu", BUILDS, ids=[f"{n}-{nu}".replace("/", "_") if nu else n for n, nu in BUILDS]
)
def test_every_catalog_build_is_the_fraction_reference(name, nu, degree):
    """B, L and R, their marks included, and the vacuum of each catalog
    model at each degree equal the ones ``reference_build`` makes."""
    m = build_model(name, degree, nu=nu)
    b, low, high, vac = reference_build(name, nu, degree)
    for got, want in ((m.basis_op, b), (m.lowering, low), (m.raising, high)):
        assert got == want and got.trunc_cols == want.trunc_cols
    (rows, vals), den = m.vacuum
    assert {i: Fraction(x, den) for i, x in zip(rows, vals)} == vac


# -- lowering in raw polynomial terms ----------------------------------

def test_forward_difference_lowers_falling_factorials():
    m = build_model("lower-factorial", 5)
    _, _, p2, p3 = ref.basis(m)[:4]
    shifted = p3.shift(1)
    assert shifted - p3 == p2
    assert m.lowering.apply(p3) == p2


def test_backward_difference_lowers_rising_factorials():
    m = build_model("upper-factorial", 5)
    _, p1, p2 = ref.basis(m)[:3]
    assert p2 - p2.shift(-1) == p1
    assert m.lowering.apply(p2) == p1


def test_heat_lowering_is_second_derivative():
    m = build_model("heat", 4)
    _, p1, f = ref.basis(m)[:3]  # f = t^4/24
    assert m.lowering.apply(f) == f.derivative().derivative()
    assert m.lowering.apply(f) == p1


def test_bessel_operator_lowers_for_several_nu():
    for nu in (1, 2, Fraction(5, 2), 3, Fraction(1, 3)):
        m = build_model("bessel", 6, nu=nu)
        ps = ref.basis(m)
        for n in range(1, 7):
            assert m.lowering.apply(ps[n]) == ps[n - 1]


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


def test_corrupted_basis_detected_at_its_index():
    m = build_model("monomial", 6)
    basis = list(ref.basis(m))
    basis[2] = basis[2].scale(2)
    bad = m._replace(basis_op=ref.op_from_columns(
        m.degree_cap, {n: dict(enumerate(p.coeffs)) for n, p in enumerate(basis)}
    ))
    reports = {r.check: r for r in verify_model(bad)}
    assert reports["ladder-lowering"].status != PASS
    assert reports["ladder-lowering"].first_failure == 2


# -- vacuum ------------------------------------------------------------

def _vacuum_pairing(m, f):
    """<l_0, f> through ``UmbralModel.vacuum_step`` on f's kernel column."""
    (_, vals), den, _ = m.vacuum_step(*integer_vector(f.coeffs), False)
    return Fraction(sum(vals), den)


def test_vacuum_rows():
    for m in catalog(6, 3):
        for n, p in enumerate(ref.basis(m)):
            assert _vacuum_pairing(m, p) == (1 if n == 0 else 0), m.name


def test_hermite_vacuum_is_gaussian_expectation():
    m = build_model("hermite", 8)
    assert not m.vacuum_is_eval0()
    for k in range(9):
        f = Poly([0] * k + [1], 8)
        assert _vacuum_pairing(m, f) == ref.normal_moment(k)


def test_eval0_vacuums():
    for m in catalog(4, 2):
        if m.name != "hermite":
            assert m.vacuum_is_eval0()


def test_eval0_is_read_over_any_denominator():
    """e_0 written over the denominator 2 is still evaluation at 0: the
    vacuum row is compared by value (``kernels.icol_eq``), not by its
    numerators, so binomial still applies and passes."""
    m = build_model("monomial", 6)
    halves = m._replace(vacuum=(((0,), (2,)), 2))
    assert halves.vacuum_is_eval0()
    assert CHECKS["binomial"].applies(halves)
    assert all(r.status == PASS for r in binomial_sweep(halves, 6))


# -- parity / degree bookkeeping ---------------------------------------

def test_even_models_reject_odd_content():
    for name in ("heat", "bessel"):
        m = build_model(name, 3, nu=NU if name == "bessel" else None)
        odd = Poly([0, 0, 0, 1], m.degree_cap)
        with pytest.raises(DomainError):
            m.require_poly(odd)


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
