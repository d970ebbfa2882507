"""Numeric transforms against closed forms and independent quadrature.

Frozen expected values were produced by the reference constructions in
reference.py (mpmath Bessel/quad, classical integral tables) and are
asserted at the tolerances the package promises.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umbra import numeric
from umbra.core import ParameterError, QuadratureError
from umbra.models import build_model
from umbra.numeric import (
    canned_fn,
    cosine_transform,
    hankel_intertwining_check,
    hankel_transform,
    heat_covariant,
    little_bessel_j,
    little_bessel_j_with_derivatives,
    poisson_constant,
    poisson_intertwining_check,
    poisson_transform,
)
from umbra.quadrature import QuadratureSpec, ScalarFn
from umbra.transforms import covariant_w0

import reference as ref


# -- the normalized Bessel series --------------------------------------

def test_bessel_series_at_origin():
    for nu in (1, 2, 2.5, 7):
        assert little_bessel_j(nu, 3.0, 0.0) == 1.0


def test_bessel_series_sinc_zero():
    assert abs(little_bessel_j(2, 1.0, math.pi)) <= 1e-12


def test_bessel_series_sinc_value():
    # sin(2)/2, frozen from the closed form
    assert little_bessel_j(2, 4.0, 1.0) == pytest.approx(
        0.45464871341284085, abs=1e-14
    )


def test_negative_lambda_gives_the_modified_kernel():
    # nu = 2: sinh(sqrt|lam| t)/(sqrt|lam| t), on the float series path
    want = math.sinh(math.sqrt(3)) / math.sqrt(3)
    assert little_bessel_j(2, -3.0, 1.0) == pytest.approx(want, rel=1e-14)
    # nu = 3 at lam t^2 = -100, on the fixed-point path:
    # Gamma(a+1) (2/x)^a I_a(x) with a = (nu-1)/2 = 1, x = 10
    x = mpmath.mpf(10)
    want = float(mpmath.gamma(2) * (2 / x) * mpmath.besseli(1, x))
    assert little_bessel_j(3, -25.0, 2.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("nu", [1, 2, Fraction(5, 2), 3, Fraction(7, 2)])
@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 7.0])
def test_bessel_series_matches_mpmath(nu, lam, t):
    got = little_bessel_j(nu, lam, t)
    want = ref.normalized_bessel(float(nu), lam, t)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_bessel_series_exact_path_large_argument():
    # lam * t^2 = 400 forces the cancellation-proof exact summation
    got = little_bessel_j(2, 1.0, 20.0)
    assert got == pytest.approx(math.sin(20.0) / 20.0, rel=1e-10)
    got = little_bessel_j(3, 4.0, 10.0)
    assert got == pytest.approx(ref.normalized_bessel(3, 4.0, 10.0), rel=1e-10)


def test_bessel_series_continuous_across_path_switch():
    # the float/exact switchover at lam t^2 = 25 must not jump
    lo = little_bessel_j(2, 1.0, 4.9999999)
    hi = little_bessel_j(2, 1.0, 5.0000001)
    assert abs(lo - hi) < 1e-7


def test_bessel_ode_residual():
    # B_nu j = -lam j with B_nu f = f'' + (nu/t) f'
    for nu in (1.0, 2.0, 3.5):
        for lam in (0.5, 2.0):
            for k in range(30):
                t = 0.1 + k * (10.0 - 0.1) / 29
                j, dj, d2j = little_bessel_j_with_derivatives(nu, lam, t)
                assert abs(d2j + (nu / t) * dj + lam * j) <= 1e-8, (nu, lam, t)


def test_bessel_series_rejects_bad_nu():
    with pytest.raises(ParameterError):
        little_bessel_j(0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        little_bessel_j(-2.5, 1.0, 1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_bessel_series_rejects_non_finite(bad):
    for args in ((bad, 1.0, 1.0), (2, bad, 1.0), (2, 1.0, bad)):
        with pytest.raises(ParameterError, match="finite"):
            little_bessel_j(*args)
        with pytest.raises(ParameterError, match="finite"):
            little_bessel_j_with_derivatives(*args)


# -- the fixed-point series against the Fraction loop -------------------

@st.composite
def exact_series_args(draw):
    """nu rational in (0, 8], lam of either sign and 25 < |lam| t^2 <= 1e5.
    lam has 12 significant bits and t 16, which keeps the Fraction loop
    of the reference fast at the top of the range."""
    q = draw(st.integers(1, 12))
    nu = Fraction(draw(st.integers(1, 8 * q)), q)
    lam = math.ldexp(draw(st.integers(1, 2**12 - 1)), draw(st.integers(-12, 4)))
    lam *= draw(st.sampled_from((1.0, -1.0)))
    z = 10.0 ** draw(st.floats(math.log10(25.0), 5.0))
    m, e = math.frexp(math.sqrt(z / abs(lam)))
    t = math.ldexp(round(m * 2**16), e - 16) * draw(st.sampled_from((1.0, -1.0)))
    assume(25.0 < abs(lam) * t * t <= 1e5)
    return nu, lam, t


@settings(max_examples=30, deadline=None)
@given(exact_series_args())
def test_exact_series_matches_fraction_loop_bit_for_bit(args):
    nu, lam, t = args
    want = float(ref.bessel_series_fraction(nu, lam, t))
    assert numeric._bessel_series_exact(nu, lam, t).hex() == want.hex()


# Doubles, as the transforms pass them, put a power of 2 under z = lam t^2.
# Rational lam and t put an odd factor there too.  Large nu makes
# |T_1| = |z| / (2 (nu + 1)) small: about 6 at x = 40, below 1 at x = 13.
SERIES_CASES = [
    (Fraction(7, 3), 0.7312345, 64.05194036670956),
    (Fraction(1, 10), 2.718281828459045, -31.41592653589793),
    (Fraction(5, 2), -1.2345678901234567, 11.11111111111111),
    (Fraction(8), 0.1, 123.456789),
    (Fraction(5, 2), Fraction(7, 3), Fraction(95, 7)),
    (Fraction(3), Fraction(-11, 9), Fraction(40, 3)),
    (Fraction(1, 3), Fraction(5, 7), Fraction(301, 3)),
    (Fraction(120), 1.0, 40.1),
    (Fraction(401, 3), 1.0, 39.7),
    (Fraction(120), 1.0, 12.5),
    (Fraction(401, 3), -1.0, 13.25),
]


@pytest.mark.parametrize("nu, lam, t", SERIES_CASES)
def test_exact_series_matches_fraction_loop_at_full_precision(nu, lam, t):
    want = float(ref.bessel_series_fraction(nu, lam, t))
    assert numeric._bessel_series_exact(nu, lam, t).hex() == want.hex()


@pytest.mark.parametrize("nu, lam, t", SERIES_CASES)
def test_fixed_point_error_bound_does_not_grow_with_x(nu, lam, t):
    # through the peak the bound sums n E, E ~ 2^top 2 (nu + 1) / x^2,
    # over n <= x + 2, and after it shrinks 4-fold a term: about
    # (nu + 1) 2^top in all, whatever x, so 64 guard bits decide
    z = Fraction(lam) * Fraction(t) ** 2
    top = int(math.sqrt(abs(z)) * numeric._LOG2_E) + 2
    k = numeric._stop_halvings(z, nu)
    _, err = numeric._fixed_point_series(z, nu, k, top + k + 53 + numeric._GUARD_BITS)
    assert err <= 3 * (nu + 1) * 2**top


@settings(max_examples=40, deadline=None)
@given(exact_series_args(), st.integers(90, 200))
def test_fixed_point_enclosure_holds_at_low_precision(args, prec):
    # few bits make the truncation errors and the doubtful stop tests
    # large enough for an unsound bound to miss the Fraction partial sum
    nu, lam, t = args
    z = Fraction(lam) * Fraction(t) ** 2
    s, err = numeric._fixed_point_series(z, nu, numeric._stop_halvings(z, nu), prec)
    exact = ref.bessel_series_fraction(nu, lam, t) * 2**prec
    assert s - err <= exact <= s + err, (nu, lam, t, prec)


@pytest.mark.parametrize("prec", [90, 131, 200])
@pytest.mark.parametrize("nu, lam, t", SERIES_CASES)
def test_fixed_point_enclosure_holds_at_low_precision_on_chosen_inputs(nu, lam, t, prec):
    z = Fraction(lam) * Fraction(t) ** 2
    s, err = numeric._fixed_point_series(z, nu, numeric._stop_halvings(z, nu), prec)
    exact = ref.bessel_series_fraction(nu, lam, t) * 2**prec
    assert s - err <= exact <= s + err


def test_a_precision_too_low_for_the_stop_test_is_refused():
    # 2^90 // (1e25 2^80) is 0, and the tail bound never falls below 2,
    # so the stop test could never pass: refused at once, not looped on
    with pytest.raises(ParameterError, match="cannot resolve"):
        numeric._fixed_point_series(Fraction(150**2), Fraction(200), 80, 90)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("side", [-1, 1])
def test_fixed_point_enclosure_holds_when_the_stop_is_in_doubt(side, sign):
    # z = lam t^2 tiny, so peak = 2 and n = 3 is the first stop test;
    # |term_3| = |z|^3 / c_3 lies within 2^-270 of 1e-25, below it
    # (side -1: the Fraction loop stops at 3) or above (it stops at 4),
    # which no precision used here can tell apart.  The truncations
    # round the terms up in size for z > 0 and down for z < 0.
    nu = Fraction(1)
    c3 = 2 * 2 * 4 * 4 * 6 * 6
    k = 300
    target = c3 * 2 ** (3 * k) // 10**25
    root = 1 << -(-target.bit_length() // 3)
    while True:   # Newton from above: ends at floor(cbrt(target))
        step = (2 * root + target // (root * root)) // 3
        if step >= root:
            break
        root = step
    z = sign * Fraction(root + (side > 0), 2**k)
    assert (abs(z) ** 3 / c3 < Fraction(1, 10**25)) == (side < 0)
    for prec in range(100, 260, 10):
        s, err = numeric._fixed_point_series(z, nu, numeric._stop_halvings(z, nu), prec)
        exact = ref.bessel_series_fraction(nu, z, 1) * 2**prec
        assert s - err <= exact <= s + err, prec


def test_fixed_point_stop_test_allows_for_the_truncation_error():
    # z < 0, so every term is positive and every truncation lowers it.
    # z is the negative -m/2^k nearest zero with 2^prec |term_27| at
    # least 2^prec / 1e25 + 1/100: the Fraction loop goes on past n = 27
    # (peak = 10).  The truncated 2^prec term_27 is one unit below
    # floor(2^prec / 1e25), so a stop test that leaves out the term's
    # error bound stops at 27 and drops the rest of the sum.
    nu, n, prec, k = Fraction(8), 27, 202, 282
    c = 1
    for i in range(1, n + 1):
        c *= 2 * i * (2 * i + nu - 1)
    target = Fraction(1, 10**25) + Fraction(1, 100 * 2**prec)
    lo, hi = 0, 2 ** (k + 7)   # |z| < 128
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if Fraction(mid, 2**k) ** n / c < target:
            lo = mid
        else:
            hi = mid
    z = -Fraction(hi, 2**k)
    peak = math.isqrt(abs(z.numerator) // z.denominator) + 2
    assert peak < n and abs(z) ** n / c >= Fraction(1, 10**25)
    s, err = numeric._fixed_point_series(z, nu, numeric._stop_halvings(z, nu), prec)
    exact = ref.bessel_series_fraction(nu, z, 1) * 2**prec
    assert s - err <= exact <= s + err


@pytest.mark.parametrize("nu, x, want", [
    (60, 1000.0, -4.7198785079864336e-51),
    (20, 1000.0, -3.4348676789341045e-22),
    (100, 1500.0, -2.7747155567973447e-81),
])
def test_a_small_j_nu_on_the_series_path_keeps_its_digits(nu, x, want):
    # far below 1e-25 the stop of the fixed-point series follows j_nu's
    # envelope down, so the value is mpmath's, not the partial sum's noise
    assert not numeric._hankel_applies(nu, 1.0, x)
    assert little_bessel_j(nu, 1.0, x) == want == ref.normalized_bessel(nu, 1.0, x)


def test_the_series_stop_moves_only_below_the_envelope_threshold():
    # nu = 3, x = 1000: envelope 5e-5, so the stop stays at 1e-25; it
    # moves for lam > 0 only, and there by 2^-60 of the envelope
    assert numeric._stop_halvings(Fraction(10**6), Fraction(3)) == 0
    assert numeric._stop_halvings(Fraction(-(10**6)), Fraction(60)) == 0
    k = numeric._stop_halvings(Fraction(10**6), Fraction(60))
    stop = Fraction(1, 10**25 << k)
    assert envelope(60, 1.0, 1000.0) / 2**61 < stop <= envelope(60, 1.0, 1000.0) / 2**60


# -- Hankel's expansion for large arguments -----------------------------

def envelope(nu, lam, t):
    """Gamma(a+1) (2/x)^a sqrt(2/(pi x)): the size of j_nu's oscillation."""
    a = (mpmath.mpf(float(nu)) - 1) / 2
    x = mpmath.sqrt(mpmath.mpf(lam)) * abs(mpmath.mpf(t))
    return float(mpmath.gamma(a + 1) * (2 / x) ** a * mpmath.sqrt(2 / (mpmath.pi * x)))


def mp_j(nu, lam, t, n):
    """The n-th t-derivative of j_nu(lam, t) = 0F1(; (nu+1)/2; -lam t^2/4)
    from mpmath's hypergeometric function, differentiated by mpmath at
    40 digits; independent of the contiguous relation under test."""
    with mpmath.workdps(40):
        b = (mpmath.mpf(Fraction(nu).numerator) / Fraction(nu).denominator + 1) / 2
        lam = mpmath.mpf(lam)
        return float(mpmath.diff(lambda s: mpmath.hyp0f1(b, -lam * s * s / 4), mpmath.mpf(t), n))


LARGE_NUS = [1, 2, Fraction(5, 2), 3, Fraction(7, 2)]


@pytest.mark.parametrize("nu", LARGE_NUS)
@pytest.mark.parametrize("x", [2000.0, 2718.2818, 1e4 + 0.37, 123456.789, 1e6])
@pytest.mark.parametrize("lam", [1.0, 0.37, 1e6])
def test_large_argument_path_matches_mpmath(nu, x, lam):
    t = x / math.sqrt(lam)
    got = little_bessel_j(nu, lam, t)
    assert got == numeric._hankel_expansion(nu, lam, t)
    want = ref.normalized_bessel(float(nu), lam, t)
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got - want) <= 1e-13 * envelope(nu, lam, t)


@pytest.mark.parametrize("nu", LARGE_NUS + [7])
def test_large_argument_path_continuous_at_the_switch(nu):
    x = numeric._ASYMPTOTIC_X
    series = numeric._bessel_series_exact(Fraction(nu), 1.0, x)
    large = little_bessel_j_with_derivatives(nu, 1.0, x)
    t_below = math.nextafter(x, 0.0)
    below = little_bessel_j_with_derivatives(nu, 1.0, t_below)
    env = envelope(nu, 1.0, x)
    assert large[0] == numeric._hankel_expansion(nu, 1.0, x)
    assert abs(large[0] - series) <= 1e-13 * env
    # the derivatives on either side of the switch against mpmath's
    for t, got in ((x, large), (t_below, below)):
        for d in (1, 2):
            assert abs(got[d] - mp_j(nu, 1.0, t, d)) <= 1e-13 * env, (t, d)
    assert abs(large[0] - below[0]) <= (x - t_below) * abs(large[1]) + 1e-13 * env


@pytest.mark.parametrize("nu", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("lam", [1.0, 250.0])
@pytest.mark.parametrize("x", [2500.0, 1e4, 1e5])
def test_large_argument_path_derivatives(nu, lam, x):
    t = x / math.sqrt(lam)
    j, dj, d2j = little_bessel_j_with_derivatives(nu, lam, t)
    env = envelope(nu, lam, t)
    assert abs(d2j + (nu / t) * dj + lam * j) <= 1e-12 * lam * env
    assert abs(dj - mp_j(nu, lam, t, 1)) <= 1e-12 * math.sqrt(lam) * env


@pytest.mark.parametrize("nu, lam, t", [
    (2, 1.0, 1.5), (Fraction(5, 2), -3.0, 2.0),            # float series
    (3, 2.0, 0.0), (Fraction(1, 3), -2.0, 0.0),            # t = 0
    (Fraction(5, 2), 1.0, 30.0), (3, -4.0, -20.0),         # fixed-point series
    (7, 0.25, 600.0), (Fraction(1, 3), -1.0, 700.0),
    (2, 1.0, 2500.0), (Fraction(7, 2), 250.0, -200.0),     # Hankel's expansion
    (31, 1.0, 5000.0), (28, 1.0, 4100.0),                  # j_{nu+2} beyond the series' budget
])
def test_derivatives_match_mpmath_on_every_path(nu, lam, t):
    # j' = -lam t/(nu+1) j_{nu+2} and j'' = -lam j - (nu/t) j', with
    # j_{nu+2} from the path j_nu took, against mpmath's derivatives;
    # the scale is j's local amplitude max(|j|, |j'|/sqrt|lam|)
    got = little_bessel_j_with_derivatives(nu, lam, t)
    want = [mp_j(nu, lam, t, n) for n in range(3)]
    size = max(abs(want[0]), abs(want[1]) / math.sqrt(abs(lam)))
    for n in range(3):
        assert abs(got[n] - want[n]) <= 1e-13 * size * abs(lam) ** (n / 2), (n, got, want)


@pytest.mark.parametrize("nu, lam, t", [
    (60, 1.0, 5000.0),    # nu too large for Hankel's expansion, x too large for the series
    (2, -1.0, 5000.0),    # lam < 0 has no large-argument path
    (2, 1e300, 1e300),    # x overflows
])
def test_beyond_both_paths_raises_quickly(nu, lam, t):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="work budget"):
        little_bessel_j(nu, lam, t)
    assert time.perf_counter() - start < 0.5


# -- non-finite inputs to the transforms ----------------------------------

@pytest.mark.parametrize("bad", NON_FINITE)
def test_poisson_rejects_non_finite(bad):
    for nu, x in ((bad, 1.0), (2.0, bad)):
        with pytest.raises(ParameterError, match="finite"):
            poisson_transform(nu, canned_fn("one"), x)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_hankel_rejects_non_finite(bad):
    for nu, lam in ((bad, 1.0), (2.0, bad)):
        with pytest.raises(ParameterError, match="finite"):
            hankel_transform(nu, canned_fn("exp"), lam)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_heat_rejects_non_finite(bad):
    with pytest.raises(ParameterError, match="finite"):
        heat_covariant(canned_fn("gauss"), bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_cosine_rejects_non_finite(bad):
    with pytest.raises(ParameterError, match="finite"):
        cosine_transform(canned_fn("gauss"), bad)


# -- Poisson transform -------------------------------------------------

def test_poisson_normalization_constant():
    # C(nu) = 2 Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2))
    for nu in (1.0, 2.0, 3.0, 3.5):
        want = float(
            2 * mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))
        )
        assert poisson_constant(nu) == pytest.approx(want, rel=1e-13)
    assert poisson_constant(2.0) == pytest.approx(1.0, rel=1e-14)


def test_poisson_of_one_is_one():
    one = canned_fn("one")
    for nu in (1, 2, 3, 3.5):
        for x in (0.5, 1.0, 4.0):
            assert poisson_transform(nu, one, x) == pytest.approx(1.0, abs=1e-10)


def test_poisson_cos_is_sinc():
    f = canned_fn("cos")
    for x in (0.5, 1.0, 2.0, 5.0):
        assert poisson_transform(2, f, x) == pytest.approx(
            math.sin(x) / x, abs=1e-8
        )
    assert abs(poisson_transform(2, f, math.pi)) <= 1e-8


def test_poisson_matches_reference_quadrature():
    nu, x = 2.5, 1.3
    f = canned_fn("exp")
    got = poisson_transform(nu, f, x)
    want = float(
        2 * mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))
        * mpmath.quad(
            lambda th: mpmath.cos(th) ** (nu - 1) * mpmath.exp(-x * mpmath.sin(th)),
            [0, mpmath.pi / 2],
        )
    )
    assert got == pytest.approx(want, rel=1e-10)


def test_poisson_is_linear():
    nu, x = 3, 2.0
    f, g = canned_fn("cos"), canned_fn("exp")
    combo = ScalarFn(
        fn=lambda t: 2 * f(t) - 3 * g(t), decay="none", growth_degree=0
    )
    got = poisson_transform(nu, combo, x)
    want = 2 * poisson_transform(nu, f, x) - 3 * poisson_transform(nu, g, x)
    assert got == pytest.approx(want, abs=1e-12)


def test_poisson_domain_guards():
    one = canned_fn("one")
    with pytest.raises(ParameterError):
        poisson_transform(0.5, one, 1.0)  # nu < 1 refused, not mis-integrated
    with pytest.raises(ParameterError):
        poisson_transform(2, one, 0.0)
    with pytest.raises(ParameterError):
        poisson_transform(2, one, -1.0)


# -- Poisson intertwining ----------------------------------------------

def test_poisson_intertwining_cos():
    grid = [0.5 + 4.5 * k / 19 for k in range(20)]
    rep = poisson_intertwining_check(2.0, canned_fn("cos"), grid)
    assert rep.max_residual <= 1e-6
    assert rep.direction_holding in ("both", "r2")


def test_poisson_intertwining_constant_holds_both_ways():
    rep = poisson_intertwining_check(2.0, canned_fn("one"), [1.0, 2.0])
    assert rep.max_residual <= 1e-6
    assert rep.direction_holding == "both"


def test_poisson_intertwining_quadratic_records_direction():
    f = ScalarFn(
        fn=lambda t: t * t,
        decay="none",
        growth_degree=2,
        dfn=lambda t: 2 * t,
        d2fn=lambda t: 2.0,
    )
    rep = poisson_intertwining_check(3.0, f, [1.0, 2.0])
    assert rep.direction_holding is not None
    assert rep.max_residual <= 1e-6  # residual of the direction that holds


def test_poisson_intertwining_refuses_nu_past_what_its_rule_resolves():
    # the 64-node rule still resolves the peak of (cos theta)^(nu-1) at
    # the bound; past it r2 crosses the default tolerance (1.0e-6 at
    # nu = 8250), so the check refuses instead of reporting "neither"
    grid = [0.5 + 4.5 * k / 19 for k in range(20)]
    rep = poisson_intertwining_check(numeric._POISSON_CHECK_MAX_NU, canned_fn("cos"), grid)
    assert rep.direction_holding == "r2"
    for nu in (math.nextafter(numeric._POISSON_CHECK_MAX_NU, math.inf), 1e5):
        with pytest.raises(ParameterError, match="64-node fixed rule"):
            poisson_intertwining_check(nu, canned_fn("cos"), grid)


# -- Hankel transform --------------------------------------------------

def test_hankel_exponential_table_values():
    # integral t e^{-t} sin(at) dt = 2a/(1+a^2)^2 gives H(e^-t) = 2/(1+lam)^2
    f = canned_fn("exp")
    assert hankel_transform(2, f, 1.0) == pytest.approx(0.5, abs=1e-6)
    assert hankel_transform(2, f, 4.0) == pytest.approx(0.08, abs=1e-6)


def test_hankel_zero_function():
    z = ScalarFn(fn=lambda t: 0.0, decay="exponential", rate=1.0)
    assert hankel_transform(2, z, 1.0) == 0.0
    assert hankel_transform(3.5, z, 0.25) == 0.0


def test_hankel_matches_reference_quadrature():
    nu, lam = 2.5, 1.5
    f = canned_fn("gauss")
    got = hankel_transform(nu, f, lam)
    want = float(
        mpmath.quad(
            lambda t: mpmath.exp(-(t**2))
            * ref.normalized_bessel(nu, lam, float(t))
            * t**nu,
            [0, 12],
        )
    )
    assert got == pytest.approx(want, abs=1e-9)


def test_hankel_compact_support_uses_the_support():
    f = canned_fn("bump")
    got = hankel_transform(2, f, 1.0)
    want = float(
        mpmath.quad(
            lambda t: (t - 1) ** 3 * (2 - t) ** 3
            * ref.normalized_bessel(2, 1.0, float(t))
            * t**2,
            [1, 2],
        )
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_hankel_domain_guards():
    f = canned_fn("exp")
    with pytest.raises(ParameterError):
        hankel_transform(0, f, 1.0)
    with pytest.raises(ParameterError):
        hankel_transform(2, f, 0.0)
    with pytest.raises(ParameterError):
        hankel_transform(2, canned_fn("one"), 1.0)  # no decay, no truncation


def test_hankel_intertwining_bump():
    for nu in (2.0, 3.0):
        rep = hankel_intertwining_check(nu, canned_fn("bump"), [0.25, 1.0, 4.0])
        assert rep.max_residual <= 1e-6, nu


def test_hankel_intertwining_requires_interior_support():
    whole_line = canned_fn("gauss")
    with pytest.raises(ParameterError):
        hankel_intertwining_check(2.0, whole_line, [1.0])


# -- heat kernel smoothing ---------------------------------------------

def test_heat_covariant_gaussian_moments():
    # E s^{2n} = (2n-1)!! (2u)^n under the kernel e^{-s^2/4u}/(2 sqrt(pi u))
    sq = ScalarFn(fn=lambda t: t * t / 2, decay="none", growth_degree=2)
    assert heat_covariant(sq, 1.0) == pytest.approx(1.0, abs=1e-10)
    quart = ScalarFn(fn=lambda t: t**4 / 24, decay="none", growth_degree=4)
    assert heat_covariant(quart, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_heat_covariant_normalized():
    one = canned_fn("one")
    for u in (0.25, 1.0, 4.0):
        assert heat_covariant(one, u) == pytest.approx(1.0, abs=1e-10)


def test_heat_covariant_matches_symbolic_transform():
    # numeric smoothing of t^{2n}/(2n)! against the exact image u^n/n!
    m = build_model("heat", 4)
    for n in range(5):
        f = m.basis[n]
        coeffs = [float(c) for c in f.coeffs]

        def poly(t, cs=coeffs):
            acc = 0.0
            for c in reversed(cs):
                acc = acc * t + c
            return acc

        sf = ScalarFn(fn=poly, decay="none", growth_degree=2 * n)
        exact = covariant_w0(m, f)
        for u in (0.5, 1.0, 2.0):
            want = float(exact.eval(Fraction(u)))
            assert heat_covariant(sf, u) == pytest.approx(want, abs=1e-8), (n, u)


@pytest.mark.parametrize("u", [1.0, 10.0, 40.0])
def test_heat_covariant_of_a_growing_exponential_is_e_to_the_u(u):
    """The heat smoothing of e^(-s) at time u is e^u.  Its integrand
    peaks at s = -2u, where |f| = e^(2u) > 1, so the cut must grow with
    |f| there (at u = 40 a cut that assumed |f| <= 1 gave a relative
    error of 3.8e-8)."""
    assert heat_covariant(canned_fn("exp"), u) == pytest.approx(math.exp(u), rel=1e-12)


_HEAT_CLOSED_FORMS = {
    "cos": (canned_fn("cos"), lambda u: math.exp(-u)),
    "gauss": (canned_fn("gauss"), lambda u: 1.0 / math.sqrt(1.0 + 4.0 * u)),
    "one": (canned_fn("one"), lambda u: 1.0),
    "exp": (canned_fn("exp"), math.exp),
    "1+2t+3t^2": (
        ScalarFn(fn=lambda t: 1.0 + 2.0 * t + 3.0 * t * t, decay="none", growth_degree=2),
        lambda u: 1.0 + 6.0 * u,
    ),
}


@pytest.mark.parametrize("name", sorted(_HEAT_CLOSED_FORMS))
def test_heat_covariant_at_a_small_time_is_the_closed_form(name):
    """At small u the kernel is a peak about 2 sqrt(u) wide, so the cut
    follows it below 1 and the tail bound holds there (a cut floored at
    1 let the panels on [-1, 1] miss the peak and gave 0 for u <= 1e-9),
    with abs_tol divided by the kernel's norm as it grows."""
    f, want = _HEAT_CLOSED_FORMS[name]
    for u in [10.0 ** -k for k in (*range(1, 16), 30, 100, 300)]:
        assert heat_covariant(f, u) == pytest.approx(want(u), rel=1e-9), u


def test_heat_covariant_refuses_an_exponential_that_overflows_at_its_cut():
    """At u = 100 the tail bound for e^(-s) is met only where e^(-s)
    overflows a float; that is a QuadratureError, not an OverflowError
    (and not the 1.53e43 printed for e^100 = 2.69e43 before)."""
    with pytest.raises(QuadratureError, match="overflows at the cut"):
        heat_covariant(canned_fn("exp"), 100.0)


def test_heat_covariant_refuses_a_function_that_is_not_finite_at_its_cut():
    nan_edge = ScalarFn(fn=lambda t: math.nan if abs(t) > 30 else 0.0, decay="exponential", rate=1.0)
    with pytest.raises(QuadratureError, match="overflows at the cut"):
        heat_covariant(nan_edge, 100.0)


def test_heat_covariant_needs_positive_time():
    with pytest.raises(ParameterError):
        heat_covariant(canned_fn("one"), 0.0)


# -- cosine transform --------------------------------------------------

def test_cosine_gaussian_closed_form():
    f = canned_fn("gauss")
    for v in (0.25, 1.0, 2.0):
        want = math.sqrt(math.pi) * math.exp(-v / 4)
        assert cosine_transform(f, v) == pytest.approx(want, abs=1e-8), v


def test_cosine_gaussian_at_zero_frequency():
    assert cosine_transform(canned_fn("gauss"), 0.0) == pytest.approx(
        math.sqrt(math.pi), abs=1e-8
    )


def test_cosine_kills_odd_functions():
    odd = ScalarFn(
        fn=lambda t: t * math.exp(-(t * t)), decay="exponential", rate=1.0
    )
    assert cosine_transform(odd, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_cosine_refuses_undecayed_input():
    with pytest.raises(ParameterError):
        cosine_transform(canned_fn("one"), 1.0)


def test_cosine_consistent_with_heat_generating_rows():
    # rows of the heat model's generating table, its basis p_k, are
    # t^{2k}/(2k)!, the series of cos(sqrt(v) t) at v = -s; check
    # d^2/dt^2 row_k = row_{k-1}
    rows = [list(p.coeffs) for p in build_model("heat", 5).basis]
    for k in range(1, 6):
        twice = ref.p_deriv(ref.p_deriv([Fraction(c) for c in rows[k]]))
        assert ref.p_trim(twice) == ref.p_trim(
            [Fraction(c) for c in rows[k - 1]]
        ), k


# -- canned functions --------------------------------------------------

def test_canned_catalog():
    for name in ("one", "cos", "exp", "gauss", "bump"):
        f = canned_fn(name)
        assert isinstance(f(1.5), float)
    with pytest.raises(ParameterError, match="one"):
        canned_fn("sine")


def test_bump_derivatives_are_consistent():
    f = canned_fn("bump")
    h = 1e-5
    for t in (1.2, 1.5, 1.8):
        fd = (f(t + h) - f(t - h)) / (2 * h)
        assert f.dfn(t) == pytest.approx(fd, abs=1e-8)
        sd = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        assert f.d2fn(t) == pytest.approx(sd, abs=1e-5)
    assert f(0.9) == 0.0 and f(2.1) == 0.0


def test_results_are_deterministic():
    f = canned_fn("gauss")
    spec = QuadratureSpec()
    a = cosine_transform(f, 1.0, spec)
    b = cosine_transform(f, 1.0, spec)
    assert a == b  # bitwise
    assert hankel_transform(2, canned_fn("exp"), 1.0) == hankel_transform(
        2, canned_fn("exp"), 1.0
    )
