"""Floating-point transforms tied to the singular second-order operator
B f = f'' + (nu/t) f', and residual checks of the relations that make
them transmutations.

The checks never differentiate under the integral sign: outer
derivatives are Richardson-extrapolated central differences over a
*fixed* quadrature rule, so the integration error varies smoothly with
the evaluation point and cancels in the difference quotients.  An
adaptive rule there would amplify its panel-boundary noise by 1/h^2.

The kernel j_nu has three evaluation paths, chosen from the argument
(see little_bessel_j): its power series in floats for small arguments,
the same series in fixed point with a certified rounding check, and
Hankel's asymptotic expansion for large arguments.  Every evaluation
either returns within about a second or raises ParameterError, as does
a non-finite input to any transform.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import count
from typing import Callable, Sequence

from .core import ParameterError, QuadratureError
from .quadrature import FIXED, QuadratureSpec, ScalarFn, integrate
from .reports import ResidualReport

_EXACT_SERIES_THRESHOLD = 25.0   # on |lam| t^2; see little_bessel_j
_ASYMPTOTIC_X = 2000.0           # x = sqrt(lam) |t| from which Hankel's expansion may run;
                                 # the series takes about 6.5 ms a call there, 2.5 ms at
                                 # x = 1200 (lam = 1, t = x, one 2-vCPU Xeon core)
_SERIES_MAX_X = 4000.0           # work budget of the fixed-point series, on x
_GUARD_BITS = 64                 # first guard beyond 53 bits; doubled on each retry
_GUARD_RETRIES = 6
_STOP_INV = 10 ** 25             # the series stops at an n > peak with |term_n| < 1e-25 / 2^k
_LOG2_E = 1.4426950408889634
_POISSON_MAX_NU = 1e6            # see poisson_transform
_POISSON_CHECK_MAX_NU = 8000.0   # see poisson_intertwining_check


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")


def little_bessel_j(nu: float | Fraction, lam: float, t: float) -> float:
    """Normalized Bessel-type oscillation: the entire series
    sum_n (-lam)^n t^(2n) / c_n with c_n = prod_{k<=n} 2k(2k+nu-1),
    i.e. the solution of B_nu j = -lam j with j(0) = 1, j'(0) = 0.
    For nu = 2 this telescopes to sin(sqrt(lam) t)/(sqrt(lam) t).
    It takes one of three paths, with z = lam t^2 and x = sqrt(|z|):

    - |z| <= 25: the float series (_bessel_series_float), whose terms
      stay below e^5, so it loses at most a few bits to cancellation;
    - where _hankel_applies: Hankel's expansion (_hankel_expansion),
      within a few hundred ulps of the envelope
      Gamma(a+1) (2/x)^a sqrt(2/(pi x)), a = (nu-1)/2;
    - otherwise, up to x = 4000: the series in fixed point
      (_bessel_series_exact), correctly rounded.

    Each path takes at most about a second; an input beyond all three,
    a non-finite one and a result beyond the double range raise
    ParameterError."""
    _require_finite(nu=nu, lam=lam, t=t)
    if nu <= 0:
        raise ParameterError(f"need nu > 0, got {nu}")
    if abs(lam * t * t) <= _EXACT_SERIES_THRESHOLD:
        return _bessel_series_float(float(nu), lam, t)
    x = math.sqrt(abs(lam)) * abs(t)
    if _hankel_applies(nu, lam, x):
        return _hankel_expansion(nu, lam, t)
    if x > _SERIES_MAX_X:
        raise ParameterError(
            f"j_nu(nu={nu}, lambda={lam!r}, t={t!r}) is beyond the work budget: "
            f"x = sqrt(|lambda|) |t| = {x:.6g} exceeds {_SERIES_MAX_X:g} for the "
            "series, and Hankel's expansion needs lambda > 0 and "
            "x >= 16 (|nu-1|/2 + 2)^2"
        )
    return _bessel_series_exact(Fraction(nu), lam, t)


def little_bessel_j_with_derivatives(
    nu: float | Fraction, lam: float, t: float
) -> tuple[float, float, float]:
    """(j, j', j'') with j' = -lam t/(nu+1) j_{nu+2} (DLMF 10.6.2) and
    the ODE j'' = -lam j - (nu/t) j', whose limit at t = 0 is
    -lam/(nu+1); used to measure the defining ODE's residual without
    finite differences.  j_{nu+2} comes from Hankel's expansion where
    j_nu does, which the + 2 in _hankel_applies allows for, and from
    little_bessel_j elsewhere."""
    j = little_bessel_j(nu, lam, t)
    if t == 0.0:
        return j, 0.0, -lam / (float(nu) + 1.0)
    x = math.sqrt(abs(lam)) * abs(t)
    up = _hankel_expansion if _hankel_applies(nu, lam, x) else little_bessel_j
    d1 = -lam * t / (nu + 1) * up(nu + 2, lam, t)
    d2 = -lam * j - nu * d1 / t
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise ParameterError(f"the derivatives of j_nu(nu={nu}, lambda={lam!r}, t={t!r}) overflow")
    return j, d1, d2


def _hankel_applies(nu: float | Fraction, lam: float, x: float) -> bool:
    """Whether Hankel's expansion serves j_nu at x = sqrt(lam) |t|: for
    lam > 0 from x = 2000 on, where it needs 16 (|a| + 1)^2 <= x with
    a = (nu-1)/2; the + 2 here lets j_{nu+2} (a + 1) use it as well."""
    return lam > 0 and _ASYMPTOTIC_X <= x < math.inf and 16 * (abs(nu - 1) / 2 + 2) ** 2 <= x


def _bessel_series_float(nu: float, lam: float, t: float) -> float:
    # term_n = (-lam)^n t^(2n) / c_n
    term = acc = 1.0
    w = -lam * t * t
    n = 0
    while True:
        n += 1
        term *= w / (2 * n * (2 * n + nu - 1))
        acc += term
        if abs(term) <= 1e-18 * (1.0 + abs(acc)) and n > 2:
            return acc


def _bessel_series_exact(nu: Fraction, lam: float, t: float) -> float:
    """The series for |lam| t^2 > 25, where floats would lose most of
    their digits to cancellation: the terms peak near e^x, x =
    sqrt(|lam|) |t|, while the sum is O(x^(-nu/2)) for lam > 0.

    The value is the correctly rounded double of the partial sum through
    the first n > isqrt(|lam t^2|) + 2 with |term_n| < 1e-25 / 2^k,
    which is what summing the same terms in Fractions and rounding once
    gives.  k = _stop_halvings(z, nu) is 0 unless lam > 0 and j_nu's
    envelope is below about 1.15e-7; then the stop follows the envelope
    down, so that a small j_nu keeps its own digits.  The terms are
    summed in fixed point over integers scaled by 2^P,
    P = bits(e^x) + k + 53 + guard bits, with the rounding-error bound
    of _fixed_point_series.  Where the stop test is in doubt, the terms
    after the first doubtful n widen the bound.
    A value returns only when both ends of the enclosure round to the
    same double; otherwise the guard bits double, at most
    _GUARD_RETRIES times (Ziv, ACM TOMS 17(3), 1991).  The cost is
    O(x^2) bit operations per try."""
    (ln, ld), (tn, td) = lam.as_integer_ratio(), t.as_integer_ratio()
    z = Fraction(ln * tn * tn, ld * td * td)
    k = _stop_halvings(z, nu)
    top = int(math.sqrt(abs(z.numerator) / z.denominator) * _LOG2_E) + 2   # terms < e^x
    guard = _GUARD_BITS
    for _ in range(_GUARD_RETRIES):
        prec = top + k + 53 + guard
        s, err = _fixed_point_series(z, nu, k, prec)
        # the value is s / 2^prec to within err / 2^prec
        lo = _ratio_to_float(s - err, 1 << prec)
        hi = _ratio_to_float(s + err, 1 << prec)
        if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
            if math.isinf(lo):
                raise ParameterError(
                    f"j_nu(nu={nu}, lambda={lam!r}, t={t!r}) exceeds the double "
                    "range (|value| > 1.8e308)"
                )
            return lo
        guard *= 2
    raise ParameterError(
        f"j_nu(nu={nu}, lambda={lam!r}, t={t!r}) could not be rounded in "
        f"{_GUARD_RETRIES} tries"
    )


def _stop_halvings(z: Fraction, nu: Fraction) -> int:
    """k >= 0, the fewest halvings that bring the stop level 1e-25 of
    _bessel_series_exact to 2^-60 of the envelope
    Gamma(a+1) (2/x)^a sqrt(2/(pi x)) of j_nu, a = (nu-1)/2,
    x = sqrt(z), for z > 0; for z < 0, where j_nu grows, 0.  So the
    stop 1e-25 / 2^k is min(1e-25, 2^-60 envelope) to within a factor
    2, and k = 0 wherever the envelope is at least about 1.15e-7."""
    if z.numerator < 0:
        return 0
    a = (nu.numerator / nu.denominator - 1.0) / 2.0
    x = math.sqrt(z.numerator / z.denominator)
    log_env = math.lgamma(a + 1.0) + a * math.log(2.0 / x) + 0.5 * math.log(2.0 / (math.pi * x))
    return max(0, math.ceil(60 - log_env * _LOG2_E - math.log2(_STOP_INV)))


def _fixed_point_series(z: Fraction, nu: Fraction, k: int, prec: int) -> tuple[int, int]:
    """(s, err): 2^prec times the partial sum of _bessel_series_exact,
    with the stop 1e-25 / 2^k, is within err of s; z != 0.

    The scaled term T_n is the floor of T_{n-1} r_n,
    r_n = -z / (2n (2n + nu - 1)), so its error is at most
    sum_{j<=n} |T_n / T_j|.  Up to peak = isqrt(|z|) + 2 its bound is
    fixed in advance: e_n <= n E, E = max(1, ceil(2^top / |T_1|)).  Two
    premises make that sound: |r_n| falls with n, so log |T_n| is concave
    and the least |T_j| on [1, n] is at one end; and every |T_n| <= e^x <
    2^top.  Past the peak |r_n| < 1/4, and e_n <= floor(e_{n-1} / 4) + 2
    shrinks by a factor of 4 a term down to 2, so the stop test needs
    2^prec // (1e25 2^k) > 2; a lower precision is refused."""
    one, stop = 1 << prec, _STOP_INV << k
    below = one // stop                # |T| + e < below: surely |term_n| < 1e-25 / 2^k
    if below <= 2:
        raise ParameterError(f"precision 2^{prec} cannot resolve the stop 1e-25 / 2^{k}")
    # z = zn / (2^m o) with o odd: each step floors by 2^m, then by o d_n
    (zn, zd), (p, q) = z.as_integer_ratio(), nu.as_integer_ratio()
    m = (zd & -zd).bit_length() - 1
    o2 = 2 * (zd >> m)
    mul, q2, c = -zn * q, 2 * q, p - q
    peak = math.isqrt(abs(zn) // zd) + 2
    top = int(math.sqrt(abs(zn) / zd) * _LOG2_E) + 2
    big_e = max(1, -(-(2 * (p + q) * zd << top) // (abs(zn) * q)))   # 2^top / |T_1|
    term = s = one
    for n in range(1, peak + 1):
        term = (term * mul >> m) // (o2 * n * (q2 * n + c))
        s += term
    e, err = peak * big_e, big_e * peak * (peak + 1) // 2   # the sum of n E over n <= peak
    above = -(-one // stop)            # |T| - e >= above: surely not
    widen = -1                         # < 0 until the stop test is first in doubt
    for n in count(peak + 1):
        term = (term * mul >> m) // (o2 * n * (q2 * n + c))
        e = e // 4 + 2
        s += term
        err += e
        a = abs(term)
        if widen >= 0:
            widen += a + e
        if a + e < below:
            return s, err + max(widen, 0)
        if widen < 0 and a - e < above:
            widen = 0


def _ratio_to_float(num: int, den: int) -> float:
    """num / den correctly rounded, or a signed infinity past the double
    range; den > 0."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _hankel_expansion(nu: float | Fraction, lam: float, t: float) -> float:
    """Gamma(a+1) (2/x)^a J_a(x), a = (nu-1)/2, x = sqrt(lam) |t|, with
    J_a(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/4, from
    Hankel's expansion (DLMF 10.17.3).  Where 16 (|a| + 1)^2 <= x every
    term the sums use is below 1/32 of the one before; they stop past
    k = a + 1 at a term below 2^-64, which then bounds the remainder
    (DLMF 10.17(iii)).  The phase keeps the bits that rounding x to a
    double loses, so the error stays within a few hundred ulps of the
    envelope Gamma(a+1) (2/x)^a sqrt(2/(pi x)), most of them from the
    exp of its logarithm."""
    a = (float(nu) - 1.0) / 2.0
    x = math.sqrt(lam) * abs(t)
    xq = Fraction(x)
    dx = float((Fraction(lam) * Fraction(t) ** 2 - xq * xq) / (2 * xq))
    mu = 4.0 * a * a
    pq = [0.0, 0.0]
    u, k = 1.0, 0
    while True:
        # u_k = a_k(a) / x^k; P = u_0 - u_2 + u_4 - ..., Q = u_1 - u_3 + ...
        pq[k % 2] += u if k % 4 < 2 else -u
        k += 1
        u *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if u == 0.0 or (abs(u) < 2.0 ** -64 and k > a + 1):
            break
    # w = x + dx - r pi with r = nu/4 mod 2
    r = float(Fraction(nu) / 4 % 2) * math.pi
    cx, sx = math.cos(x), math.sin(x)
    cd, sd = math.cos(dx - r), math.sin(dx - r)
    px = math.pi * x   # past the double range from x = 5.7e307 on
    log_px = math.log(2.0 / px) if px < math.inf else math.log(2.0 / math.pi) - math.log(x)
    envelope = math.exp(math.lgamma(a + 1.0) + a * math.log(2.0 / x) + 0.5 * log_px)
    return envelope * (pq[0] * (cx * cd - sx * sd) - pq[1] * (sx * cd + cx * sd))


def poisson_constant(nu: float) -> float:
    """C(nu) = 2 Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2)); normalizes
    the transform so constants map to themselves.  Where the Gammas
    overflow (nu > 341.97) it is 2 sqrt(x/pi) exp(-1/(8x) + 1/(192x^3) -
    1/(640x^5)), x = nu/2, from the log-Gamma series, exact to 1e-18."""
    try:
        c = 2.0 * math.gamma((nu + 1) / 2) / (math.sqrt(math.pi) * math.gamma(nu / 2))
    except OverflowError:
        c = math.inf
    if c < math.inf:
        return c
    u = 2.0 / nu
    return 2.0 * math.sqrt(1.0 / (u * math.pi)) * math.exp(-u / 8 + u ** 3 / 192 - u ** 5 / 640)


def poisson_transform(
    nu: float, f: ScalarFn, x: float, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """C(nu) * integral_0^(pi/2) (cos theta)^(nu-1) f(x sin theta)
    dtheta.  The sine substitution has already absorbed the endpoint
    singularity of the (x^2-t^2) kernel, but only for nu >= 1; smaller
    nu is refused rather than mis-integrated.  So is nu > 1e6, where
    (cos theta)^(nu-1) has a rounding error of about nu 2^-53 and a peak
    at 0 of width nu^(-1/2), soon narrower than the rule can see.  The
    absolute tolerance of ``q`` bounds the value, C(nu) times the
    integral, to within a factor of 2: the integral gets it divided by
    the integer part of C(nu), at least 1.  Below nu = 6.28, where
    C(nu) < 2, that is 1 and no value moves; C(nu) grows like
    sqrt(2 nu / pi), 252 at nu = 1e5."""
    _require_finite(nu=nu, x=x)
    if nu < 1:
        raise ParameterError(
            f"poisson_transform supports nu >= 1 only, got {nu:g}"
        )
    if nu > _POISSON_MAX_NU:
        raise ParameterError(
            f"poisson_transform supports nu <= {_POISSON_MAX_NU:g} only, got {nu:g}"
        )
    if x <= 0:
        raise ParameterError(f"need x > 0, got {x:g}")

    def integrand(theta: float) -> float:
        c = math.cos(theta)
        return (c ** (nu - 1.0) if nu != 1 else 1.0) * f(x * math.sin(theta))

    c = poisson_constant(nu)
    q = replace(q, abs_tol=q.abs_tol / max(math.floor(c), 1))
    return c * integrate(integrand, 0.0, math.pi / 2, q)


def _richardson_d1(g: Callable[[float], float], x: float, h: float) -> float:
    coarse = (g(x + h) - g(x - h)) / (2 * h)
    fine = (g(x + h / 2) - g(x - h / 2)) / h
    return (4 * fine - coarse) / 3


def _richardson_d2(g: Callable[[float], float], x: float, h: float) -> float:
    gx = g(x)
    coarse = (g(x + h) - 2 * gx + g(x - h)) / (h * h)
    fine = (g(x + h / 2) - 2 * gx + g(x - h / 2)) / (h * h / 4)
    return (16 * fine - coarse) / 15


def singular_second_order(nu: float, f: ScalarFn) -> ScalarFn:
    """B f = f'' + (nu/t) f' from the declared analytic derivatives,
    with the regular value (1+nu) f''(0) at the origin (which needs
    f'(0) = 0, the caller's standing hypothesis)."""
    if f.dfn is None or f.d2fn is None:
        raise ParameterError(
            "applying the singular operator needs analytic dfn and d2fn"
        )

    def bf(t: float) -> float:
        if t == 0.0:
            return (1.0 + nu) * f.d2fn(0.0)
        return f.d2fn(t) + nu * f.dfn(t) / t

    return replace(f, fn=bf, dfn=None, d2fn=None)


def poisson_intertwining_check(
    nu: float,
    f: ScalarFn,
    grid: Sequence[float],
    tol: float = 1e-6,
) -> ResidualReport:
    """Measure both candidate transmutation relations on a grid:

        r1(x) = P(B f)(x) - d^2/dx^2 [P f](x)
        r2(x) = B[P f](x) - P(f'')(x)

    and record which of them holds to the tolerance.  Derivatives in x
    are Richardson-extrapolated central differences, step h = 1e-3,
    over P on one 64-node fixed panel, so the quadrature error cancels
    in the quotients; every grid point must exceed h.  The rule
    resolves the nu^(-1/2)-wide peak of (cos theta)^(nu-1) up to
    nu = 8000: past it, r2 on the cos grid reaches 1e-6 at nu = 8250
    and 1.7e-3 at nu = 1e5, so larger nu is refused rather than
    reported as failing."""
    q, h = QuadratureSpec(rule=FIXED, nodes=64), 1e-3
    if f.dfn is None or f.d2fn is None:
        raise ParameterError("intertwining check needs analytic dfn and d2fn")
    if nu > _POISSON_CHECK_MAX_NU:
        raise ParameterError(
            f"poisson-intertwining supports nu <= {_POISSON_CHECK_MAX_NU:g} only, got {nu:g}: its "
            f"{q.nodes}-node fixed rule cannot resolve the nu^(-1/2)-wide peak of (cos theta)^(nu-1)")
    for x in grid:
        if x <= h:
            raise ParameterError(
                f"poisson-intertwining needs every grid point x > h = {h:g}, the difference "
                f"step, got {x:g}")
    bf = singular_second_order(nu, f)
    f2 = replace(f, fn=f.d2fn, dfn=None, d2fn=None)

    @cache
    def pf(x: float) -> float:
        return poisson_transform(nu, f, x, q)

    r1s: list[float] = []
    r2s: list[float] = []
    for x in grid:
        d1 = _richardson_d1(pf, x, h)
        d2 = _richardson_d2(pf, x, h)
        r1s.append(abs(poisson_transform(nu, bf, x, q) - d2))
        r2s.append(abs(d2 + nu * d1 / x - poisson_transform(nu, f2, x, q)))
    m1 = max(r1s, default=0.0)
    m2 = max(r2s, default=0.0)
    if m1 <= tol and m2 <= tol:
        holding = "both"
    elif m2 <= tol:
        holding = "r2"
    elif m1 <= tol:
        holding = "r1"
    else:
        holding = "neither"
    return ResidualReport(
        check="poisson-intertwining",
        params={
            "nu": nu, "h": h, "tol": tol, "nodes": q.nodes,
            "r1": "P(Bf) - (Pf)''", "r2": "B(Pf) - P(f'')",
        },
        grid=list(grid),
        residuals={"r1": m1, "r2": m2},
        max_residual=min(m1, m2),
        direction_holding=holding,
    )


def _hankel_cutoff(nu: float, f: ScalarFn, q: QuadratureSpec) -> float:
    r = f.rate
    t = max(20.0 / r, 20.0)
    # the t^nu factor can push the nominal e^{-20} tail above tolerance;
    # grow until the crude bound 2 T^nu e^{-rT}/r clears abs_tol
    while 2.0 * t ** nu * math.exp(-r * t) / r > q.abs_tol:
        t *= 1.5
        if t > 1e4:
            raise QuadratureError(
                f"cannot meet tail bound {q.abs_tol:g} for rate {r:g}"
            )
    return t


def hankel_transform(
    nu: float, f: ScalarFn, lam: float, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """integral_0^inf f(t) j_nu(lam, t) t^nu dt, truncated where the
    declared decay makes the tail negligible.  The kernel is this
    module's little_bessel_j at the same nu, which in classical
    notation is the normalized Bessel function of order (nu-1)/2; at
    nu = 2 the transform is the sine transform divided by sqrt(lam)."""
    _require_finite(nu=nu, lam=lam)
    if nu <= 0:
        raise ParameterError(f"hankel_transform needs nu > 0, got {nu:g}")
    if lam <= 0:
        raise ParameterError(f"need lam > 0, got {lam:g}")
    if f.decay not in ("compact", "exponential"):
        raise ParameterError(
            "hankel_transform needs declared decay (compact or exponential)"
        )
    try:   # the weight t^nu is largest at hi, where it must stay a double
        lo, hi = (max(0.0, f.a), f.b) if f.decay == "compact" else (0.0, _hankel_cutoff(nu, f, q))
        hi ** nu
    except OverflowError:
        raise ParameterError(
            f"hankel_transform: t^nu leaves the double range for nu = {nu:g}") from None

    def integrand(t: float) -> float:
        return f(t) * little_bessel_j(nu, lam, t) * t ** nu

    return integrate(integrand, lo, hi, q)


def hankel_intertwining_check(
    nu: float,
    f: ScalarFn,
    lam_grid: Sequence[float],
    tol: float = 1e-6,
) -> ResidualReport:
    """|H(B f)(lam) + lam H f(lam)| over the grid, for f smooth and
    supported away from 0 (so B f needs no regularization).  A pass
    means the transform really does turn the singular operator into
    multiplication by -lam."""
    if f.decay != "compact" or f.a is None or f.a <= 0:
        raise ParameterError(
            "hankel intertwining needs compact support inside (0, inf)"
        )
    bf = singular_second_order(nu, f)
    residuals: dict[str, float] = {}
    worst = 0.0
    for lam in lam_grid:
        r = abs(
            hankel_transform(nu, bf, lam)
            + lam * hankel_transform(nu, f, lam)
        )
        residuals[f"{lam:g}"] = r
        worst = max(worst, r)
    return ResidualReport(
        check="hankel-intertwining",
        params={"nu": nu, "tol": tol, "support": [f.a, f.b]},
        grid=list(lam_grid),
        residuals=residuals,
        max_residual=worst,
        direction_holding="holds" if worst <= tol else "fails",
    )


def _edge_size(f: ScalarFn, t: float, u: float) -> float:
    """max(1, |f(+-t)|) under exponential decay, where f need not be
    bounded by 1 (e^(-t) grows on the left); refuses an f that
    overflows or is not finite at +-t."""
    if f.decay != "exponential":
        return 1.0
    try:
        sizes = [abs(f(-t)), abs(f(t))]
    except OverflowError:
        sizes = [math.inf]
    if not all(x < math.inf for x in sizes):  # also refuses NaN
        raise QuadratureError(f"heat_covariant: f overflows at the cut +-{t:g} for u={u:g}")
    return max(1.0, *sizes)


def _gaussian_cutoff(f: ScalarFn, u: float, q: QuadratureSpec) -> float:
    g = f.growth_degree if f.decay == "none" else 0
    t = max(4.0 * math.sqrt(u), math.sqrt(16.0 * g * u))
    # for s >= t (and t^2 >= 16gu) the integrand is below max(1, t)^g
    # e^{-s^2/8u} e^{-t^2/8u}, times f's size at the cut, so the tail
    # loses to this bound; t^g alone falls below |f| once t < 1
    while (_edge_size(f, t, u) * max(1.0, t) ** g * math.exp(-t * t / (8.0 * u))
           * math.sqrt(8.0 * math.pi * u) > q.abs_tol):
        t *= 1.5
        if t > 1e6:
            raise QuadratureError(
                f"cannot meet Gaussian tail bound {q.abs_tol:g} at u={u:g}"
            )
    return t


def heat_covariant(
    f: ScalarFn, u: float, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """(1/(2 sqrt(pi u))) integral f(s) exp(-s^2/4u) ds: smoothing by
    the heat kernel at time u.  Polynomially growing f is fine; the
    kernel picks the truncation point, scaled under exponential decay by
    |f| at the cut, since e^(-s) grows on the left.  Where f overflows
    at the cut before the tail bound is met (``--fn exp`` at u = 100,
    whose integrand peaks near e^u at s = -2u) it raises
    QuadratureError."""
    _require_finite(u=u)
    if u <= 0:
        raise ParameterError(f"need u > 0, got {u:g}")
    norm = 1.0 / (2.0 * math.sqrt(math.pi * u))
    q = replace(q, abs_tol=q.abs_tol / max(math.floor(norm), 1))
    if f.decay == "compact":
        lo, hi = f.a, f.b
    else:
        t = _gaussian_cutoff(f, u, q)
        lo, hi = -t, t

    def integrand(s: float) -> float:
        return f(s) * math.exp(-s * s / (4.0 * u))

    return norm * integrate(integrand, lo, hi, q)


def cosine_transform(
    f: ScalarFn, v: float, q: QuadratureSpec = QuadratureSpec()
) -> float:
    """integral f(t) cos(sqrt(v) t) dt over the whole line.  Nothing
    here damps the integrand, so undeclared decay is refused, and so is
    an exponential declaration that f breaks at a cut point +-T:
    |f(+-T)| must not exceed e^(-rate T)."""
    _require_finite(v=v)
    if v < 0:
        raise ParameterError(f"need v >= 0, got {v:g}")
    if f.decay == "compact":
        lo, hi = f.a, f.b
    elif f.decay == "exponential":
        t = max(20.0 / f.rate, 20.0)
        lo, hi = -t, t
        bound = math.exp(-f.rate * t)
        for side, at in (("left", lo), ("right", hi)):
            if not abs(f(at)) <= bound:
                raise ParameterError(
                    f"cosine_transform: |f({at:g})| = {abs(f(at)):.6g} breaks the declared "
                    f"decay e^(-{f.rate:g}*{t:g}) = {bound:.6g} on the {side}")
    else:
        raise ParameterError(
            "cosine_transform needs declared decay (compact or exponential)"
        )
    sv = math.sqrt(v)

    def integrand(t: float) -> float:
        return f(t) * math.cos(sv * t)

    return integrate(integrand, lo, hi, q)


# canned functions shared by the command line and the test suite

def _bump(t: float) -> float:
    if t <= 1.0 or t >= 2.0:
        return 0.0
    return (t - 1.0) ** 3 * (2.0 - t) ** 3


def _bump_d1(t: float) -> float:
    if t <= 1.0 or t >= 2.0:
        return 0.0
    return 3.0 * (t - 1.0) ** 2 * (2.0 - t) ** 2 * (3.0 - 2.0 * t)


def _bump_d2(t: float) -> float:
    if t <= 1.0 or t >= 2.0:
        return 0.0
    return 6.0 * (t - 1.0) * (2.0 - t) * (
        (2.0 - t) * (3.0 - 2.0 * t)
        - (t - 1.0) * (3.0 - 2.0 * t)
        - (t - 1.0) * (2.0 - t)
    )


CANNED_FNS: dict[str, ScalarFn] = {
    "one": ScalarFn(
        fn=lambda t: 1.0, decay="none",
        dfn=lambda t: 0.0, d2fn=lambda t: 0.0,
    ),
    "cos": ScalarFn(
        fn=math.cos, decay="none",
        dfn=lambda t: -math.sin(t), d2fn=lambda t: -math.cos(t),
    ),
    "exp": ScalarFn(
        fn=lambda t: math.exp(-t), decay="exponential", rate=1.0,
        dfn=lambda t: -math.exp(-t), d2fn=lambda t: math.exp(-t),
    ),
    "gauss": ScalarFn(
        fn=lambda t: math.exp(-t * t), decay="exponential", rate=1.0,
        dfn=lambda t: -2.0 * t * math.exp(-t * t),
        d2fn=lambda t: (4.0 * t * t - 2.0) * math.exp(-t * t),
    ),
    "bump": ScalarFn(
        fn=_bump, decay="compact", a=1.0, b=2.0,
        dfn=_bump_d1, d2fn=_bump_d2,
    ),
}


def canned_fn(name: str) -> ScalarFn:
    try:
        return CANNED_FNS[name]
    except KeyError:
        raise ParameterError(
            f"unknown function {name!r}; choose from {', '.join(sorted(CANNED_FNS))}"
        ) from None
