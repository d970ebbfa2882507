"""Expected answers for the benchmark's requests, from first principles.

Nothing here imports umbra.  The exact half rebuilds each catalog basis
from its textbook definition on plain Fraction coefficient lists and
expands polynomials in it by triangular back-substitution; the float
half uses closed forms evaluated with mpmath at 40 digits, or mpmath
quadrature where no closed form is at hand.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40

EVEN_MODELS = ("heat", "bessel")


# -- exact half --------------------------------------------------------

def _p_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _monomial(deg: int, coeff: Fraction) -> list[Fraction]:
    return [Fraction(0)] * deg + [coeff]


def index_degree(model: str, n: int) -> int:
    return 2 * n if model in EVEN_MODELS else n


def degree_cap(model: str, n_max: int) -> int:
    return 2 * n_max if model in EVEN_MODELS else n_max


def basis(model: str, n_max: int, nu: Fraction | None = None) -> list[list[Fraction]]:
    """p_0 .. p_{n_max} of a catalog model as coefficient lists.

    monomial t^n/n!; falling and rising factorials over n!; He_n/n! by
    the three-term recurrence; heat t^(2n)/(2n)!; bessel t^(2n)/c_n with
    c_n = prod_{k<=n} 2k(2k + nu - 1)."""
    out: list[list[Fraction]] = []
    if model == "monomial":
        return [_monomial(n, Fraction(1, math.factorial(n))) for n in range(n_max + 1)]
    if model in ("lower-factorial", "upper-factorial"):
        sign = -1 if model == "lower-factorial" else 1
        p = [Fraction(1)]
        for n in range(n_max + 1):
            out.append([c / math.factorial(n) for c in p])
            p = _p_mul(p, [Fraction(sign * n), Fraction(1)])
        return out
    if model == "hermite":
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        he = [prev, cur]
        for n in range(1, n_max):
            nxt = _p_mul([Fraction(0), Fraction(1)], cur)
            for k, c in enumerate(prev):
                nxt[k] -= n * c
            prev, cur = cur, nxt
            he.append(cur)
        return [[c / math.factorial(n) for c in he[n]] for n in range(n_max + 1)]
    if model == "heat":
        return [_monomial(2 * n, Fraction(1, math.factorial(2 * n))) for n in range(n_max + 1)]
    if model == "bessel":
        c = Fraction(1)
        for n in range(n_max + 1):
            if n:
                c *= 2 * n * (2 * n + nu - 1)
            out.append(_monomial(2 * n, 1 / c))
        return out
    raise ValueError(f"unknown model {model!r}")


def expand(model: str, n_max: int, nu: Fraction | None, f: list[Fraction]) -> list[Fraction]:
    """Coefficients c_k with f = sum_k c_k p_k, by back-substitution from
    the top basis degree down."""
    ps = basis(model, n_max, nu)
    residual = list(f) + [Fraction(0)] * (degree_cap(model, n_max) + 1 - len(f))
    cs = [Fraction(0)] * (n_max + 1)
    for n in range(n_max, -1, -1):
        d = index_degree(model, n)
        c = residual[d] / ps[n][d]
        cs[n] = c
        if c:
            for k, v in enumerate(ps[n]):
                residual[k] -= c * v
    if any(residual):
        raise ValueError("polynomial lies outside the model's space")
    return cs


def _combine(terms: list[tuple[Fraction, list[Fraction]]], length: int) -> list[Fraction]:
    out = [Fraction(0)] * length
    for c, p in terms:
        if c:
            for k, v in enumerate(p):
                out[k] += c * v
    return out


def transmute(src: tuple, dst: tuple, n_max: int, f: list[Fraction]) -> list[Fraction]:
    """Expand in the source basis, reassemble index-wise in the target."""
    cs = expand(src[0], n_max, src[1], f)
    ps = basis(dst[0], n_max, dst[1])
    return _combine(list(zip(cs, ps)), degree_cap(dst[0], n_max) + 1)


def w0(model: tuple, n_max: int, f: list[Fraction]) -> list[Fraction]:
    """W0 p_n = u^n/n!, extended linearly."""
    cs = expand(model[0], n_max, model[1], f)
    out = [Fraction(0)] * (degree_cap(model[0], n_max) + 1)
    for k, c in enumerate(cs):
        out[k] = c / math.factorial(k)
    return out


def _p_eval(p: list[Fraction], y: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * y + c
    return acc


def translate(model: tuple, n_max: int, y: Fraction, f: list[Fraction]) -> list[Fraction]:
    """T^y f = sum_k p_k(y) L^k f, where L p_n = p_{n-1} defines the
    model: on f = sum_n c_n p_n this is sum_n c_n sum_k p_k(y) p_{n-k}."""
    cs = expand(model[0], n_max, model[1], f)
    ps = basis(model[0], n_max, model[1])
    at_y = [_p_eval(p, y) for p in ps]
    terms = [
        (c * at_y[k], ps[n - k])
        for n, c in enumerate(cs) if c
        for k in range(n + 1)
    ]
    return _combine(terms, degree_cap(model[0], n_max) + 1)


def genfun_rows(model: tuple, n_max: int, order: int) -> list[list[Fraction]]:
    """Rows of F(s, t) = sum_k s^k p_k(t): the first order+1 basis
    elements, padded to the cap."""
    cap = degree_cap(model[0], n_max)
    ps = basis(model[0], n_max, model[1])
    return [p + [Fraction(0)] * (cap + 1 - len(p)) for p in ps[: order + 1]]


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- float half --------------------------------------------------------

def _mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def little_j(nu, lam: float, t: float) -> float:
    """Normalized Bessel function Gamma(a+1) (2/x)^a J_a(x), a = (nu-1)/2,
    x = sqrt(lam) t; at nu = 2 the closed form sin(x)/x."""
    x = mpmath.sqrt(_mpf(lam)) * _mpf(t)
    if x == 0:
        return 1.0
    if _mpf(nu) == 2:
        return float(mpmath.sin(x) / x)
    a = (_mpf(nu) - 1) / 2
    return float(mpmath.gamma(a + 1) * (2 / x) ** a * mpmath.besselj(a, x))


def hankel(nu, fn: str, lam: float) -> float:
    """integral_0^inf f(t) j_nu(lam, t) t^nu dt for f = exp(-t) or
    exp(-t^2); with a = (nu-1)/2 these are the Laplace and Gauss
    transforms of t^(a+1) J_a (DLMF 10.22.49, 10.22.51):
    exp:   Gamma(a+1) 2^(2a+1) Gamma(a+3/2) / (sqrt(pi) (1+lam)^(a+3/2))
    gauss: Gamma(a+1)/2 * exp(-lam/4)."""
    a = (_mpf(nu) - 1) / 2
    lam = _mpf(lam)
    if fn == "exp":
        return float(
            mpmath.gamma(a + 1) * 2 ** (2 * a + 1) * mpmath.gamma(a + 1.5)
            / (mpmath.sqrt(mpmath.pi) * (1 + lam) ** (a + 1.5))
        )
    if fn == "gauss":
        return float(mpmath.gamma(a + 1) / 2 * mpmath.exp(-lam / 4))
    raise ValueError(fn)


def poisson_poly(nu, coeffs: list[Fraction], x: float) -> float:
    """C(nu) int_0^(pi/2) cos^(nu-1) sin^k = C(nu) B((k+1)/2, nu/2)/2 per
    monomial, with C(nu) = 2 Gamma((nu+1)/2) / (sqrt(pi) Gamma(nu/2))."""
    nu = _mpf(nu)
    x = _mpf(x)
    c = 2 * mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))
    acc = mpmath.mpf(0)
    for k, q in enumerate(coeffs):
        if q:
            acc += _mpf(q) * x ** k * mpmath.beta((k + 1) / mpmath.mpf(2), nu / 2) / 2
    return float(c * acc)


def poisson_cos(nu, x: float) -> float:
    """The Poisson integral of cos is the normalized Bessel function."""
    return little_j(nu, 1.0, x)


def heat(fn: str, u: float, coeffs: list[Fraction] | None = None) -> float:
    """Heat-kernel smoothing = expectation under N(0, 2u): gauss gives
    1/sqrt(4u+1), cos gives exp(-u), t^k gives (k-1)!! (2u)^(k/2)."""
    u = _mpf(u)
    if fn == "gauss":
        return float(1 / mpmath.sqrt(4 * u + 1))
    if fn == "cos":
        return float(mpmath.exp(-u))
    acc = mpmath.mpf(0)
    for k, q in enumerate(coeffs or ()):
        if q and k % 2 == 0:
            acc += _mpf(q) * mpmath.fac2(k - 1) * (2 * u) ** (k // 2)
    return float(acc)


def cosine(fn: str, v: float) -> float:
    """Whole-line cosine transform: sqrt(pi) exp(-v/4) for the Gaussian,
    mpmath quadrature for the compact bump (t-1)^3 (2-t)^3 on [1, 2]."""
    v = _mpf(v)
    if fn == "gauss":
        return float(mpmath.sqrt(mpmath.pi) * mpmath.exp(-v / 4))
    if fn == "bump":
        sv = mpmath.sqrt(v)
        return float(mpmath.quad(lambda t: (t - 1) ** 3 * (2 - t) ** 3 * mpmath.cos(sv * t), [1, 2]))
    raise ValueError(fn)


def close(got: float, want: float, tol: float) -> bool:
    """Absolute-or-relative agreement; NaN never agrees."""
    return abs(got - want) <= tol * max(1.0, abs(want))
