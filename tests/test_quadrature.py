"""The Gauss-Legendre driver: exactness, adaptivity, failure reporting."""

import math

import mpmath
import pytest

from umbra import quadrature
from umbra.core import ParameterError, QuadratureError
from umbra.quadrature import (
    QuadratureSpec,
    ScalarFn,
    _gauss_nodes,
    integrate,
)

import reference as ref


def test_fixed_rule_exact_on_polynomials():
    # an n-point rule integrates degree 2n-1 exactly
    spec = QuadratureSpec(rule="fixed", nodes=8)
    for k in range(16):
        got = integrate(lambda t, k=k: t**k, 0.0, 1.0, spec)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-14), k


def _mp_nonnegative_nodes(n):
    """(x, w) for each node x >= 0 of the n-point rule, descending, at
    60 digits: mpmath's root of its own P_n in Bruns' bracket
    (k - 1/2) pi / (n + 1/2) < theta_k < k pi / (n + 1/2), x_k = cos theta_k,
    then 0 for odd n, and w = 2 / ((1 - x^2) P_n'(x)^2)."""
    with mpmath.workdps(60):
        roots = [
            mpmath.findroot(lambda z: mpmath.legendre(n, z),
                            [mpmath.cos(j * mpmath.pi / (n + 0.5)) for j in (k, k - 0.5)],
                            solver="anderson")
            for k in range(1, n // 2 + 1)
        ] + [mpmath.mpf(0)] * (n % 2)
        out = []
        for x in roots:
            dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
            out.append((float(x), float(2 / ((1 - x * x) * dp ** 2))))
        return out


def test_every_node_and_weight_is_correctly_rounded():
    for n in range(2, 65):
        xs, ws = _gauss_nodes(n)
        assert list(zip(xs, ws))[n // 2:][::-1] == _mp_nonnegative_nodes(n), n
        assert xs == tuple(-x for x in reversed(xs)) and ws == ws[::-1], n
        assert all(a < b for a, b in zip(xs, xs[1:])), n


def test_a_rule_whose_enclosures_never_round_is_refused_after_doubling_the_guard(monkeypatch):
    guards = []
    monkeypatch.setattr(quadrature, "_gauss_rule", lambda n, guard: guards.append(guard))
    with pytest.raises(QuadratureError, match="could not be rounded in 6 tries"):
        _gauss_nodes.__wrapped__(5)  # past the cache
    assert guards == [16, 32, 64, 128, 256, 512]


def test_fixed_rule_is_deterministic():
    spec = QuadratureSpec(rule="fixed", nodes=24)
    a = integrate(math.cos, 0.25, 1.75, spec)
    b = integrate(math.cos, 0.25, 1.75, spec)
    assert a == b  # bitwise


def test_adaptive_matches_reference_on_smooth_integrand():
    spec = QuadratureSpec()
    got = integrate(lambda t: math.exp(-t) * math.sin(3 * t), 0.0, 10.0, spec)
    want = ref.mp_integral(
        lambda t: __import__("mpmath").exp(-t) * __import__("mpmath").sin(3 * t),
        0,
        10,
    )
    assert got == pytest.approx(want, abs=1e-11)


def test_adaptive_sin_over_period():
    spec = QuadratureSpec()
    assert integrate(math.sin, 0.0, math.pi, spec) == pytest.approx(
        2.0, abs=1e-12
    )


def test_adaptive_handles_moderate_oscillation():
    spec = QuadratureSpec()
    got = integrate(lambda t: math.cos(40 * t), 0.0, 1.0, spec)
    assert got == pytest.approx(math.sin(40.0) / 40.0, abs=1e-11)


def test_empty_interval():
    spec = QuadratureSpec()
    assert integrate(math.sin, 2.0, 2.0, spec) == 0.0
    assert integrate(math.sin, 3.0, 2.0, spec) == 0.0


def test_nodes_scale_with_request():
    coarse = QuadratureSpec(rule="fixed", nodes=4)
    fine = QuadratureSpec(rule="fixed", nodes=16)
    f = lambda t: math.exp(t)  # noqa: E731
    want = math.e - 1.0
    err_c = abs(integrate(f, 0.0, 1.0, coarse) - want)
    err_f = abs(integrate(f, 0.0, 1.0, fine) - want)
    assert err_f <= err_c


def test_depth_exhaustion_reports_residual():
    # no panel holding the jump converges, so bisection reaches its depth limit
    step = lambda t: 1.0 if t > 1 / 3 else 0.0  # noqa: E731
    with pytest.raises(QuadratureError) as err:
        integrate(step, 0.0, 1.0, QuadratureSpec())
    assert "after 32 subdivisions" in str(err.value) and "residual" in str(err.value)
    # the panel's ends are told apart, and hold the jump
    a, b = map(float, str(err.value).split("[")[1].split("]")[0].split(", "))
    assert a < 1 / 3 < b and b - a < 1e-9


def test_the_panel_budget_stops_one_integration_with_its_residual(monkeypatch):
    # cos(1e4 t) on [0, 1] takes 1,023 panels and cos(100 t) 15; each call
    # has the whole budget, however many calls came before it
    want = integrate(lambda t: math.cos(100 * t), 0.0, 1.0, QuadratureSpec())
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    for _ in range(5):
        assert integrate(lambda t: math.cos(100 * t), 0.0, 1.0, QuadratureSpec()) == want
    with pytest.raises(QuadratureError, match=(
        r"^no convergence within 64 panels: 67 used, achieved residual \S+e-07 "
        r"against budget \S+e-15 on \[0\.0546875, 0\.0625\]$"
    )):
        integrate(lambda t: math.cos(1e4 * t), 0.0, 1.0, QuadratureSpec())


def test_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(rule="simpson")
    with pytest.raises(ParameterError):
        QuadratureSpec(nodes=1)
    with pytest.raises(ParameterError):
        QuadratureSpec(abs_tol=0.0)


def test_scalar_fn_validation():
    with pytest.raises(ParameterError):
        ScalarFn(fn=math.sin, decay="compact")  # no support interval
    with pytest.raises(ParameterError):
        ScalarFn(fn=math.sin, decay="compact", a=2.0, b=1.0)
    with pytest.raises(ParameterError):
        ScalarFn(fn=math.sin, decay="exponential")  # no rate
    with pytest.raises(ParameterError):
        ScalarFn(fn=math.sin, decay="nope")
    ok = ScalarFn(fn=math.sin, decay="exponential", rate=2.0)
    assert ok(0.5) == math.sin(0.5)
