"""Gauss-Legendre drivers: exactness, adaptivity, failure reporting."""

import math

import pytest

from umbra.core import ParameterError, QuadratureError
from umbra.quadrature import (
    QuadratureSpec,
    ScalarFn,
    integrate,
    integrate_adaptive,
    integrate_fixed,
)

import reference as ref


def test_fixed_rule_exact_on_polynomials():
    # an n-point rule integrates degree 2n-1 exactly
    spec = QuadratureSpec(rule="fixed", nodes=8)
    for k in range(16):
        got = integrate_fixed(lambda t, k=k: t**k, 0.0, 1.0, spec)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-14), k


def test_fixed_rule_is_deterministic():
    spec = QuadratureSpec(rule="fixed", nodes=24)
    a = integrate_fixed(math.cos, 0.25, 1.75, spec)
    b = integrate_fixed(math.cos, 0.25, 1.75, spec)
    assert a == b  # bitwise


def test_adaptive_matches_reference_on_smooth_integrand():
    spec = QuadratureSpec()
    got = integrate_adaptive(lambda t: math.exp(-t) * math.sin(3 * t), 0.0, 10.0, spec)
    want = ref.mp_integral(
        lambda t: __import__("mpmath").exp(-t) * __import__("mpmath").sin(3 * t),
        0,
        10,
    )
    assert got == pytest.approx(want, abs=1e-11)


def test_adaptive_sin_over_period():
    spec = QuadratureSpec()
    assert integrate_adaptive(math.sin, 0.0, math.pi, spec) == pytest.approx(
        2.0, abs=1e-12
    )


def test_adaptive_handles_moderate_oscillation():
    spec = QuadratureSpec()
    got = integrate_adaptive(lambda t: math.cos(40 * t), 0.0, 1.0, spec)
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
    err_c = abs(integrate_fixed(f, 0.0, 1.0, coarse) - want)
    err_f = abs(integrate_fixed(f, 0.0, 1.0, fine) - want)
    assert err_f <= err_c


def test_depth_exhaustion_reports_residual():
    # no panel holding the jump converges, so bisection reaches its depth limit
    step = lambda t: 1.0 if t > 1 / 3 else 0.0  # noqa: E731
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(step, 0.0, 1.0, QuadratureSpec())
    assert "after 32 subdivisions" in str(err.value) and "residual" in str(err.value)


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
