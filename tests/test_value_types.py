"""The package's value types: every path that builds one refuses what
its constructor refuses, each report owns its dicts, models compare
by value, and importing the CLI generates no code."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umbra.cli import main
from umbra.core import ParameterError
from umbra.models import build_model, on_fock_twin
from umbra.numeric import heat_covariant, poisson_transform
from umbra.quadrature import QuadratureSpec, ScalarFn
from umbra.reports import ResidualReport, VerificationReport
from umbra.transforms import biorthogonality_check, check_transmutation_intertwining

SRC = Path(__file__).resolve().parents[1] / "src"

BAD_SPECS = (dict(rule="simpson"), dict(nodes=1), dict(rel_tol=0.0), dict(abs_tol=-1e-12))
COMPACT = dict(fn=math.sin, decay="compact", a=0.0, b=1.0)
BAD_FNS = (dict(decay="nope"), dict(b=0.0), dict(a=None), dict(decay="exponential"),
           dict(decay="exponential", rate=-1.0), dict(growth_degree=-1))


@pytest.mark.parametrize("bad", BAD_SPECS)
def test_a_quadrature_spec_refuses_a_bad_value_when_built_and_when_replaced(bad):
    with pytest.raises(ParameterError):
        QuadratureSpec(**bad)
    with pytest.raises(ParameterError):
        QuadratureSpec()._replace(**bad)


@pytest.mark.parametrize("bad", BAD_FNS)
def test_a_scalar_fn_refuses_a_bad_value_when_built_and_when_replaced(bad):
    with pytest.raises(ParameterError):
        ScalarFn(**{**COMPACT, **bad})
    with pytest.raises(ParameterError):
        ScalarFn(**COMPACT)._replace(**bad)


def test_a_replace_keeps_the_other_fields_and_leaves_the_original_alone():
    spec = QuadratureSpec(rule="fixed", nodes=8)
    wider = spec._replace(nodes=16, mass=(0.0, 1.0))
    assert (wider.rule, wider.nodes, wider.abs_tol, wider.mass) == ("fixed", 16, 1e-12, (0.0, 1.0))
    assert spec.nodes == 8 and spec == QuadratureSpec(rule="fixed", nodes=8)
    f = ScalarFn(**COMPACT)
    g = f._replace(fn=math.cos)
    assert (g.fn, g.decay, g.a, g.b) == (math.cos, "compact", 0.0, 1.0) and f.fn is math.sin
    with pytest.raises(TypeError):
        spec._replace(order=3)


def test_the_transforms_refuse_a_tolerance_their_scaling_sends_to_zero():
    """poisson_transform and heat_covariant divide abs_tol by their
    constant; past the double range that is 0, which each refuses by
    naming the tolerance and the constant, and the CLI exits 2."""
    tiny = QuadratureSpec(abs_tol=5e-324)
    gauss = ScalarFn(fn=lambda t: math.exp(-t * t), decay="exponential", rate=1.0)
    underflow = r"tolerance 5e-324 divided by the transform's constant \S+ underflows to 0"
    with pytest.raises(ParameterError, match=underflow):
        poisson_transform(100.0, gauss, 1.0, tiny)
    with pytest.raises(ParameterError, match=underflow):
        heat_covariant(gauss, 1e-6, tiny)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["heat", "covariant", "--fn", "gauss", "--u", "1e-6", "--tol", "5e-324"])
    assert (code, err.getvalue()) == (
        2, "umbra: tolerance 5e-324 divided by the transform's constant 282.095 underflows to 0\n")


def test_reports_built_without_dicts_each_get_their_own():
    a, b = VerificationReport("c", None), VerificationReport("c", None)
    a.params["n"] = 1
    assert a.params is not b.params and b.params == {} == VerificationReport("c", None).params
    r, s = ResidualReport("c"), ResidualReport("c")
    r.params["tol"], r.residuals["1"] = 1e-6, 0.0
    assert r.params is not s.params and r.residuals is not s.residuals
    assert (s.params, s.residuals) == ({}, {})


def test_reports_compare_by_value():
    r = VerificationReport("c", "monomial", {"degree": 4}, tainted=True)
    assert r == VerificationReport("c", "monomial", {"degree": 4}, tainted=True)
    assert r != r._replace(tainted=False) and r != r._replace(params={"degree": 5})
    assert ResidualReport("c", {"tol": 1}) != VerificationReport("c", None)


def test_a_model_rebuilt_equal_to_the_fock_pair_compares_equal():
    pair = build_model("hermite", 6).fock_twin
    rebuilt = build_model("monomial", 6)
    assert rebuilt is not pair and rebuilt == pair
    copy = pair._replace()
    assert copy == pair and "transported" not in vars(copy)
    assert pair._replace(raising=pair.raising.scale(2)) != pair
    assert pair._replace(n_max=5) != pair


def test_on_fock_twin_tells_a_model_from_a_pair():
    src, dst = build_model("hermite", 6), build_model("lower-factorial", 6)
    assert not isinstance(src, tuple)
    one = on_fock_twin(src, biorthogonality_check)
    assert isinstance(one, VerificationReport) and one.model == "hermite"
    two = on_fock_twin((src, dst), check_transmutation_intertwining)
    assert isinstance(two, VerificationReport) and two.model == "hermite -> lower-factorial"
    assert (one.passed, two.passed) == (True, True)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Against the modules a bare interpreter of the same environment
    already holds, so that a ``site`` hook which loads them cannot fail
    the test."""
    code = ("import sys; bare = set(sys.modules); import umbra.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "umbra.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
