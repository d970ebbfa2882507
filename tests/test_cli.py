"""Command-line surface: exit codes, formats, flag handling."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

from umbra import cli
from umbra.cli import main

import reference as ref
from test_golden import CASES as GOLDEN_CASES


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_models_listing(capsys):
    rc, out, _ = run(capsys, "models")
    assert rc == 0
    for name in ("monomial", "lower-factorial", "hermite", "bessel"):
        assert name in out


def test_models_json(capsys):
    rc, out, _ = run(capsys, "models", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6


def test_verify_commutator_bessel_json(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--check", "commutator", "--model", "bessel",
        "--nu", "5/2", "--degree", "16", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["check"] == "commutator"


def test_bessel_j_sinc_zero(capsys):
    rc, out, _ = run(
        capsys,
        "bessel", "j", "--nu", "2", "--lambda", "1",
        "--x", "3.14159265358979", "--format", "plain",
    )
    assert rc == 0
    assert abs(float(out.strip())) <= 1e-10


def test_bessel_j_takes_a_negative_lambda(capsys):
    rc, out, _ = run(capsys, "bessel", "j", "--nu", "2", "--lambda=-3", "--x", "1",
                     "--format", "plain")
    assert rc == 0
    assert float(out) == pytest.approx(math.sinh(math.sqrt(3)) / math.sqrt(3), rel=1e-14)


def test_bessel_j_overflow_is_a_usage_error(capsys):
    # lam < 0 makes j grow like e^x: about e^800 here
    rc, out, err = run(capsys, "bessel", "j", "--nu", "2", "--lambda=-1", "--x", "800")
    assert rc == 2
    assert out == ""
    assert "double range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, out", [
    # Hankel's bound 16 (|nu-1|/2 + 2)^2 past the double range
    (("--nu", "1e155", "--x", "2500"), 0, "1.0\n"),
    # Gamma((nu+1)/2) of the series' stop level past it
    (("--nu", "1e308", "--x", "100"), 0, "1.0\n"),
    (("--nu", "1e300", "--x", "1e300"), 2, ""),
], ids=["hankel-bound", "stop-level", "beyond-both-paths"])
def test_bessel_j_at_a_huge_nu_answers_or_refuses(capsys, argv, code, out):
    rc, got, err = run(capsys, "bessel", "j", *argv)
    assert (rc, got) == (code, out)
    assert ("beyond the work budget" in err) == (code == 2)


def test_a_hankel_transform_refuses_where_j_nu_would_though_the_weight_is_zero(capsys):
    # e^(-t^2) is 0.0 from t = 27.3 on; j_nu at the node t = 29.1 is past
    # its work budget all the same
    rc, out, err = run(capsys, "bessel", "hankel", "--nu", "60", "--fn", "gauss",
                       "--lambda", "21000")
    assert (rc, out) == (2, "")
    assert err == (
        "umbra: j_nu(nu=60.0, lambda=21000.0, t=29.110458098598627) is beyond the work "
        "budget: x = sqrt(|lambda|) |t| = 4218.506155609542 exceeds 4000 for the series, and "
        "Hankel's expansion needs lambda > 0 and x >= 16 (|nu-1|/2 + 2)^2\n"
    )


def test_bessel_j_large_argument_matches_mpmath(capsys):
    # lambda t^2 = 1e10: Hankel's expansion, in milliseconds
    start = time.perf_counter()
    rc, out, _ = run(capsys, "bessel", "j", "--nu", "2", "--lambda", "1e6",
                     "--x", "100", "--format", "json")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(
        ref.normalized_bessel(2, 1e6, 100.0), abs=1e-12
    )
    assert elapsed < 1.0


def test_an_integral_past_the_panel_budget_exits_3_in_seconds():
    # the bump's cosine transform at v = 1e16 bisects without end; the
    # panel budget stops it with exit 3 and a message, not a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    umbra = "import sys; from umbra.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", umbra, "cosine", "--fn", "bump", "--v", "1e16"],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("umbra: no convergence within 524288 panels: ")
    assert "Traceback" not in proc.stderr


def test_binomial_hermite_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "--check", "binomial", "--model", "hermite")
    assert rc == 2
    assert "not binomial type" in err
    assert "vacuum is not evaluation at 0" in err


def test_verify_all_monomial(capsys):
    rc, out, _ = run(
        capsys, "verify", "--all", "--model", "monomial",
        "--degree", "10", "--order", "3",
    )
    assert rc == 0
    assert "group-law" in out and "metaplectic" not in out  # checks named by what they test
    assert "fail" not in out


def test_verify_missing_check(capsys):
    rc, _, err = run(capsys, "verify", "--model", "monomial")
    assert rc == 2
    assert "--check" in err


def test_verify_transmute_needs_source(capsys):
    rc, _, err = run(capsys, "verify", "--check", "transmute", "--to", "heat")
    assert rc == 2
    assert "--from" in err


def test_w0_plain(capsys):
    rc, out, _ = run(
        capsys, "w0", "--model", "monomial", "--degree", "6",
        "--poly", "0,0,1",
    )
    assert rc == 0
    assert out.strip() == "0, 0, 1"


def test_transmute_between_models(capsys):
    rc, out, _ = run(
        capsys, "transmute", "--from", "monomial", "--to", "lower-factorial",
        "--degree", "6", "--poly", "0,0,1",
    )
    assert rc == 0
    assert out.strip() == "0, -1, 1"


def test_translate_json(capsys):
    rc, out, _ = run(
        capsys, "translate", "--model", "monomial", "--degree", "4",
        "--y", "1", "--poly", "0,0,1", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["coefficients"][:3] == ["1", "2", "1"]
    assert doc["truncated"] is False


def test_genfun_csv(capsys):
    rc, out, _ = run(
        capsys, "genfun", "--model", "monomial", "--degree", "4",
        "--order", "2", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("s_order,")
    assert lines[1].startswith("0,1,")
    assert len(lines) == 4


def test_bessel_grid_csv(capsys):
    rc, out, _ = run(
        capsys, "bessel", "j", "--nu", "2", "--lambda", "1",
        "--grid", "1,2,3", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4
    got = float(lines[1].split(",")[1])
    assert got == pytest.approx(math.sin(1.0), rel=1e-12)


def test_heat_covariant_value(capsys):
    rc, out, _ = run(capsys, "heat", "covariant", "--fn", "one", "--u", "2.0")
    assert rc == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("u", ["1", "10", "40"])
def test_heat_covariant_of_exp_prints_e_to_the_u(capsys, u):
    rc, out, _ = run(capsys, "heat", "covariant", "--fn", "exp", "--u", u)
    assert rc == 0
    assert float(out.strip()) == pytest.approx(math.exp(float(u)), rel=1e-12)


def test_heat_covariant_at_a_tiny_time_prints_about_1(capsys):
    rc, out, _ = run(capsys, "heat", "covariant", "--fn", "cos", "--u", "1e-300")
    assert rc == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_heat_covariant_of_exp_at_u_100_exits_3(capsys):
    rc, out, err = run(capsys, "heat", "covariant", "--fn", "exp", "--u", "100")
    assert (rc, out) == (3, "")
    assert err == "umbra: heat_covariant: f overflows at the cut +-1025.15625 for u=100\n"


@pytest.mark.parametrize("argv", [
    ("--fn", "gauss", "--u", "1.5e307"),
    ("--fn", "gauss", "--u", "1e308"),
    ("--fn", "cos", "--u", "1e308"),
    ("--poly=1,2", "--u", "1e308"),
    # t t = 16 g u past the double range below u = 1.1e307
    ("--poly=1,2,3", "--u", "1e307"),
    # t^g past it
    ("--poly=1,2,3,4", "--u", "1e300"),
])
def test_heat_covariant_at_a_huge_time_is_refused(capsys, argv):
    # the tail bound past the double range is not met: no 0.0, no nan
    rc, out, err = run(capsys, "heat", "covariant", *argv)
    assert (rc, out) == (3, "")
    assert err == f"umbra: cannot meet Gaussian tail bound 1e-12 at u={float(argv[-1]):g}\n"


def test_a_heat_covariant_tail_bound_message_names_u_unrounded(capsys):
    rc, out, err = run(capsys, "heat", "covariant", "--fn", "gauss", "--u", "1.0000001e308")
    assert (rc, out) == (3, "")
    assert err == "umbra: cannot meet Gaussian tail bound 1e-12 at u=1.0000001e+308\n"


@pytest.mark.parametrize("u", ["5e307", "6e307", "1.7976931348623157e308"])
def test_heat_covariant_of_the_bump_at_a_huge_time_is_its_integral_over_2_sqrt_pi_u(capsys, u):
    # the bump integrates to B(4, 4) = 1/140, and the kernel is 1 on [1, 2]
    rc, out, _ = run(capsys, "heat", "covariant", "--fn", "bump", "--u", u)
    assert rc == 0
    want = 1 / (280 * math.sqrt(math.pi) * math.sqrt(float(u)))
    assert float(out) == pytest.approx(want, rel=1e-12, abs=0)


def _poisson_of_exp_at_nu_1(x):
    """(2/pi) integral_0^(pi/2) e^(-x sin theta) dtheta, by mpmath."""
    split = [0, 1 / x, 30 / x, mpmath.pi / 2]
    return float(2 / mpmath.pi * mpmath.quad(lambda th: mpmath.exp(-x * mpmath.sin(th)), split))


_NARROW_MASS = [
    *[(("heat", "covariant", "--fn", "gauss", "--u", u), 1 / math.sqrt(4 * float(u) + 1))
      for u in ("3e4", "1e5", "1e6", "1e9")],
    *[(("bessel", "poisson", "--nu", "2", "--fn", "gauss", "--x", x),
       math.sqrt(math.pi) * math.erf(float(x)) / (2 * float(x)))
      for x in ("3000", "1e4", "1e9")],
    # at x = 500 a node of the one-panel start lies on the bump's support
    *[(("bessel", "poisson", "--nu", "2", "--fn", "bump", "--x", x), 1 / (140 * float(x)))
      for x in ("500", "1000", "1e9")],
    *[(("bessel", "poisson", "--nu", "1", "--fn", "exp", "--x", x), _poisson_of_exp_at_nu_1(float(x)))
      for x in ("1e5", "1e6")],
]


@pytest.mark.parametrize("argv, want", _NARROW_MASS,
                         ids=["-".join(x for x in a if x[:2] != "--") for a, _ in _NARROW_MASS])
def test_a_mass_narrower_than_the_node_gaps_is_integrated(capsys, argv, want):
    """f's mass is a few units wide, and a large u or x spreads the
    integral over a range where every panel's nodes stepped over it:
    coarse and fine read about 0 and the rule accepted that, printing
    8.13e-33 for heat at u = 3e4 and 0.0 for the bump at x = 1000."""
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert float(out) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_cosine_value(capsys):
    rc, out, _ = run(capsys, "cosine", "--fn", "gauss", "--v", "1")
    assert rc == 0
    want = math.sqrt(math.pi) * math.exp(-0.25)
    assert float(out.strip()) == pytest.approx(want, abs=1e-8)


def test_cosine_refuses_a_function_that_breaks_its_declared_decay(capsys):
    # e^(-t) is declared to decay like e^(-|t|) but grows as t -> -inf,
    # where the integral of e^(-t) cos t diverges
    rc, out, err = run(capsys, "cosine", "--fn", "exp", "--v", "1")
    assert rc == 2
    assert out == ""
    assert "|f(-20)|" in err and "on the left" in err


def test_poisson_of_polynomial_flag(capsys):
    # --poly routes through the same rational parser as the exact side
    rc, out, _ = run(
        capsys, "bessel", "poisson", "--nu", "3", "--poly", "0,0,1",
        "--x", "2.0",
    )
    assert rc == 0
    # P^3 t^2 = x^2 C(3) int cos^2 sin^2 = x^2 (4/pi)(pi/16) = x^2/4
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-8)


def test_bad_rational_is_usage_error(capsys):
    rc, _, err = run(
        capsys, "w0", "--model", "monomial", "--poly", "1,half",
    )
    assert rc == 2
    assert "--poly" in err


def test_poisson_intertwining_past_its_rule_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "--check", "poisson-intertwining", "--nu", "1e5")
    assert (rc, out) == (2, "")
    assert err.startswith("umbra: poisson-intertwining supports nu <= 8000 only, got 100000")
    assert "64-node fixed rule" in err and err.count("\n") == 1


@pytest.mark.parametrize("nu", ["2", "5/2"])
def test_poisson_intertwining_refuses_an_f_whose_slope_at_0_is_not_0(capsys, nu):
    # exp has f'(0) = -1: B f has the pole (nu/t) f'(0) at 0, so P(B f)
    # diverges, and r1 would be a finite number for it
    rc, out, err = run(capsys, "verify", "--check", "poisson-intertwining", "--fn", "exp", "--nu", nu)
    assert (rc, out) == (2, "")
    assert err == ("umbra: poisson-intertwining needs f'(0) = 0, where B f = f'' + (nu/t) f' "
                   "stays bounded, got f'(0) = -1\n")


@pytest.mark.parametrize("nu", ["1", "2", "5/2", "3"])
def test_poisson_intertwining_of_the_bump_holds_as_r2(capsys, nu):
    rc, out, _ = run(capsys, "verify", "--check", "poisson-intertwining", "--fn", "bump", "--nu", nu)
    assert rc == 0 and out.endswith(" direction=r2\n")


@pytest.mark.parametrize("grid", ["1e150", "1e155"])
def test_poisson_intertwining_of_gauss_far_out_reports_a_finite_residual(capsys, grid):
    # (4 t^2 - 2) e^(-t^2) was inf * 0 = nan past |t| = 1.34e154; then
    # "both" from two difference quotients that were exactly 0, as
    # x +- h/2 rounds to x past x = 8.8e12: now no residual, a refusal
    rc, out, err = run(capsys, "verify", "--check", "poisson-intertwining", "--nu", "1",
                       "--fn", "gauss", "--grid", grid, "--format", "json")
    assert (rc, out) == (2, "")
    assert err == f"umbra: poisson-intertwining needs every grid point x <= 10000, got 1e+{grid[2:]}\n"


@pytest.mark.parametrize("nu", ["1", "2", "15/2"])
@pytest.mark.parametrize("grid", ["200", "1000", "10000"])
def test_poisson_intertwining_of_cos_holds_as_r2_far_out(capsys, nu, grid):
    # one 64-node panel on [0, pi/2] gave r2 = 0.2 at x = 200, and "neither"
    rc, out, _ = run(capsys, "verify", "--check", "poisson-intertwining", "--nu", nu,
                     "--fn", "cos", "--grid", grid, "--format", "json")
    report = json.loads(out)
    assert rc == 0 and report["direction_holding"] == "r2"
    assert report["residuals"]["r2"] <= 1e-7


@pytest.mark.parametrize("fn", ["cos", "one", "gauss", "bump"])
@pytest.mark.parametrize("grid", ["10000.000000000002", "100000", "3,20000"])
def test_poisson_intertwining_refuses_a_grid_point_past_its_panel_bound(capsys, fn, grid):
    # an f of declared decay too: past x = 8.8e12 its quotients were 0
    rc, out, err = run(capsys, "verify", "--check", "poisson-intertwining", "--fn", fn,
                       f"--grid={grid}")
    assert (rc, out) == (2, "")
    assert err == ("umbra: poisson-intertwining needs every grid point x <= 10000, "
                   f"got {grid.split(',')[-1]}\n")


def test_missing_nu_for_bessel_model(capsys):
    rc, _, err = run(capsys, "verify", "--check", "vacuum", "--model", "bessel")
    assert rc == 2
    assert "nu" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify", "--check", "sl2", "--model", "monomial",
        "--degree", "8", "--format", "json", "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "pass"


@pytest.mark.parametrize("head", [
    ("w0", "--model", "monomial"),
    ("heat", "covariant", "--u", "1"),
])
def test_the_default_degree_is_32_and_degree_changes_it(capsys, head):
    # degree 32 holds 33 coefficients; --degree is the one way to change it
    rc, _, err = run(capsys, *head, "--poly", ",".join(["1"] * 34))
    assert rc == 2
    assert err == "umbra: polynomial has 34 coefficients but the working degree is 32; raise --degree\n"
    assert run(capsys, *head, "--poly", ",".join(["1"] * 33))[0] == 0
    assert run(capsys, *head, "--degree", "33", "--poly", ",".join(["1"] * 34))[0] == 0


@pytest.mark.parametrize("argv", [
    ("models",),
    ("bessel", "j", "--x", "1"),
])
def test_an_unwritable_out_path_exits_2_after_the_work(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (2, "")
    assert err.startswith(f"umbra: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["defractalize"])
    assert exc.value.code == 2


ORDER_CHECKS = ("group-law", "weyl", "composition", "character", "genfun",
                "binomial", "delsarte")


@pytest.mark.parametrize("check", ORDER_CHECKS)
def test_negative_order_is_a_usage_error(capsys, check):
    rc, out, err = run(
        capsys, "verify", "--check", check, "--model", "monomial",
        "--degree", "8", "--order", "-1",
    )
    assert rc == 2
    assert out == ""
    assert "--order must be >= 0" in err


def test_negative_order_under_all_is_a_usage_error(capsys):
    rc, out, err = run(
        capsys, "verify", "--all", "--model", "monomial", "--degree", "8", "--order", "-1",
    )
    assert (rc, out) == (2, "")
    assert "--order" in err


def test_genfun_negative_order_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "genfun", "--model", "monomial", "--degree", "8", "--order", "-2")
    assert (rc, out) == (2, "")
    assert "--order" in err


@pytest.mark.parametrize("check", ORDER_CHECKS)
def test_order_zero_is_not_replaced_by_the_default(capsys, check):
    rc, out, _ = run(
        capsys, "verify", "--check", check, "--model", "monomial",
        "--degree", "8", "--order", "0", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["params"].get("order", doc["params"].get("n_max")) == 0


def test_genfun_order_zero(capsys):
    rc, out, _ = run(capsys, "genfun", "--model", "monomial", "--degree", "8", "--order", "0")
    assert rc == 0
    assert out.splitlines()[1:] == ["s^0: 1"]


def test_degree_zero_reaches_the_model_builder(capsys):
    rc, out, err = run(capsys, "verify", "--check", "ladder", "--model", "monomial", "--degree", "0")
    assert (rc, out) == (2, "")
    assert "n_max must be >= 1" in err


def test_transmute_nu_goes_to_the_side_that_takes_it(capsys):
    argv = ["transmute", "--from", "bessel", "--to", "heat", "--poly", "1", "--degree", "6"]
    rc, out, err = run(capsys, *argv, "--nu", "2")
    assert (rc, err) == (0, "")
    rc2, out2, _ = run(capsys, *argv, "--from-nu", "2")
    assert rc2 == 0
    assert out == out2


def test_transmute_nu_for_neither_side_is_a_usage_error(capsys):
    rc, _, err = run(
        capsys, "transmute", "--from", "heat", "--to", "monomial", "--poly", "1", "--nu", "2",
    )
    assert rc == 2
    assert "takes nu" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numeric_flag_is_a_usage_error(capsys, value):
    rc, out, err = run(capsys, "bessel", "j", f"--x={value}")
    assert (rc, out) == (2, "")
    assert "--x must be finite" in err


# A "p/q" past the double range is refused as its decimal form is.
_HUGE_RATIO = "1" + "0" * 400 + "/3"

_HUGE_RATIO_FLAGS = {
    "bessel-j-x": (("bessel", "j", "--nu", "2", "--x", _HUGE_RATIO), "--x"),
    "bessel-j-negative-x": (("bessel", "j", "--x", "-" + _HUGE_RATIO), "--x"),
    "bessel-j-nu": (("bessel", "j", "--nu", _HUGE_RATIO, "--x", "1"), "--nu"),
    "bessel-j-lambda": (("bessel", "j", "--lambda", _HUGE_RATIO, "--x", "1"), "--lambda"),
    "bessel-j-grid": (("bessel", "j", "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
    "poisson-x": (("bessel", "poisson", "--fn", "cos", "--x", _HUGE_RATIO), "--x"),
    "poisson-grid": (("bessel", "poisson", "--fn", "cos", "--grid", f"{_HUGE_RATIO},1"), "--grid"),
    "hankel-lambda": (("bessel", "hankel", "--fn", "gauss", "--lambda", _HUGE_RATIO), "--lambda"),
    "hankel-grid": (("bessel", "hankel", "--fn", "gauss", "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
    "heat-u": (("heat", "covariant", "--fn", "gauss", "--u", _HUGE_RATIO), "--u"),
    "heat-grid": (("heat", "covariant", "--fn", "gauss", "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
    "cosine-v": (("cosine", "--fn", "gauss", "--v", _HUGE_RATIO), "--v"),
    "cosine-grid": (("cosine", "--fn", "gauss", "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
    "poisson-check-nu": (("verify", "--check", "poisson-intertwining", "--nu", _HUGE_RATIO), "--nu"),
    "poisson-check-grid": (("verify", "--check", "poisson-intertwining",
                            "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
    "hankel-check-nu": (("verify", "--check", "hankel-intertwining", "--nu", _HUGE_RATIO), "--nu"),
    "hankel-check-grid": (("verify", "--check", "hankel-intertwining",
                           "--grid", f"1,{_HUGE_RATIO}"), "--grid"),
}


@pytest.mark.parametrize("argv, flag", _HUGE_RATIO_FLAGS.values(), ids=_HUGE_RATIO_FLAGS)
def test_a_ratio_past_the_double_range_is_a_usage_error_naming_its_flag(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    value = next(v for a in argv for v in a.split(",") if _HUGE_RATIO in v)
    assert err == f"umbra: {flag} must be finite, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "hankel-intertwining", "--tol", "0"),
    ("cosine", "--fn", "gauss", "--v", "1", "--tol=-1"),
    ("verify", "--check", "poisson-intertwining", "--tol", "nan"),
], ids=["zero", "negative", "nan"])
def test_tol_must_be_finite_and_positive(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "--tol must be finite and > 0" in err


def test_closed_pipe_exits_quietly():
    grid = ",".join(f"{k / 1000:.3f}" for k in range(1, 4001))  # ~100 kB of CSV
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "umbra.cli", "bessel", "j", "--grid", grid, "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"t,value\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("grid", ["-1", "0", "0.0005", "0.001", "2,0.001"])
def test_poisson_intertwining_refuses_a_grid_point_within_its_step_naming_it(capsys, grid):
    # the difference quotients reach x - h; the refusal names the point given
    rc, out, err = run(capsys, "verify", "--check", "poisson-intertwining", f"--grid={grid}")
    point = grid.split(",")[-1]
    assert (rc, out) == (2, "")
    assert err == (f"umbra: poisson-intertwining needs every grid point x > h = 0.001, "
                   f"the difference step, got {float(point):g}\n")


def test_metaplectic_refuses_a_model_with_no_column_to_compare(capsys):
    rc, out, err = run(capsys, "verify", "--check", "metaplectic", "--model", "monomial",
                       "--degree", "1")
    assert (rc, out) == (2, "")
    assert "no basis column to compare" in err


def test_sl2_refuses_a_model_too_small_naming_it_and_its_cap(capsys):
    rc, out, err = run(capsys, "verify", "--check", "sl2", "--model", "monomial",
                       "--degree", "1")
    assert (rc, out) == (2, "")
    assert "monomial has n_max = 1" in err


@pytest.mark.parametrize("check", ("character", "group-law", "weyl", "composition"))
def test_check_default_order_is_capped_at_the_top_basis_index(capsys, check):
    rc, out, err = run(capsys, "verify", "--check", check, "--model", "monomial",
                       "--degree", "3", "--format", "json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["params"]["order"] == 3


def test_a_given_order_is_kept_under_check(capsys):
    rc, out, err = run(capsys, "verify", "--check", "group-law", "--model", "monomial",
                       "--degree", "3", "--order", "5")
    assert (rc, out) == (2, "")
    assert ("formal order 5 with output index -2 needs a working cap of n_max = 5; "
            "model monomial has n_max = 3") in err


@pytest.mark.parametrize("model", ["lower-factorial", "hermite"])
def test_a_binomial_order_past_the_top_index_is_refused_first(capsys, model):
    """The binomial sweep refuses an order past n_max before anything
    else, as genfun, delsarte and character do: before the binomial-type
    test refuses hermite, and before any table is built."""
    rc, out, err = run(capsys, "verify", "--check", "binomial", "--model", model,
                       "--degree", "128", "--order", "129")
    assert (rc, out) == (2, "")
    assert err == "umbra: order 129 exceeds the top basis index 128\n"


_EXACT_HALF = """
import contextlib, io, json, sys
from umbra import cli

def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

codes = []
for model in ("monomial", "lower-factorial", "upper-factorial", "hermite", "heat", "bessel"):
    nu = ["--nu", "5/2"] if model == "bessel" else []
    codes.append(call("verify", "--all", "--degree", "8", "--model", model, *nu))
codes.append(call("transmute", "--from", "hermite", "--to", "monomial", "--poly", "1,2,3"))
exact = ("numpy" in sys.modules, "umbra.numeric" in sys.modules,
         "umbra.quadrature" in sys.modules)
codes.append(call("bessel", "hankel", "--nu", "2", "--fn", "gauss", "--lambda", "1"))
print(json.dumps([codes, exact, "numpy" in sys.modules]))
"""


def test_no_command_loads_numpy():
    # A fresh interpreter: the test session itself may have numpy loaded.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _EXACT_HALF], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, exact, after = json.loads(proc.stdout)
    assert codes == [0] * 8
    # the perfbench tracer reads sys.modules["umbra.numeric"], so the CLI
    # still registers the float modules; a quadrature panel loads nothing more
    assert exact == [False, True, True]
    assert after is False


# A child that imports the CLI, runs each argv given on its command line
# (a JSON list) through ``main`` and prints, after the import and after
# each argv, the exit code (None after the import) and which of the float
# modules have run: a registered module that has not run is still of
# LazyLoader's module type, not ``types.ModuleType``.  Each time it also
# asserts that the CLI, sys.modules and the package hold the same module
# object, and that it is the one imported before the CLI, if one was.
_FLOAT_HALF = """
import contextlib, io, json, sys, types
first = sys.modules.get("umbra.numeric")
import umbra
from umbra import cli

FLOAT = ("umbra.numeric", "umbra.quadrature")

def ran(code):
    assert cli.numeric is sys.modules["umbra.numeric"] is umbra.numeric
    assert first is None or cli.numeric is first
    assert cli.quadrature is sys.modules["umbra.quadrature"] is umbra.quadrature
    return [code, [n for n in FLOAT if type(sys.modules[n]) is types.ModuleType]]

steps = [ran(None)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append(ran(cli.main(argv)))
print(json.dumps(steps))
"""

_EXACT_COMMANDS = [
    *(["verify", "--all", "--degree", "8", "--model", model]
      for model in ("monomial", "lower-factorial", "upper-factorial", "hermite", "heat")),
    ["verify", "--all", "--degree", "8", "--model", "bessel", "--nu", "5/2"],
    ["w0", "--model", "hermite", "--degree", "6", "--poly", "1,2/3,0,-1"],
    ["transmute", "--from", "monomial", "--to", "heat", "--degree", "6", "--poly", "0,1,1/2"],
    ["translate", "--model", "lower-factorial", "--degree", "5", "--y", "2/3", "--poly", "1,0,1"],
    ["genfun", "--model", "bessel", "--nu", "5/2", "--degree", "4", "--format", "csv"],
    ["models", "--format", "json"],
]


def _float_half_steps(argvs, prelude=""):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", prelude + _FLOAT_HALF, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_import_and_the_exact_commands_leave_the_float_half_unrun():
    """``import umbra.cli`` registers umbra.numeric and umbra.quadrature
    in sys.modules and on the package without running them, and no exact
    command reads them."""
    steps = _float_half_steps(_EXACT_COMMANDS)
    assert steps == [[None, []]] + [[0, []]] * len(_EXACT_COMMANDS)


@pytest.mark.parametrize("argv", [
    ["bessel", "j", "--nu", "2", "--x", "1"],
    ["verify", "--check", "poisson-intertwining"],
], ids=["bessel-j", "poisson-intertwining"])
def test_a_float_command_runs_the_float_half(argv):
    assert _float_half_steps([argv]) == [
        [None, []], [0, ["umbra.numeric", "umbra.quadrature"]]]


def test_a_float_half_imported_before_the_cli_is_the_one_it_uses():
    """The CLI registers no second umbra.numeric beside one imported
    before it: a command then calls through the module the importer
    holds."""
    argv = ["bessel", "j", "--nu", "2", "--x", "1"]
    assert _float_half_steps([argv], "import umbra.numeric\n") == [
        [None, ["umbra.numeric", "umbra.quadrature"]], [0, ["umbra.numeric", "umbra.quadrature"]]]


# every subcommand, the refusals of this module (exit 2), an argparse
# usage error and a help page; the verify cases come from the golden
# set, whose exit codes are all 0
_REUSE_CASES = [
    ("models",),
    ("models", "--format", "json"),
    ("w0", "--model", "hermite", "--degree", "6", "--poly", "1,2/3,0,-1"),
    ("transmute", "--from", "monomial", "--to", "heat", "--degree", "6", "--poly", "0,1,1/2"),
    ("translate", "--model", "lower-factorial", "--degree", "5", "--y", "2/3", "--poly", "1,0,1"),
    ("genfun", "--model", "bessel", "--nu", "5/2", "--degree", "4", "--format", "csv"),
    ("bessel", "j", "--nu", "2", "--lambda", "1", "--grid", "0.5,1,2", "--format", "json"),
    ("bessel", "poisson", "--nu", "3", "--poly", "0,0,1", "--x", "1/2"),
    ("bessel", "hankel", "--nu", "2", "--fn", "gauss", "--lambda", "1"),
    ("heat", "covariant", "--fn", "one", "--u", "2.0"),
    ("cosine", "--fn", "gauss", "--v", "1", "--format", "csv"),
    ("verify", "--check", "binomial", "--model", "hermite"),
    ("verify", "--model", "monomial"),
    ("verify", "--check", "transmute", "--to", "heat"),
    ("verify", "--check", "vacuum", "--model", "bessel"),
    ("verify", "--check", "ladder", "--model", "monomial", "--degree", "0"),
    ("verify", "--check", "group-law", "--model", "monomial", "--degree", "3", "--order", "5"),
    ("verify", "--check", "metaplectic", "--model", "monomial", "--degree", "1"),
    ("verify", "--check", "hankel-intertwining", "--tol", "0"),
    ("w0", "--model", "monomial", "--poly", "1,half"),
    ("genfun", "--model", "monomial", "--degree", "8", "--order", "-2"),
    ("transmute", "--from", "heat", "--to", "monomial", "--poly", "1", "--nu", "2"),
    ("bessel", "j", "--nu", "2", "--lambda=-1", "--x", "800"),
    ("bessel", "j", "--x=nan"),
    ("verify", "--model", "legendre", "--all"),
    ("verify", "--help"),
    *(tuple(argv) for _, argv in sorted(GOLDEN_CASES.items())),
]


def _outcomes(capsys, argvs):
    """(exit code, stdout, stderr) of ``main`` on each argv in turn, an
    argparse exit counted by its code."""
    out = []
    for argv in argvs:
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        got = capsys.readouterr()
        out.append((rc, got.out, got.err))
    return out


def test_the_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    """One parser serves every ``main`` call in a process.  A shuffled
    mix of commands, refusals and argparse exits, run twice through it,
    gives each call the exit code, stdout and stderr of a freshly built
    parser."""
    assert cli._build_parser() is cli._build_parser()
    assert cli._command_parser("verify") is cli._command_parser("verify")
    argvs = list(_REUSE_CASES)
    random.Random(16).shuffle(argvs)
    reused = _outcomes(capsys, argvs + argvs)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    monkeypatch.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
    fresh = _outcomes(capsys, argvs)
    assert reused == fresh + fresh
    assert {rc for rc, _, _ in fresh} == {0, 2}


_TOP_USAGE = ("usage: umbra [-h]\n"
              "             {models,verify,w0,transmute,translate,genfun,bessel,heat,cosine}\n"
              "             ...\n")


@pytest.mark.parametrize("argv, err", [
    (["models", "stray"], "unrecognized arguments: stray"),
    (["verify", "--check", "sl2", "--model", "monomial", "--degree", "4", "x", "--", "y"],
     "unrecognized arguments: x -- y"),
    ([], "the following arguments are required: command"),
    (["nope", "--degree", "4"], "argument command: invalid choice: 'nope' (choose from 'models', "
     "'verify', 'w0', 'transmute', 'translate', 'genfun', 'bessel', 'heat', 'cosine')"),
])
def test_a_refused_command_line_gets_the_top_parsers_usage_and_message(capsys, monkeypatch,
                                                                        argv, err):
    """Words a command leaves over, no command and an unknown one are
    refused with exit 2 by the top parser, as argparse refuses them."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = capsys.readouterr()
    assert (exc.value.code, got.out, got.err) == (2, "", f"{_TOP_USAGE}umbra: error: {err}\n")


def test_a_command_is_parsed_by_its_subparser_alone(capsys, monkeypatch):
    """An argv that starts with a command never reaches the top parser,
    and -h after the command prints that command's help, exit 0."""
    parser, commands = cli._build_parser()

    def refused(*args, **kwargs):
        raise AssertionError("the top parser parsed a command line")

    monkeypatch.setattr(parser, "parse_args", refused)
    monkeypatch.setattr(parser, "parse_known_args", refused)
    assert run(capsys, "models", "--format", "csv")[0] == 0
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h", "--model", "nope"])
    got = capsys.readouterr()
    assert (exc.value.code, got.err) == (0, "")
    assert got.out == commands["verify"].format_help()
    assert got.out.startswith("usage: umbra verify [-h]")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_commands_parser_alone_is_its_subparser_in_the_top_parser(monkeypatch, name):
    """The parser a command line is read by, built without the others,
    gives the help and usage of that command's subparser in the top
    parser, as ``umbra <command> -h`` prints them."""
    monkeypatch.setenv("COLUMNS", "80")
    alone, sub = cli._command_parser(name), cli._build_parser()[1][name]
    assert alone is not sub
    assert alone.prog == sub.prog == f"umbra {name}"
    assert (alone.format_help(), alone.format_usage()) == (sub.format_help(), sub.format_usage())


def test_a_command_line_builds_no_top_parser(capsys, monkeypatch):
    """Each command runs, and prints its help, with the top parser never
    built: only an argv that starts with no command, or one that leaves
    words over, needs it."""

    def refused():
        raise AssertionError("the top parser was built")

    monkeypatch.setattr(cli, "_build_parser", refused)
    monkeypatch.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
    for argv in (
        ["models", "--format", "csv"],
        ["verify", "--check", "twisted"],
        ["w0", "--model", "monomial", "--degree", "4", "--poly", "1,2"],
        ["transmute", "--from", "monomial", "--to", "hermite", "--degree", "4", "--poly", "1,2"],
        ["translate", "--model", "monomial", "--degree", "4", "--y", "1", "--poly", "1,2"],
        ["genfun", "--model", "monomial", "--degree", "4"],
        ["bessel", "j", "--nu", "2", "--x", "1"],
        ["heat", "covariant", "--fn", "gauss", "--u", "0.5"],
        ["cosine", "--fn", "bump", "--v", "2"],
    ):
        assert run(capsys, *argv)[0] == 0, argv
    for name in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: umbra {name} [-h]")


@pytest.mark.parametrize("argv", [
    ("translate", "--model", "monomial", "--degree", "4", "--poly", "-1,2", "--y", "-1/2"),
    ("translate", "--model", "monomial", "--degree", "4", "--poly=-1,2", "--y=-1/2"),
])
def test_a_value_flag_takes_a_value_that_starts_with_a_minus_sign(capsys, argv):
    """``--poly -1,2`` and ``--y -1/2`` are values, as ``--poly=-1,2``
    (the form perfbench writes) and ``--y=-1/2`` are: T^(-1/2) of
    -1 + 2t is -2 + 2t."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (0, "-2, 2\n", "")


def test_a_float_command_reads_a_spaced_negative_value_as_the_joined_one(capsys):
    """``--poly -1,2`` and ``--grid -.5,-1/2`` give what ``--poly=-1,2``
    and ``--grid=-.5,-1/2`` give."""
    outputs = []
    for poly, grid in ((["--poly", "-1,2"], ["--grid", "-.5,-1/2"]), (["--poly=-1,2"], ["--grid=-.5,-1/2"])):
        outputs.append(run(capsys, "bessel", "poisson", "--nu", "2", *poly, "--x", "0.5"))
        outputs.append(run(capsys, "bessel", "j", "--nu", "2", *grid, "--format", "json"))
    assert outputs[:2] == outputs[2:]
    assert [rc for rc, _, _ in outputs] == [0] * 4
    assert [row["t"] for row in json.loads(outputs[1][1])] == [-0.5, -0.5]
