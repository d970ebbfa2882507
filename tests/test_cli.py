"""Command-line surface: exit codes, formats, flag handling."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

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


def test_heat_covariant_of_exp_at_u_100_exits_3(capsys):
    rc, out, err = run(capsys, "heat", "covariant", "--fn", "exp", "--u", "100")
    assert (rc, out) == (3, "")
    assert err == "umbra: heat_covariant: f overflows at the cut +-1025.16 for u=100\n"


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


def test_the_exact_half_never_loads_numpy():
    # A fresh interpreter: the test session itself may have numpy loaded.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _EXACT_HALF], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, exact, after = json.loads(proc.stdout)
    assert codes == [0] * 8
    # the perfbench tracer reads sys.modules["umbra.numeric"], so the CLI
    # still imports the float modules; only numpy waits for a panel
    assert exact == [False, True, True]
    assert after is True


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
    argvs = list(_REUSE_CASES)
    random.Random(16).shuffle(argvs)
    reused = _outcomes(capsys, argvs + argvs)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _outcomes(capsys, argvs)
    assert reused == fresh + fresh
    assert {rc for rc, _, _ in fresh} == {0, 2}
