"""The float commands (``bessel``, ``heat``, ``cosine``) and the two
residual checks, pinned byte for byte.

``golden/float-commands.json`` holds the argv, exit code, stdout and
stderr of every case below: each command and mode in each format on one
point and on a ``--grid``, each refusal, the order in which the flags
are read when two of them are bad, and both residual checks with their
defaults and with given flags.  The file was written from the code as it
stood before one registry replaced the five command bodies.

Regenerate (only for an intended output change, noted in CHANGES.md):

    PYTHONPATH=src python tests/test_float_commands.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from umbra import cli, numeric

GOLDEN = Path(__file__).parent / "golden" / "float-commands.json"

FORMATS = ("plain", "json", "csv")

# (command and its flags, point flag and value, a --grid)
COMMANDS = {
    "bessel-j": (["bessel", "j", "--nu", "5/2", "--lambda", "2"], ["--x", "1.5"], "0.5,1,2"),
    "bessel-poisson": (["bessel", "poisson", "--nu", "3", "--fn", "cos"], ["--x", "0.7"], "0.5,1.25"),
    "bessel-poisson-poly": (["bessel", "poisson", "--nu", "5/2", "--poly=1,-1/2,0,3/4"],
                            ["--x", "1/2"], "0.5,2"),
    "bessel-hankel": (["bessel", "hankel", "--nu", "2", "--fn", "gauss"], ["--lambda", "1"], "0.5,1.5"),
    "heat-covariant": (["heat", "covariant", "--fn", "gauss"], ["--u", "0.5"], "0.3,1"),
    "heat-covariant-poly": (["heat", "covariant", "--poly=2,0,-1"], ["--u", "3/2"], "0.3, 1,"),
    "cosine": (["cosine", "--fn", "bump"], ["--v", "2"], "0.8,4.5"),
}

# Each command's refusals, and values that are no refusal (j reads no
# --fn, a --grid overrides the point flag).  Flags given twice take the
# last value.
REFUSALS = {
    "missing-point": [],
    "empty-grid": ["--grid", ","],
    "blank-grid": ["--grid", " , "],
    "bad-grid-value": ["--grid", "1,abc"],
    "bad-tol": ["--tol", "0", "POINT"],
    "negative-tol": ["--tol=-1e-3", "POINT"],
    "nan-tol": ["--tol", "nan", "POINT"],
    "given-tol": ["--tol", "1e-9", "POINT"],
    "bad-nu": ["--nu", "abc", "POINT"],
    "infinite-nu": ["--nu", "inf", "POINT"],
    "zero-nu": ["--nu", "0", "POINT"],
    "empty-nu": ["--nu", "", "POINT"],
    "bad-lambda": ["--lambda", "zz", "POINT"],
    "negative-lambda": ["--lambda=-2", "POINT"],
    "bad-fn": ["--fn", "nope", "POINT"],
    "exp-fn": ["--fn", "exp", "POINT"],
    "bad-poly": ["--poly=1,half", "POINT"],
    "long-poly": ["--degree", "2", "--poly=1,2,3,4", "POINT"],
    "bad-point": ["BADPOINT"],
    "infinite-point": ["INFPOINT"],
    "negative-point": ["NEGPOINT"],
    "grid-and-point": ["--grid", "1", "BADPOINT"],
    "tol-before-nu": ["--tol", "0", "--nu", "abc", "POINT"],
    "tol-before-fn": ["--tol", "0", "--fn", "nope", "POINT"],
    "fn-before-point": ["--fn", "nope"],
    "fn-before-grid": ["--fn", "nope", "--grid", ","],
    "nu-before-fn": ["--nu", "abc", "--fn", "nope", "POINT"],
    "nu-before-lambda": ["--nu", "abc", "--lambda", "zz", "POINT"],
    "lambda-before-point": ["--lambda", "zz", "BADPOINT"],
    "poly-before-point": ["--poly=1,half"],
}


def _refusal(command: str, flags: list[str]) -> list[str]:
    """The argv of ``command`` with ``flags``; a flag that the command's
    parser does not have (--nu, --lambda on heat and cosine) makes it an
    argparse refusal."""
    head, (flag, value), _ = COMMANDS[command]
    out = list(head)
    for f in flags:
        if f == "POINT":
            out += [flag, value]
        elif f == "BADPOINT":
            out += [flag, "x1"]
        elif f == "INFPOINT":
            out += [f"{flag}=-inf"]
        elif f == "NEGPOINT":
            out += [f"{flag}=-1"]
        else:
            out.append(f)
    return out


RESIDUAL_CHECKS = {
    "poisson": ["verify", "--check", "poisson-intertwining"],
    "hankel": ["verify", "--check", "hankel-intertwining"],
}

RESIDUAL_FLAGS = {
    "default": [],
    "fn": ["--fn", "gauss"],
    "fn-bump": ["--fn", "bump"],
    "grid": ["--grid", "1, 2"],
    "nu": ["--nu", "3"],
    "nu-fraction": ["--nu", "5/2"],
    "all-given": ["--nu", "3", "--fn", "one", "--grid", "0.5,1.5", "--tol", "1e-3"],
    "bad-tol": ["--tol", "0"],
    "bad-nu": ["--nu", "abc"],
    "bad-fn": ["--fn", "nope"],
    "empty-grid": ["--grid", ","],
    "nu-before-fn": ["--nu", "abc", "--fn", "nope"],
    "fn-before-grid": ["--fn", "nope", "--grid", ","],
    "grid-before-tol": ["--grid", ",", "--tol", "0"],
    "nu-before-tol": ["--nu", "abc", "--tol", "0"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, (head, point, grid) in COMMANDS.items():
        for fmt in FORMATS:
            cases[f"{name}.point.{fmt}"] = [*head, *point, "--format", fmt]
            cases[f"{name}.grid.{fmt}"] = [*head, "--grid", grid, "--format", fmt]
        for refusal, flags in REFUSALS.items():
            cases[f"{name}.{refusal}"] = _refusal(name, flags)
    for check, head in RESIDUAL_CHECKS.items():
        for fmt in FORMATS:
            cases[f"verify-{check}.default.{fmt}"] = [*head, "--format", fmt]
        for given, flags in RESIDUAL_FLAGS.items():
            cases[f"verify-{check}.{given}"] = [*head, *flags]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> dict:
    """argv, exit code, stdout and stderr of ``main``; an argparse exit
    counts by its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_command_output_unchanged(name, golden):
    assert _run(CASES[name]) == golden[name]


# Each float command calls its numeric function once per point, through
# the module attribute, so that a wrapper installed on ``numeric`` (a
# profiler, a tracer) sees every call.
# (function, the index of its point among its arguments, a command)
CALL_THROUGH = (
    ("little_bessel_j", 2, ["bessel", "j", "--nu", "3"]),
    ("poisson_transform", 2, ["bessel", "poisson", "--fn", "cos"]),
    ("hankel_transform", 2, ["bessel", "hankel", "--fn", "gauss"]),
    ("heat_covariant", 1, ["heat", "covariant", "--poly=1,2"]),
    ("cosine_transform", 1, ["cosine", "--fn", "gauss"]),
)


@pytest.mark.parametrize("function, at, argv", CALL_THROUGH, ids=[c[0] for c in CALL_THROUGH])
def test_each_float_command_calls_its_numeric_function_once_per_point(
    function, at, argv, monkeypatch
):
    points = []

    def recorder(*args, **kwargs):
        points.append(args[at])
        return 0.25

    monkeypatch.setattr(numeric, function, recorder)
    got = _run([*argv, "--grid", "0.5,1,2", "--format", "json"])
    assert got["exit"] == 0, got["stderr"]
    assert points == [0.5, 1.0, 2.0]
    assert [row["value"] for row in json.loads(got["stdout"])] == [0.25] * 3


# Inputs that used to end in a traceback or print inf: each now gives a
# finite value or one "umbra: " line with exit 2 or 3.
_HUGE = "1" + "0" * 309

EDGE_ARGVS = (
    ["bessel", "j", "--lambda", "1", "--x", "6e307"],
    ["bessel", "poisson", "--nu", "342", "--fn", "cos", "--x", "1"],
    ["bessel", "poisson", "--nu", "343", "--fn", "cos", "--x", "1"],
    ["verify", "--check", "poisson-intertwining", "--nu", "400"],
    ["bessel", "hankel", "--nu", "240", "--fn", "exp", "--lambda", "1"],
    ["bessel", "hankel", "--nu", "1100", "--fn", "bump", "--lambda", "1"],
    ["verify", "--check", "hankel-intertwining", "--nu", "2000"],
    ["heat", "covariant", "--u", "1", "--poly", _HUGE],
    ["bessel", "poisson", "--x", "1", "--poly", _HUGE],
)


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda a: " ".join(a)[:60])
def test_a_float_input_ends_in_a_finite_value_or_a_typed_error(argv):
    got = _run(argv + ["--format", "json"])
    if got["exit"] == 0:
        doc = json.loads(got["stdout"])
        value = doc["value"] if "value" in doc else doc["max_residual"]
        assert math.isfinite(value)
        assert got["stderr"] == ""
    else:
        assert got["exit"] in (2, 3)
        assert got["stdout"] == ""
        assert got["stderr"].startswith("umbra: ")
        assert got["stderr"].count("\n") == 1


def test_a_given_poisson_tolerance_bounds_the_value_not_the_integral():
    """At nu = 1e5 the constant C(nu) in front of the Poisson integral
    is 252, so a tolerance of 1e-3 on the integral alone left the value
    4.3e-2 off j_nu; the value is now within 1e-3 of it."""
    point = ["--nu", "1e5", "--x", "0.5"]
    poisson = _run(["bessel", "poisson", *point, "--fn", "cos", "--tol", "1e-3"])
    j = _run(["bessel", "j", *point])
    assert poisson["exit"] == j["exit"] == 0
    assert abs(float(poisson["stdout"]) - float(j["stdout"])) < 1e-3


def _write() -> None:
    GOLDEN.write_text(json.dumps({name: _run(argv) for name, argv in sorted(CASES.items())},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
