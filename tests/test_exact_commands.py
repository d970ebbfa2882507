"""The exact commands (``genfun``, ``w0``, ``transmute``, ``translate``),
pinned byte for byte.

``golden/exact-commands.json`` holds the argv, exit code, stdout and
stderr of every case below: ``genfun`` on four models at three degrees
in each format, at its default order, at orders 0, 2 and n_max, and
its refusals at order -2 and n_max + 1; and one ``w0``, ``transmute``
and ``translate`` argv in each format.  The file was written from the
code as it stood while the ``genfun`` check still built its own table
of rows.

Regenerate (only for an intended output change, noted in CHANGES.md):

    PYTHONPATH=src python tests/test_exact_commands.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from umbra import cli
from umbra.models import build_model

GOLDEN = Path(__file__).parent / "golden" / "exact-commands.json"

FORMATS = ("plain", "json", "csv")

# (name in the case key, model flags, nu)
GENFUN_MODELS = (
    ("monomial", ["--model", "monomial"], None),
    ("lower-factorial", ["--model", "lower-factorial"], None),
    ("heat", ["--model", "heat"], None),
    ("bessel-5/2", ["--model", "bessel", "--nu", "5/2"], "5/2"),
)

GENFUN_DEGREES = (1, 4, 8)

OTHER_COMMANDS = {
    "w0": ["w0", "--model", "lower-factorial", "--degree", "8", "--poly", "1,-1/2,0,3"],
    "transmute": ["transmute", "--from", "lower-factorial", "--to", "hermite", "--degree", "8",
                  "--poly", "1,2,0,-1/3"],
    "translate": ["translate", "--model", "upper-factorial", "--degree", "8", "--y", "3/2",
                  "--poly", "0,1,1"],
}


def _genfun_orders(n_max: int) -> dict[str, list[str]]:
    return {
        "default": [],
        "order0": ["--order", "0"],
        "order2": ["--order", "2"],
        "top": ["--order", str(n_max)],
        "negative": ["--order", "-2"],
        "past-top": ["--order", str(n_max + 1)],
    }


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, flags, nu in GENFUN_MODELS:
        for degree in GENFUN_DEGREES:
            n_max = build_model(flags[1], degree, nu=nu).n_max
            for order, given in _genfun_orders(n_max).items():
                for fmt in FORMATS:
                    cases[f"genfun.{name}.d{degree}.{order}.{fmt}"] = [
                        "genfun", *flags, "--degree", str(degree), *given, "--format", fmt]
    for name, argv in OTHER_COMMANDS.items():
        for fmt in FORMATS:
            cases[f"{name}.{fmt}"] = [*argv, "--format", fmt]
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
def test_exact_command_output_unchanged(name, golden):
    assert _run(CASES[name]) == golden[name]


def _write() -> None:
    GOLDEN.write_text(json.dumps({name: _run(argv) for name, argv in sorted(CASES.items())},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
