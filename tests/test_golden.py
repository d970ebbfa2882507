"""Default CLI output pinned byte for byte.

Each case runs ``umbra.cli.main`` in-process and compares its stdout
with a file under ``tests/golden/``; ``exit_codes.json`` holds the exit
code of every case.  The files were written from the code as it stood
before the check registry replaced the hand-written check lists, so a
refactor that changes any default report shows up here.  The two
degree-32 lower-factorial cases were written from the Fraction-loop
covariant and binomial checks, before those became operator and
integer-table identities.  The ``all-<model>-degree<d>.json`` cases, at
degrees 1 to 5, pin ``--all`` where the sweep's formal orders are capped
at the top basis index.

Regenerate (only for an intended output change, noted in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from umbra.cli import main
from umbra.models import MODEL_NAMES

GOLDEN = Path(__file__).parent / "golden"

FORMATS = ("plain", "json", "csv")

CHECK_NAMES = (
    "ladder", "lowering", "raising", "vacuum", "commutator",
    "duals", "covariant", "genfun", "binomial", "character", "delsarte",
    "transmute", "group-law", "weyl", "composition", "twisted", "sl2",
    "metaplectic", "poisson-intertwining", "hankel-intertwining",
)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for model in MODEL_NAMES:
        nu = ["--nu", "5/2"] if model == "bessel" else []
        for fmt in FORMATS:
            cases[f"all-{model}.{fmt}"] = [
                "verify", "--all", "--model", model, *nu,
                "--degree", "8", "--format", fmt,
            ]
        for degree in range(1, 6):
            cases[f"all-{model}-degree{degree}.json"] = [
                "verify", "--all", "--model", model, *nu,
                "--degree", str(degree), "--format", "json",
            ]
    for fmt in FORMATS:
        cases[f"all-monomial-order3.{fmt}"] = [
            "verify", "--all", "--model", "monomial",
            "--degree", "10", "--order", "3", "--format", fmt,
        ]
    for check in CHECK_NAMES:
        if check == "transmute":
            target = ["--from", "heat", "--to", "bessel", "--to-nu", "5/2"]
        else:
            target = ["--model", "monomial"]
        cases[f"check-{check}.json"] = [
            "verify", "--check", check, *target, "--degree", "8", "--format", "json",
        ]
    for check in ("covariant", "binomial"):
        cases[f"check-{check}-lower-factorial.json"] = [
            "verify", "--check", check, "--model", "lower-factorial",
            "--degree", "32", "--format", "json",
        ]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_every_check_is_pinned():
    from umbra.cli import CHECKS

    assert sorted(CHECKS) == sorted(CHECK_NAMES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_output_unchanged(name):
    rc, out = _run(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert rc == codes[name]
    assert out.encode() == (GOLDEN / name).read_bytes()


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / name).write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
