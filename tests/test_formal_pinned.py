"""The formal checks pinned on perturbed models.

``tests/golden/formal-perturbed.json`` holds, for each of 60 seeded
perturbed catalog models, the full report JSON of the group-law, weyl
and composition checks at a seeded order, and of the metaplectic and
sl2 checks.  A model is a catalog model at degree 3..9 with one entry of
its lowering or raising operator changed, or one truncation mark added
to either.  The catalog goldens pin only passing reports; this file
pins the fail and inconclusive paths of the formal layer as well.  A
check that raises is pinned by its exception type and message.

Regenerate (only for an intended output change, noted in CHANGES.md):

    PYTHONPATH=src python tests/test_formal_pinned.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from umbra.core import LinearOp, UmbraError
from umbra.heisenberg import (
    composition_check_formal,
    group_law_check,
    metaplectic_check,
    sl2_closure_check,
    weyl_relation_check,
)
from umbra.models import build_model

import reference as ref

GOLDEN = Path(__file__).parent / "golden" / "formal-perturbed.json"

MODELS = (
    ("monomial", None), ("lower-factorial", None), ("upper-factorial", None),
    ("hermite", None), ("heat", None), ("bessel", "5/2"),
)
DELTAS = [Fraction(p, q) for p in (-2, -1, 1, 3) for q in (1, 2, 5)]
SEEDS = range(60)


def _perturbed(seed: int):
    """(model, description, formal order) for one seed."""
    rng = random.Random(seed)
    name, nu = MODELS[seed % len(MODELS)]
    m = build_model(name, rng.randint(3, 9), nu)
    which = rng.choice(("lowering", "raising"))
    op = getattr(m, which)
    i, j = rng.randint(0, op.cap), rng.randint(0, op.cap)
    if rng.random() < 0.5:
        rows = [[Fraction(x, op.den) for x in row] for row in op.num]
        delta = rng.choice(DELTAS)
        rows[i][j] += delta
        op = ref.op_from_grid(rows, op.trunc_cols)
        what = f"{which}[{i}][{j}] += {delta}"
    else:
        op = LinearOp(op.cols, op.den, op.cap, op.trunc_cols | {j})
        what = f"{which} marks column {j}"
    order = rng.randint(1, min(4, m.n_max))
    return m._replace(**{which: op}), f"{m.label()} n_max={m.n_max}: {what}", order


def _pinned(call) -> list:
    try:
        return [r.to_dict() for r in call()]
    except UmbraError as exc:
        return [{"error": type(exc).__name__, "message": str(exc)}]


def _reports(seed: int) -> dict:
    m, what, order = _perturbed(seed)
    return {
        "model": what,
        "order": order,
        "group-law": _pinned(lambda: [group_law_check(m, order)]),
        "weyl": _pinned(lambda: [weyl_relation_check(m, order)]),
        "composition": _pinned(lambda: [composition_check_formal(m, order)]),
        "metaplectic": _pinned(lambda: metaplectic_check(m)),
        "sl2": _pinned(lambda: [sl2_closure_check(m)]),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_formal_reports_on_a_perturbed_model_unchanged(golden, seed):
    assert _reports(seed) == golden[str(seed)]


def test_the_pinned_reports_cover_every_status(golden):
    statuses = {
        r.get("status", "error")
        for case in golden.values()
        for key in ("group-law", "weyl", "composition", "metaplectic", "sl2")
        for r in case[key]
    }
    assert {"pass", "fail", "inconclusive"} <= statuses


def _write() -> None:
    GOLDEN.write_text(json.dumps({str(s): _reports(s) for s in SEEDS}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
