"""The one comparison rule of the exact checks: every basis-indexed
check agrees with a plain-list oracle on perturbed models, and a
truncation mark inside the compared columns never lets a check pass.
The covariant, binomial and character oracles are the Fraction loops
the operator and integer-table forms of those checks replaced."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbra.core import DomainError, Functional, LinearOp, ParameterError, Poly
from umbra.heisenberg import (
    composition_check_formal,
    group_law_check,
    metaplectic_check,
    sl2_closure_check,
    weyl_relation_check,
)
from umbra.models import Parity, build_model, verify_model
from umbra.reports import PASS
from umbra.transforms import biorthogonality_check, covariant_check, generating_function
from umbra.translations import binomial_check, character_check, delsarte_eigen_check

import reference as ref

KINDS = ("none", "L", "R", "vac", "basis", "mark-L", "mark-R", "mark-basis")
DELTAS = st.sampled_from([Fraction(p, q) for p in (-2, -1, 1, 3) for q in (1, 2, 5)])


def _dense(op: LinearOp) -> list[list[Fraction]]:
    return [[Fraction(x, op.den) for x in row] for row in op.num]


def _plain(m) -> dict:
    return {
        "L": _dense(m.lowering),
        "l_marks": set(m.lowering.trunc_cols),
        "R": _dense(m.raising),
        "r_marks": set(m.raising.trunc_cols),
        "vac": list(m.vacuum.row),
        "basis": [list(p.coeffs) for p in m.basis],
        "b_marks": {n for n, p in enumerate(m.basis) if p.truncated},
        "iota": m.iota,
        "even": m.parity is Parity.EVEN,
    }


def _rebuilt(m, d: dict):
    cap = m.degree_cap
    return dataclasses.replace(
        m,
        lowering=LinearOp.from_entries(d["L"], frozenset(d["l_marks"])),
        raising=LinearOp.from_entries(d["R"], frozenset(d["r_marks"])),
        vacuum=Functional(d["vac"], cap),
        basis=tuple(Poly(c, cap, n in d["b_marks"]) for n, c in enumerate(d["basis"])),
    )


@st.composite
def perturbed_models(draw):
    """A catalog model at degree <= 8 with one entry of L, R, the vacuum
    row or a basis coefficient changed, or one truncation mark added.
    Basis changes stay on even degrees for heat, inside its space."""
    name = draw(st.sampled_from(["monomial", "lower-factorial", "hermite", "heat"]))
    m = build_model(name, draw(st.integers(1, 8)))
    d = _plain(m)
    cap, top = m.degree_cap, m.n_max
    index = st.integers(0, cap)
    kind = draw(st.sampled_from(KINDS))
    if kind in ("L", "R"):
        d[kind][draw(index)][draw(index)] += draw(DELTAS)
    elif kind == "vac":
        d["vac"][draw(index)] += draw(DELTAS)
    elif kind == "basis":
        step = 2 if name == "heat" else 1
        d["basis"][draw(st.integers(0, top))][step * draw(st.integers(0, cap // step))] += draw(DELTAS)
    elif kind == "mark-L":
        d["l_marks"].add(draw(index))
    elif kind == "mark-R":
        d["r_marks"].add(draw(index))
    elif kind == "mark-basis":
        d["b_marks"].add(draw(st.integers(0, top)))
    return _rebuilt(m, d), d, draw(st.integers(0, top))


def _verdict(report):
    return report.status, report.first_failure


@settings(max_examples=150, deadline=None)
@given(perturbed_models())
def test_rewritten_checks_agree_with_the_plain_list_oracle(case):
    m, d, order = case
    assert {r.check: _verdict(r) for r in verify_model(m)} == ref.ladder_verdicts(d)
    assert _verdict(generating_function(m, order).report) == ref.generating_function_verdict(d, order)
    assert _verdict(biorthogonality_check(m)) == ref.biorthogonality_verdict(d)
    assert _verdict(character_check(m, order)) == ref.character_verdict(d, order)
    try:
        want = ref.covariant_verdict(d)
    except ref.OutOfSpace:
        with pytest.raises(DomainError):
            covariant_check(m)
    else:
        assert _verdict(covariant_check(m)) == want
    if d["vac"] == [1] + [0] * m.degree_cap:
        assert _verdict(delsarte_eigen_check(m, order)) == ref.delsarte_verdict(d, order)
    else:
        with pytest.raises(ParameterError):
            delsarte_eigen_check(m, order)
    if m.shift_invariant and d["vac"] == [1] + [0] * m.degree_cap:
        for n in range(m.n_max + 1):
            assert _verdict(binomial_check(m, n)) == ref.binomial_verdict(d, n), n
    else:
        with pytest.raises(ParameterError):
            binomial_check(m, order)


def test_oracle_sees_each_outcome():
    """The oracle itself tells pass, fail and inconclusive apart."""
    m = build_model("monomial", 4)
    d = _plain(m)
    assert set(ref.ladder_verdicts(d).values()) == {(PASS, None)}
    d["L"][0][2] += 1
    d["r_marks"].add(1)
    got = ref.ladder_verdicts(d)
    assert got["ladder-lowering"] == ("fail", 2)
    assert got["ladder-raising"] == ("inconclusive", None)
    assert got["vacuum"] == (PASS, None)
    assert got["commutator"][0] == "fail"
    assert ref.delsarte_verdict(d, 1) == (PASS, None)
    assert ref.delsarte_verdict(d, 2) == ("fail", ("lowering", 2))
    d["L"][0][2] -= 1
    assert ref.raising_search(d, 4) == (None, True)


def test_delsarte_reports_the_value_at_0_first_at_equal_index():
    m = build_model("monomial", 4)
    d = _plain(m)
    d["basis"][2][0] += 1  # p_2(0) = 1
    d["L"][0][2] += 1  # L p_2 = t + 1/2
    want = ("fail", ("value-at-0", 2))
    assert ref.delsarte_verdict(d, 4) == want
    assert _verdict(delsarte_eigen_check(_rebuilt(m, d), 4)) == want


def test_a_marked_raising_never_passes():
    """A library-built monomial model whose raising marks every column
    truncated: each check that reads the raising operator on the
    compared columns is inconclusive."""
    m = build_model("monomial", 8)
    r = m.raising
    m = dataclasses.replace(
        m, raising=LinearOp(r.num, r.den, r.cap, frozenset(range(r.cap + 1)))
    )
    reports = (
        [r for r in verify_model(m) if r.check in ("ladder-raising", "commutator")]
        + [group_law_check(m, 2), weyl_relation_check(m, 2), composition_check_formal(m, 2)]
        + metaplectic_check(m)
        + [sl2_closure_check(m)]
    )
    assert len(reports) == 9
    assert all(r.status == "inconclusive" for r in reports), [
        (r.check, r.status) for r in reports
    ]


def test_a_marked_lowering_never_passes():
    """A library-built monomial model whose lowering marks every column
    truncated: the duals l_k = l_0 L^k read it, so biorthogonality is
    inconclusive along with covariant and character."""
    m = build_model("monomial", 8)
    low = m.lowering
    m = dataclasses.replace(
        m, lowering=LinearOp(low.num, low.den, low.cap, frozenset(range(low.cap + 1)))
    )
    reports = [biorthogonality_check(m), covariant_check(m), character_check(m, 4)]
    assert [r.status for r in reports] == ["inconclusive"] * 3


def test_a_flagged_basis_polynomial_never_passes_binomial():
    """A library-built monomial model whose p_3 carries the truncated
    flag: the binomial identity at n = 3 reads p_0..p_3, so it is
    inconclusive like covariant and character; at n = 2 it passes."""
    m = build_model("monomial", 8)
    basis = list(m.basis)
    basis[3] = basis[3].with_flag(True)
    m = dataclasses.replace(m, basis=tuple(basis))
    reports = [binomial_check(m, 3), covariant_check(m), character_check(m, 3)]
    assert [r.status for r in reports] == ["inconclusive"] * 3
    assert binomial_check(m, 2).status == PASS
