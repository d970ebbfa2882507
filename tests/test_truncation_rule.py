"""The one comparison rule of the exact checks: every basis-indexed
check agrees with a plain-list oracle on perturbed models, and a
truncation mark inside the compared columns never lets a check pass.
The covariant, binomial and character oracles are the Fraction loops
the operator and integer-table forms of those checks replaced; so are
the oracles of the basis expansion, the reassembly, ``covariant_w0``,
the squared-ladder diagonals, the duals and the generalized
translation, which are compared value, flag and refusal alike.  The
checks that a premise may decide, on the Fock twin or by the expansion
theorem, report what their direct paths report."""

import contextlib
import functools
import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from umbra import cli, heisenberg, kernels, transforms, translations
from umbra.core import (
    DomainError, LinearOp, ParameterError, Poly, UmbraError, column_poly, integer_vector,
)
from umbra.heisenberg import (
    composition_check_formal,
    generic_sl2_ladder,
    group_law_check,
    metaplectic_check,
    metaplectic_sequences,
    sl2_closure_check,
    twisted_convolve_check,
    weyl_relation_check,
)
from umbra.models import (
    IOTA, MODEL_NAMES, Parity, axiom_outcomes, build_model, on_fock_twin,
    verify_model,
)
from umbra.reports import PASS, VerificationReport
from umbra.transforms import (
    biorthogonality_check,
    check_transmutation_intertwining,
    covariant_check,
    covariant_w0,
    expand_in_basis,
    generating_function,
    reassemble,
    transmute_vector,
    umbral_map,
)
from umbra.translations import (
    binomial_check, binomial_sweep, character_check, delsarte_eigen_check, generalized_translate,
)

import reference as ref

KINDS = ("none", "L", "R", "vac", "basis", "mark-L", "mark-R", "mark-basis")
DELTAS = st.sampled_from([Fraction(p, q) for p in (-2, -1, 1, 3) for q in (1, 2, 5)])
VALUES = st.sampled_from([Fraction(0)] * 4 + [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 7)])


def _dense(op: LinearOp) -> list[list[Fraction]]:
    return [[Fraction(x, op.den) for x in row] for row in op.num]


def _padded(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """The square grid whose first rows are ``rows`` and whose others
    are zero."""
    return rows + [[Fraction(0)] * len(rows[0]) for _ in range(len(rows[0]) - len(rows))]


def _plain(m) -> dict:
    ps = ref.basis(m)
    return {
        "L": _dense(m.lowering),
        "l_marks": set(m.lowering.trunc_cols),
        "R": _dense(m.raising),
        "r_marks": set(m.raising.trunc_cols),
        "vac": list(column_poly(*m.vacuum, m.degree_cap).coeffs),
        "basis": [list(p.coeffs) for p in ps],
        "b_marks": {n for n, p in enumerate(ps) if p.truncated},
        "iota": IOTA,
        "even": m.parity is Parity.EVEN,
        "label": m.label(),
    }


def _rebuilt(m, d: dict):
    cap = m.degree_cap
    return m._replace(
        lowering=ref.op_from_grid(d["L"], d["l_marks"]),
        raising=ref.op_from_grid(d["R"], d["r_marks"]),
        vacuum=integer_vector(d["vac"]),
        basis_op=ref.op_from_columns(
            cap, {n: dict(enumerate(c)) for n, c in enumerate(d["basis"])}, frozenset(d["b_marks"])
        ),
    )


@st.composite
def perturbed_models(draw, spare=st.just(0)):
    """A catalog model at degree <= 8 with one entry of L, R, the vacuum
    row or a basis coefficient changed, or one truncation mark added.
    Basis changes stay on even degrees for heat, inside its space.  The
    degree cap exceeds the top basis degree by a draw from ``spare``,
    except on lower-factorial, whose cap is its top index."""
    name = draw(st.sampled_from(["monomial", "lower-factorial", "hermite", "heat"]))
    n_max = draw(st.integers(1, 8))
    extra = 0 if name == "lower-factorial" else draw(spare)
    m = build_model(name, n_max, cap=(2 * n_max if name == "heat" else n_max) + extra)
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
    assert _verdict(generating_function(m, order)) == ref.generating_function_verdict(d, order)
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


@functools.lru_cache(maxsize=None)
def _group_law_sides(order):
    return ref.group_law_sides(order)


def _assert_group_law_is_the_six_coordinate_oracle(m, d, order):
    """``group_law_check`` reports the status, first failure and residual
    that the two-sided oracle gives on the group law in all six
    coordinates, centre included, and the failure lies at s1 = s2 = 0."""
    letters = {"L": (d["L"], d["l_marks"]), "R": (d["R"], d["r_marks"])}
    cols = [m.degree_of_index(j) for j in range(m.n_max - order + 1)]
    idx, tainted, residual = ref.two_sided_first_difference(*_group_law_sides(order), letters, cols)
    ff = None
    if idx is not None:
        assert idx[0] == idx[3] == 0, idx
        ff = {"multi_index": {k: n for k, n in zip(ref.GROUP_COORDINATES, idx) if n}}
    report = group_law_check(m, order)
    assert (report.status, report.first_failure, report.max_residual) == (
        ref.status(idx, tainted), ff, residual
    )
    return report


@settings(max_examples=60, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.integers(2, 4))
def test_the_group_law_on_four_coordinates_is_the_six_coordinate_oracle(case, order):
    """The check leaves out the central coordinates s1 and s2 and still
    reports what the whole law gives, on models on and off the premise."""
    m, d, _ = case
    assume(order <= m.n_max)
    _assert_group_law_is_the_six_coordinate_oracle(m, d, order)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_the_group_law_off_the_premise_is_the_six_coordinate_oracle(order):
    """monomial(6) with R t^2 = 2 t^3 fails on the direct path, and with
    R marked at t has no twin either and is inconclusive: each as the
    six-coordinate oracle has it."""
    m = build_model("monomial", 6)
    bad, marked = _plain(m), _plain(m)
    bad["R"][3][2] += 1
    marked["r_marks"].add(1)
    for d, status in ((bad, "fail"), (marked, "inconclusive")):
        model = _rebuilt(m, d)
        assert model.fock_twin is None
        assert _assert_group_law_is_the_six_coordinate_oracle(model, d, order).status == status


@functools.lru_cache(maxsize=None)
def _weyl_sides(order):
    return ref.weyl_sides(order)


@settings(max_examples=100, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.integers(1, 5))
def test_the_weyl_check_is_the_two_sided_oracle(case, order):
    """``weyl_relation_check`` reports the status, first failure and
    residual that the two-sided oracle gives on both sides of the
    reorder rule, each a product of exponential series, on models on
    and off the premise."""
    m, d, _ = case
    assume(order <= m.n_max)
    letters = {"L": (d["L"], d["l_marks"]), "R": (d["R"], d["r_marks"])}
    cols = [m.degree_of_index(j) for j in range(m.n_max - order + 1)]
    idx, tainted, residual = ref.two_sided_first_difference(*_weyl_sides(order), letters, cols)
    ff = None
    if idx is not None:
        ff = {"multi_index": {k: n for k, n in zip(ref.WEYL_COORDINATES, idx) if n}}
    report = weyl_relation_check(m, order)
    assert (report.status, report.first_failure, report.max_residual) == (
        ref.status(idx, tainted), ff, residual
    )


@functools.lru_cache(maxsize=None)
def _composition_sides(order):
    return ref.composition_sides(order)


def _assert_composition_is_the_eight_coordinate_oracle(m, d, order):
    """``composition_check_formal`` reports the status, first failure and
    residual that the two-sided oracle gives on both sides of the
    composition, built in all eight coordinates."""
    letters = {"L": (d["L"], d["l_marks"]), "R": (d["R"], d["r_marks"])}
    cols = [m.degree_of_index(j) for j in range(m.n_max - order + 1)]
    idx, tainted, residual = ref.two_sided_first_difference(
        *_composition_sides(order), letters, cols
    )
    ff = None
    if idx is not None:
        ff = {"multi_index": {k: n for k, n in zip(ref.COMPOSITION_COORDINATES, idx) if n}}
    report = composition_check_formal(m, order)
    assert (report.check, report.status, report.first_failure, report.max_residual) == (
        "twisted-composition", ref.status(idx, tainted), ff, residual
    )
    return report


@settings(max_examples=150, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.integers(1, 3))
def test_the_composition_read_off_the_group_law_is_the_eight_coordinate_oracle(case, order):
    """The composition, read off the group law's report, is what its own
    eight-coordinate series gives, on models on and off the premise."""
    m, d, _ = case
    assume(order <= m.n_max)
    _assert_composition_is_the_eight_coordinate_oracle(m, d, order)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_the_composition_off_the_premise_is_the_eight_coordinate_oracle(order):
    """monomial(6) with R t^2 = 2 t^3 fails from order 2 on the direct
    path, and with R marked at t is inconclusive, both without a twin."""
    m = build_model("monomial", 6)
    bad, marked = _plain(m), _plain(m)
    bad["R"][3][2] += 1
    marked["r_marks"].add(1)
    for d, status in ((bad, "fail" if order > 1 else PASS), (marked, "inconclusive")):
        model = _rebuilt(m, d)
        assert model.fock_twin is None
        assert _assert_composition_is_the_eight_coordinate_oracle(model, d, order).status == status


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
    """A library-built monomial model, and a hermite one, whose raising
    marks every column truncated: each check that reads the raising
    operator on the compared columns is inconclusive.  Unmarked, the
    hermite model would be decided on its Fock twin."""
    for name in ("monomial", "hermite"):
        m = build_model(name, 8)
        r = m.raising
        m = m._replace(raising=LinearOp(r.cols, r.den, r.cap, frozenset(range(r.cap + 1))))
        reports = (
            [r for r in verify_model(m) if r.check in ("ladder-raising", "commutator")]
            + [group_law_check(m, 2), weyl_relation_check(m, 2), composition_check_formal(m, 2)]
            + metaplectic_check(m)
            + [sl2_closure_check(m)]
        )
        assert len(reports) == 9
        assert all(r.status == "inconclusive" for r in reports), [
            (name, r.check, r.status) for r in reports
        ]


def test_a_marked_lowering_never_passes():
    """A library-built monomial model whose lowering marks every column
    truncated: the duals l_k = l_0 L^k read it, so biorthogonality is
    inconclusive along with covariant and character."""
    m = build_model("monomial", 8)
    low = m.lowering
    m = m._replace(lowering=LinearOp(low.cols, low.den, low.cap, frozenset(range(low.cap + 1))))
    reports = [biorthogonality_check(m), covariant_check(m), character_check(m, 4)]
    assert [r.status for r in reports] == ["inconclusive"] * 3


def test_a_flagged_basis_polynomial_never_passes_binomial():
    """A library-built monomial model whose p_3 carries the truncated
    flag: the binomial identity at n = 3 reads p_0..p_3, so it is
    inconclusive like covariant and character, and so is the sweep,
    since the mark takes the model off the premise of the expansion
    theorem; at n = 2 it passes."""
    m = _flagged(build_model("monomial", 8), 3)
    reports = [binomial_check(m, 3), covariant_check(m), character_check(m, 3)]
    reports += binomial_sweep(m, 8)
    assert [r.status for r in reports] == ["inconclusive"] * 4
    assert binomial_check(m, 2).status == PASS


def _flagged(model, n):
    """The model with p_n carrying the truncated flag: B marks column n."""
    b = model.basis_op
    return model._replace(basis_op=LinearOp(b.cols, b.den, b.cap, b.trunc_cols | {n}))


def test_a_flagged_binomial_basis_polynomial_taints_every_later_index():
    """binomial at n reads p_0..p_n: with p_3 flagged, n = 5 is
    inconclusive as well as n = 3."""
    m = _flagged(build_model("monomial", 8), 3)
    assert binomial_check(m, 5).status == "inconclusive"


def test_a_flagged_top_basis_polynomial_leaves_covariant_inconclusive():
    """With p_8 flagged on the monomial model at degree 8, only the image
    and exchange-lowering identities read column 8; the taint gathered
    there holds through the exchange-raising identity on 0..7."""
    assert covariant_check(_flagged(build_model("monomial", 8), 8)).status == "inconclusive"


@pytest.mark.parametrize("module, check", [
    (transforms, lambda m: check_transmutation_intertwining(m, build_model("upper-factorial", 6))),
    (transforms, covariant_check),
    (translations, lambda m: character_check(m, 4)),
    (translations, lambda m: binomial_sweep(m, 6)),
    (heisenberg, lambda m: generic_sl2_ladder(*metaplectic_sequences(m)[:3])),
    (heisenberg, lambda m: twisted_convolve_check()),
], ids=["transmutation", "covariant", "character", "binomial-sweep", "sl2-ladder", "twisted"])
def test_each_first_failure_scan_is_the_one_verdict_rule(module, check, count_calls):
    """Each exact check that scans its identities for the first failure
    hands its (key, holds, marked) triples to ``core.outcome``, read
    through its module, and keeps no scan of its own: on a model that a
    basis mark takes off the premise, so that none is decided on the
    Fock twin or by the expansion theorem."""
    d = _plain(build_model("monomial", 6))
    d["b_marks"].add(4)
    m = _rebuilt(build_model("monomial", 6), d)
    assert not m.premise and not m.lowering_premise
    calls = count_calls(module, "outcome")
    check(m)
    assert calls


def test_the_basis_view_carries_the_marks_of_b():
    """The basis view read off B: p_n is flagged exactly when B marks
    column n, so the transmutation check, which maps the source p_n,
    is inconclusive from a flagged source p_3."""
    m = _flagged(build_model("hermite", 8), 3)
    assert [p.truncated for p in ref.basis(m)] == [n == 3 for n in range(9)]
    report = check_transmutation_intertwining(m, build_model("monomial", 8))
    assert report.status == "inconclusive"
    assert report == ref.transmutation_by_poly(m, build_model("monomial", 8))


def test_genfun_and_delsarte_read_the_marks_of_b_only_up_to_their_order():
    """The genfun and Delsarte checks at an order below n_max scan
    p_0..p_order alone: with B marked at 2 and 6 both are inconclusive at
    order 4; with B marked at 6 only they pass at order 4 and are
    inconclusive at order 6."""
    m = build_model("lower-factorial", 8)
    cases = (((2, 6), 4, "inconclusive"), ((6,), 4, PASS), ((6,), 6, "inconclusive"))
    for marks, order, status in cases:
        flagged = m
        for n in marks:
            flagged = _flagged(flagged, n)
        reports = [generating_function(flagged, order), delsarte_eigen_check(flagged, order)]
        assert [r.status for r in reports] == [status] * 2, (marks, order)


def test_an_axiom_that_fails_on_a_marked_column_reports_its_taint():
    """monomial(8) with p_3 doubled and flagged: L p_3 = 2 p_2 fails at
    3 and R p_2 = 3 p_3 / 2 fails at 2, each tainted by the mark on p_3
    that it reads on that column, as the oracle gathers the taint before
    each comparison; the vacuum axiom holds, tainted from p_3 on.  With
    only p_8 flagged, R p_7 = 8 p_8 holds, inconclusive: only its right
    side reads the mark."""
    m = build_model("monomial", 8)
    d = _plain(m)
    d["basis"][3] = [2 * c for c in d["basis"][3]]
    d["b_marks"].add(3)
    m = _rebuilt(m, d)
    assert (m.lowering_outcome, m.raising_outcome, m.vacuum_outcome) == ((3, True), (2, True), (None, True))
    assert m.lowering_outcome == ref.lowering_search(d, 8)
    assert m.raising_outcome == ref.raising_search(d, 8)
    assert axiom_outcomes(m, 2) == ((None, False), (None, False))
    top = _flagged(build_model("monomial", 8), 8)
    assert top.raising_outcome == (None, True)
    assert {r.check: r.status for r in verify_model(top)}["ladder-raising"] == "inconclusive"


@settings(max_examples=60, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)))
def test_each_axiom_outcome_is_the_oracle_search(case):
    """The first failure and the taint of each axiom, as the column loop
    gives them at n_max and below it, are what the plain-list searches
    give, the taint at a failing column included."""
    m, d, _ = case
    assert m.raising_outcome == ref.raising_search(d, m.n_max)
    for top in range(m.n_max + 1):
        want = ref.lowering_search(d, top), ref.pairing_search(d, d["vac"], 0, top)
        assert axiom_outcomes(m, top) == want, top


def test_the_premise_and_the_axiom_outcomes_multiply_no_operators(count_calls):
    """Every model axiom is decided column by column: the premise of the
    six catalog models at degree 16, and their lowering and vacuum
    outcomes below n_max, make no operator product."""
    catalog = [build_model(name, 16, Fraction(5, 2) if name == "bessel" else None)
               for name in MODEL_NAMES]
    calls = count_calls(kernels, "imat_mul")
    assert all(m.premise for m in catalog)
    for m in catalog:
        for top in range(m.n_max):
            assert axiom_outcomes(m, top) == ((None, False), (None, False)), (m.name, top)
    assert calls == []


def test_a_flagged_p0_leaves_the_vacuum_axiom_inconclusive():
    """The vacuum axiom <l_0, p_n> = delta_0n pairs l_0 with p_0 first,
    and with p_0 flagged the column it scans first is marked."""
    reports = {r.check: r.status for r in verify_model(_flagged(build_model("monomial", 8), 0))}
    assert reports["vacuum"] == "inconclusive"


def test_a_flagged_target_basis_polynomial_taints_the_umbral_map():
    """A hermite target at degree 8 whose p_3 carries the truncated
    flag: an image that uses p_3 is flagged, one that does not is not,
    and the transmutation check onto it is inconclusive, like covariant
    and biorthogonality on the same target.  Reassembling the basis
    coefficients on that target is flagged in the same way."""
    src, dst = build_model("monomial", 8), _flagged(build_model("hermite", 8), 3)
    _, _, p2, p3 = ref.basis(src)[:4]
    assert umbral_map(src, dst, p3).truncated
    assert not umbral_map(src, dst, p2).truncated
    assert reassemble(dst, [0, 0, 0, 1]).truncated
    assert not reassemble(dst, [0, 0, 1]).truncated
    reports = [check_transmutation_intertwining(src, dst), covariant_check(dst), biorthogonality_check(dst)]
    assert [r.status for r in reports] == ["inconclusive"] * 3
    assert reports[0] == ref.transmutation_by_poly(src, dst)


@pytest.mark.parametrize("ladder", ["lowering", "raising"])
def test_a_marked_target_ladder_leaves_the_transmutation_check_inconclusive(ladder):
    """A monomial target whose lowering or raising marks every column:
    the target side of each identity applies that ladder to V p_n, so
    the check from hermite is inconclusive, as the ``Poly`` oracle says,
    though nothing on the source side is marked."""
    src, dst = build_model("hermite", 8), build_model("monomial", 8)
    op = getattr(dst, ladder)
    dst = dst._replace(**{ladder: LinearOp(op.cols, op.den, op.cap, range(op.cap + 1))})
    report = check_transmutation_intertwining(src, dst)
    assert report.status == "inconclusive"
    assert report == ref.transmutation_by_poly(src, dst)


def test_a_marked_source_raising_leaves_the_transmutation_check_inconclusive():
    """A monomial source whose raising marks every column: of the two
    sides of V R_src = R_dst V only the source side, V R_src p_n, reads
    those marks (D_src carries the marks of L alone), so the check onto
    hermite is inconclusive, as the ``Poly`` oracle says, though nothing
    on the target side is marked."""
    src, dst = build_model("monomial", 8), build_model("hermite", 8)
    r = src.raising
    src = src._replace(raising=LinearOp(r.cols, r.den, r.cap, range(r.cap + 1)))
    report = check_transmutation_intertwining(src, dst)
    assert report.status == "inconclusive"
    assert report == ref.transmutation_by_poly(src, dst)


def _any_outcome(call):
    """("ok", value) or (name of the package error raised, its message)."""
    try:
        return "ok", call()
    except UmbraError as exc:
        return type(exc).__name__, str(exc)


def _odd_lowering_image(d):
    d["L"][1][2] += 1  # L t^2 gains a t term


def _lowering_above_top(d):
    d["L"][5][1] += 1  # L t gains a t^5 term, above the top degree 4


def _odd_basis_content(d):
    d["basis"][1][1] += 1  # p_1 gains a t term


@pytest.mark.parametrize("name,cap,edit,side,message", [
    ("heat", None, _odd_lowering_image, "src", "heat lives on even polynomials; input has a nonzero t^1 coefficient"),
    ("monomial", 6, _lowering_above_top, "src", "degree 5 exceeds the top basis degree 4"),
    ("heat", None, _odd_basis_content, "src", "heat lives on even polynomials; input has a nonzero t^1 coefficient"),
    ("heat", None, _odd_basis_content, "dst", "heat lives on even polynomials; input has a nonzero t^1 coefficient"),
])
def test_the_transmutation_check_refuses_what_the_poly_oracle_refuses(name, cap, edit, side, message):
    """A source ladder image or source basis element outside the source
    space, or a target image outside the target space, raises the
    DomainError of the ``Poly`` loop, against a monomial model of the
    same index count."""
    m = build_model(name, 4, cap=cap)
    d = _plain(m)
    edit(d)
    src, dst = (_rebuilt(m, d), build_model("monomial", 4))[:: 1 if side == "src" else -1]
    want = ("DomainError", message)
    assert _any_outcome(lambda: check_transmutation_intertwining(src, dst)) == want
    assert _any_outcome(lambda: ref.transmutation_by_poly(src, dst)) == want


@settings(max_examples=60, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.sampled_from(["monomial", "upper-factorial", "heat", "bessel"]))
def test_the_transmutation_check_agrees_with_the_poly_oracle_on_perturbed_models(case, other):
    """Report or refusal alike, to, from and onto a perturbed model whose
    cap may exceed its top basis degree, against a catalog model of the
    same index count, crossing parity or not."""
    m, _, _ = case
    o = build_model(other, m.n_max, Fraction(3, 2) if other == "bessel" else None)
    for src, dst in ((m, o), (o, m), (m, m)):
        got = _any_outcome(lambda: check_transmutation_intertwining(src, dst))
        assert got == _any_outcome(lambda: ref.transmutation_by_poly(src, dst))


def test_w0_flags_an_input_that_reaches_a_marked_lowering_column():
    """covariant_w0 on a monomial model whose lowering marks column 5:
    L^k t^3 never touches column 5, L^k t^6 does."""
    m = build_model("monomial", 8)
    low = m.lowering
    m = m._replace(lowering=LinearOp(low.cols, low.den, low.cap, frozenset({5})))
    assert not covariant_w0(m, Poly([0, 0, 0, 1], 8)).truncated
    assert covariant_w0(m, Poly([0] * 6 + [1], 8)).truncated


def test_w0_flags_an_input_that_reads_a_marked_lowering_column_with_no_image():
    """covariant_w0 on a monomial model whose lowering marks column 0:
    L 1 = 0 has no nonzero row, yet reading the marked column taints."""
    m = build_model("monomial", 8)
    low = m.lowering
    m = m._replace(lowering=LinearOp(low.cols, low.den, low.cap, frozenset({0})))
    assert covariant_w0(m, Poly([1], 8)).truncated
    assert not covariant_w0(m, Poly([1], 8).scale(0)).truncated


def _outcome(call):
    """("ok", value) or (name of the error raised, its message)."""
    try:
        return "ok", call()
    except (DomainError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


def _ref_outcome(call):
    try:
        return "ok", call()
    except ref.OutOfSpace as exc:
        return "DomainError", str(exc)
    except ref.Leak as exc:
        return "ParameterError", str(exc)


def _poly_outcome(call):
    """``_outcome`` of a call that returns a Poly, as (coefficients, flag)."""
    def values():
        p = call()
        return list(p.coeffs), p.truncated

    return _outcome(values)


@settings(max_examples=100, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.data())
def test_basis_expansion_agrees_with_the_fraction_pairing(case, data):
    """expand_in_basis (D f), reassemble (B c), covariant_w0 and the
    squared-ladder diagonals (D S B) against the Fraction loops they
    replaced, on perturbed models whose cap may exceed the top basis
    degree, with inputs inside or outside the space."""
    m, d, _ = case
    cs = data.draw(st.lists(VALUES, min_size=m.degree_cap + 1, max_size=m.degree_cap + 1))
    flagged = data.draw(st.booleans())
    f = Poly(cs, m.degree_cap, flagged)
    assert _outcome(lambda: expand_in_basis(m, f)) == _ref_outcome(lambda: ref.expand(d, cs))
    assert _poly_outcome(lambda: covariant_w0(m, f)) == _ref_outcome(lambda: ref.w0(d, cs, flagged))
    weights = data.draw(st.lists(VALUES, max_size=m.n_max + 1))
    assert _poly_outcome(lambda: reassemble(m, weights)) == ("ok", ref.reassemble(d, weights))
    assert _outcome(lambda: metaplectic_sequences(m)) == _ref_outcome(
        lambda: ref.metaplectic_by_expansion(d)
    )


def test_the_z_image_leaving_the_space_is_refused_before_the_lowering_leak():
    """monomial(4) at cap 6 with L t^2 = 2t + t^4.  At k = 1 the squared
    lowering's image L^2 p_2 = 1 + 2t^3 expands to p_0 + 12 p_3, a leak
    onto index 3, and the z image 5/4 t^2 + 1/2 t^5 lies above the top
    basis degree.  Both images at k are refused outside the space before
    either one's leak is read, so the refusal is the DomainError."""
    m = build_model("monomial", 4, cap=6)
    d = _plain(m)
    d["L"][4][2] += 1
    m = _rebuilt(m, d)
    lowered = ref.m_vec(ref.m_mul(d["L"], d["L"]), d["basis"][2])
    assert ref.expand(d, lowered) == [1, 0, 0, 12, 0]
    want = ("DomainError", "degree 5 exceeds the top basis degree 4")
    assert _outcome(lambda: metaplectic_sequences(m)) == want
    assert _ref_outcome(lambda: ref.metaplectic_by_expansion(d)) == want


STEPS = st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3)])


@settings(max_examples=100, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.data())
def test_duals_and_translations_agree_with_the_functional_and_poly_forms(case, data):
    """D from integer rows holds, entry for entry, the plain Fraction
    rows l_0 L^k, and generalized_translate gives the ``Poly`` loop's
    values, flag or refusal, on perturbed models: an entry of L that
    gains a fraction makes L.den > 1, a mark on L taints the powers
    L^k f, and an edit can keep L^k f from dying inside the basis
    range."""
    m, d, _ = case
    assert _dense(m.dual_op) == _padded(ref.dual_op_by_functionals(d["vac"], d["L"], m.n_max))
    cs = data.draw(st.lists(VALUES, min_size=m.degree_cap + 1, max_size=m.degree_cap + 1))
    f = Poly(cs, m.degree_cap, data.draw(st.booleans()))
    y = data.draw(STEPS)
    got = _any_outcome(lambda: _values(generalized_translate(m, y, f)))
    assert got == _any_outcome(lambda: _values(ref.translate_by_poly(m, y, f)))


def _values(p):
    return list(p.coeffs), p.truncated


def _marked_lowering(name, cols):
    """The catalog model at degree 8 with L marking ``cols``."""
    m = build_model(name, 8)
    low = m.lowering
    return m._replace(lowering=LinearOp(low.cols, low.den, low.cap, frozenset(cols)))


def test_a_translation_whose_powers_read_a_marked_lowering_column_is_flagged():
    """monomial(8) with L marking column 5: L^k t^3 never reads it, so
    T^1 t^3 = (t+1)^3, unflagged; L^2 t^6 reads it, so T^1 t^6 =
    (t+1)^6 is flagged, and so is T^1 of a flagged t^3: the series ends
    at the first zero power, and a tainted one flags the sum, as in the
    ``Poly`` loop."""
    m = _marked_lowering("monomial", {5})
    assert _values(generalized_translate(m, 1, Poly([0, 0, 0, 1], 8))) == ([1, 3, 3, 1] + [0] * 5, False)
    for f, want in (
        (Poly([0] * 6 + [1], 8), [1, 6, 15, 20, 15, 6, 1, 0, 0]),
        (Poly([0, 0, 0, 1], 8, True), [1, 3, 3, 1] + [0] * 5),
    ):
        assert _values(generalized_translate(m, 1, f)) == (want, True)
        assert _values(ref.translate_by_poly(m, 1, f)) == (want, True)


@pytest.mark.parametrize("name", ["monomial", "lower-factorial"])
def test_the_marks_of_d_reach_the_transmutation_and_its_check(name):
    """With L marking column 0, every column of D is marked (L's pattern
    leads each t^j down to t^0), so the transmutation check to
    hermite(8) is inconclusive and the image of t^2 is flagged, as
    biorthogonality, covariant and ``covariant_w0`` say on the same
    duals, and the ``Poly`` oracle agrees."""
    m, dst = _marked_lowering(name, {0}), build_model("hermite", 8)
    report = check_transmutation_intertwining(m, dst)
    assert report.status == "inconclusive"
    assert report == ref.transmutation_by_poly(m, dst)
    assert umbral_map(m, dst, Poly([0, 0, 1], 8)).truncated
    assert m.dual_op.trunc_cols == set(range(9))
    others = [biorthogonality_check(m), covariant_check(m)]
    assert [r.status for r in others] == ["inconclusive"] * 2
    assert covariant_w0(m, Poly([0, 0, 1], 8)).truncated


def _by_dual_matrix(src, dst, f):
    """The umbral map of f through D_src's matrix: ``transmute_vector``
    on f's kernel column, refused where ``umbral_map`` refuses f."""
    src.require_poly(f)
    col, den, tainted = transmute_vector(src, dst, *integer_vector(f.coeffs), f.truncated)
    return column_poly(col, den, dst.degree_cap, tainted)


def _mapped(fn):
    """(coefficients, flag) of the Poly fn() returns, or its refusal."""
    try:
        image = fn()
    except UmbraError as exc:
        return type(exc).__name__, str(exc)
    return image.coeffs, image.truncated


def _walk_and_matrix(src, dst, f):
    return _mapped(lambda: umbral_map(src, dst, f)), _mapped(lambda: _by_dual_matrix(src, dst, f))


#: every catalog model, bessel at three nu: at nu = 1/3 its lowering
#: keeps the denominator 3, so the walk's powers have denominators of
#: their own
CATALOG_SPECS = [(name, None) for name in MODEL_NAMES if name != "bessel"] + [
    ("bessel", Fraction(1, 3)), ("bessel", Fraction(5, 2)), ("bessel", Fraction(7)),
]


@pytest.mark.parametrize("degree", range(1, 41))
def test_the_walk_maps_as_the_dual_matrix_on_every_catalog_pair(degree):
    """``umbral_map`` walks L^k f and never forms D_src, yet its value
    and flag are those of ``transmute_vector``, on every ordered pair of
    catalog models: for a dense f on every basis degree of the source,
    flagged at odd degrees."""
    models = [build_model(name, degree, nu) for name, nu in CATALOG_SPECS]
    for src, dst in itertools.permutations(models, 2):
        cs = [0] * (src.degree_cap + 1)
        for n in range(degree + 1):
            cs[src.degree_of_index(n)] = Fraction((-1) ** n * (n + 1), n + 2)
        f = Poly(cs, src.degree_cap, bool(degree % 2))
        got, want = _walk_and_matrix(src, dst, f)
        assert got == want, (src.label(), dst.label())


@settings(max_examples=150, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.sampled_from(CATALOG_SPECS), st.data())
def test_the_walk_maps_as_the_dual_matrix_on_perturbed_models(case, spec, data):
    """A perturbed model, as source and as target, beside a catalog model
    of its n_max: each map gives the value, the flag or the refusal of
    ``transmute_vector``, whatever marks L carries and whether or not a
    power of L ever vanishes; f spans the source's space up to its cap."""
    m, _, _ = case
    other = build_model(spec[0], m.n_max, spec[1])
    for src, dst in ((m, other), (other, m)):
        step = 2 if src.parity is Parity.EVEN else 1
        cs = [data.draw(VALUES) if k % step == 0 else 0 for k in range(src.degree_cap + 1)]
        f = Poly(cs, src.degree_cap, data.draw(st.booleans()))
        got, want = _walk_and_matrix(src, dst, f)
        assert got == want


def test_the_walk_maps_as_the_dual_matrix_through_a_marked_lowering_never_zero():
    """monomial(8) with L t^3 = 3 t^2 + t^3/2, so no power of L vanishes
    on t^3, and L marking column 5, whose closure is t^5..t^8: the walk
    stops at n_max, and the image of t^3 is unflagged and that of t^6
    flagged, as through D."""
    m = build_model("monomial", 8)
    d = _plain(m)
    d["L"][3][3] += Fraction(1, 2)
    d["l_marks"].add(5)
    m, dst = _rebuilt(m, d), build_model("hermite", 8)
    assert m.dual_marks == {5, 6, 7, 8}
    t3, t6 = Poly([0, 0, 0, 1], 8), Poly([0] * 6 + [1], 8)
    assert not umbral_map(m, dst, t3).truncated and umbral_map(m, dst, t6).truncated
    for f in (t3, t6, Poly([1, 0, 0, 1, 0, 0, 1], 8, True)):
        for src, dst2 in ((m, dst), (dst, m)):
            got, want = _walk_and_matrix(src, dst2, f)
            assert got == want


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_a_transmute_or_w0_request_builds_no_dual_matrix(name, monkeypatch):
    """``transmute`` and ``w0`` walk L^k f for their one input, so no
    model they build stacks its duals into D."""
    built, load = [], cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda *a: built.append(load(*a)) or built[-1])
    even = name in ("heat", "bessel")
    nu = ["--nu", "1/3"] if name == "bessel" else []
    poly = "--poly=" + ("1,0,-2,0,3/4" if even else "1,-2,3/4,0,5")
    for argv in (["transmute", "--from", name, *nu, "--to", "upper-factorial"],
                 ["w0", "--model", name, *nu]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--degree", "16", poly]) == 0
    assert len(built) == 3
    assert not any("dual_op" in vars(m) for m in built)


# -- the Fock twin and the expansion theorem decide as the direct path --

def _without_twin(m):
    """A copy of m whose ``fock_twin`` is None, so that every check on
    it runs on m's own operators: the direct path."""
    direct = m._replace()
    direct.__dict__["fock_twin"] = None
    return direct


def _binomial_by_tables(m, top):
    """``binomial_sweep`` with every n decided on the two-variable
    tables of ``binomial_check``: the direct path."""
    for n in range(top + 1):
        r = binomial_check(m, n)
        if not r.passed:
            return [r]
    return [VerificationReport("binomial", m.label(), {"n_max": top})]


def _decided_and_direct(m, order, top, other):
    """For each check that ``UmbralModel.fock_twin`` or the expansion
    theorem may decide: (the call as ``verify`` makes it, the direct
    path on m's own operators).  The transmutation check runs to, from
    and onto m against ``other``, a model of m's index count, its
    direct path with neither side twinned."""
    d = _without_twin(m)

    def transmute(src, dst):
        return (lambda: [check_transmutation_intertwining(src, dst)],
                lambda: [check_transmutation_intertwining(_without_twin(src), _without_twin(dst))])

    def commutator(model):
        return lambda: [r for r in verify_model(model) if r.check == "commutator"]

    return {
        "group-law": (lambda: [group_law_check(m, order)], lambda: [group_law_check(d, order)]),
        "weyl": (lambda: [weyl_relation_check(m, order)], lambda: [weyl_relation_check(d, order)]),
        "composition": (lambda: [composition_check_formal(m, order)],
                        lambda: [composition_check_formal(d, order)]),
        "metaplectic": (lambda: metaplectic_check(m), lambda: metaplectic_check(d)),
        "sl2": (lambda: [sl2_closure_check(m)], lambda: [sl2_closure_check(d)]),
        "commutator": (commutator(m), commutator(d)),
        "biorthogonality": (lambda: [biorthogonality_check(m)], lambda: [biorthogonality_check(d)]),
        "covariant": (lambda: [covariant_check(m)], lambda: [covariant_check(d)]),
        "binomial": (lambda: binomial_sweep(m, top), lambda: _binomial_by_tables(m, top)),
        "transmute-from": transmute(m, other),
        "transmute-to": transmute(other, m),
        "transmute-onto": transmute(m, m),
    }


def _assert_decided_as_directly(m, order, top, other):
    for name, (decided, direct) in _decided_and_direct(m, order, top, other).items():
        assert _any_outcome(decided) == _any_outcome(direct), name


@settings(max_examples=120, deadline=None)
@given(
    perturbed_models(spare=st.integers(0, 2)),
    st.booleans(),
    st.sampled_from(["monomial", "upper-factorial", "hermite", "heat", "bessel"]),
)
def test_the_premise_paths_report_what_the_direct_paths_report(case, at_top, other):
    """Report for report, field for field, refusals alike: the checks
    decided on the Fock twin and the binomial sweep decided by the
    expansion theorem, against the same checks on the model's own
    operators, on perturbed models whose cap may exceed the top basis
    degree, with the sweep to n_max or to the drawn order; and the
    transmutation check between the perturbed model and a catalog
    model of its index count, parity mixed or not."""
    m, _, order = case
    o = build_model(other, m.n_max, Fraction(3, 2) if other == "bessel" else None)
    _assert_decided_as_directly(m, order, m.n_max if at_top else order, o)


@settings(max_examples=60, deadline=None)
@given(
    ref.graded_premise_models(),
    st.data(),
    st.sampled_from(["monomial", "upper-factorial", "hermite", "heat", "bessel"]),
)
def test_random_graded_premise_models_are_decided_as_directly(d, data, other):
    """Models on a random graded basis, whose dense ladders no catalog
    family has, each meet the premise, and every check that the Fock
    twin or the expansion theorem may decide reports what its direct
    path reports, as in the test above; the sweep runs to the drawn
    order."""
    top = len(d["basis"]) - 1
    name, cap = ("heat", 2 * top) if d["even"] else ("monomial", top)
    m = _rebuilt(build_model(name, top, cap=cap), d)
    assert m.premise
    order = data.draw(st.integers(0, top))
    o = build_model(other, top, Fraction(3, 2) if other == "bessel" else None)
    _assert_decided_as_directly(m, order, order, o)


@settings(max_examples=60, deadline=None)
@given(
    ref.delta_operator_models(),
    st.data(),
    st.sampled_from(["monomial", "upper-factorial", "hermite", "heat", "bessel"]),
)
def test_random_delta_operators_reach_the_expansion_theorem(d, data, other):
    """The basic sequence of a random delta operator Q, with L = Q and
    the vacuum evaluation at 0, meets the premise and the expansion
    theorem; at every n the sweep's theorem report is what the direct
    ``binomial_check`` tables give, and every other check reports what
    its direct path reports."""
    top = len(d["basis"]) - 1
    assert d["L"] == d["Q"]
    m = _rebuilt(build_model("monomial", top), d)
    assert m.premise and m.vacuum_is_eval0()
    assert translations._expansion_theorem_applies(m)
    for n in range(top + 1):
        assert binomial_sweep(m, n) == _binomial_by_tables(m, n) == [
            VerificationReport("binomial", m.label(), {"n_max": n})
        ]
    o = build_model(other, top, Fraction(3, 2) if other == "bessel" else None)
    _assert_decided_as_directly(m, data.draw(st.integers(0, top)), top, o)


def test_the_catalog_models_are_decided_on_their_fock_twin():
    """Every catalog model, monomial included, meets the premise of both
    transports, and so has the Fock pair as its twin, the pair being its
    own; the binomial-type ones meet the expansion theorem; heat and
    Bessel lower by a second-order operator, L t = 0, so no delta
    operator.  Each pair of them is decided on the pair as well."""
    catalog = [build_model(name, 8, Fraction(5, 2) if name == "bessel" else None)
               for name in MODEL_NAMES]
    for m, other in zip(catalog, catalog[1:] + catalog[:1]):
        name = m.name
        assert m.premise and m.lowering_premise, name
        twin = m.fock_twin
        assert (twin is not None) == m.premise, name
        assert (twin.name, twin.n_max) == ("monomial", 8), name
        assert twin.fock_twin is twin, name
        if name != "hermite":
            want = name in ("monomial", "lower-factorial", "upper-factorial")
            assert translations._expansion_theorem_applies(m) == want, name
        _assert_decided_as_directly(m, 4, 8, other)


def _transported_reports(m):
    """Every report ``on_fock_twin`` may decide on m's Fock pair."""
    return (
        verify_model(m)
        + [group_law_check(m, 2), weyl_relation_check(m, 2), composition_check_formal(m, 2)]
        + metaplectic_check(m)
        + [sl2_closure_check(m), biorthogonality_check(m), covariant_check(m)]
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_the_ladder_word_checks_build_no_word_on_a_twinned_model(name):
    """The ladder-word checks, the commutator axiom, biorthogonality
    and covariant of a catalog model, monomial included, are decided on
    its Fock twin: they pass, and build the word table of the twin,
    never one of the model's own."""
    m = build_model(name, 8, Fraction(5, 2) if name == "bessel" else None)
    assert all(r.passed and r.model == m.label() for r in _transported_reports(m))
    assert "words" not in vars(m)
    assert "words" in vars(m.fock_twin)


def test_the_models_of_one_degree_share_one_fock_pair_and_its_reports(count_calls):
    """The pair is one object per process for each degree in turn, and
    each check runs on it once: the second model's transported checks
    make no operator product and hand out fresh reports under its own
    label, never the ones the pair keeps."""
    m1, m2 = build_model("lower-factorial", 8), build_model("hermite", 8)
    assert m1.fock_twin is m2.fock_twin
    first = _transported_reports(m1)
    calls = count_calls(kernels, "imat_mul")
    second = _transported_reports(m2)
    assert len(calls) == 0
    assert [r.check for r in second] == [r.check for r in first]
    assert all(r.passed and r.model == "hermite" for r in second)
    kept = m2.fock_twin.transported[biorthogonality_check, ()]
    assert second[-2] == kept._replace(model="hermite")
    assert second[-2].params is not kept.params
    nine = build_model("lower-factorial", 9)
    assert nine.fock_twin is not m1.fock_twin
    assert (nine.fock_twin.name, nine.fock_twin.n_max) == ("monomial", 9)


def test_the_pair_keeps_each_order_apart():
    """Two orders of one check on one pair are two reports, each with
    its own order, as the direct path gives them."""
    m = build_model("upper-factorial", 8)
    for order in (2, 4, 2):
        report = group_law_check(m, order)
        assert report.params["order"] == order
        assert report == group_law_check(_without_twin(m), order)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_verify_all_builds_no_dual_matrix_on_a_twinned_model(name, monkeypatch):
    """Biorthogonality and covariant are decided on the Fock twin, so
    ``verify --all`` on a twinned catalog model, monomial included,
    never stacks the model's own duals into D."""
    built, load = [], cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda *a: built.append(load(*a)) or built[-1])
    nu = ["--nu", "5/2"] if name == "bessel" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--all", "--degree", "16", "--model", name, *nu]) == 0
    assert [m.fock_twin is not None for m in built] == [True]
    assert "dual_op" not in vars(built[0])


def _verify_all(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_a_second_monomial_request_reads_the_pairs_kept_reports(count_calls):
    """monomial is its own Fock twin, so a second ``verify --all`` on it
    in one process prints what the first printed, and its only operator
    products are those its freshly built model makes for the expansion
    theorem's delta-operator test (its premise forms none): no check
    runs again on the pair."""
    argv = ["verify", "--all", "--degree", "8", "--model", "monomial"]
    first = _verify_all(argv)
    calls = count_calls(kernels, "imat_mul")
    assert _verify_all(argv) == first
    second = len(calls)
    fresh = build_model("monomial", 8)
    assert fresh.premise and translations._expansion_theorem_applies(fresh)
    assert len(calls) == 2 * second


def test_a_check_that_raises_on_the_pair_keeps_nothing():
    """A check whose body raises on the pair leaves no entry being
    decided behind, so the next call runs it again and raises again."""
    m = build_model("hermite", 4)

    def refused(model):
        raise DomainError(f"{model.label()} refused")

    for _ in range(2):
        with pytest.raises(DomainError, match="monomial refused"):
            on_fock_twin(m, refused)
    assert (refused, ()) not in m.fock_twin.transported


def _both_ways(m, other):
    """The transmutation check from m to other and from other to m,
    each beside its direct path."""
    return [
        (check_transmutation_intertwining(src, dst),
         check_transmutation_intertwining(_without_twin(src), _without_twin(dst)))
        for src, dst in ((m, other), (other, m))
    ]


def test_a_transported_pair_check_builds_no_dual_matrix():
    """Two factorial models meet the premise, so their pair check is
    decided on the Fock pair, labelled for them, and stacks neither
    model's duals into D; the pair keeps the report."""
    src, dst = build_model("lower-factorial", 16), build_model("upper-factorial", 16)
    report = check_transmutation_intertwining(src, dst)
    assert (report.status, report.model) == (PASS, "lower-factorial -> upper-factorial")
    assert report.params == {"src": "lower-factorial", "dst": "upper-factorial"}
    assert "dual_op" not in vars(src) and "dual_op" not in vars(dst)
    assert src.fock_twin.transported[check_transmutation_intertwining, ()].passed
    assert _both_ways(src, dst)[0] == (report, report)


@pytest.mark.parametrize("other", ["hermite", "heat"])
def test_a_pair_with_one_side_off_the_premise_is_decided_directly(other):
    """monomial(6) with R t^2 = 2 t^3 has no twin, so its pair check
    with a catalog model fails on the direct path, whichever side it
    is on, although the other side has a twin."""
    m = build_model("monomial", 6)
    d = _plain(m)
    d["R"][3][2] += 1
    m = _rebuilt(m, d)
    o = build_model(other, 6)
    assert (m.fock_twin, o.fock_twin is not None) == (None, True)
    for got, direct in _both_ways(m, o):
        assert got.status == "fail"
        assert got == direct


@pytest.mark.parametrize("name", ["lower-factorial", "upper-factorial"])
@pytest.mark.parametrize("top", [3, 16])
def test_the_binomial_sweep_of_a_factorial_model_builds_no_table(name, top, monkeypatch):
    """The expansion theorem decides the binomial sweep of a factorial
    model, to n_max or below it: one pass report, and no integer form of
    the basis made for a table, nor R B, which its proof never reads."""
    m = build_model(name, 16)
    want = _binomial_by_tables(build_model(name, 16), top)
    forms = []
    monkeypatch.setattr(translations, "_form", lambda *a: forms.append(a))
    assert binomial_sweep(m, top) == want
    assert forms == []
    assert "raising_outcome" not in vars(m)


def test_a_raising_that_fails_its_ladder_leaves_no_fock_twin():
    """monomial(6) with R t^2 = 2 t^3: R p_2 = t^3 != 3 p_3, so the
    formal checks run on the model, and fail there."""
    m = build_model("monomial", 6)
    d = _plain(m)
    d["R"][3][2] += 1
    m = _rebuilt(m, d)
    assert m.fock_twin is None
    report = group_law_check(m, 2)
    assert report.status == "fail"
    assert report == group_law_check(_without_twin(m), 2)


def test_a_basis_that_is_not_graded_leaves_no_fock_twin():
    """monomial(2) at cap 4 with p_0 = 1 + t^4, L t = 1 + t^4,
    L t^4 = 0 and R unmarked: every ladder axiom holds, untainted, but
    p_0..p_2 do not span 1, t, t^2.  On the safe column 1 the Weyl
    relation's L R - R L - 1 gives t^4, so the check fails, where the
    twin would pass."""
    m = build_model("monomial", 2, cap=4)
    d = _plain(m)
    d["L"][4][1] += 1
    d["L"][3][4] = 0
    d["r_marks"].clear()
    d["basis"][0][4] = Fraction(1)
    m = _rebuilt(m, d)
    assert [r.status for r in verify_model(m)] == [PASS] * 4
    assert m.fock_twin is None
    report = weyl_relation_check(m, 2)
    assert report.status == "fail"
    assert report == weyl_relation_check(_without_twin(m), 2)


def _ladder_grid(cap, image):
    """The square Fraction grid of the operator t^j -> x t^i, (i, x)
    being image(j), or no image where that is None."""
    grid = [[Fraction(0)] * (cap + 1) for _ in range(cap + 1)]
    for j in range(cap + 1):
        if (hit := image(j)) is not None and 0 <= hit[0] <= cap:
            grid[hit[0]][j] = Fraction(hit[1])
    return grid


def test_a_lowering_that_does_not_commute_with_d_dt_is_swept_by_tables():
    """L = d/dt t d/dt, L t^j = j^2 t^(j-1), with p_n = t^n/(n!)^2 and
    the matching raising R t^j = t^(j+1)/(j+1), its top column marked:
    the model meets the premise and L t = 1, but L is not
    shift-invariant, so p_2(t+y) != p_2(t) + p_1(t) p_1(y) + p_2(y)."""
    m = build_model("monomial", 4)
    d = _plain(m)
    d["L"] = _ladder_grid(4, lambda j: (j - 1, j * j))
    d["R"] = _ladder_grid(4, lambda j: (j + 1, Fraction(1, j + 1)))
    d["basis"] = [[Fraction(int(i == n), math.factorial(n) ** 2) for i in range(5)] for n in range(5)]
    m = _rebuilt(m, d)
    assert m.raising.trunc_cols == {4}
    assert m.premise
    assert not translations._expansion_theorem_applies(m)
    got = binomial_sweep(m, 4)
    assert [(r.status, r.first_failure is not None) for r in got] == [("fail", True)]
    assert got == _binomial_by_tables(m, 4)


def test_a_lowering_that_is_no_delta_operator_is_swept_by_tables():
    """heat(2) with the full (d/dt)^2, odd columns included, declared
    shift-invariant: L commutes with d/dt and the model meets the
    premise, but L t = 0, so p_1(t+y) != p_1(t) + p_1(y)."""
    m = build_model("heat", 2)
    d = _plain(m)
    d["L"] = _ladder_grid(4, lambda j: (j - 2, j * (j - 1)))
    m = _rebuilt(m, d)._replace(shift_invariant=True)
    assert m.premise
    assert not translations._expansion_theorem_applies(m)
    got = binomial_sweep(m, 2)
    assert [(r.status, r.first_failure is not None) for r in got] == [("fail", True)]
    assert got == _binomial_by_tables(m, 2)


# -- the marks across caps ---------------------------------------------

_ONE_MODEL_CHECKS = tuple(
    name for name in cli.CHECKS
    if name not in ("transmute", "twisted", "poisson-intertwining", "hankel-intertwining")
)


def _verify(check, model, degree):
    """(exit code, the statuses printed) of ``verify --check`` at
    ``--degree``, the statuses None where it refuses."""
    nu = ["--nu", "5/2"] if model == "bessel" else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--check", check, "--model", model, *nu,
                         "--degree", str(degree), "--format", "json"])
    if code == 2:
        return code, None
    got = json.loads(out.getvalue())
    return code, [r["status"] for r in (got if isinstance(got, list) else [got])]


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_a_pass_at_one_degree_stays_a_pass_at_higher_ones(model):
    """Cap monotonicity: each check of ``verify`` that acts on one model
    passes at degrees N + 1 and N + 8 wherever it passes at N, for N
    from 2 to 8."""
    passes = 0
    for check in _ONE_MODEL_CHECKS:
        got = {n: _verify(check, model, n) for n in range(2, 17)}
        for n in range(2, 9):
            if got[n][0] == 0:
                passes += 1
                assert set(got[n][1]) == {PASS}
                for k in (1, 8):
                    assert got[n + k] == (0, [PASS] * len(got[n][1])), (check, n, k)
    assert passes


def _grown(m, d, extra):
    """The model that ``perturbed_models`` drew as m, with the plain
    dict d, rebuilt with the same n_max at a degree cap ``extra`` larger
    and the same edit: each entry of d moved from the unedited model's
    by the same amount, and each mark added at the same place."""
    base = _plain(build_model(m.name, m.n_max, cap=m.degree_cap))
    big = build_model(m.name, m.n_max, cap=m.degree_cap + extra)
    g = _plain(big)
    for key in ("L", "R", "basis"):
        for i, row in enumerate(d[key]):
            for j, x in enumerate(row):
                g[key][i][j] += x - base[key][i][j]
    for i, x in enumerate(d["vac"]):
        g["vac"][i] += x - base["vac"][i]
    for key in ("l_marks", "r_marks", "b_marks"):
        g[key] |= d[key] - base[key]
    return _rebuilt(big, g)


_CAP_CHECKS = {
    "model axioms": lambda m, k: verify_model(m),
    "group law": lambda m, k: [group_law_check(m, k)],
    "weyl": lambda m, k: [weyl_relation_check(m, k)],
    "metaplectic": lambda m, k: metaplectic_check(m),
    "sl2": lambda m, k: [sl2_closure_check(m)],
    "biorthogonality": lambda m, k: [biorthogonality_check(m)],
    "covariant": lambda m, k: [covariant_check(m)],
    "character": lambda m, k: [character_check(m, k)],
}


def _reports_or_none(check, m, order):
    try:
        return check(m, order)
    except UmbraError:
        return None


@settings(max_examples=300, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.integers(1, 4))
def test_a_report_that_moves_with_the_cap_was_tainted_below(case, order):
    """Taint soundness: the same edit of the same model at a cap 8
    larger, with the same n_max, changes a check's status or first
    failure only where the smaller cap's report is tainted.  A check
    that refuses at both caps decides at neither; one that refuses at
    the smaller cap alone would have no report to carry the taint.
    The factorial models take no cap above their top index."""
    m, d, _ = case
    assume(m.name != "lower-factorial")
    big = _grown(m, d, 8)
    order = min(order, m.n_max)
    for name, check in _CAP_CHECKS.items():
        small, large = _reports_or_none(check, m, order), _reports_or_none(check, big, order)
        if small is None:
            assert large is None, name
            continue
        for s, g in zip(small, large or [None] * len(small)):
            if g is None or (s.status, s.first_failure) != (g.status, g.first_failure):
                assert s.tainted, (name, s.to_dict(), g and g.to_dict())
