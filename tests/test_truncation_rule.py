"""The one comparison rule of the exact checks: every basis-indexed
check agrees with a plain-list oracle on perturbed models, and a
truncation mark inside the compared columns never lets a check pass.
The covariant, binomial and character oracles are the Fraction loops
the operator and integer-table forms of those checks replaced; so are
the oracles of the basis expansion, the reassembly, ``covariant_w0``,
the squared-ladder diagonals, the duals and the generalized
translation, which are compared value, flag and refusal alike."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbra.core import (
    DomainError, LinearOp, ParameterError, Poly, UmbraError, column_poly, integer_vector,
)
from umbra.heisenberg import (
    composition_check_formal,
    group_law_check,
    metaplectic_check,
    metaplectic_sequences,
    sl2_closure_check,
    weyl_relation_check,
)
from umbra.kernels import EMPTY
from umbra.models import IOTA, Parity, basis_matrix, build_model, pairing_mismatch, verify_model
from umbra.reports import PASS
from umbra.transforms import (
    biorthogonality_check,
    check_transmutation_intertwining,
    covariant_check,
    covariant_w0,
    expand_in_basis,
    generating_function,
    reassemble,
    umbral_map,
)
from umbra.translations import binomial_check, character_check, delsarte_eigen_check, generalized_translate

import reference as ref

KINDS = ("none", "L", "R", "vac", "basis", "mark-L", "mark-R", "mark-basis")
DELTAS = st.sampled_from([Fraction(p, q) for p in (-2, -1, 1, 3) for q in (1, 2, 5)])
VALUES = st.sampled_from([Fraction(0)] * 4 + [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 7)])


def _dense(op: LinearOp) -> list[list[Fraction]]:
    return [[Fraction(x, op.den) for x in row] for row in op.num]


def _plain(m) -> dict:
    return {
        "L": _dense(m.lowering),
        "l_marks": set(m.lowering.trunc_cols),
        "R": _dense(m.raising),
        "r_marks": set(m.raising.trunc_cols),
        "vac": list(column_poly(*m.vacuum, m.degree_cap).coeffs),
        "basis": [list(p.coeffs) for p in m.basis],
        "b_marks": {n for n, p in enumerate(m.basis) if p.truncated},
        "iota": IOTA,
        "even": m.parity is Parity.EVEN,
        "label": m.label(),
    }


def _rebuilt(m, d: dict):
    cap = m.degree_cap
    return dataclasses.replace(
        m,
        lowering=LinearOp.from_entries(d["L"], frozenset(d["l_marks"])),
        raising=LinearOp.from_entries(d["R"], frozenset(d["r_marks"])),
        vacuum=integer_vector(d["vac"]),
        basis_op=LinearOp.from_columns(
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
        m, raising=LinearOp(r.cols, r.den, r.cap, frozenset(range(r.cap + 1)))
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
        m, lowering=LinearOp(low.cols, low.den, low.cap, frozenset(range(low.cap + 1)))
    )
    reports = [biorthogonality_check(m), covariant_check(m), character_check(m, 4)]
    assert [r.status for r in reports] == ["inconclusive"] * 3


def test_a_flagged_basis_polynomial_never_passes_binomial():
    """A library-built monomial model whose p_3 carries the truncated
    flag: the binomial identity at n = 3 reads p_0..p_3, so it is
    inconclusive like covariant and character; at n = 2 it passes."""
    m = _flagged(build_model("monomial", 8), 3)
    reports = [binomial_check(m, 3), covariant_check(m), character_check(m, 3)]
    assert [r.status for r in reports] == ["inconclusive"] * 3
    assert binomial_check(m, 2).status == PASS


def _flagged(model, n):
    """The model with p_n carrying the truncated flag: B marks column n."""
    b = model.basis_op
    return dataclasses.replace(model, basis_op=LinearOp(b.cols, b.den, b.cap, b.trunc_cols | {n}))


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


def test_the_basis_view_carries_the_marks_of_b():
    """``m.basis`` is read off B: p_n is flagged exactly when B marks
    column n, so the transmutation check, which maps the source p_n,
    is inconclusive from a flagged source p_3."""
    m = _flagged(build_model("hermite", 8), 3)
    assert [p.truncated for p in m.basis] == [n == 3 for n in range(9)]
    report = check_transmutation_intertwining(m, build_model("monomial", 8))
    assert report.status == "inconclusive"
    assert report == ref.transmutation_by_poly(m, build_model("monomial", 8))


def test_basis_matrix_keeps_only_the_columns_and_marks_up_to_top():
    """basis_matrix(m, 4) is B on columns 0..4 and zero above; of B's
    marks on columns 2 and 6 it keeps only column 2."""
    m = _flagged(_flagged(build_model("hermite", 8), 2), 6)
    b, cut = m.basis_op, basis_matrix(m, 4)
    assert cut.trunc_cols == {2}
    for j in range(m.degree_cap + 1):
        want = [b.entry(i, j) if j <= 4 else 0 for i in range(m.degree_cap + 1)]
        assert [cut.entry(i, j) for i in range(m.degree_cap + 1)] == want, j


def test_a_flagged_p0_leaves_the_vacuum_axiom_inconclusive():
    """The vacuum axiom <l_0, p_n> = delta_0n reads row 0 of l_0 B, and
    with p_0 flagged the column it scans first is marked."""
    reports = {r.check: r.status for r in verify_model(_flagged(build_model("monomial", 8), 0))}
    assert reports["vacuum"] == "inconclusive"


@settings(max_examples=60, deadline=None)
@given(perturbed_models())
def test_pairing_rows_read_like_the_unit_row_product(case):
    """Row k of D B read off its columns gives the first mismatch and the
    taint of the product e_k D B compared with e_k, e_k the one entry 1
    at (0, k)."""
    m, _, _ = case
    db = m.dual_op @ m.basis_op
    for k in range(m.n_max + 1):
        cols = [EMPTY] * k + [((0,), (1,))] + [EMPTY] * (db.cap - k)
        e_k = LinearOp(cols, 1, db.cap)
        for top in (k, m.n_max):
            assert pairing_mismatch(db, k, top) == (e_k @ db).compare_on_columns(e_k, range(top + 1))


def test_a_flagged_target_basis_polynomial_taints_the_umbral_map():
    """A hermite target at degree 8 whose p_3 carries the truncated
    flag: an image that uses p_3 is flagged, one that does not is not,
    and the transmutation check onto it is inconclusive, like covariant
    and biorthogonality on the same target.  Reassembling the basis
    coefficients on that target is flagged in the same way."""
    src, dst = build_model("monomial", 8), _flagged(build_model("hermite", 8), 3)
    assert umbral_map(src, dst, src.basis[3]).truncated
    assert not umbral_map(src, dst, src.basis[2]).truncated
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
    dst = dataclasses.replace(dst, **{ladder: LinearOp(op.cols, op.den, op.cap, range(op.cap + 1))})
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
    m = dataclasses.replace(m, lowering=LinearOp(low.cols, low.den, low.cap, frozenset({5})))
    assert not covariant_w0(m, Poly.monomial(3, 8)).truncated
    assert covariant_w0(m, Poly.monomial(6, 8)).truncated


def test_w0_flags_an_input_that_reads_a_marked_lowering_column_with_no_image():
    """covariant_w0 on a monomial model whose lowering marks column 0:
    L 1 = 0 has no nonzero row, yet reading the marked column taints."""
    m = build_model("monomial", 8)
    low = m.lowering
    m = dataclasses.replace(m, lowering=LinearOp(low.cols, low.den, low.cap, frozenset({0})))
    assert covariant_w0(m, Poly.monomial(0, 8)).truncated
    assert not covariant_w0(m, Poly.monomial(0, 8).scale(0)).truncated


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


STEPS = st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3)])


@settings(max_examples=100, deadline=None)
@given(perturbed_models(spare=st.integers(0, 2)), st.data())
def test_duals_and_translations_agree_with_the_functional_and_poly_forms(case, data):
    """D from integer rows is the chain of ``Functional.after``, and
    generalized_translate gives the ``Poly`` loop's values, flag or
    refusal, on perturbed models: an entry of L that gains a fraction
    makes L.den > 1, a mark on L taints the powers L^k f, and an edit
    can keep L^k f from dying inside the basis range."""
    m, _, _ = case
    assert m.dual_op == ref.dual_op_by_functionals(m)
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
    return dataclasses.replace(m, lowering=LinearOp(low.cols, low.den, low.cap, frozenset(cols)))


def test_a_translation_whose_powers_read_a_marked_lowering_column_is_flagged():
    """monomial(8) with L marking column 5: L^k t^3 never reads it, so
    T^1 t^3 = (t+1)^3, unflagged; L^2 t^6 reads it, so T^1 t^6 =
    (t+1)^6 is flagged, and so is T^1 of a flagged t^3: the series ends
    at the first zero power, and a tainted one flags the sum, as in the
    ``Poly`` loop."""
    m = _marked_lowering("monomial", {5})
    assert _values(generalized_translate(m, 1, Poly.monomial(3, 8))) == ([1, 3, 3, 1] + [0] * 5, False)
    for f, want in (
        (Poly.monomial(6, 8), [1, 6, 15, 20, 15, 6, 1, 0, 0]),
        (Poly.monomial(3, 8).with_flag(True), [1, 3, 3, 1] + [0] * 5),
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
    assert umbral_map(m, dst, Poly.monomial(2, 8)).truncated
    assert m.dual_op.trunc_cols == set(range(9))
    others = [biorthogonality_check(m), covariant_check(m)]
    assert [r.status for r in others] == ["inconclusive"] * 2
    assert covariant_w0(m, Poly.monomial(2, 8)).truncated
