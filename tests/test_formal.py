"""Formal power series with operator coefficients: the bookkeeping."""

import contextlib
import io
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbra import kernels
from umbra.cli import main
from umbra.core import LinearOp
from umbra.formal import FormalOpSeries, OpWordTable, series_first_difference
from umbra.heisenberg import _formal_report
from umbra.models import build_model
from umbra.reports import INCONCLUSIVE

import reference as ref


def deriv_op(cap):
    return ref.op_from_columns(
        cap, lambda j: {j - 1: Fraction(j)} if j else {}
    )


def mult_t_op(cap):
    return ref.op_from_columns(
        cap,
        lambda j: {j + 1: Fraction(1)} if j < cap else {},
        trunc_cols=frozenset({cap}),
    )


def _dense(op):
    return [[Fraction(x, op.den) for x in row] for row in op.num]


def rational(s):
    """The coefficients of a series as {index: {word: Fraction}}."""
    return {idx: {w: Fraction(n, s.den) for w, n in coef.items()} for idx, coef in s.terms.items()}


# -- operator word table -----------------------------------------------

def test_word_table_words_are_products():
    cap = 7
    lo, hi = deriv_op(cap), mult_t_op(cap)
    table = OpWordTable(lo, hi)
    assert table.op("") == LinearOp.identity(cap)
    assert table.op("L") is lo
    assert table.op("RR") == hi @ hi
    assert table.low_then_high_word(2, 1) == (lo @ lo) @ hi
    assert table.low_then_high_word(2, 1) is table.op("LLR")
    assert table.high_then_low_word(1, 2) == hi @ (lo @ lo)


@st.composite
def ladder_pairs(draw):
    """(cap, dense L, dense R, marks of L, marks of R): sparse rational
    matrices with random truncation marks."""
    cap = draw(st.integers(1, 4))
    index = st.integers(0, cap)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mats, marks = [], []
    for _ in range(2):
        rows = [[Fraction(0)] * (cap + 1) for _ in range(cap + 1)]
        for i, j, q in draw(st.lists(st.tuples(index, index, entry), max_size=2 * cap + 2)):
            rows[i][j] = q
        mats.append(rows)
        marks.append(draw(st.sets(index, max_size=2)))
    return cap, mats[0], mats[1], marks[0], marks[1]


@settings(max_examples=120, deadline=None)
@given(ladder_pairs(), st.lists(st.text(alphabet="LR", max_size=6), min_size=1, max_size=4))
def test_word_operators_are_the_letter_products_with_path_closed_marks(pair, words):
    cap, low, high, low_marks, high_marks = pair
    table = OpWordTable(
        ref.op_from_grid(low, low_marks),
        ref.op_from_grid(high, high_marks),
    )
    letters = {"L": (low, low_marks), "R": (high, high_marks)}
    for word in words:
        want = [[Fraction(int(i == j)) for j in range(cap + 1)] for i in range(cap + 1)]
        for letter in word:
            want = ref.m_mul(want, letters[letter][0])
        op = table.op(word)
        assert _dense(op) == want, word
        assert op.trunc_cols == ref.word_marks(
            [letters[x][0] for x in word], [letters[x][1] for x in word], cap + 1
        ), word
        assert table.op(word) is op


def test_each_word_takes_one_product_and_none_with_the_identity(count_calls):
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    calls = count_calls(kernels, "imat_mul")
    words = ["".join(w) for n in range(5) for w in itertools.product("LR", repeat=n)]
    for word in words:
        table.op(word)
    assert len(calls) == sum(1 for w in words if len(w) >= 2)
    for word in words:
        table.op(word)
    assert len(calls) == sum(1 for w in words if len(w) >= 2)


def test_a_catalog_run_makes_few_products(count_calls):
    """One word table per model serves every formal check and the
    squared-ladder triple, and the pairing checks read rows of D B off
    its columns: ``verify --all`` on lower-factorial at degree 32 makes
    50 operator products, 6 of them the squared-ladder diagonals D S B
    (323 with a table per check, 96 with a unit-row product per
    pairing row)."""
    calls = count_calls(kernels, "imat_mul")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", "--degree", "32", "--model", "lower-factorial"]) == 0
    assert len(calls) <= 63


def test_a_catalog_run_makes_few_combinations(count_calls):
    """Each formal comparison sums the word-merged difference of its two
    sides on the certified columns only, with no kernel call where the
    words cancel: ``verify --all`` on lower-factorial at degree 32 makes
    28 ``kernels.imat_comb`` calls (899 when each side is summed in
    full)."""
    calls = count_calls(kernels, "imat_comb")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", "--degree", "32", "--model", "lower-factorial"]) == 0
    assert len(calls) <= 60


def test_a_group_law_check_makes_few_fraction_operations(count_calls):
    """The series algebra runs on integer numerators: ``verify --check
    group-law --degree 32 --model hermite`` makes no Fraction product or
    sum (1,631 with Fraction coefficients)."""
    calls = count_calls(Fraction, "__mul__"), count_calls(Fraction, "__add__")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--check", "group-law", "--degree", "32", "--model", "hermite"]) == 0
    assert sum(map(len, calls)) <= 20


# -- series arithmetic -------------------------------------------------

def difference(table, order, den, a, b):
    """a - b as one series in x over ``den``: the (index, rational,
    word) terms of ``a`` added and then those of ``b`` subtracted, each
    by ``add_numerator`` in the order given; every rational times den is
    an integer."""
    s = FormalOpSeries(("x",), order, table, den)
    for sign, terms in ((1, a), (-1, b)):
        for idx, q, word in terms:
            n = sign * den * Fraction(q)
            assert n.denominator == 1
            s.add_numerator(idx, n.numerator, word)
    return s


def test_series_mul_convolves_indices():
    cap = 6
    lo = deriv_op(cap)
    table = OpWordTable(lo, mult_t_op(cap))
    s = FormalOpSeries(("x",), 4, table)
    s.add_numerator((0,), 1, "")
    s.add_numerator((1,), 1, "L")
    prod = s.mul(s)
    assert prod.terms == {(0,): {"": 1}, (1,): {"L": 2}, (2,): {"LL": 1}}
    every = range(cap + 1)
    assert prod.materialize((0,), every) == LinearOp.identity(cap)
    assert prod.materialize((1,), every) == lo.scale(2)
    assert prod.materialize((2,), every) == lo @ lo
    # a product works over the product of the two denominators
    a, b = FormalOpSeries(("x",), 2, table, 5), FormalOpSeries(("x",), 2, table, 3)
    a.add_numerator((1,), -1, "L")
    b.add_numerator((1,), 1, "L")
    b.add_numerator((0,), -1, "")
    assert rational(a.mul(b)) == {(1,): {"L": Fraction(1, 15)}, (2,): {"LL": Fraction(-1, 15)}}


def test_series_linear_combination_materializes_exactly():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x",), 2, table, 6)
    s.add_numerator((1,), 2, "L")
    s.add_numerator((1,), 1, "L")
    s.add_numerator((1,), 6, "LR")
    assert rational(s) == {(1,): {"L": Fraction(1, 2), "LR": 1}}
    every = range(cap + 1)
    assert s.materialize((1,), every) == deriv_op(cap).scale(Fraction(1, 2)) + table.op("LR")
    assert s.materialize((2,), every) == LinearOp.zero(cap)


def test_a_cancelled_word_keeps_its_marks():
    cap = 4
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    side = [((1,), 1, "R")]
    coef = difference(table, 2, 1, side, side).materialize((1,), range(cap + 1))
    assert coef == LinearOp.zero(cap)
    assert coef.trunc_cols == {cap}


def test_series_drops_zero_and_overflow_terms():
    """A product keeps no index past the series order."""
    cap = 4
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x", "y"), 2, table)
    s.add_numerator((1, 1), 1, "L")
    assert s.mul(s).indices() == []


def test_series_first_difference_locates_mismatch():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = [((0,), 1, ""), ((2,), 1, "L")]
    b = [((0,), 1, ""), ((2,), 2, "L")]
    cols = list(range(cap + 1))
    # a - b is -L = -d/dt there, whose largest entry is 5 on column 5
    assert series_first_difference(difference(table, 3, 1, a, b), cols) == ((2,), False, 5)
    assert series_first_difference(difference(table, 3, 1, a, a), cols) == (None, False, 0)
    # R marks column 5: a compared mark on either side taints
    a.append(((1,), 1, "R"))
    b.append(((1,), 1, "R"))
    assert series_first_difference(difference(table, 3, 1, a, a), cols) == (None, True, 0)
    assert series_first_difference(difference(table, 3, 1, a, b), cols[:5]) == ((2,), False, 4)


# -- comparison through the word-merged difference ---------------------

def test_a_restricted_coefficient_is_the_full_one_on_its_columns():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x",), 2, table, 3)
    s.add_numerator((1,), 1, "L")
    s.add_numerator((1,), -6, "RL")
    # "LR" cancels to 0 but keeps the mark R leaves on column 5
    s.add_numerator((1,), 3, "LR")
    s.add_numerator((1,), -3, "LR")
    every = range(cap + 1)
    full, part = _dense(s.materialize((1,), every)), _dense(s.materialize((1,), [4, 1]))
    for i in range(cap + 1):
        for j in range(cap + 1):
            assert part[i][j] == (full[i][j] if j in (1, 4) else 0), (i, j)
    assert s.materialize((1,), [4, 1]).trunc_cols == s.materialize((1,), every).trunc_cols == {cap}


def test_the_difference_sums_only_compared_columns_of_uncancelled_words(count_calls):
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    both = [((0,), 1, ""), ((1,), 1, "LR")]
    diff = difference(table, 2, 1, [*both, ((1,), 1, "R")], [*both, ((1,), 2, "R")])
    calls = count_calls(kernels, "imat_comb")
    assert series_first_difference(diff, [0, 2, 3]) == ((1,), False, 1)
    # index (0,) cancels word by word; at (1,) only "R" is left, and
    # only the three compared columns are summed
    assert [(len(terms), len(terms[0][1])) for (terms,) in calls] == [(1, 3)]


def test_a_word_cancelled_in_the_difference_still_taints():
    """R marks column 5.  Its word has equal coefficients on both sides,
    so it cancels from the difference, but its mark stays: comparing
    column 5 is tainted, and the report is inconclusive, never a pass."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    side = [((1,), Fraction(2, 3), "R"), ((1,), 1, "L")]
    diff = difference(table, 2, 3, side, side)
    idx, tainted, _ = series_first_difference(diff, range(cap + 1))
    assert (idx, tainted) == (None, True)
    assert ref.status(idx, tainted) == INCONCLUSIVE
    assert series_first_difference(diff, range(cap)) == (None, False, 0)
    report = _formal_report("weyl-relation", build_model("monomial", cap), 1, cap, diff)
    assert report.status == INCONCLUSIVE


def test_the_same_words_in_another_ratio_are_compared():
    """LR - RL - 1 is zero below the cap, LR - RL + 1 is twice the
    identity: the same words, so only their coefficients tell the two
    indices apart."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a, b = [], []
    for n, unit in ((1, 1), (2, -1)):
        a.append(((n,), 1, "LR"))
        b.extend([((n,), 1, "RL"), ((n,), unit, "")])
    assert series_first_difference(difference(table, 2, 1, a, b), range(cap)) == ((2,), False, 2)


def test_a_cancelled_word_makes_an_otherwise_proportional_coefficient_compared():
    """At both indices "L" cancels between the sides; at the second a
    cancelled "R" joins it, and R marks column 5.  Were the two taken
    as proportional, that mark would be lost and the result a pass."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    b = [((n,), n, "L") for n in (1, 2)]
    a = [*b, ((2,), 1, "R"), ((2,), -1, "R")]
    assert series_first_difference(difference(table, 2, 1, a, b), range(cap + 1)) == (None, True, 0)


INDICES = [(i, j) for i in range(3) for j in range(3 - i)]
ORDER = sorted(INDICES, key=lambda idx: (sum(idx), idx))
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def series_pairs(draw):
    """(cap, letters, a - b, (plain a, plain b)): the difference of two
    series in x, y to order 2 over random sparse rational ladder letters
    with random marks, built as one series, and the two series as plain
    {index: {word: rational}} dicts.
    The sides share words with equal and with unequal coefficients, and
    a side may hold a word whose coefficients cancel to 0.  A later
    index may hold both sides' terms of an earlier one times a nonzero
    rational, and then one of the two may gain a cancelled word."""
    cap, low, high, low_marks, high_marks = draw(ladder_pairs())
    table = OpWordTable(
        ref.op_from_grid(low, low_marks),
        ref.op_from_grid(high, high_marks),
    )
    letters = {"L": (low, low_marks), "R": (high, high_marks)}
    terms = []  # (side, index, word, rational), added in this order

    def cancelled(side, idx, word, q):
        terms.extend([(side, idx, word, q), (side, idx, word, -q)])

    kinds = st.sampled_from(("equal", "unequal", "a only", "b only", "cancelled"))
    entries = st.tuples(st.sampled_from(INDICES), st.text(alphabet="LR", max_size=4), kinds, NONZERO, NONZERO)
    for idx, w, kind, qa, qb in draw(st.lists(entries, max_size=8)):
        if kind == "equal":
            terms.extend([(0, idx, w, qa), (1, idx, w, qa)])
        elif kind == "unequal":
            terms.extend([(0, idx, w, qa), (1, idx, w, qb)])
        elif kind == "cancelled":
            cancelled(int(qb > 0), idx, w, qa)
        else:
            terms.append((kind == "b only", idx, w, qa))
    copies = st.tuples(st.integers(0, len(ORDER) - 2), st.integers(1, len(ORDER) - 1), NONZERO,
                       st.sampled_from((None, "earlier", "later", "later")),
                       st.text(alphabet="LR", min_size=1, max_size=4), NONZERO)
    for at, step, c, extra, w, q in draw(st.lists(copies, max_size=2)):
        src, dst = ORDER[at], ORDER[min(at + step, len(ORDER) - 1)]
        terms = [t for t in terms if t[1] != dst]
        terms.extend([(side, dst, w2, c * q2) for side, idx, w2, q2 in terms if idx == src])
        if extra:
            cancelled(int(q > 0), src if extra == "earlier" else dst, w, q)

    # side a's terms added and side b's subtracted, over the lcm of
    # their denominators
    diff = FormalOpSeries(("x", "y"), 2, table, math.lcm(*(q.denominator for *_, q in terms)))
    plain = ({}, {})
    for side, idx, w, q in terms:
        diff.add_numerator(idx, (-1) ** side * (q * diff.den).numerator, w)
        coef = plain[side].setdefault(idx, {})
        coef[w] = coef.get(w, 0) + q
    return cap, letters, diff, plain


@settings(max_examples=150, deadline=None)
@given(series_pairs(), st.data())
def test_the_difference_comparison_matches_the_two_sided_oracle(pair, data):
    cap, letters, diff, (pa, pb) = pair
    cols = data.draw(st.lists(st.integers(0, cap), unique=True))
    want = ref.two_sided_first_difference(pa, pb, letters, cols)
    assert series_first_difference(diff, cols) == want
    # the report reads its columns from a catalog model at this cap:
    # every column, or the even ones
    if cap % 2 == 0 and data.draw(st.booleans()):
        m = build_model("heat", cap // 2)
    else:
        m = build_model("monomial", cap)
    output_degree = data.draw(st.integers(0, m.n_max))
    safe = [m.degree_of_index(j) for j in range(output_degree + 1)]
    idx, tainted, residual = ref.two_sided_first_difference(pa, pb, letters, safe)
    report = _formal_report("weyl-relation", m, 2, output_degree, diff)
    assert report.max_residual == residual
    assert report.status == ref.status(idx, tainted)


SERIES_TERMS = st.lists(
    st.tuples(
        st.sampled_from(INDICES),
        st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6))
        .filter(bool),
        st.text(alphabet="LR", max_size=2),
    ),
    max_size=6,
)
SERIES_PRODUCTS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4)


@settings(max_examples=100, deadline=None)
@given(ladder_pairs(), st.lists(SERIES_TERMS, min_size=2, max_size=3), SERIES_PRODUCTS, st.data())
def test_integer_series_match_the_fraction_oracle(pair, drawn, products, data):
    """Series built term by term and multiplied by ``mul`` hold the
    rational coefficients of the Fraction oracle, and comparing the last
    two through their difference gives the two-sided oracle's (index,
    taint, residual)."""
    cap, low, high, low_marks, high_marks = pair
    table = OpWordTable(
        ref.op_from_grid(low, low_marks),
        ref.op_from_grid(high, high_marks),
    )
    letters = {"L": (low, low_marks), "R": (high, high_marks)}
    series, plain = [], []
    for terms in drawn:
        den = math.lcm(*(Fraction(q).denominator for _, q, _ in terms))
        s, p = FormalOpSeries(("x", "y"), 2, table, den), {}
        for idx, q, word in terms:
            s.add_numerator(idx, (q * s.den).numerator, word)
            ref.s_add_term(p, idx, q, word, 2)
        series.append(s)
        plain.append(p)
    for i, j in products:
        a, b = series[i % len(series)], series[j % len(series)]
        series.append(a.mul(b))
        plain.append(ref.s_mul(plain[i % len(plain)], plain[j % len(plain)], 2))
    for s, p in zip(series, plain):
        assert rational(s) == p
    # the last two series' difference, over the lcm of their denominators
    a, b = series[-2:]
    diff = FormalOpSeries(("x", "y"), 2, table, math.lcm(a.den, b.den))
    for sign, s in ((1, a), (-1, b)):
        for idx, coef in s.terms.items():
            for word, n in coef.items():
                diff.add_numerator(idx, sign * n * (diff.den // s.den), word)
    cols = data.draw(st.lists(st.integers(0, cap), unique=True))
    want = ref.two_sided_first_difference(plain[-2], plain[-1], letters, cols)
    assert series_first_difference(diff, cols) == want
