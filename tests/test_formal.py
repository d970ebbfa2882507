"""Formal power series with operator coefficients: the bookkeeping."""

import contextlib
import io
import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from umbra import kernels
from umbra.cli import main
from umbra.core import LinearOp
from umbra.formal import FormalOpSeries, OpWordTable, series_first_difference
from umbra.heisenberg import _formal_report
from umbra.models import build_model
from umbra.reports import INCONCLUSIVE, status_of

import reference as ref


def deriv_op(cap):
    return LinearOp.from_columns(
        cap, lambda j: {j - 1: Fraction(j)} if j else {}
    )


def mult_t_op(cap):
    return LinearOp.from_columns(
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

def test_series_mul_convolves_indices():
    cap = 6
    lo = deriv_op(cap)
    table = OpWordTable(lo, mult_t_op(cap))
    s = FormalOpSeries(("x",), 4, table)
    s.add_term((0,), Fraction(1), "")
    s.add_term((1,), Fraction(1), "L")
    prod = s.mul(s)
    assert prod.terms == {(0,): {"": 1}, (1,): {"L": 2}, (2,): {"LL": 1}}
    every = range(cap + 1)
    assert prod.materialize((0,), every) == LinearOp.identity(cap)
    assert prod.materialize((1,), every) == lo.scale(2)
    assert prod.materialize((2,), every) == lo @ lo


def test_series_linear_combination_materializes_exactly():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x",), 2, table)
    s.add_term((1,), Fraction(1, 3), "L")
    s.add_term((1,), Fraction(1, 6), "L")
    s.add_term((1,), Fraction(1), "LR")
    assert rational(s) == {(1,): {"L": Fraction(1, 2), "LR": 1}}
    every = range(cap + 1)
    assert s.materialize((1,), every) == deriv_op(cap).scale(Fraction(1, 2)) + table.op("LR")
    assert s.materialize((2,), every) == LinearOp.zero(cap)


def test_a_term_rescales_the_series_to_the_lcm_of_the_denominators():
    table = OpWordTable(deriv_op(3), mult_t_op(3))
    s = FormalOpSeries(("x",), 2, table)
    s.add_term((0,), Fraction(1, 4), "")
    s.add_term((1,), Fraction(1, 6), "L")
    assert (s.den, s.terms) == (12, {(0,): {"": 3}, (1,): {"L": 2}})
    s.add_term((1,), 2, "L")
    assert (s.den, s.terms) == (12, {(0,): {"": 3}, (1,): {"L": 26}})


def test_a_sum_works_over_the_lcm_of_the_denominators():
    table = OpWordTable(deriv_op(3), mult_t_op(3))
    a = FormalOpSeries(("x",), 2, table)
    b = FormalOpSeries(("x",), 2, table)
    a.add_term((1,), Fraction(1, 2), "L")
    b.add_term((1,), Fraction(1, 3), "L")
    b.add_term((0,), Fraction(-1, 3), "")
    want = {(0,): {"": Fraction(-1, 3)}, (1,): {"L": Fraction(5, 6)}}
    assert (a + b).den == (b + a).den == 6
    assert rational(a + b) == rational(b + a) == want
    assert rational(a.scale(Fraction(-2, 5)).mul(b)) == {
        (1,): {"L": Fraction(1, 15)}, (2,): {"LL": Fraction(-1, 15)}
    }


def test_a_cancelled_word_keeps_its_marks():
    cap = 4
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x",), 2, table)
    s.add_term((1,), Fraction(1), "R")
    t = FormalOpSeries(("x",), 2, table)
    t.add_term((1,), Fraction(-1), "R")
    coef = (s + t).materialize((1,), range(cap + 1))
    assert coef == LinearOp.zero(cap)
    assert coef.trunc_cols == {cap}


def test_series_drops_zero_and_overflow_terms():
    cap = 4
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x", "y"), 2, table)
    s.add_term((1, 2), Fraction(1), "L")  # total order 3 > 2
    s.add_term((1, 0), Fraction(0), "L")
    assert s.indices() == []
    assert s.mul(s).indices() == []


def test_series_first_difference_locates_mismatch():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = FormalOpSeries(("x",), 3, table)
    b = FormalOpSeries(("x",), 3, table)
    a.add_term((0,), Fraction(1), "")
    b.add_term((0,), Fraction(1), "")
    a.add_term((2,), Fraction(1), "L")
    b.add_term((2,), Fraction(2), "L")
    cols = list(range(cap + 1))
    # a - b is -L = -d/dt there, whose largest entry is 5 on column 5
    assert series_first_difference(a, b, cols) == ((2,), False, 5)
    assert series_first_difference(a, a, cols) == (None, False, 0)
    # R marks column 5: a compared mark on either side taints
    a.add_term((1,), Fraction(1), "R")
    b.add_term((1,), Fraction(1), "R")
    assert series_first_difference(a, a, cols) == (None, True, 0)
    assert series_first_difference(a, b, cols[:5]) == ((2,), False, 4)


# -- comparison through the word-merged difference ---------------------

def test_a_restricted_coefficient_is_the_full_one_on_its_columns():
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    s = FormalOpSeries(("x",), 2, table)
    s.add_term((1,), Fraction(1, 3), "L")
    s.add_term((1,), Fraction(-2), "RL")
    # "LR" cancels to 0 but keeps the mark R leaves on column 5
    s.add_term((1,), Fraction(1), "LR")
    s.add_term((1,), Fraction(-1), "LR")
    every = range(cap + 1)
    full, part = _dense(s.materialize((1,), every)), _dense(s.materialize((1,), [4, 1]))
    for i in range(cap + 1):
        for j in range(cap + 1):
            assert part[i][j] == (full[i][j] if j in (1, 4) else 0), (i, j)
    assert s.materialize((1,), [4, 1]).trunc_cols == s.materialize((1,), every).trunc_cols == {cap}


def test_the_difference_sums_only_compared_columns_of_uncancelled_words(count_calls):
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = FormalOpSeries(("x",), 2, table)
    b = FormalOpSeries(("x",), 2, table)
    for s in (a, b):
        s.add_term((0,), Fraction(1), "")
        s.add_term((1,), Fraction(1), "LR")
    a.add_term((1,), Fraction(1), "R")
    b.add_term((1,), Fraction(2), "R")
    calls = count_calls(kernels, "imat_comb")
    assert series_first_difference(a, b, [0, 2, 3]) == ((1,), False, 1)
    # index (0,) cancels word by word; at (1,) only "R" is left, and
    # only the three compared columns are summed
    assert [(len(terms), len(terms[0][1])) for (terms,) in calls] == [(1, 3)]


def test_a_word_cancelled_in_the_difference_still_taints():
    """R marks column 5.  Its word has equal coefficients on both sides,
    so it cancels from the difference, but its mark stays: comparing
    column 5 is tainted, and the report is inconclusive, never a pass."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = FormalOpSeries(("x",), 2, table)
    b = FormalOpSeries(("x",), 2, table)
    for s in (a, b):
        s.add_term((1,), Fraction(2, 3), "R")
        s.add_term((1,), Fraction(1), "L")
    idx, tainted, _ = series_first_difference(a, b, range(cap + 1))
    assert (idx, tainted) == (None, True)
    assert status_of(idx, tainted) == INCONCLUSIVE
    assert series_first_difference(a, b, range(cap)) == (None, False, 0)
    report = _formal_report("weyl-relation", build_model("monomial", cap), 1, cap, a, b)
    assert report.status == INCONCLUSIVE


def test_the_same_words_in_another_ratio_are_compared():
    """LR - RL - 1 is zero below the cap, LR - RL + 1 is twice the
    identity: the same words, so only their coefficients tell the two
    indices apart."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = FormalOpSeries(("x",), 2, table)
    b = FormalOpSeries(("x",), 2, table)
    for n, unit in ((1, 1), (2, -1)):
        a.add_term((n,), Fraction(1), "LR")
        b.add_term((n,), Fraction(1), "RL")
        b.add_term((n,), Fraction(unit), "")
    assert series_first_difference(a, b, range(cap)) == ((2,), False, 2)


def test_a_cancelled_word_makes_an_otherwise_proportional_coefficient_compared():
    """At both indices "L" cancels between the sides; at the second a
    cancelled "R" joins it, and R marks column 5.  Were the two taken
    as proportional, that mark would be lost and the result a pass."""
    cap = 5
    table = OpWordTable(deriv_op(cap), mult_t_op(cap))
    a = FormalOpSeries(("x",), 2, table)
    b = FormalOpSeries(("x",), 2, table)
    for n in (1, 2):
        a.add_term((n,), Fraction(n), "L")
        b.add_term((n,), Fraction(n), "L")
    a.add_term((2,), Fraction(1), "R")
    a.add_term((2,), Fraction(-1), "R")
    assert series_first_difference(a, b, range(cap + 1)) == (None, True, 0)


INDICES = [(i, j) for i in range(3) for j in range(3 - i)]
ORDER = sorted(INDICES, key=lambda idx: (sum(idx), idx))
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def series_pairs(draw):
    """(cap, letters, (a, b), (plain a, plain b)): two series in x, y to
    order 2 over random sparse rational ladder letters with random
    marks, and the same series as plain {index: {word: rational}} dicts.
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

    sides = (FormalOpSeries(("x", "y"), 2, table), FormalOpSeries(("x", "y"), 2, table))
    plain = ({}, {})
    for side, idx, w, q in terms:
        sides[side].add_term(idx, q, w)
        coef = plain[side].setdefault(idx, {})
        coef[w] = coef.get(w, 0) + q
    return cap, letters, sides, plain


@settings(max_examples=150, deadline=None)
@given(series_pairs(), st.data())
def test_the_difference_comparison_matches_the_two_sided_oracle(pair, data):
    cap, letters, (a, b), (pa, pb) = pair
    cols = data.draw(st.lists(st.integers(0, cap), unique=True))
    want = ref.two_sided_first_difference(pa, pb, letters, cols)
    assert series_first_difference(a, b, cols) == want
    # the report reads its columns from a catalog model at this cap:
    # every column, or the even ones
    if cap % 2 == 0 and data.draw(st.booleans()):
        m = build_model("heat", cap // 2)
    else:
        m = build_model("monomial", cap)
    output_degree = data.draw(st.integers(0, m.n_max))
    safe = [m.degree_of_index(j) for j in range(output_degree + 1)]
    idx, tainted, residual = ref.two_sided_first_difference(pa, pb, letters, safe)
    report = _formal_report("weyl-relation", m, 2, output_degree, a, b)
    assert report.max_residual == residual
    assert report.status == status_of(idx, tainted)


SERIES_TERMS = st.lists(
    st.tuples(
        st.sampled_from(INDICES),
        st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6)),
        st.text(alphabet="LR", max_size=2),
    ),
    max_size=6,
)
SERIES_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("add", "mul")), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("scale"), st.integers(0, 9),
                  st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    ),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(ladder_pairs(), st.lists(SERIES_TERMS, min_size=2, max_size=3), SERIES_OPS, st.data())
def test_integer_series_match_the_fraction_oracle(pair, drawn, ops, data):
    """Series built term by term and combined by +, scale and mul hold
    the rational coefficients of the Fraction oracle, and comparing the
    last two gives the two-sided oracle's (index, taint, residual)."""
    cap, low, high, low_marks, high_marks = pair
    table = OpWordTable(
        ref.op_from_grid(low, low_marks),
        ref.op_from_grid(high, high_marks),
    )
    letters = {"L": (low, low_marks), "R": (high, high_marks)}
    series, plain = [], []
    for terms in drawn:
        s, p = FormalOpSeries(("x", "y"), 2, table), {}
        for idx, q, word in terms:
            s.add_term(idx, q, word)
            ref.s_add_term(p, idx, q, word, 2)
        series.append(s)
        plain.append(p)
    for op, i, j in ops:
        a, pa = series[i % len(series)], plain[i % len(series)]
        if op == "scale":
            series.append(a.scale(j))
            plain.append(ref.s_scale(pa, j))
        else:
            b, pb = series[j % len(series)], plain[j % len(series)]
            series.append(a + b if op == "add" else a.mul(b))
            plain.append(ref.s_add(pa, pb) if op == "add" else ref.s_mul(pa, pb, 2))
    for s, p in zip(series, plain):
        assert rational(s) == p
    cols = data.draw(st.lists(st.integers(0, cap), unique=True))
    want = ref.two_sided_first_difference(plain[-2], plain[-1], letters, cols)
    assert series_first_difference(series[-2], series[-1], cols) == want
