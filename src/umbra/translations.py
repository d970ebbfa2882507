"""Generalized translations and the binomial/character identities.

A model whose lowering operator commutes with shifts and whose vacuum
is evaluation at 0 has a basis of binomial type:

    p_n(t + y) = sum_{k<=n} p_{n-k}(y) p_k(t).

For models without that structure (heat, Bessel) the same series still
defines a generalized translation

    T^y f = sum_k p_k(y) L^k f,

which for the heat model collapses to the even averaging
(f(t+y) + f(t-y))/2 and in general satisfies the product (character)
property for the generating function F(lambda, t) = sum_k lambda^k p_k:
T_t^y F = F(lambda, y) F(lambda, t), order by order in lambda.

The two-variable identities here are checked on exact integer tables
in (t, y) at one common denominator, each basis column that a check
reads reduced to its own denominator (``_form``); no float ever enters.  The
translation and the character check walk L^k by ``LinearOp.powers``,
the package's one power loop, which ends after the first zero power.
The translation runs on kernel columns from input to output: p_k(y)
from column k of the basis matrix, and one ``Poly`` at the end.
The character check hands each order, and ``binomial_sweep`` each
index's report, to ``core.outcome``, the one verdict rule.
``binomial_sweep`` is the binomial check over a range of n, as
``verify`` runs it.  It builds no table where the expansion theorem of
finite operator calculus decides the identity (Rota, Kahaner and
Odlyzko 1973; Roman, *The Umbral Calculus*, 1984, ch. 2): the basic
sequence of a delta operator is of binomial type.  Let the model meet
``UmbralModel.lowering_premise``, the Fock premise without the
raising axiom.  On the capped space, if L commutes with d/dt
and L t is a nonzero constant, then L = f(d/dt) with
f(0) = 0 != f'(0) (what commutes with the nilpotent d/dt is a
polynomial in it), a delta operator, whose kernel is the constants, and
L commutes with the shift E^y = sum_i y^i (d/dt)^i / i!.  With
q_n(t) = p_n(t+y) - sum_{k<=n} p_{n-k}(y) p_k(t), the ladder axiom
gives L q_n = q_{n-1}, q_{-1} = 0, and the vacuum p_k(0) = delta_k0
gives q_n(0) = 0, so by induction every q_n is 0.  Without the delta
test the premise would be too weak: L = (d/dt)^2 with p_0 = 1,
p_1 = t^2/2 meets the rest, and p_1(t+y) != p_1(t) + p_1(y).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .core import (
    CapMismatchError,
    ParameterError,
    Poly,
    as_fraction,
    column_poly,
    integer_vector,
    outcome,
)
from .kernels import Column, imat_comb
from .models import UmbralModel, _derivative_op, axiom_outcomes, require_order
from .reports import VerificationReport


def _form(col: Column, den: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The polynomial of the kernel column ``col`` over ``den`` as its
    nonzero (degree, integer numerator) pairs over its own reduced
    denominator: the smaller the integers, the cheaper the two-variable
    tables of ``first_difference``."""
    rows, vals = col
    g = math.gcd(den, *vals)
    return tuple(zip(rows, [x // g for x in vals])), den // g


def first_difference(lhs: list, rhs: list) -> tuple[int, int] | None:
    """Smallest (t-degree, y-degree) at which the tables sum a(t) b(y)
    over the (a, b) pairs of ``lhs`` and of ``rhs`` differ, each
    polynomial given by ``_form``; both are summed over the integers at
    one common denominator."""
    d = math.lcm(*(da * db for (_, da), (_, db) in lhs + rhs))
    size = 1 + max((b[-1][0] for _, (b, _) in lhs + rhs if b), default=0)
    tables = []
    for terms in (lhs, rhs):
        acc: dict[int, list[int]] = {}
        for (a, da), (b, db) in terms:
            w = d // (da * db)
            for i, x in a:
                row = acc.setdefault(i, [0] * size)
                wx = w * x
                for j, y in b:
                    row[j] += wx * y
        tables.append(acc)
    ta, tb = tables
    zero = [0] * size
    for i in sorted(ta.keys() | tb.keys()):
        ra, rb = ta.get(i, zero), tb.get(i, zero)
        if ra != rb:
            return i, next(j for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
    return None


def binomial_check(m: UmbralModel, n: int) -> VerificationReport:
    """Exact two-variable check of p_n(t+y) = sum_k p_{n-k}(y) p_k(t).

    Preconditions (the binomial-type hypotheses): the lowering operator
    is shift-invariant and the vacuum is evaluation at 0.  A model that
    fails either gets a ParameterError naming the failed hypothesis --
    the Hermite model is shift-invariant but has the wrong vacuum.

    With p_k = c_k/d_k over integers, read off column k of the basis
    matrix B, both sides are integer tables at one common denominator d
    (``first_difference``); for the catalog models d = n! and the right
    side is sum_k C(n,k) c_k(t) c_{n-k}(y).  The check reads p_0..p_n,
    so a mark of B on any of them taints it.
    """
    if not 0 <= n <= m.n_max:
        raise CapMismatchError(f"basis index {n} outside 0..{m.n_max}")
    _require_binomial_type(m)
    # Taylor: p_n(t + y) = sum_i t^i (d/dy)^i p_n(y) / i!, as pairs of integer forms
    b = m.basis_op
    forms = [_form(b.cols[k], b.den) for k in range(n + 1)]
    c, den = forms[n]
    shifted = [
        ((((i, 1),), 1), (tuple((j - i, x * math.comb(j, i)) for j, x in c if j >= i), den))
        for i in range(c[-1][0] + 1 if c else 0)
    ]
    bad = first_difference(shifted, [(forms[k], forms[n - k]) for k in range(n + 1)])
    return VerificationReport(
        check="binomial",
        model=m.label(),
        params={"n": n},
        tainted=any(k in b.trunc_cols for k in range(n + 1)),
        first_failure=bad,
    )


def _require_binomial_type(m: UmbralModel) -> None:
    """Refuse a model outside the binomial-type hypotheses: a lowering
    operator that is not shift-invariant, or a vacuum that is not
    evaluation at 0 (ParameterError naming the failed one)."""
    if not m.shift_invariant:
        raise ParameterError(
            f"not binomial type: {m.label()} has no shift-invariant "
            "lowering operator"
        )
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"not binomial type: {m.label()} vacuum is not evaluation at 0"
        )


def binomial_sweep(m: UmbralModel, top: int) -> list[VerificationReport]:
    """``binomial_check`` at n = 0..top in turn, as ``verify`` runs it:
    the first report that does not pass (``core.outcome`` over the
    reports, each holding when it passes), or one pass report for the
    whole range.  The refusals come first; then, where
    ``_expansion_theorem_applies``, the pass report comes with no table
    built."""
    require_order(m, top)
    _require_binomial_type(m)
    if not _expansion_theorem_applies(m):
        reports = (binomial_check(m, n) for n in range(top + 1))
        first, _ = outcome((r, r.passed, False) for r in reports)
        if first is not None:
            return [first]
    return [VerificationReport("binomial", m.label(), {"n_max": top})]


def _expansion_theorem_applies(m: UmbralModel) -> bool:
    """Whether the expansion theorem (see the module docstring) decides
    the binomial identity for n <= n_max, the vacuum being evaluation at
    0: the model meets ``UmbralModel.lowering_premise`` (the raising
    axiom plays no part, so its outcome is never decided), L t is a
    nonzero constant and L d/dt = d/dt L on the capped space."""
    low, dt = m.lowering, _derivative_op(m.degree_cap)
    return (
        m.lowering_premise
        and low.cols[1][0] == (0,)
        and low @ dt == dt @ low
    )


def generalized_translate(m: UmbralModel, y: Fraction | int, f: Poly) -> Poly:
    """T^y f = sum_k p_k(y) L^k f with exact rational y.

    The sum is finite: it ends at the first L^s f that is zero, which
    must come by s = n_max + 1, or the translation is refused.  It runs
    on integers from input to output.  With y = a/c, p_k(y) is column k
    of the basis matrix B summed against the powers a^i c^(cap-i), over
    B.den c^cap; L^k f is a kernel column over fden L.den^k from
    ``LinearOp.powers``; and ``kernels.imat_comb`` sums the terms over
    the denominator of L^s f.  The result carries the flag of L^s f: it
    is flagged when f is or when some L^k f read a column L marks, for
    then the true L^s f may not be zero."""
    y = as_fraction(y)
    m.require_poly(f)
    cap, b, low = m.degree_cap, m.basis_op, m.lowering
    a, c = y.numerator, y.denominator
    ypow = [a**i * c ** (cap - i) for i in range(cap + 1)]
    powers = low.powers(*integer_vector(f.coeffs), f.truncated)
    *nonzero, (last, den, tainted) = islice(powers, m.n_max + 2)
    if last[0]:
        # content survived past the basis range: cap too small
        raise CapMismatchError(
            "translation series did not terminate within the basis range"
        )
    s = len(nonzero)
    terms = [  # p_k(y) L^k f over B.den c^cap den
        (sum(x * ypow[i] for i, x in zip(*b.cols[k])) * low.den ** (s - k), [g])
        for k, (g, _, _) in enumerate(nonzero)
    ]
    (out,) = imat_comb(terms or [(1, [last])])  # f = 0 has no term; its sum is f
    return column_poly(out, b.den * c**cap * den, cap, tainted)


def character_check(m: UmbralModel, order: int) -> VerificationReport:
    """Order-by-order check of the character property of
    F(lambda, t) = sum_k lambda^k p_k(t):

        T_t^y F = F(lambda, y) F(lambda, t).

    At lambda-order a the left side is sum_{k<=a} p_k(y) (L^k p_a)(t)
    with y kept symbolic, the right side sum_{i+j=a} p_i(y) p_j(t);
    both are exact tables in (t, y) and no cross-order cancellation is
    possible.  L^k p_a comes from ``LinearOp.powers`` as a kernel
    column; it is tainted when B marks p_a or L marks a column that
    L^j p_a, j < k, reaches.  A zero L^k p_a adds nothing to the table,
    so the powers end at the first one.  Each order is one check for
    ``core.outcome``, marked by the taint of the last power it reads."""
    require_order(m, order)
    b, low = m.basis_op, m.lowering
    forms = [_form(b.cols[a], b.den) for a in range(order + 1)]
    bad, tainted = outcome(
        ((a, diff), diff is None, powers[-1][2])  # the last power read carries their taint
        for a in range(order + 1)
        for powers in [list(islice(low.powers(b.cols[a], b.den, a in b.trunc_cols), a + 1))]
        for diff in [first_difference(
            [(_form(g, den), form) for (g, den, _), form in zip(powers, forms)],
            [(forms[a - i], forms[i]) for i in range(a + 1)],
        )]
    )
    return VerificationReport(
        check="character",
        model=m.label(),
        params={"order": order},
        tainted=tainted,
        first_failure=bad,
    )


def delsarte_eigen_check(m: UmbralModel, order: int) -> VerificationReport:
    """The two conditions tying the basis to its translation structure,
    L p_n = p_{n-1} and p_n(0) = delta_{0n} for n <= order; at equal n,
    value-at-0 fails first.  Requires a vacuum equal to evaluation at 0
    (otherwise the second condition is not the model's own
    normalization and the check refuses to run).  Both outcomes come
    from ``models.axiom_outcomes``, which decides the two axioms column
    by column on p_0..p_order."""
    require_order(m, order)
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"{m.label()} vacuum is not evaluation at 0; the eigenfunction "
            "normalization p_n(0) = delta_0n does not apply"
        )
    (low, tainted), (at0, tainted0) = axiom_outcomes(m, order)
    bad = None
    if at0 is not None and (low is None or at0 <= low):
        bad = ("value-at-0", at0)
    elif low is not None:
        bad = ("lowering", low)
    return VerificationReport(
        check="delsarte",
        model=m.label(),
        params={"order": order},
        tainted=tainted0 or tainted,
        first_failure=bad,
    )
