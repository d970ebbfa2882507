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
in (t, y) at one common denominator; no float ever enters.  The
translation itself runs on kernel columns too: p_k(y) from column k of
the basis matrix, L^k f by the transforms' vector step, and one
``Poly`` at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    CapMismatchError,
    LinearOp,
    ParameterError,
    Poly,
    as_fraction,
    column_poly,
    integer_vector,
)
from .kernels import imat_comb
from .models import UmbralModel, basis_matrix, require_order
from .models import lowering_mismatch, pairing_mismatch, vacuum_op
from .reports import VerificationReport, status_of
from .transforms import _step, require_model_input


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


def _form(
    rows: Sequence[int], vals: Sequence[int], den: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The polynomial sum_i vals[i] t^rows[i] / den as its nonzero
    (degree, integer numerator) pairs over its own reduced denominator:
    the smaller the integers, the cheaper ``first_difference``."""
    g = math.gcd(den, *vals)
    return tuple(zip(rows, [x // g for x in vals])), den // g


#: The basis matrix ``_column_forms`` read last, with its forms: the
#: binomial sweep reads one B once per index n, and reducing every
#: column again on each call would cost a fifth of the sweep.
_last_forms: tuple[LinearOp | None, list] = (None, [])


def _column_forms(b: LinearOp) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """``_form`` of each column of b, kept for the last b asked for."""
    global _last_forms
    if _last_forms[0] is not b:
        _last_forms = (b, [_form(rows, vals, b.den) for rows, vals in b.cols])
    return _last_forms[1]


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
    if not m.shift_invariant:
        raise ParameterError(
            f"not binomial type: {m.label()} has no shift-invariant "
            "lowering operator"
        )
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"not binomial type: {m.label()} vacuum is not evaluation at 0"
        )
    # Taylor: p_n(t + y) = sum_i t^i (d/dy)^i p_n(y) / i!, as pairs of integer forms
    b = m.basis_op
    forms = _column_forms(b)
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
        status=status_of(bad, any(k in b.trunc_cols for k in range(n + 1))),
        first_failure=bad,
    )


def generalized_translate(m: UmbralModel, y: Fraction | int, f: Poly) -> Poly:
    """T^y f = sum_k p_k(y) L^k f with exact rational y.

    The sum is finite: L^k f dies once k exceeds the index content of
    f.  It runs on integers from input to output.  With y = a/c,
    p_k(y) is column k of the basis matrix B summed against the powers
    a^i c^(cap-i), over B.den c^cap; L^k f is a kernel column over
    fden L.den^k, carried by ``_step``; and ``kernels.imat_comb`` sums
    the terms over the last one's denominator.  A term with
    p_k(y) != 0 passes on the flag of its L^k f, which a read of a
    column that L marks raises."""
    y = as_fraction(y)
    require_model_input(m, f)
    cap, b, low = m.degree_cap, m.basis_op, m.lowering
    a, c = y.numerator, y.denominator
    powers = [a**i * c ** (cap - i) for i in range(cap + 1)]
    g, fden = integer_vector(f.coeffs)
    den, tainted, flagged = fden, f.truncated, f.truncated
    terms = []  # (p_k(y) over B.den c^cap, L^k f over fden L.den^k)
    for k in range(m.n_max + 1):
        rows, vals = b.cols[k]
        w = sum(x * powers[i] for i, x in zip(rows, vals))
        terms.append((w, g))
        flagged = flagged or (tainted and w != 0)
        g, den, tainted = _step(low, g, den, tainted)
        if not g[0] and not tainted:
            break
    else:
        # content survived past the basis range: cap too small
        raise CapMismatchError(
            "translation series did not terminate within the basis range"
        )
    top = len(terms) - 1
    (out,) = imat_comb([(w * low.den ** (top - k), [g]) for k, (w, g) in enumerate(terms)])
    return column_poly(out, b.den * c**cap * fden * low.den**top, cap, flagged)


def character_check(m: UmbralModel, order: int) -> VerificationReport:
    """Order-by-order check of the character property of
    F(lambda, t) = sum_k lambda^k p_k(t):

        T_t^y F = F(lambda, y) F(lambda, t).

    At lambda-order a the left side is sum_{k<=a} p_k(y) (L^k p_a)(t)
    with y kept symbolic, the right side sum_{i+j=a} p_i(y) p_j(t);
    both are exact tables in (t, y) and no cross-order cancellation is
    possible.  L^k p_a is formed as a kernel column by ``_step``, the
    transforms' one vector product; it is tainted when B marks p_a or L
    marks a column that L^j p_a, j < k, reaches."""
    require_order(m, order)
    b, low = m.basis_op, m.lowering
    forms = _column_forms(b)
    bad = None
    tainted = False
    for a in range(order + 1):
        pairs = []
        g, den, marked = b.cols[a], b.den, a in b.trunc_cols
        for k in range(a + 1):
            pairs.append((_form(*g, den), forms[k]))
            tainted |= marked
            g, den, marked = _step(low, g, den, marked)
        diff = first_difference(pairs, [(forms[a - i], forms[i]) for i in range(a + 1)])
        if diff is not None:
            bad = (a, diff)
            break
    return VerificationReport(
        check="character",
        model=m.label(),
        params={"order": order},
        status=status_of(bad, tainted),
        first_failure=bad,
    )


def delsarte_eigen_check(m: UmbralModel, order: int) -> VerificationReport:
    """The two conditions tying the basis to its translation structure,
    L p_n = p_{n-1} and p_n(0) = delta_{0n} for n <= order, checked as
    L B = B S_down and l_0 B = e_0 on the basis matrix B; at equal n,
    value-at-0 fails first.  Requires a vacuum equal to evaluation at 0
    (otherwise the second condition is not the model's own
    normalization and the check refuses to run)."""
    require_order(m, order)
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"{m.label()} vacuum is not evaluation at 0; the eigenfunction "
            "normalization p_n(0) = delta_0n does not apply"
        )
    b = basis_matrix(m, order)
    at0, tainted0 = pairing_mismatch(vacuum_op(m) @ b, 0, order)
    low, tainted = lowering_mismatch(m, b, order)
    bad = None
    if at0 is not None and (low is None or at0 <= low):
        bad = ("value-at-0", at0)
    elif low is not None:
        bad = ("lowering", low)
    return VerificationReport(
        check="delsarte",
        model=m.label(),
        params={"order": order},
        status=status_of(bad, tainted0 or tainted),
        first_failure=bad,
    )
