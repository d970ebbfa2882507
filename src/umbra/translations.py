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

The two-variable identities here are checked on an exact sparse
coefficient table in (t, y); no float ever enters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    CapMismatchError,
    ParameterError,
    Poly,
    ZERO,
    as_fraction,
)
from .models import UmbralModel, basis_matrix
from .models import lowering_mismatch, pairing_mismatch, rows_matrix
from .reports import VerificationReport, status_of


class BivariatePoly:
    """Sparse table of a polynomial in (t, y): ``terms`` maps each
    (t-degree, y-degree) with a nonzero coefficient to that coefficient.
    Both variables share one degree cap."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction], cap: int):
        if any(not (0 <= i <= cap and 0 <= j <= cap) for i, j in terms):
            raise CapMismatchError("table entry outside the cap")
        self.terms = {k: q for k, q in terms.items() if q}
        self.cap = cap

    @classmethod
    def sum_of_products(
        cls, pairs: Iterable[tuple[Poly, Poly]], cap: int
    ) -> "BivariatePoly":
        """sum of in_t(t) * in_y(y) over the (in_t, in_y) pairs."""
        terms: dict[tuple[int, int], Fraction] = {}
        for in_t, in_y in pairs:
            if in_t.cap != cap or in_y.cap != cap:
                raise CapMismatchError("caps differ")
            ys = [(j, b) for j, b in enumerate(in_y.coeffs) if b]
            for i, a in enumerate(in_t.coeffs):
                if a:
                    for j, b in ys:
                        q = terms.get((i, j))
                        terms[i, j] = a * b if q is None else q + a * b
        return cls(terms, cap)

    @classmethod
    def from_shift(cls, p: Poly) -> "BivariatePoly":
        """p(t + y), expanded exactly (binomial theorem per monomial)."""
        terms: dict[tuple[int, int], Fraction] = {}
        for k, c in enumerate(p.coeffs):
            if not c:
                continue
            for i in range(k + 1):
                terms[i, k - i] = terms.get((i, k - i), ZERO) + c * math.comb(k, i)
        return cls(terms, p.cap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.cap == other.cap and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((frozenset(self.terms.items()), self.cap))

    def first_difference(self, other: "BivariatePoly") -> tuple[int, int] | None:
        """Smallest (t-degree, y-degree) where the tables differ."""
        a, b = self.terms, other.terms
        return min(
            (k for k in a.keys() | b.keys() if a.get(k, ZERO) != b.get(k, ZERO)),
            default=None,
        )


def _require_index(m: UmbralModel, n: int) -> None:
    if not 0 <= n <= m.n_max:
        raise CapMismatchError(
            f"basis index {n} outside 0..{m.n_max}"
        )


def binomial_check(m: UmbralModel, n: int) -> VerificationReport:
    """Exact two-variable check of p_n(t+y) = sum_k p_{n-k}(y) p_k(t).

    Preconditions (the binomial-type hypotheses): the lowering operator
    is shift-invariant and the vacuum is evaluation at 0.  A model that
    fails either gets a ParameterError naming the failed hypothesis --
    the Hermite model is shift-invariant but has the wrong vacuum.
    """
    _require_index(m, n)
    if not m.shift_invariant:
        raise ParameterError(
            f"not binomial type: {m.label()} has no shift-invariant "
            "lowering operator"
        )
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"not binomial type: {m.label()} vacuum is not evaluation at 0"
        )
    lhs = BivariatePoly.from_shift(m.basis[n])
    rhs = BivariatePoly.sum_of_products(
        ((m.basis[k], m.basis[n - k]) for k in range(n + 1)), m.degree_cap
    )
    bad = lhs.first_difference(rhs)
    return VerificationReport(
        check="binomial",
        model=m.label(),
        params={"n": n},
        status=status_of(bad),
        first_failure=bad,
    )


def generalized_translate(m: UmbralModel, y: Fraction | int, f: Poly) -> Poly:
    """T^y f = sum_k p_k(y) L^k f with exact rational y.

    The sum is finite: L^k f dies once k exceeds the index content of
    f.  Truncation flags on intermediate applications propagate."""
    y = as_fraction(y)
    m.check_in_space(f)
    if f.cap != m.degree_cap:
        raise CapMismatchError(
            f"input cap {f.cap} differs from model cap {m.degree_cap}"
        )
    acc = Poly.zero(m.degree_cap).with_flag(f.truncated)
    g = f
    for k in range(m.n_max + 1):
        w = m.basis[k].eval(y)
        if w:
            acc = acc + g.scale(w)
        g = m.lowering.apply(g)
        if g.is_zero() and not g.truncated:
            break
    else:
        if not (g.is_zero() and not g.truncated):
            # content survived past the basis range: cap too small
            raise CapMismatchError(
                "translation series did not terminate within the basis range"
            )
    return acc


def character_check(m: UmbralModel, order: int) -> VerificationReport:
    """Order-by-order check of the character property of
    F(lambda, t) = sum_k lambda^k p_k(t):

        T_t^y F = F(lambda, y) F(lambda, t).

    At lambda-order a the left side is sum_{k<=a} p_k(y) (L^k p_a)(t)
    with y kept symbolic, the right side sum_{i+j=a} p_i(y) p_j(t);
    both are exact tables in (t, y) and no cross-order cancellation is
    possible."""
    if order < 0:
        raise ParameterError("order must be >= 0")
    if order > m.n_max:
        raise CapMismatchError(
            f"order {order} exceeds the top basis index {m.n_max}"
        )
    bad = None
    tainted = False
    for a in range(order + 1):
        pairs = []
        g = m.basis[a]
        for k in range(a + 1):
            pairs.append((g, m.basis[k]))
            tainted |= g.truncated
            g = m.lowering.apply(g)
        lhs = BivariatePoly.sum_of_products(pairs, m.degree_cap)
        rhs = BivariatePoly.sum_of_products(
            ((m.basis[a - i], m.basis[i]) for i in range(a + 1)), m.degree_cap
        )
        diff = lhs.first_difference(rhs)
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
    if order < 0:
        raise ParameterError("order must be >= 0")
    if order > m.n_max:
        raise CapMismatchError(
            f"order {order} exceeds the top basis index {m.n_max}"
        )
    if not m.vacuum_is_eval0():
        raise ParameterError(
            f"{m.label()} vacuum is not evaluation at 0; the eigenfunction "
            "normalization p_n(0) = delta_0n does not apply"
        )
    b = basis_matrix(m, order)
    at0, tainted0 = pairing_mismatch(rows_matrix(m.degree_cap, [m.vacuum]) @ b, 0, order)
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
