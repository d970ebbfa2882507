"""Covariant transform, dual functionals and the transmutation map.

The covariant transform sends a model's basis to the archetypal
monomial picture: W_0 f(u) = sum_k <l_0, L^k f> u^k / k!, so that
W_0 p_n = u^n/n! exactly.  It intertwines the model's lowering with
d/du and the raising with multiplication by u, which is what makes it
the hub for mapping one umbral model onto another: expand in the source
basis through the dual functionals l_k = l_0 o L^k, reassemble in the
target basis.

Both halves of that map are products over the integers with two
operators of the model: the expansion is D f, D being built once per
model (``UmbralModel.dual_op``, marked where a power of L reads a
marked column) with row k the dual l_k that ``dual_functionals``
computes as an integer row, and the reassembly is B c, B being the
model's stored basis matrix (``basis_op``) with column n the basis
element p_n.  Every product of an operator with a vector is one
``LinearOp.step`` on a kernel column over a running denominator, and
every walk through L^k f is ``LinearOp.powers``.  A ``Poly`` appears
only at the edges: the input is read into a kernel column once
(``core.integer_vector``) and the output made once
(``core.column_poly``).

W_0 is linear: W_0 = diag(1/k!) D.  On the basis matrix B its defining
properties are the operator identities W_0 B = diag(1/n!),
W_0 L B = D_u W_0 B and W_0 R B = U W_0 B, with D_u = d/du and U the
product by u, and that is how ``covariant_check`` tests them.
``covariant_w0`` walks L^k f for its one input and pairs each power
with l_0: for one request on a freshly built model that costs less
than building D from its integer rows.

The transmutation V = B_dst D_src maps one model onto another, and
``transmute_vector`` is its one implementation.  ``umbral_map`` applies
it to a ``Poly``, as the ``transmute`` command does;
``check_transmutation_intertwining`` tests V L_src = L_dst V and
V R_src = R_dst V with it on kernel columns, each basis column of the
source carried through the ladders and V, and the two sides compared
by ``kernels.icol_eq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CapMismatchError,
    DomainError,
    LinearOp,
    Poly,
    column_poly,
    integer_vector,
)
from .kernels import EMPTY, Column, icol_eq
from .models import Parity, UmbralModel, basis_matrix, require_order, vacuum_op
from .models import dual_functionals  # noqa: F401  (public here: the duals l_k)
from .models import _derivative_op, _mult_by_t_op, lowering_mismatch, pairing_mismatch
from .reports import VerificationReport, status_of


def require_model_input(m: UmbralModel, f: Poly) -> None:
    """Refuse a polynomial outside the model's space or at another cap."""
    m.check_degrees_in_space(k for k, c in enumerate(f.coeffs) if c)
    if f.cap != m.degree_cap:
        raise CapMismatchError(f"input cap {f.cap} differs from model cap {m.degree_cap}")


def covariant_w0(m: UmbralModel, f: Poly) -> Poly:
    """Profile of f in the monomial picture: coefficient k of the output
    is <l_0, L^k f>/k!, in a fresh variable u at the same cap.

    L^k f comes from ``LinearOp.powers`` as a kernel column of integer
    numerators over one denominator, and l_0 pairs with it as the
    one-row operator ``vacuum_op``.  The output is flagged when f is or
    when forming L^k f reads a column L marks, for k up to n_max + 1:
    the power past the top index is what shows that the series ends.
    """
    require_model_input(m, f)
    vac, coeffs, kfact = vacuum_op(m), [], 1
    powers = m.lowering.powers(*integer_vector(f.coeffs), f.truncated)
    for k, (g, den, tainted) in zip(range(m.n_max + 2), powers):
        kfact *= k or 1
        (_, pair), pden, _ = vac.step(g, den, False)  # (<l_0, g>,), or () when it is 0
        coeffs.append(Fraction(sum(pair), pden * kfact))
    return Poly(coeffs[: m.n_max + 1], f.cap, tainted)


def require_top_degree(m: UmbralModel, degree: int) -> None:
    """Refuse a polynomial of degree above the model's top basis degree."""
    top = m.degree_of_index(m.n_max)
    if degree > top:
        raise DomainError(
            f"degree {degree} exceeds the top basis degree {top}"
        )


def require_column_input(m: UmbralModel, rows: tuple[int, ...]) -> None:
    """Refuse a kernel column, given by its nonzero rows, outside the
    model's space or above its top basis degree, in that order."""
    m.check_degrees_in_space(rows)
    require_top_degree(m, rows[-1] if rows else -1)


def expand_in_basis(m: UmbralModel, f: Poly) -> list[Fraction]:
    """Coefficients c_k = <l_k, f> of f = sum_k c_k p_k, as the product
    D f with the model's dual matrix D.

    The expansion is exact for any f inside the model's graded space
    (the basis matrix is triangular with nonzero diagonal there);
    odd-degree content in an even-parity model raises DomainError.
    """
    require_model_input(m, f)
    require_top_degree(m, f.degree())
    return list(m.dual_op.apply(f).coeffs[: m.n_max + 1])


def reassemble(m: UmbralModel, coeffs: list[Fraction]) -> Poly:
    """sum_k coeffs[k] p_k in the model's own space, as the product B c
    with the model's basis matrix B; flagged when a p_k with a nonzero
    coefficient is."""
    if len(coeffs) > m.n_max + 1:
        raise CapMismatchError("more coefficients than basis elements")
    return m.basis_op.apply(Poly(coeffs, m.degree_cap))


def transmute_vector(
    src: UmbralModel, dst: UmbralModel, vec: Column, den: int, tainted: bool
) -> tuple[Column, int, bool]:
    """V vec = B_dst (D_src vec) for vec, a kernel column over den: the
    one transmutation of the package, two ``LinearOp.step``s that take
    the marks of D_src and B_dst.  vec must lie in the source space, at
    or below its top basis degree (``require_column_input``)."""
    require_column_input(src, vec[0])
    return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))


def umbral_map(src: UmbralModel, dst: UmbralModel, f: Poly) -> Poly:
    """Transmutation between models: expand f in the source basis and
    reassemble index-wise in the target basis (p_k -> ptilde_k), as
    ``transmute_vector`` on f's integer column.  The image is flagged
    when f is, when f reads a column D_src marks, or when it uses a
    flagged target basis element.

    Both models must carry the same number of basis elements.  The map
    is index-wise, so crossing parity is fine (monomial index n lands
    on degree 2n in an even model); what cannot work is odd-degree
    content in an even *source* model, which is refused.
    """
    if src.n_max != dst.n_max:
        raise CapMismatchError(
            f"index counts differ: {src.n_max} vs {dst.n_max}"
        )
    require_model_input(src, f)
    col, den, tainted = transmute_vector(src, dst, *integer_vector(f.coeffs), f.truncated)
    return column_poly(col, den, dst.degree_cap, tainted)


def check_transmutation_intertwining(
    src: UmbralModel, dst: UmbralModel
) -> VerificationReport:
    """Exact check that the umbral map V = B_dst D_src intertwines both
    ladders: V L_src = L_dst V on p_1..p_N and V R_src = R_dst V on
    p_0..p_{N-1} (the top raising index is outside the truncation-safe
    zone).

    The identities hold by construction; the check guards the
    implementation by computing each side through the matrices, on
    integer kernel columns over a running denominator: column n of B_src
    goes through the source ladder and ``transmute_vector`` on one side,
    and through ``transmute_vector`` and the target ladder on the other,
    every product a ``LinearOp.step``, and ``kernels.icol_eq`` compares
    the two images over their denominators.  V p_n is formed once per
    index, and the raising pass reuses what the lowering pass made.  A
    side is tainted when B_src marks column n or when one of its
    products reads a column its operator marks, as ``umbral_map`` and
    the ladders' ``apply`` flag it; each vector that D_src expands and
    each image the target ladder acts on must lie in its model's space,
    as there.  Both models must carry the same number of basis
    elements; parity may differ.
    """
    if src.n_max != dst.n_max:
        raise CapMismatchError(
            f"index counts differ: {src.n_max} vs {dst.n_max}"
        )
    b_src = src.basis_op
    bad, tainted = None, False
    images = {}  # n -> V p_n
    for kind, on_src, on_dst, indices in (
        ("lowering", src.lowering, dst.lowering, range(1, src.n_max + 1)),
        ("raising", src.raising, dst.raising, range(src.n_max)),
    ):
        for n in indices:
            col = b_src.cols[n]
            src.check_degrees_in_space(col[0])
            p = col, b_src.den, n in b_src.trunc_cols
            l, dl, lt = transmute_vector(src, dst, *on_src.step(*p))
            if n in images:
                r, dr, rt = images[n]
            else:
                r, dr, rt = images[n] = transmute_vector(src, dst, *p)
                dst.check_degrees_in_space(r[0])
            r, dr, rt = on_dst.step(r, dr, rt)
            tainted |= lt or rt
            if not icol_eq(l, dl, r, dr):
                bad = (kind, n)
                break
        if bad is not None:
            break
    return VerificationReport(
        check="transmutation-intertwining",
        model=f"{src.label()} -> {dst.label()}",
        params={"src": src.label(), "dst": dst.label()},
        status=status_of(bad, tainted),
        first_failure=bad,
    )


def _dense_combination(m: UmbralModel) -> Poly:
    """sum_n (n+1)/(n+2) p_n, a round-trip input touching every p_n."""
    return reassemble(m, [Fraction(n + 1, n + 2) for n in range(m.n_max + 1)])


def biorthogonality_check(m: UmbralModel) -> VerificationReport:
    """<l_k, p_n> = delta_kn for all k, n, as the identities
    l_k B = e_k on the basis matrix B taken k by k, plus the round trip
    reassemble(expand(f)) = f on a dense combination of the basis.
    D B carries the marks of B and of D."""
    db = m.dual_op @ m.basis_op
    bad = None
    for k in range(m.n_max + 1):
        n, tainted = pairing_mismatch(db, k, m.n_max)
        if n is not None:
            bad = ("pairing", k, n)
            break
    if bad is None:
        f = _dense_combination(m)
        if reassemble(m, expand_in_basis(m, f)) != f:
            bad = ("round-trip", None, None)
    return VerificationReport(
        check="biorthogonality",
        model=m.label(),
        params={"indices": m.n_max},
        status=status_of(bad, tainted),
        first_failure=bad,
    )


def covariant_check(m: UmbralModel) -> VerificationReport:
    """W0 p_n = u^n/n! for every basis element, and the exchange rules
    W0 L = d/du W0 (n >= 1) and W0 R = u W0 (n < n_max, the top raising
    image being outside the safe zone), tested in that order as
    W0 B = diag(1/n!), W0 (L B) = D_u (W0 B) and W0 (R B) = U (W0 B),
    with W0 = diag(1/k!) D and the taint gathered across them; U marks
    its top column, as u * flags a coefficient pushed past the cap.  An
    image L p_n or R p_n outside the model's space raises DomainError.
    Last, ``covariant_w0`` of sum_n (n+1)/(n+2) p_n must be
    sum_n (n+1)/(n+2) u^n/n!."""
    cap, top = m.degree_cap, m.n_max
    f = math.factorial(top)
    cols = [((j,), (f // math.factorial(j),)) for j in range(top + 1)]
    inv_fact = LinearOp(cols + [EMPTY] * (cap - top), f, cap)
    w0, b = inv_fact @ m.dual_op, m.basis_op
    wb = w0 @ b
    lb, rb = m.lowering @ b, m.raising @ b
    bad, tainted = None, False
    for kind, image, lhs, rhs, cols in (
        ("image", b, wb, inv_fact, range(top + 1)),
        ("exchange-lowering", lb, w0 @ lb, _derivative_op(cap) @ wb, range(1, top + 1)),
        ("exchange-raising", rb, w0 @ rb, _mult_by_t_op(cap) @ wb, range(top)),
    ):
        n, marked = lhs.compare_on_columns(rhs, cols)
        if m.parity is Parity.EVEN:
            for j in cols if n is None else range(cols.start, n + 1):
                m.check_degrees_in_space(image.cols[j][0])
        tainted |= marked
        if n is not None:
            bad = (kind, n)
            break
    if bad is None:
        want = [Fraction(n + 1, (n + 2) * math.factorial(n)) for n in range(top + 1)]
        if covariant_w0(m, _dense_combination(m)) != Poly(want, cap):
            bad = ("round-trip", None)
    return VerificationReport(
        check="covariant",
        model=m.label(),
        params={"indices": m.n_max},
        status=status_of(bad, tainted),
        first_failure=bad,
    )


@dataclass
class GeneratingTable:
    """Rows of the archetypal generating function F(s, t) = sum_k s^k p_k(t):
    table[k][j] is the t^j coefficient of p_k."""

    table: tuple[tuple[Fraction, ...], ...]
    report: VerificationReport


def generating_function(m: UmbralModel, order: int) -> GeneratingTable:
    """Coefficient table of F(s, t) to s-order ``order``, plus an exact
    verification that L_t F = s F order by order: the s^{k+1} row of
    L F must equal row k, and L applied to row 0 must vanish.  That is
    L B = B S_down on the basis matrix B built up to ``order``.  The
    rows are B's columns 0..order, read straight off its integers."""
    require_order(m, order)
    b = m.basis_op
    rows = tuple(column_poly(col, b.den, m.degree_cap).coeffs for col in b.cols[: order + 1])
    bad, tainted = lowering_mismatch(m, basis_matrix(m, order), order)
    report = VerificationReport(
        check="generating-function",
        model=m.label(),
        params={"order": order},
        status=status_of(bad, tainted),
        first_failure=bad,
    )
    return GeneratingTable(table=rows, report=report)
