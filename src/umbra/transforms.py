"""Covariant transform, dual functionals and the transmutation map.

The covariant transform sends a model's basis to the archetypal
monomial picture: W_0 f(u) = sum_k <l_0, L^k f> u^k / k!, so that
W_0 p_n = u^n/n! exactly.  It intertwines the model's lowering with
d/du and the raising with multiplication by u, which is what makes it
the hub for mapping one umbral model onto another: expand in the source
basis through the dual functionals l_k = l_0 o L^k, reassemble in the
target basis.

The expansion is D f, D being the model's dual matrix
(``UmbralModel.dual_op``, marked on ``dual_marks``, where a power of L
reads a marked column), with row k the dual l_k that
``dual_functionals`` computes as an integer row; the reassembly is B c,
B being the model's stored basis matrix (``basis_op``).  Every product
of an operator with a vector is one ``LinearOp.step`` on a kernel
column over a running denominator, every walk through L^k f is
``LinearOp.powers``, and l_0 pairs with a column by
``UmbralModel.vacuum_step``.  The model refuses an input outside its
space (``require_poly``, ``require_column``).  A ``Poly`` appears only
at the edges (``core.integer_vector``, ``core.column_poly``).

W_0 is linear: W_0 = diag(1/k!) D.  On the basis matrix B its defining
properties are the operator identities W_0 B = diag(1/n!),
W_0 L B = D_u W_0 B and W_0 R B = U W_0 B, with D_u = d/du and U the
product by u, and that is how ``covariant_check`` tests them: each
identity, compared column by column, is one check for ``core.outcome``.
``covariant_w0`` and ``umbral_map`` walk L^k f for their one input
and pair each power with l_0: for one request on a freshly built model
that costs far less than building D, n_max row products with L^T.

``biorthogonality_check`` and ``covariant_check`` are decided on the
model's Fock twin (``UmbralModel.fock_twin``, through
``models.on_fock_twin``) where the model meets ``UmbralModel.premise``,
as the ladder-word checks of ``heisenberg`` are.  Why they hold: by the
premise, l_k p_n = l_0 L^k p_n = l_0 p_(n-k) = delta_kn, so D B = I,
which is biorthogonality, and the round trip follows from it.  With
W_0 = diag(1/k!) D, W_0 B = diag(1/n!) is covariant's image;
W_0 L p_n = W_0 p_(n-1) = D_u W_0 p_n and, on n < n_max,
W_0 R p_n = (n+1) W_0 p_(n+1) = U W_0 p_n are its exchange rules.
Each holds on the model exactly when it does on the twin, untainted,
and only the direct path reports "fail" or "inconclusive".  The pair,
monomial, is its own twin: it decides each check once, directly, and
keeps the report.

The transmutation V = B_dst D_src maps one model onto another.
``umbral_map`` applies it to a ``Poly``, as the ``transmute`` command
does, with D_src f from the walk; ``transmute_vector`` is V through
D_src's matrix, and ``check_transmutation_intertwining`` tests
V L_src = L_dst V and V R_src = R_dst V with it on kernel columns,
each basis column of the source carried through the ladders and V,
the two sides compared by ``kernels.icol_eq``, and each ladder and
index one check for ``core.outcome``.  Where both models meet the premise it is
transported too, decided once on (pair, pair): D_src B_src = I gives
V p_n = p_n^dst, so V L_src p_n = p_(n-1)^dst = L_dst V p_n and, on
n < n_max, V R_src p_n = (n+1) p_(n+1)^dst = R_dst V p_n, index by
index, whatever the two parities.

``generating_function`` checks L_t F = s F for the generating function
F(s, t) = sum_k s^k p_k(t) from the model's lowering outcome alone; the
``genfun`` command prints F's rows, which are B's columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .core import (
    CapMismatchError,
    LinearOp,
    Poly,
    column_poly,
    integer_vector,
    outcome,
)
from .kernels import EMPTY, Column, icol_eq
from .models import UmbralModel, axiom_outcomes, on_fock_twin, require_order
from .models import dual_functionals  # noqa: F401  (public here: the duals l_k)
from .models import _derivative_op, _mult_by_t_op
from .reports import VerificationReport


def covariant_w0(m: UmbralModel, f: Poly) -> Poly:
    """Profile of f in the monomial picture: coefficient k of the output
    is <l_0, L^k f>/k!, in a fresh variable u at the same cap.

    L^k f comes from ``LinearOp.powers`` as a kernel column of integer
    numerators over one denominator, and l_0 pairs with it by
    ``UmbralModel.vacuum_step``.  The output is flagged when f is or
    when forming L^k f reads a column L marks, for k up to n_max + 1:
    the power past the top index is what shows that the series ends.
    """
    m.require_poly(f)
    coeffs, kfact = [], 1
    powers = m.lowering.powers(*integer_vector(f.coeffs), f.truncated)
    for k, power in enumerate(islice(powers, m.n_max + 2)):
        kfact *= k or 1
        (_, pair), den, tainted = m.vacuum_step(*power)  # (<l_0, L^k f>,), or () when it is 0
        coeffs.append(Fraction(sum(pair), den * kfact))
    return Poly(coeffs[: m.n_max + 1], f.cap, tainted)


def expand_in_basis(m: UmbralModel, f: Poly) -> list[Fraction]:
    """Coefficients c_k = <l_k, f> of f = sum_k c_k p_k, as the product
    D f with the model's dual matrix D.

    The expansion is exact for any f inside the model's graded space
    (the basis matrix is triangular with nonzero diagonal there);
    odd-degree content in an even-parity model raises DomainError.
    """
    m.require_poly(f)
    m.require_column(integer_vector(f.coeffs)[0][0])
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
    """V vec = B_dst (D_src vec) for vec, a kernel column over den, through
    D_src's matrix: two ``LinearOp.step``s that take the marks of D_src
    and B_dst.  vec must lie in the source space, at or below its top
    basis degree (``UmbralModel.require_column``)."""
    src.require_column(vec[0])
    return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))


def umbral_map(src: UmbralModel, dst: UmbralModel, f: Poly) -> Poly:
    """Transmutation between models: expand f in the source basis and
    reassemble index-wise in the target basis (p_k -> ptilde_k), as
    ``transmute_vector`` does without D_src: c_k = <l_0, L^k f> for
    k <= n_max, over the last one's denominator, then one step through
    B_dst.  The image is flagged when f is, when f reads a column D_src
    marks (``UmbralModel.dual_marks``), or when it uses a flagged p_k.

    Both models must carry the same number of basis elements.  The map
    is index-wise, so crossing parity is fine (monomial index n lands
    on degree 2n in an even model); what cannot work is odd-degree
    content in an even *source* model, which is refused.
    """
    if src.n_max != dst.n_max:
        raise CapMismatchError(f"index counts differ: {src.n_max} vs {dst.n_max}")
    src.require_poly(f)
    vec, den = integer_vector(f.coeffs)
    src.require_column(vec[0])
    powers = islice(src.lowering.powers(vec, den, False), src.n_max + 1)
    pairs = [src.vacuum_step(*power)[:2] for power in powers]
    top = pairs[-1][1]
    c = [(k, x[0] * (top // pden)) for k, ((_, x), pden) in enumerate(pairs) if x]
    tainted = f.truncated or not src.dual_marks.isdisjoint(vec[0])
    col, den, tainted = dst.basis_op.step(tuple(zip(*c)) or EMPTY, top, tainted)
    return column_poly(col, den, dst.degree_cap, tainted)


def check_transmutation_intertwining(
    src: UmbralModel, dst: UmbralModel
) -> VerificationReport:
    """Exact check that the umbral map V = B_dst D_src intertwines both
    ladders: V L_src = L_dst V on p_1..p_N and V R_src = R_dst V on
    p_0..p_{N-1} (the top raising index is outside the truncation-safe
    zone).

    The identities hold by construction; the check guards the
    implementation by computing each side through the matrices: column
    n of B_src goes through the source ladder and ``transmute_vector``
    on one side, and through ``transmute_vector`` and the target ladder
    on the other, and ``kernels.icol_eq`` compares the two images: one
    check for ``core.outcome`` per index, lowering first, marked when
    either side is tainted.  A side is tainted when B_src marks column n
    or when one of its products reads a column its operator marks, as
    ``umbral_map`` flags it; each vector that D_src expands and each
    image the target ladder acts on must lie in its model's space.  Both
    models must carry the same number of basis elements; parity may
    differ.  Decided on the Fock pair, as (pair, pair), where both
    models have a Fock twin.
    """
    if src.n_max != dst.n_max:
        raise CapMismatchError(f"index counts differ: {src.n_max} vs {dst.n_max}")
    params = {"src": src.label(), "dst": dst.label()}
    if (moved := on_fock_twin((src, dst), check_transmutation_intertwining, **params)) is not None:
        return moved
    b_src = src.basis_op

    def sides(on_src: LinearOp, on_dst: LinearOp, n: int) -> tuple[bool, bool]:
        col = b_src.cols[n]
        src.check_degrees_in_space(col[0])
        p = col, b_src.den, n in b_src.trunc_cols
        l, dl, lt = transmute_vector(src, dst, *on_src.step(*p))
        image = transmute_vector(src, dst, *p)
        dst.check_degrees_in_space(image[0][0])
        r, dr, rt = on_dst.step(*image)
        return icol_eq(l, dl, r, dr), lt or rt

    bad, tainted = outcome(
        ((kind, n), *sides(on_src, on_dst, n))
        for kind, on_src, on_dst, indices in (
            ("lowering", src.lowering, dst.lowering, range(1, src.n_max + 1)),
            ("raising", src.raising, dst.raising, range(src.n_max)),
        )
        for n in indices
    )
    return VerificationReport(
        check="transmutation-intertwining",
        model=f"{src.label()} -> {dst.label()}",
        params=params,
        tainted=tainted,
        first_failure=bad,
    )


def _dense_combination(m: UmbralModel) -> Poly:
    """sum_n (n+1)/(n+2) p_n, a round-trip input touching every p_n."""
    return reassemble(m, [Fraction(n + 1, n + 2) for n in range(m.n_max + 1)])


def biorthogonality_check(m: UmbralModel) -> VerificationReport:
    """<l_k, p_n> = delta_kn for all k, n, as the identities
    l_k B = e_k on the basis matrix B taken k by k, plus the round trip
    reassemble(expand(f)) = f on a dense combination of the basis.
    D B carries the marks of B and of D, and check (k, n) those of
    column n.  Decided on the Fock twin where the model has one."""
    if (moved := on_fock_twin(m, biorthogonality_check)) is not None:
        return moved
    db, top = m.dual_op @ m.basis_op, m.n_max
    bad, tainted = outcome(
        (("pairing", k, n), x == (db.den if n == k else 0), n in db.trunc_cols)
        for k, row in enumerate(db.num[: top + 1])
        for n, x in enumerate(row[: top + 1])
    )
    if bad is None:
        f = _dense_combination(m)
        if reassemble(m, expand_in_basis(m, f)) != f:
            bad = ("round-trip", None, None)
    return VerificationReport(
        check="biorthogonality",
        model=m.label(),
        params={"indices": m.n_max},
        tainted=tainted,
        first_failure=bad,
    )


def covariant_check(m: UmbralModel) -> VerificationReport:
    """W0 p_n = u^n/n! for every basis element, and the exchange rules
    W0 L = d/du W0 (n >= 1) and W0 R = u W0 (n < n_max, the top raising
    image being outside the safe zone), tested in that order as
    W0 B = diag(1/n!), W0 (L B) = D_u (W0 B) and W0 (R B) = U (W0 B),
    with W0 = diag(1/k!) D, each one check for ``core.outcome``, which
    gathers the taint across them; U marks
    its top column, as u * flags a coefficient pushed past the cap.
    An image L p_n or R p_n outside the model's space raises
    DomainError.  Last, ``covariant_w0`` of sum_n (n+1)/(n+2) p_n must
    be sum_n (n+1)/(n+2) u^n/n!.  Decided on the Fock twin where the
    model has one."""
    if (moved := on_fock_twin(m, covariant_check)) is not None:
        return moved
    cap, top = m.degree_cap, m.n_max
    f = math.factorial(top)
    cols = [((j,), (f // math.factorial(j),)) for j in range(top + 1)]
    inv_fact = LinearOp(cols + [EMPTY] * (cap - top), f, cap)
    w0, b = inv_fact @ m.dual_op, m.basis_op
    wb = w0 @ b
    lb, rb = m.lowering @ b, m.raising @ b

    def identity(
        kind: str, image: LinearOp, lhs: LinearOp, rhs: LinearOp, cols: range
    ) -> tuple[tuple[str, int | None], bool, bool]:
        n, marked = lhs.compare_on_columns(rhs, cols)
        m.check_degrees_in_space(  # the images compared, up to the first failure
            k for j in (cols if n is None else range(cols.start, n + 1)) for k in image.cols[j][0]
        )
        return (kind, n), n is None, marked

    bad, tainted = outcome(identity(*row) for row in (
        ("image", b, wb, inv_fact, range(top + 1)),
        ("exchange-lowering", lb, w0 @ lb, _derivative_op(cap) @ wb, range(1, top + 1)),
        ("exchange-raising", rb, w0 @ rb, _mult_by_t_op(cap) @ wb, range(top)),
    ))
    if bad is None:
        want = [Fraction(n + 1, (n + 2) * math.factorial(n)) for n in range(top + 1)]
        if covariant_w0(m, _dense_combination(m)) != Poly(want, cap):
            bad = ("round-trip", None)
    return VerificationReport(
        check="covariant",
        model=m.label(),
        params={"indices": m.n_max},
        tainted=tainted,
        first_failure=bad,
    )


def generating_function(m: UmbralModel, order: int) -> VerificationReport:
    """Exact verification that L_t F = s F order by order, F being the
    archetypal generating function sum_k s^k p_k(t): the s^{k+1} row of
    L F must equal row k, and L applied to row 0 must vanish.  That is
    L p_n = p_(n-1) for n = 0..order (``models.axiom_outcomes``: the
    model's cached outcome at order n_max, the same column loop stopped
    at the order below it).  No row of F is built."""
    require_order(m, order)
    (bad, tainted), _ = axiom_outcomes(m, order)
    return VerificationReport(
        check="generating-function",
        model=m.label(),
        params={"order": order},
        tainted=tainted,
        first_failure=bad,
    )
