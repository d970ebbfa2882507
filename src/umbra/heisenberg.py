"""Ladder-exponential group structure, checked without truncation lies.

Three layers share this module:

* order-by-order verification of the ladder-exponential identities
  (the representation's composition law and the operator reorder rule):
  each side's coefficients are written in closed form, the normal-
  ordering formula (Wilcox, J. Math. Phys. 8, 1967; Folland, Harmonic
  Analysis in Phase Space, 1989, ch. 1), and the two sides compared as
  :class:`~umbra.formal.FormalOpSeries`;
* finite atomic kernels composed by twisted convolution, with the
  reorder phase kept as an exact rational exponent;
* the squared-ladder sl(2) triple (lower^2, raise^2, raise lower + 1/2)
  and a diagonal closure solver for generic ladder sequences.

Throughout, ``iota`` is fixed at 1: the reorder rule reads
exp(yL) exp(xR) = exp(xy) exp(xR) exp(yL), and the phase picked up when
atoms pass each other is exp(-x1*y2).

Every identity here is a combination of ladder words in L and R, and
is decided on the model's Fock twin (``UmbralModel.fock_twin``), the
pair (d/dt, t*) of monomial(n_max), where the model meets
``UmbralModel.premise``; the reports keep the model's label and
params.  The argument: take a word of length at most M and
j <= n_max - M.  Read from p_j,
each L acts on some p_k with k <= n_max and each R on one with
k < n_max, where the ladder axioms hold, so w(L, R) p_j has the
coefficients on p_0..p_n_max that the twin's word has on its own
basis.  So a combination of such words vanishes on
p_0..p_(n_max-M) of the model exactly when it does on the twin's.  B
being graded triangular, those p_j span the safe columns
t^d(0)..t^d(n_max-M) that the checks compare, and each letter keeps
that span, where no mark lies: a pass on the twin is an untainted pass
on the model.  The sl2 closure reads its diagonals through the duals
l_k = l_0 L^k, so the premise holds the vacuum axiom too.  Each check
is one function: it refuses on the model first, so its messages name
the model, then runs itself on the twin (``models.on_fock_twin``), and
with no twin, or a twin report that does not pass, runs its body on
the model (the direct path).  So only the direct path ever reports
"fail" or "inconclusive".  Monomial meets the premise and is its
own twin: a check called on the pair itself takes the direct path.  The
pair is one object per process (``models._fock_pair``, the
latest degree's) and keeps what each (check, args) gave on it, so the
models of one degree, monomial among them, run each check there once.
The twisted composition is read off the group law's report
(``composition_check_formal``), so it goes wherever the group law's
transport takes it and builds no series of its own.
``transforms`` transports biorthogonality, covariant and the
transmutation check the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    CapShortfallError,
    LinearOp,
    ParameterError,
    ZERO,
    as_fraction,
    format_rational,
    op_commutator,
)
from .formal import FormalOpSeries, Index, max_abs_entry, series_first_difference
from .models import UmbralModel, on_fock_twin
from .reports import VerificationReport, status_of
from .kernels import EMPTY
from .transforms import require_column_input


# ---------------------------------------------------------------------------
# formal representation and its identities
# ---------------------------------------------------------------------------

def _require_cap(m: UmbralModel, order: int) -> int:
    """n_max - order, the top basis index on which a series of this
    order is exact; refuses an order it leaves negative."""
    if order < 0:
        raise ParameterError("order must be >= 0")
    out = m.n_max - order
    if out < 0:
        raise CapShortfallError(
            f"formal order {order} with output index {out} needs "
            f"a working cap of n_max = {order}; model {m.label()} has "
            f"n_max = {m.n_max}"
        )
    return out


def _indices(n: int, order: int) -> Iterator[Index]:
    """Every multi-index of n entries with total at most ``order``: the
    gaps between n bars placed among order + n slots."""
    for bars in itertools.combinations(range(order + n), n):
        yield tuple(j - i - 1 for i, j in zip((-1, *bars), bars))


def _group_law_sides(m: UmbralModel, order: int) -> tuple[FormalOpSeries, FormalOpSeries]:
    """pi(x1,y1) pi(x2,y2) and exp(-x1*y2) pi(x1+x2, y1+y2), pi(x, y) =
    exp(-y L) exp(-x R), as series up to total ``order``, their
    numerators over order!.  At (a, b, c, d), the powers of (x1, y1, x2,
    y2), the left side is (-1)^(a+b+c+d) / (a! b! c! d!) L^b R^a L^d R^c
    and the right side the sum over k <= min(a, d) of
    (-1)^(a+b+c+d-k) / (k! (a-k)! (d-k)! b! c!) L^(b+d-k) R^(a+c-k),
    k the power of the phase."""
    f = [math.factorial(k) for k in range(order + 1)]
    lhs, rhs = (FormalOpSeries(("x1", "y1", "x2", "y2"), order, m.words, f[order]) for _ in range(2))
    for idx in _indices(4, order):
        a, b, c, d = idx
        n = (-1) ** (a + b + c + d) * f[order]
        word = "L" * b + "R" * a + "L" * d + "R" * c
        lhs.add_numerator(idx, n // (f[a] * f[b] * f[c] * f[d]), word)
        for k in range(min(a, d) + 1):
            n_k = (-1) ** k * n // (f[k] * f[a - k] * f[d - k] * f[b] * f[c])
            rhs.add_numerator(idx, n_k, "L" * (b + d - k) + "R" * (a + c - k))
    return lhs, rhs


def _weyl_sides(m: UmbralModel, order: int) -> tuple[FormalOpSeries, FormalOpSeries]:
    """exp(yL) exp(xR) and exp(xy) exp(xR) exp(yL) as series up to total
    ``order``, their numerators over order!.  At (a, d), the powers
    of (x, y), the left side is 1 / (a! d!) L^d R^a and the right side
    the sum over k <= min(a, d) of 1 / (k! (a-k)! (d-k)!) R^(a-k) L^(d-k)."""
    f = [math.factorial(k) for k in range(order + 1)]
    lhs, rhs = (FormalOpSeries(("x", "y"), order, m.words, f[order]) for _ in range(2))
    for idx in _indices(2, order):
        a, d = idx
        lhs.add_numerator(idx, f[order] // (f[a] * f[d]), "L" * d + "R" * a)
        for k in range(min(a, d) + 1):
            n_k = f[order] // (f[k] * f[a - k] * f[d - k])
            rhs.add_numerator(idx, n_k, "R" * (a - k) + "L" * (d - k))
    return lhs, rhs


def _formal_report(
    check: str,
    m: UmbralModel,
    order: int,
    output_degree: int,
    lhs: FormalOpSeries,
    rhs: FormalOpSeries,
) -> VerificationReport:
    cols = [m.degree_of_index(j) for j in range(output_degree + 1)]
    idx, tainted, worst = series_first_difference(lhs, rhs, cols)
    params = {
        "order": order,
        "output_index": output_degree,
        "n_work": m.n_max,
    }
    ff = None
    if idx is not None:
        ff = {"multi_index": {name: k for name, k in zip(lhs.params, idx) if k}}
    return VerificationReport(
        check=check, model=m.label(), params=params,
        status=status_of(ff, tainted), max_residual=worst, first_failure=ff,
    )


def group_law_check(m: UmbralModel, order: int) -> VerificationReport:
    """Compare pi(x1,y1) pi(x2,y2) against exp(-x1*y2) pi(x1+x2, y1+y2),
    pi(x, y) = exp(-y L) exp(-x R), coefficient by coefficient up to the
    given total order.  Both sides are exact on basis indices up to
    n_max - order.  Decided on the Fock twin where the model has one.

    This is the group law pi(s1,x1,y1) pi(s2,x2,y2) =
    pi(s1+s2+x1*y2, x1+x2, y1+y2) with the centre's factor exp(-s)
    dropped: it multiplies the identity word, so each coefficient at
    s1^a s2^d is (-1)^(a+d)/(a! d!) times the one at a = d = 0, over
    the same words.  Those lie at a higher total order than their s-free
    twin, so they fail only after it and carry no mark it lacks: the
    first failure, the taint and the residual are those of the six
    coordinates."""
    output_degree = _require_cap(m, order)
    if (moved := on_fock_twin(m, group_law_check, order)) is not None:
        return moved
    return _formal_report("group-law", m, order, output_degree, *_group_law_sides(m, order))


def weyl_relation_check(m: UmbralModel, order: int) -> VerificationReport:
    """exp(yL) exp(xR) = exp(xy) exp(xR) exp(yL), order by order.  At
    total order 2 this is exactly the commutation relation
    [L, R] = I.  Decided on the Fock twin where the model has one."""
    output_degree = _require_cap(m, order)
    if (moved := on_fock_twin(m, weyl_relation_check, order)) is not None:
        return moved
    return _formal_report("weyl-relation", m, order, output_degree, *_weyl_sides(m, order))


def composition_check_formal(m: UmbralModel, order: int) -> VerificationReport:
    """Twisted convolution: rep(k1) rep(k2) against rep(k1 twisted k2),
    k1 = c1 a_1 + c2 a_2 and k2 = c3 a_3 + c4 a_4, atom i being
    a(x_i, y_i) = exp(y_i L) exp(x_i R) and (c1, c2, c3, c4) = (1, 2/3,
    3, 1/5), read off ``group_law_check``'s report, transport included.
    The difference of the sides is the sum over i in {1, 2}, j in {3, 4}
    of c_i c_j G(atom i, atom j), G(v) being the group law's difference
    at -v: its coefficients are +-c_i c_j times the group law's, over the
    same words, placed on atoms i and j.  A coefficient with no power of
    atom i, or none of atom j, is one product of exponentials on both
    sides and cancels word by word.  Of the four placements of one index
    the first in (total, lex) order is on atoms 2 and 4, and those keep
    the group law's order: so the first failure is the group law's on
    atoms 2 and 4, its residual c2 c4 = 2/15 times the group law's, the
    taint that of the same word sets, the refusals ``_require_cap``'s."""
    r = group_law_check(m, order)
    ff = r.first_failure
    if ff is not None:
        names = dict(x1="x2", y1="y2", x2="x4", y2="y4")
        ff = {"multi_index": {names[k]: n for k, n in ff["multi_index"].items()}}
    return replace(
        r, check="twisted-composition", first_failure=ff,
        max_residual=r.max_residual * Fraction(2, 15),
    )


# ---------------------------------------------------------------------------
# discrete kernels and twisted convolution
# ---------------------------------------------------------------------------

#: One atom of a kernel, canonical: ((x, y, log_weight), coef).
Atom = tuple[tuple[Fraction, Fraction, Fraction], Fraction]


class DiscreteKernel:
    """Finite atomic kernel: point masses coef * exp(log_weight) placed
    at ladder parameters (x, y), the exponent kept rational so that
    kernel equality is decidable.  ``atoms`` holds them canonically as
    ((x, y, log_weight), coef) pairs: atoms sharing (x, y, log_weight)
    are merged, zero coefficients dropped, order fixed by
    (x, y, log_weight)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Atom] = ()):
        merged: dict[tuple, Fraction] = {}
        for k, q in atoms:
            merged[k] = merged.get(k, ZERO) + q
        self.atoms: tuple[Atom, ...] = tuple((k, q) for k, q in sorted(merged.items()) if q)

    @classmethod
    def atom(
        cls,
        coef: Fraction | int | str,
        log_weight: Fraction | int | str = 0,
        x: Fraction | int | str = 0,
        y: Fraction | int | str = 0,
    ) -> "DiscreteKernel":
        key = (as_fraction(x), as_fraction(y), as_fraction(log_weight))
        return cls([(key, as_fraction(coef))])

    @classmethod
    def delta(cls) -> "DiscreteKernel":
        """Unit mass at the origin: the identity for the twisted
        product."""
        return cls.atom(1)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteKernel):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({format_rational(q)})e^{format_rational(w)}"
            f"@({format_rational(x)},{format_rational(y)})"
            for (x, y, w), q in self.atoms
        )
        return f"DiscreteKernel[{inner}]"

    def __add__(self, other: "DiscreteKernel") -> "DiscreteKernel":
        return DiscreteKernel(self.atoms + other.atoms)


def twisted_convolve(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """Atom-by-atom product law: positions add, coefficients multiply,
    exponents add and pick up the reorder phase -x1*y2 from moving
    exp(x1 R) past exp(y2 L)."""
    return DiscreteKernel(
        ((x1 + x2, y1 + y2, w1 + w2 - x1 * y2), q1 * q2)
        for (x1, y1, w1), q1 in k1.atoms
        for (x2, y2, w2), q2 in k2.atoms
    )


def twisted_convolve_check() -> VerificationReport:
    """Structural checks that need no model: the origin atom is a
    two-sided identity and a three-atom associativity instance holds
    with exponents compared exactly."""
    k1 = DiscreteKernel.atom(1, 0, 1, 0) + DiscreteKernel.atom("2/3", "1/2", 0, "1/3")
    k2 = DiscreteKernel.atom(3, 0, "1/2", 1)
    k3 = DiscreteKernel.atom("1/5", "-1/4", "2/7", "3/2")
    d = DiscreteKernel.delta()
    failures = []
    if twisted_convolve(k1, d) != k1 or twisted_convolve(d, k1) != k1:
        failures.append("identity")
    lhs = twisted_convolve(twisted_convolve(k1, k2), k3)
    rhs = twisted_convolve(k1, twisted_convolve(k2, k3))
    if lhs != rhs:
        failures.append("associativity")
    reorder = twisted_convolve(
        DiscreteKernel.atom(1, 0, 1, 0), DiscreteKernel.atom(1, 0, 0, 1)
    )
    if reorder != DiscreteKernel.atom(1, -1, 1, 1):
        failures.append("reorder-phase")
    ff = failures[0] if failures else None
    return VerificationReport(
        check="twisted-convolution",
        model=None,
        params={"atoms": [len(k1), len(k2), len(k3)]},
        status=status_of(ff),
        max_residual=ZERO if ff is None else None,
        first_failure=ff,
    )


# ---------------------------------------------------------------------------
# squared-ladder sl(2) structure
# ---------------------------------------------------------------------------

#: The bracket constants (lam, lam_minus, lam_plus) of the squared-ladder
#: triple: [lower2, raise2] = lam z, [z, lower2] = lam_minus lower2 and
#: [z, raise2] = lam_plus raise2.
METAPLECTIC_CONSTANTS = (Fraction(4), Fraction(-2), Fraction(2))


def metaplectic(m: UmbralModel) -> tuple[LinearOp, LinearOp, LinearOp]:
    """The squared-ladder triple (lower2, raise2, z) with
    z = raise lower + 1/2: the normalization makes [lower2, raise2]
    close onto 4z with no identity term, and the constants (4, -2, 2)
    are the same for every model with [lower, raise] = I."""
    words = m.words
    l2 = words.op("LL")
    r2 = words.op("RR")
    z = words.op("RL") + words.op("").scale(Fraction(1, 2))
    return l2, r2, z


def metaplectic_check(m: UmbralModel) -> list[VerificationReport]:
    """Verify all three brackets of the squared-ladder triple on every
    basis column the cap can certify, i.e. indices up to n_max - 2.  A
    check that would compare no column (n_max < 2) raises
    ParameterError.  Decided on the Fock twin where the model has one;
    ``max_degree``, the last degree compared, is then the model's."""
    cols = [m.degree_of_index(j) for j in range(m.n_max - 1)]
    if not cols:
        raise ParameterError(
            f"metaplectic check has no basis column to compare on {m.label()} "
            f"(n_max = {m.n_max}); it needs n_max >= 2"
        )
    if (moved := on_fock_twin(m, metaplectic_check, max_degree=cols[-1])) is not None:
        return moved
    l2, r2, z = metaplectic(m)
    lam, lam_minus, lam_plus = METAPLECTIC_CONSTANTS
    checks = [
        ("sl2-commutator", op_commutator(l2, r2), z.scale(lam)),
        ("sl2-z-lowering", op_commutator(z, l2), l2.scale(lam_minus)),
        ("sl2-z-raising", op_commutator(z, r2), r2.scale(lam_plus)),
    ]
    params = {
        "constants": [format_rational(q) for q in METAPLECTIC_CONSTANTS],
        "max_degree": cols[-1],
    }
    out = []
    for name, lhs, rhs in checks:
        bad, tainted = lhs.compare_on_columns(rhs, cols)
        worst, ff = ZERO, None
        if bad is not None:
            worst = max_abs_entry(lhs - rhs, [bad])
            ff = {"degree": bad}
        out.append(VerificationReport(
            check=name, model=m.label(), params=dict(params),
            status=status_of(ff, tainted), max_residual=worst, first_failure=ff,
        ))
    return out


def metaplectic_sequences(
    m: UmbralModel,
) -> tuple[list[Fraction], list[Fraction], list[Fraction], bool]:
    """Diagonal data (a, b, c) of the squared-ladder triple on the
    even-index sub-ladder q_k = p_{2k}: lower2 q_k = a_k q_{k-1},
    raise2 q_k = b_k q_{k+1}, z q_k = c_k q_k, extracted honestly as
    entries of the product D S B of the dual matrix, each squared
    ladder S and the even basis columns, and the truncation flag of
    the images S p_2k it reads: the marks of S B on those columns.
    The top raising entry cannot be read off a capped space and is
    stored as 0; the closure solver never consults it.  Each image
    must lie in the model's space, at or below the top basis degree,
    and its expansion D S p_2k must have one nonzero, on the expected
    index; anything else there leaks."""
    top = m.n_max // 2
    basis, d = m.basis_op, m.dual_op
    b_even = LinearOp(
        [col if n % 2 == 0 else EMPTY for n, col in enumerate(basis.cols)],
        basis.den, basis.cap, basis.trunc_cols,
    )
    l2, r2, z = metaplectic(m)
    low, diag, high = (op @ b_even for op in (l2, z, r2))
    d_low, d_diag, d_high = d @ low, d @ diag, d @ high

    def entry(expanded: LinearOp, k: int, want: int, what: str) -> Fraction:
        rows, vals = expanded.cols[2 * k]
        for n in rows:
            if n != want:
                raise ParameterError(
                    f"{what} is not diagonal on {m.label()}: "
                    f"index {2 * k} leaks onto {n}"
                )
        return Fraction(vals[0], expanded.den) if rows else ZERO

    a: list[Fraction] = []
    b: list[Fraction] = []
    c: list[Fraction] = []
    for k in range(top + 1):
        require_column_input(m, low.cols[2 * k][0])
        require_column_input(m, diag.cols[2 * k][0])
        a.append(entry(d_low, k, 2 * k - 2, "squared lowering"))
        c.append(entry(d_diag, k, 2 * k, "z"))
        if k < top:
            require_column_input(m, high.cols[2 * k][0])
            b.append(entry(d_high, k, 2 * k + 2, "squared raising"))
        else:
            b.append(ZERO)
    reads = ((low, top + 1), (diag, top + 1), (high, top))
    tainted = any(2 * k in image.trunc_cols for image, count in reads for k in range(count))
    return a, b, c, tainted


@dataclass(frozen=True)
class Sl2LadderResult:
    """Outcome of the diagonal closure check for ladder sequences."""

    ok: bool
    lam: Fraction
    lam_minus: Fraction
    lam_plus: Fraction
    first_violation: tuple[str, int] | None

    @property
    def constants(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.lam, self.lam_minus, self.lam_plus)


def generic_sl2_ladder(
    a: Sequence[Fraction | int | str],
    b: Sequence[Fraction | int | str],
    c: Sequence[Fraction | int | str],
) -> Sl2LadderResult:
    """Given diagonal ladder data (lower p_n = a_n p_{n-1},
    raise p_n = b_n p_{n+1}, z p_n = c_n p_n), solve for the bracket
    constants from the first two index diagonals and verify closure at
    every n <= N-1.  Failures come back as a located report, not an
    exception.  The top entry b_N never enters the check (it would act
    on an index outside the space)."""
    fa = [as_fraction(q) for q in a]
    fb = [as_fraction(q) for q in b]
    fc = [as_fraction(q) for q in c]
    if not (len(fa) == len(fb) == len(fc)):
        raise ParameterError("ladder sequences must share a length")
    if len(fa) < 2:
        raise ParameterError("need sequences up to index 1 to solve for constants")
    top = len(fa) - 1

    def comm_diag(k: int) -> Fraction:
        # [lower2, raise2]-style diagonal at index k
        v = fb[k] * fa[k + 1]
        if k:
            v -= fa[k] * fb[k - 1]
        return v

    lam = ZERO
    for k in (0, 1):
        if k + 1 <= top and fc[k]:
            lam = comm_diag(k) / fc[k]
            break
    lam_minus = (fc[0] - fc[1]) if fa[1] else ZERO
    lam_plus = ZERO
    for k in (0, 1):
        if k + 1 <= top and fb[k]:
            lam_plus = fc[k + 1] - fc[k]
            break

    violation: tuple[str, int] | None = None
    if fa[0]:
        violation = ("lowering-bottom", 0)
    else:
        for k in range(top):
            if comm_diag(k) != lam * fc[k]:
                violation = ("commutator-diagonal", k)
                break
            if k >= 1 and fa[k] and fc[k - 1] - fc[k] != lam_minus:
                violation = ("z-lowering", k)
                break
            if fb[k] and fc[k + 1] - fc[k] != lam_plus:
                violation = ("z-raising", k)
                break

    return Sl2LadderResult(
        ok=violation is None,
        lam=lam, lam_minus=lam_minus, lam_plus=lam_plus,
        first_violation=violation,
    )


def sl2_closure_check(m: UmbralModel) -> VerificationReport:
    """Extract the even-index diagonal sequences from a model's squared
    ladders and confirm they close with the metaplectic constants.  A
    model with n_max < 2 holds too few to solve for the constants and
    raises ParameterError.  Decided on the Fock twin where the model has
    one."""
    if m.n_max < 2:
        raise ParameterError(
            f"sl2 closure check needs n_max >= 2 to solve for its constants; "
            f"{m.label()} has n_max = {m.n_max}"
        )
    if (moved := on_fock_twin(m, sl2_closure_check)) is not None:
        return moved
    a, b, c, tainted = metaplectic_sequences(m)
    res = generic_sl2_ladder(a, b, c)
    ff = None
    if not res.ok:
        ff = {"bracket": res.first_violation[0], "index": res.first_violation[1]}
    elif res.constants != METAPLECTIC_CONSTANTS:
        ff = {"constants": [format_rational(q) for q in res.constants]}
    return VerificationReport(
        check="sl2-closure",
        model=m.label(),
        params={
            "indices": len(a) - 1,
            "constants": [format_rational(q) for q in res.constants],
        },
        status=status_of(ff, tainted),
        max_residual=ZERO if ff is None else None,
        first_failure=ff,
    )
