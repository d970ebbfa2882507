"""Ladder-exponential group structure, checked without truncation lies.

Three layers share this module:

* order-by-order verification of the ladder-exponential identities
  (the representation's composition law and the operator reorder rule)
  as :class:`~umbra.formal.FormalOpSeries` comparisons;
* finite atomic kernels composed by twisted convolution, with the
  reorder phase kept as an exact rational exponent;
* the squared-ladder sl(2) triple (lower^2, raise^2, raise lower + 1/2)
  and a diagonal closure solver for generic ladder sequences.

Throughout, ``iota`` is fixed at 1: the reorder rule reads
exp(yL) exp(xR) = exp(xy) exp(xR) exp(yL), and the phase picked up when
atoms pass each other is exp(-x1*y2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    CapShortfallError,
    LinearOp,
    ONE,
    ParameterError,
    ZERO,
    as_fraction,
    format_rational,
    op_commutator,
)
from .formal import FormalOpSeries, OpWordTable, max_abs_entry, series_first_difference
from .models import UmbralModel
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


def _exp_ladder_series(
    table: OpWordTable,
    letter: str,
    params: tuple[str, ...],
    order: int,
    slots: Sequence[int],
    sign: int,
) -> FormalOpSeries:
    """exp(sign * (sum of the slot parameters) * A), A the operator of
    ``letter``; the letter "" is the identity, for a scalar
    exponential.  One or two parameter slots.  The numerators are over
    order!: the one at parameter powers r (total t) is
    sign^t order! / prod r!."""
    f = math.factorial(order)
    out = FormalOpSeries(params, order, table, f)
    for total in range(order + 1):
        if len(slots) == 1:
            splits: Iterable[tuple[int, ...]] = [(total,)]
        else:
            splits = [(r, total - r) for r in range(total + 1)]
        for split in splits:
            idx = [0] * len(params)
            n = sign ** total * f
            for slot, r in zip(slots, split):
                idx[slot] = r
                n //= math.factorial(r)
            out.add_numerator(tuple(idx), n, letter * total)
    return out


def _phase_series(
    table: OpWordTable,
    params: tuple[str, ...],
    order: int,
    x_slot: int,
    y_slot: int,
    sign: int,
) -> FormalOpSeries:
    """exp(sign * x * y) as a scalar series carried on the identity,
    its numerators over (order // 2)!."""
    top = order // 2
    f = math.factorial(top)
    out = FormalOpSeries(params, order, table, f)
    for k in range(top + 1):
        idx = [0] * len(params)
        idx[x_slot] = k
        idx[y_slot] = k
        out.add_numerator(tuple(idx), sign ** (k & 1) * f // math.factorial(k), "")
    return out


def _pi_series(
    table: OpWordTable,
    params: tuple[str, ...],
    order: int,
    s_slot: int,
    x_slot: int,
    y_slot: int,
) -> FormalOpSeries:
    """exp(-s) exp(-y L) exp(-x R) expanded in the given parameter
    slots: the coefficient at s^a x^c y^b is (-1)^(a+b+c)/(a!b!c!)
    times the word L^b R^c."""
    def exp(letter: str, slot: int) -> FormalOpSeries:
        return _exp_ladder_series(table, letter, params, order, (slot,), -1)

    return exp("", s_slot).mul(exp("L", y_slot)).mul(exp("R", x_slot))


def _safe_columns(m: UmbralModel, output_degree: int) -> list[int]:
    return [m.degree_of_index(j) for j in range(output_degree + 1)]


def _formal_report(
    check: str,
    m: UmbralModel,
    order: int,
    output_degree: int,
    lhs: FormalOpSeries,
    rhs: FormalOpSeries,
) -> VerificationReport:
    cols = _safe_columns(m, output_degree)
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
    """Compare pi(s1,x1,y1) pi(s2,x2,y2) against
    pi(s1+s2+x1*y2, x1+x2, y1+y2) coefficient by coefficient up to the
    given total order.  Both sides are exact on basis indices up to
    n_max - order."""
    output_degree = _require_cap(m, order)
    params = ("s1", "x1", "y1", "s2", "x2", "y2")
    table = m.words
    lhs = _pi_series(table, params, order, 0, 1, 2).mul(
        _pi_series(table, params, order, 3, 4, 5)
    )

    def exp(letter: str, slots: tuple[int, int]) -> FormalOpSeries:
        return _exp_ladder_series(table, letter, params, order, slots, -1)

    # exp(-(s1+s2+x1*y2)) exp(-(y1+y2) L) exp(-(x1+x2) R): each
    # (index, word) pair receives one product term
    phase = _phase_series(table, params, order, 1, 5, -1)
    rhs = exp("", (0, 3)).mul(phase).mul(exp("L", (2, 5))).mul(exp("R", (1, 4)))
    return _formal_report("group-law", m, order, output_degree, lhs, rhs)


def weyl_relation_check(m: UmbralModel, order: int) -> VerificationReport:
    """exp(yL) exp(xR) = exp(xy) exp(xR) exp(yL), order by order.  At
    total order 2 this is exactly the commutation relation
    [L, R] = I."""
    output_degree = _require_cap(m, order)
    params = ("x", "y")
    table = m.words
    exp_r = _exp_ladder_series(table, "R", params, order, (0,), +1)
    exp_l = _exp_ladder_series(table, "L", params, order, (1,), +1)
    lhs = exp_l.mul(exp_r)
    phase = _phase_series(table, params, order, 0, 1, +1)
    rhs = phase.mul(exp_r.mul(exp_l))
    return _formal_report("weyl-relation", m, order, output_degree, lhs, rhs)


def composition_check_formal(m: UmbralModel, order: int) -> VerificationReport:
    """Twisted-convolution composition with every atom position made a
    formal parameter: rep(k1) rep(k2) against rep(k1 twisted k2) for a
    pair of two-atom kernels with fixed rational coefficients.  The
    phase exp(-x_i y_j) appears on the right as a formal scalar
    series, so the comparison is exact order by order."""
    output_degree = _require_cap(m, order)
    params = ("x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4")
    table = m.words

    coefs = {1: ONE, 2: Fraction(2, 3), 3: Fraction(3), 4: Fraction(1, 5)}

    def exp(letter: str, slots: tuple[int, ...]) -> FormalOpSeries:
        return _exp_ladder_series(table, letter, params, order, slots, +1)

    def atom_series(i: int) -> FormalOpSeries:
        """coef_i exp(y_i L) exp(x_i R)."""
        x_slot, y_slot = 2 * (i - 1), 2 * (i - 1) + 1
        return exp("L", (y_slot,)).mul(exp("R", (x_slot,))).scale(coefs[i])

    k1 = atom_series(1) + atom_series(2)
    k2 = atom_series(3) + atom_series(4)
    lhs = k1.mul(k2)

    rhs = FormalOpSeries(params, order, table)
    for i in (1, 2):
        for j in (3, 4):
            xi, yi = 2 * (i - 1), 2 * (i - 1) + 1
            xj, yj = 2 * (j - 1), 2 * (j - 1) + 1
            phase = _phase_series(table, params, order, xi, yj, -1)
            pair = phase.mul(exp("L", (yi, yj)).mul(exp("R", (xi, xj))))
            rhs = rhs + pair.scale(coefs[i] * coefs[j])

    return _formal_report(
        "twisted-composition", m, order, output_degree, lhs, rhs
    )


# ---------------------------------------------------------------------------
# discrete kernels and twisted convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelAtom:
    """One weighted point mass: value = coef * exp(log_weight) placed
    at ladder parameters (x, y).  The exponent stays rational so kernel
    equality is decidable."""

    coef: Fraction
    log_weight: Fraction
    x: Fraction
    y: Fraction

    def _key(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.log_weight)


class DiscreteKernel:
    """Finite atomic kernel, canonicalized: atoms sharing
    (x, y, log_weight) are merged, zero coefficients dropped, order
    fixed by (x, y, log_weight)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[KernelAtom] = ()):
        merged: dict[tuple, Fraction] = {}
        for a in atoms:
            k = a._key()
            merged[k] = merged.get(k, ZERO) + as_fraction(a.coef)
        self.atoms: tuple[KernelAtom, ...] = tuple(
            KernelAtom(coef=q, log_weight=k[2], x=k[0], y=k[1])
            for k, q in sorted(merged.items())
            if q
        )

    @classmethod
    def atom(
        cls,
        coef: Fraction | int | str,
        log_weight: Fraction | int | str = 0,
        x: Fraction | int | str = 0,
        y: Fraction | int | str = 0,
    ) -> "DiscreteKernel":
        return cls([KernelAtom(
            as_fraction(coef), as_fraction(log_weight),
            as_fraction(x), as_fraction(y),
        )])

    @classmethod
    def delta(cls) -> "DiscreteKernel":
        """Unit mass at the origin: the identity for the twisted
        product."""
        return cls.atom(1)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteKernel):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({format_rational(a.coef)})e^{format_rational(a.log_weight)}"
            f"@({format_rational(a.x)},{format_rational(a.y)})"
            for a in self.atoms
        )
        return f"DiscreteKernel[{inner}]"

    def __add__(self, other: "DiscreteKernel") -> "DiscreteKernel":
        return DiscreteKernel(list(self.atoms) + list(other.atoms))


def twisted_convolve(k1: DiscreteKernel, k2: DiscreteKernel) -> DiscreteKernel:
    """Atom-by-atom product law: positions add, coefficients multiply,
    exponents add and pick up the reorder phase -x1*y2 from moving
    exp(x1 R) past exp(y2 L)."""
    out = []
    for a in k1:
        for b in k2:
            out.append(KernelAtom(
                coef=a.coef * b.coef,
                log_weight=a.log_weight + b.log_weight - a.x * b.y,
                x=a.x + b.x,
                y=a.y + b.y,
            ))
    return DiscreteKernel(out)


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
    ParameterError."""
    cols = [m.degree_of_index(j) for j in range(m.n_max - 1)]
    if not cols:
        raise ParameterError(
            f"metaplectic check has no basis column to compare on {m.label()} "
            f"(n_max = {m.n_max}); it needs n_max >= 2"
        )
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
    raises ParameterError."""
    if m.n_max < 2:
        raise ParameterError(
            f"sl2 closure check needs n_max >= 2 to solve for its constants; "
            f"{m.label()} has n_max = {m.n_max}"
        )
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
