"""Catalog of umbral models.

A model packages a graded polynomial basis p_0..p_N together with the
ladder pair: a lowering operator with L p_n = p_{n-1}, L p_0 = 0, a
raising operator with R p_n = (n+1) p_{n+1}, the vacuum functional
l_0 with <l_0, p_n> = delta_{0n}, stored as an integer row over one
denominator, and the structure constant
iota = 1 (``IOTA``) fixed once for the whole package, so that
[R, L] = -I on the safe zone.

The catalog is three one-parameter families, and each catalog name is
one family at one parameter:

Appell (variance s)   p_n = He_n/n!, He_{n+1} = t He_n - s n He_{n-1},
                      L = d/dt, R = t* - s d/dt; the vacuum is the
                      expectation under the centred Gaussian of variance s
  ``monomial``        s = 0: p_n = t^n/n!, R = t*, vacuum f(0)
  ``hermite``         s = 1: probabilists' He_n/n!; the vacuum is the
                      Gaussian expectation, *not* evaluation at 0
factorial (step h)    p_n = t(t-h)...(t-h(n-1))/n!,
                      L f = h (f(t+h) - f(t)), R f(t) = t f(t-h)
  ``lower-factorial`` h = 1: L = forward difference
  ``upper-factorial`` h = -1: L = backward difference
even (nu >= 0)        q_n = t^{2n}/c_n with c_n = prod 2k(2k+nu-1),
                      L = B_nu = d^2/dt^2 + (nu/t) d/dt on even
                      polynomials, R : t^{2n} -> t^{2n+2}/(2(2n+nu+1))
  ``heat``            nu = 0: p_n = t^{2n}/(2n)!, L = d^2/dt^2
  ``bessel``          nu > 0, given with the name

A model stores its basis once, as the integer basis matrix B
(``basis_op``): column n is p_n, as integer numerators over one
denominator, for n <= n_max; the columns above are zero, and B's
truncation marks are the flagged p_n.  Every builder emits B, L and R
as kernel columns, each from a closed form or a recurrence, with no
dense coefficient list and no operator arithmetic.  The factorial
raising is the closed form R = t f'(D)^{-1} of the delta operator
L = f(D) (finite operator calculus); on the capped space it loses
(n_max+1) p_{n_max+1} from its top column, which is marked truncated.
The duals l_k = l_0 L^k are integer rows too (``dual_functionals``),
stacked once per model into the dual matrix D (``dual_op``), marked on
the closure of L's marks (``dual_marks``): every column from which a
power of L reads a marked column.  l_0 pairs with a column by
``vacuum_step``, and a walk through L^k f needs neither D nor its rows.

Each model axiom is an identity on one p_n at a time: one loop over
B's columns decides them all (``_axiom_outcome``), with no operator product.

The even models grade by basis index n <-> degree 2n and live on the
even subspace only; applying their operators to a polynomial with
odd-degree content raises DomainError (for the Bessel lowering this is
forced: B_nu t = nu/t is not a polynomial).  A model refuses what lies
outside its space: ``require_poly`` a ``Poly`` (space, then cap) and
``require_column`` a kernel column (space, then top basis degree).
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .core import (
    CapMismatchError,
    DomainError,
    LinearOp,
    ONE,
    ParameterError,
    Poly,
    Record,
    ZERO,
    as_fraction,
    format_rational,
    outcome,
)
from .formal import OpWordTable
from .kernels import EMPTY, Column, icol, icol_eq, icol_mul, imat_transpose

_R = TypeVar("_R")

IOTA = ONE  # structure constant of the Heisenberg relation, fixed package-wide

#: e_0 over the denominator 1: the row of evaluation at 0
EVAL0: tuple[Column, int] = (((0,), (1,)), 1)


class Parity(enum.Enum):
    ALL = "all"
    EVEN = "even"


class UmbralModel(Record):
    """A ladder model: ``n_max`` is the top basis index, ``degree_cap``
    the cap of the ambient polynomial space, ``basis_op`` B (column n is
    p_n, marked when p_n is flagged), ``vacuum`` l_0 (an integer row over
    one positive denominator) and ``nu`` the Bessel parameter, if any.
    What is derived from it is cached in its ``__dict__``."""

    _fields = ("name", "n_max", "degree_cap", "parity", "basis_op", "lowering", "raising",
               "vacuum", "shift_invariant", "nu")

    def __init__(
        self, name: str, n_max: int, degree_cap: int, parity: Parity, basis_op: LinearOp,
        lowering: LinearOp, raising: LinearOp, vacuum: tuple[Column, int],
        shift_invariant: bool, nu: Fraction | None = None,
    ) -> None:
        self.name, self.n_max, self.degree_cap, self.parity = name, n_max, degree_cap, parity
        self.basis_op, self.lowering, self.raising = basis_op, lowering, raising
        self.vacuum, self.shift_invariant, self.nu = vacuum, shift_invariant, nu

    def label(self) -> str:
        if self.nu is not None:
            return f"{self.name}(nu={format_rational(self.nu)})"
        return self.name

    def degree_of_index(self, n: int) -> int:
        return 2 * n if self.parity is Parity.EVEN else n

    def check_degrees_in_space(self, degrees: Iterable[int]) -> None:
        """Raise DomainError if the polynomial with these nonzero
        degrees, in increasing order, lies outside the model's graded
        space (odd-degree content for the even-parity models)."""
        if self.parity is Parity.EVEN:
            for k in degrees:
                if k % 2:
                    raise DomainError(
                        f"{self.label()} lives on even polynomials; "
                        f"input has a nonzero t^{k} coefficient"
                    )

    def require_poly(self, f: Poly) -> None:
        """Refuse a polynomial outside the model's space or at another
        cap, in that order."""
        self.check_degrees_in_space(k for k, c in enumerate(f.coeffs) if c)
        if f.cap != self.degree_cap:
            raise CapMismatchError(f"input cap {f.cap} differs from model cap {self.degree_cap}")

    def require_column(self, rows: Sequence[int]) -> None:
        """Refuse a kernel column, given by its nonzero rows, outside the
        model's space or above its top basis degree, in that order."""
        self.check_degrees_in_space(rows)
        top = self.degree_of_index(self.n_max)
        if rows and rows[-1] > top:
            raise DomainError(f"degree {rows[-1]} exceeds the top basis degree {top}")

    def vacuum_is_eval0(self) -> bool:
        return icol_eq(*self.vacuum, *EVAL0)

    def vacuum_step(self, vec: Column, den: int, tainted: bool) -> tuple[Column, int, bool]:
        """<l_0, vec> as a one-row ``LinearOp.step``: row 0 over den * l_0's den."""
        (rows, vals), vden = self.vacuum
        at = dict(zip(*vec))
        x = sum([v * at[i] for i, v in zip(rows, vals) if i in at])
        return ((0,), (x,)) if x else EMPTY, den * vden, tainted

    @functools.cached_property
    def dual_marks(self) -> frozenset[int]:
        """D's marks: the closure of L's marks under L's sparsity pattern,
        which holds each mark ``@`` gives a power L^k."""
        low, marks = self.lowering, set(self.lowering.trunc_cols)
        while new := {j for j, (r, _) in enumerate(low.cols) if not marks.isdisjoint(r)} - marks:
            marks |= new
        return frozenset(marks)

    @functools.cached_property
    def dual_op(self) -> LinearOp:
        """D, whose row k is the dual l_k = l_0 o L^k, computed once per
        model: each row of ``dual_functionals`` put over the last one's
        denominator vden * L.den^n_max, and marked on ``dual_marks``."""
        duals, cap = dual_functionals(self), self.degree_cap
        den = duals[-1][1]
        rows = [(r, tuple(x * (den // d) for x in v)) for (r, v), d in duals]
        return LinearOp(imat_transpose(rows, cap + 1), den, cap, self.dual_marks)

    @functools.cached_property
    def words(self) -> OpWordTable:
        """The one table of ladder-word operators that the formal
        checks and the squared-ladder triple share."""
        return OpWordTable(self.lowering, self.raising)

    @functools.cached_property
    def lowering_outcome(self) -> tuple[int | None, bool]:
        """The outcome of L p_n = p_(n-1) on n = 0..n_max (``_axiom_outcome``)."""
        b, top = self.basis_op, self.n_max
        return _axiom_outcome(self, self.lowering.step, lambda n: _multiple(b, n - 1, 1), top)

    @functools.cached_property
    def raising_outcome(self) -> tuple[int | None, bool]:
        """The outcome of R p_n = (n+1) p_(n+1) on n = 0..n_max-1."""
        b, top = self.basis_op, self.n_max - 1
        return _axiom_outcome(self, self.raising.step, lambda n: _multiple(b, n + 1, n + 1), top)

    @functools.cached_property
    def vacuum_outcome(self) -> tuple[int | None, bool]:
        """The outcome of <l_0, p_n> = delta_0n on n = 0..n_max."""
        e0, top = EVAL0[0], self.n_max
        return _axiom_outcome(
            self, self.vacuum_step, lambda n: (EMPTY if n else e0, 1, False), top)

    @functools.cached_property
    def lowering_premise(self) -> bool:
        """The part of ``premise`` that the expansion theorem reads
        (``translations``), d being ``degree_of_index``: the lowering and
        vacuum axioms find no failure and no taint (a mark of B on
        p_0..p_n_max taints both); no mark of L lies at or below d(n_max);
        and B is graded triangular: p_n lies in the model's space, with
        its top nonzero coefficient at t^d(n)."""
        top, d, b = self.n_max, self.degree_of_index, self.basis_op
        marked = any(j <= d(top) for j in self.lowering.trunc_cols)
        even = self.parity is Parity.EVEN
        graded = all(
            rows and rows[-1] == d(n) and not (even and any(i % 2 for i in rows))
            for n, (rows, _) in enumerate(b.cols[: top + 1])
        )
        outcomes = (self.lowering_outcome, self.vacuum_outcome)
        return graded and not marked and all(o == (None, False) for o in outcomes)

    @functools.cached_property
    def premise(self) -> bool:
        """The premise of the Fock twin (``fock_twin``): the
        ``lowering_premise``, and the raising axiom finds no failure and
        no taint, with no mark of R at or below d(n_max-1)."""
        d = self.degree_of_index
        return (
            self.lowering_premise
            and not any(j <= d(self.n_max - 1) for j in self.raising.trunc_cols)
            and self.raising_outcome == (None, False)
        )

    @functools.cached_property
    def fock_twin(self) -> UmbralModel | None:
        """monomial(n_max), on whose Fock pair (d/dt, t*) the ladder-word
        checks, biorthogonality, covariant and the transmutation check
        decide this model (``on_fock_twin``; the arguments are in
        ``heisenberg`` and ``transforms``), or None when the model fails
        the ``premise``; the pair is its own twin.  The pair is one
        object per process (``_fock_pair``), so every model of one degree
        shares it, and with it the reports each check gave there."""
        return _fock_pair(self.n_max) if self.premise else None

    @functools.cached_property
    def transported(self) -> dict[tuple[Callable[..., object], tuple], object]:
        """What each check gave on this model as a Fock twin, keyed by
        (check, args): ``on_fock_twin`` runs a check on the pair once and
        reads it here after that.
        Exact because the pair is built from n_max alone and is frozen,
        nothing writes to an operator's columns in place, and a check is
        a pure function of (models, args)."""
        return {}


def _basis_op(cap: int, polys: Sequence[tuple[Column, int]]) -> LinearOp:
    """B from p_n = c / d for the pairs (c, d) of ``polys``, c a kernel
    column, d > 0: column n is c times lcm(d) // d, the columns above zero."""
    den = math.lcm(*(d for _, d in polys))
    cols = [(rows, tuple([c * x for x in vals])) for (rows, vals), d in polys for c in (den // d,)]
    return LinearOp(cols + [EMPTY] * (cap + 1 - len(cols)), den, cap)


def _derivative_op(cap: int) -> LinearOp:
    return LinearOp([EMPTY] + [((j - 1,), (j,)) for j in range(1, cap + 1)], 1, cap)


def _mult_by_t_op(cap: int) -> LinearOp:
    return LinearOp([((j + 1,), (1,)) for j in range(cap)] + [EMPTY], 1, cap, {cap})


def _checked_cap(n_max: int, cap: int | None, parity: Parity) -> int:
    """The degree cap, by default the degree of p_{n_max}; refuses a
    cap below that degree."""
    even = parity is Parity.EVEN
    top = 2 * n_max if even else n_max
    cap = top if cap is None else cap
    if cap < top:
        raise CapMismatchError(f"degree cap below top basis {'degree' if even else 'index'}")
    return cap


def _build_appell(name: str, n_max: int, cap: int | None, s: int) -> UmbralModel:
    """Appell model p_n = He_n/n! for the Hermite polynomials of
    variance s, He_{n+1} = t He_n - s n He_{n-1}: L = d/dt and
    R = t* - s d/dt.  The vacuum is the expectation under the centred
    Gaussian of variance s, which kills every He_n with n >= 1:
    <l_0, t^k> = s^{k/2} (k-1)!! for even k <= n_max, else 0.  It is
    evaluation at 0 only when s = 0 (He_2(0) = -s).  Column j of R is
    t^(j+1) - s j t^(j-1); the top column loses t^(cap+1), and is marked."""
    cap = _checked_cap(n_max, cap, Parity.ALL)
    # He_n = t^n at s = 0; else He_(n+1) = t He_n - s n He_(n-1), on its rows
    he = [((n,), (1,)) for n in range(2 if s else n_max + 1)]
    for n in range(len(he) - 1, n_max):
        (_, a), (_, b) = he[-1], he[-2]
        a = (0, *a) if n % 2 else a
        vals = tuple([x - s * n * y for x, y in zip(a, (*b, 0))])
        he.append((tuple(range(1 - n % 2, n + 2, 2)), vals))
    moments = [0 if k % 2 else s ** (k // 2) * math.prod(range(k - 1, 0, -2))
               for k in range(n_max + 1)]
    raising = [((j - 1, j + 1), (-s * j, 1)) if s and j else ((j + 1,), (1,)) for j in range(cap)]
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.ALL,
        basis_op=_basis_op(cap, [(c, math.factorial(n)) for n, c in enumerate(he)]),
        lowering=_derivative_op(cap),
        raising=LinearOp(raising + [((cap - 1,), (-s * cap,)) if s else EMPTY], 1, cap, {cap}),
        vacuum=(icol(moments), 1),
        shift_invariant=True,
    )


def _build_factorial(name: str, n_max: int, cap: int | None, step: int) -> UmbralModel:
    """c_n = t(t-step)...(t-step(n-1)), p_n = c_n/n!, with the ladder
    pair in closed form: L f = step*(f(t+step) - f(t)) and
    R f = t f(t-step).  Column j < cap of R is t(t-step)^j.  The top
    column is t(t-step)^cap less the (n_max+1) p_{n_max+1} = c_{cap+1}
    term that leaves the space; their t^{cap+1} terms cancel.  Each of
    c_n, L and R has no zero below its top entry, so each column is one
    recurrence's numerators on consecutive rows."""
    cap = n_max if cap is None else cap
    if cap != n_max:
        raise CapMismatchError(
            "factorial models need the degree cap equal to the top basis "
            "index (the top raising column is defined relative to cap = n_max)"
        )
    # c_{n+1} = (t - step*n) c_n, for n = 1..cap
    cs, c = [((0,), (1,)), ((1,), (1,))], (1,)
    for n in range(1, cap + 1):
        c = tuple([y - step * n * x for x, y in zip((*c, 0), (0, *c))])
        cs.append((tuple(range(1, n + 2)), c))
    # Pascal's rule on step (t+step)^j, whose top entry step is L's
    # missing diagonal, and on (t-step)^j
    ahead, back, lowering, raising = (step,), (1,), [EMPTY], []
    for j in range(cap):
        raising.append((cs[j + 1][0], back))
        ahead = tuple([step * x + y for x, y in zip((*ahead, 0), (0, *ahead))])
        back = tuple([y - step * x for x, y in zip((*back, 0), (0, *back))])
        lowering.append((tuple(range(j + 1)), ahead[:-1]))
    top = [x - y for x, y in zip(back, cs[cap + 1][1])]
    raising.append((tuple(i + 1 for i, x in enumerate(top) if x), tuple(x for x in top if x)))
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.ALL,
        basis_op=_basis_op(cap, [(c, math.factorial(n)) for n, c in enumerate(cs[:-1])]),
        lowering=LinearOp(lowering, 1, cap),
        raising=LinearOp(raising, 1, cap, {cap}),
        vacuum=EVAL0,
        shift_invariant=True,
    )


def _build_even(name: str, n_max: int, cap: int | None, nu: Fraction) -> UmbralModel:
    """Even model q_n = t^{2n}/c_n, c_n = prod_{k<=n} 2k(2k+nu-1),
    lowered by the Bessel operator B_nu = d^2/dt^2 + (nu/t) d/dt and
    raised by t^{2n} -> t^{2n+2}/(2(2n+nu+1)), for nu >= 0.  At nu = 0
    (heat) c_n = (2n)! and B_0 = d^2/dt^2, and the model carries no nu.
    Operators are stored on the even columns only; the odd columns are
    zero and unreachable."""
    cap = _checked_cap(n_max, cap, Parity.EVEN)
    # 1/c_n = q^n / a_n in lowest terms, nu = p/q, a_n = prod_{k<=n} 2k(2kq + p - q)
    p, q, a, polys = nu.numerator, nu.denominator, 1, [(((0,), (1,)), 1)]
    for n in range(1, n_max + 1):
        a *= 2 * n * (2 * n * q + p - q)
        g = math.gcd(q**n, a)
        polys.append((((2 * n,), (q**n // g,)), a // g))
    # B_nu t^j = j (j + nu - 1) t^{j-2} and R t^j = q t^(j+2) / dens[j], each
    # over its content g: gcd(q, den) for R, as the den // dens[j] have gcd 1
    low = {j: j * (j * q + p - q) for j in range(2, cap + 1, 2)}
    g = math.gcd(q, *low.values())
    lowering = LinearOp(
        [((j - 2,), (low[j] // g,)) if j in low else EMPTY for j in range(cap + 1)], q // g, cap
    )
    dens = {j: 2 * (j * q + p + q) for j in range(0, cap - 1, 2)}
    den = math.lcm(*dens.values())
    g = math.gcd(q, den)
    raising = LinearOp(
        [((j + 2,), (q // g * (den // dens[j]),)) if j in dens else EMPTY for j in range(cap + 1)],
        den // g, cap, frozenset(j for j in range(0, cap + 1, 2) if j + 2 > cap),
    )
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.EVEN,
        basis_op=_basis_op(cap, polys),
        lowering=lowering,
        raising=raising,
        vacuum=EVAL0,
        shift_invariant=False,
        nu=nu if nu else None,
    )


def dual_functionals(m: UmbralModel) -> list[tuple[Column, int]]:
    """l_k = l_0 o L^k for k = 0..n_max, each an integer row over its own
    denominator vden * L.den^k, vden being l_0's (``vacuum``);
    bi-orthogonal to the basis: <l_k, p_n> = delta_{kn}.  A row times L
    is L^T times a column, so each step is one ``icol_mul`` with the
    transpose of L.  Each model keeps the duals only as the rows of its
    cached ``dual_op``."""
    low = m.lowering
    lt = imat_transpose(low.cols, m.degree_cap + 1)
    row, den = m.vacuum
    out = [(row, den)]
    for _ in range(m.n_max):
        row, den = icol_mul(lt, row), den * low.den
        out.append((row, den))
    return out


def require_order(m: UmbralModel, order: int) -> None:
    """Refuse a formal order below 0 or beyond the top basis index."""
    if order < 0:
        raise ParameterError("order must be >= 0")
    if order > m.n_max:
        raise CapMismatchError(f"order {order} exceeds the top basis index {m.n_max}")


def _multiple(b: LinearOp, n: int, q: Fraction | int) -> tuple[Column, int, bool]:
    """q p_n off B as (column, den, marked when B marks p_n): B's stored
    column itself when q = 1; p_n = 0 for n < 0."""
    if n < 0:
        return EMPTY, 1, False
    rows, vals = col = b.cols[n]
    col = col if q == 1 else (rows, tuple(q.numerator * x for x in vals))
    return col, b.den * q.denominator, n in b.trunc_cols


def _axiom_outcome(
    m: UmbralModel, step: Callable[..., tuple[Column, int, bool]],
    target: Callable[[int], tuple[Column, int, bool]], top: int,
) -> tuple[int | None, bool]:
    """``outcome`` of op p_n = target(n) on n = 0..top: op p_n is
    ``step`` (an operator's ``LinearOp.step``, or l_0's
    ``UmbralModel.vacuum_step``) of B's column n, tainted when B marks
    p_n, and target(n) is the right side as (column, den, marked); check
    n is marked when either side is."""
    b, indices = m.basis_op, range(top + 1)
    images = (step(b.cols[n], b.den, n in b.trunc_cols) for n in indices)
    return outcome(
        (n, icol_eq(col, den, want, wden), marked or wmarked)
        for n, (col, den, marked), (want, wden, wmarked)
        in zip(indices, images, map(target, indices))
    )


def axiom_outcomes(
    m: UmbralModel, top: int
) -> tuple[tuple[int | None, bool], tuple[int | None, bool]]:
    """The outcomes of the lowering and vacuum axioms on p_0..p_top, each
    p_n checked to lie in the model's space: the cached ones at top =
    n_max, below it the same loops on the model cut to p_0..p_top."""
    for rows, _ in m.basis_op.cols[: top + 1]:
        m.check_degrees_in_space(rows)
    cut = m if top == m.n_max else m._replace(n_max=top)
    return cut.lowering_outcome, cut.vacuum_outcome


def on_fock_twin(
    m: UmbralModel | tuple[UmbralModel, ...], check: Callable[..., _R], *args, **params
) -> _R | None:
    """``check(twin, *args)`` relabelled for m, with ``params`` over
    each report's params (otherwise the twin's: it has m's n_max), when
    m has a Fock twin (``fock_twin``) and every report there passes;
    else None, and the check runs on m itself.  m may be a tuple of
    models of one n_max, (src, dst) for the transmutation check: each
    needs a twin, the check runs on the pair in every place, and m's
    label is "src -> dst".  Each check refuses on m before it calls
    this, so its messages name m.  The twin runs each (check, args) once
    and keeps what it gave (``UmbralModel.transported``); a call on the
    pair itself gets None and runs the check's body, and a body that
    raises keeps nothing.  m gets relabelled copies of those reports,
    never the kept ones."""
    models = m if isinstance(m, tuple) else (m,)
    twin = models[0].fock_twin
    if any(x.fock_twin is None or x is twin for x in models):
        return None
    key, kept = (check, args), twin.transported
    if key not in kept:
        kept[key] = check(*[twin] * len(models), *args)
    got = kept[key]
    reports = got if isinstance(got, list) else [got]
    if not all(r.passed for r in reports):
        return None
    label = " -> ".join(x.label() for x in models)
    moved = [r._replace(model=label, params={**r.params, **params}) for r in reports]
    return moved if isinstance(got, list) else moved[0]


def verify_model(m: UmbralModel) -> list["VerificationReport"]:
    """The model axioms on p_0..p_n_max, one report each:

    * ``ladder-lowering``: L p_n = p_{n-1}, p_{-1} = 0
    * ``ladder-raising``:  R p_n = (n+1) p_{n+1} for n < n_max
    * ``vacuum``:          <l_0, p_n> = delta_{0n}
    * ``commutator``:      [R, L] p_n = -iota p_n for n < n_max
      (the top index is excluded: there the raising already truncated)

    ``_axiom_outcome`` decides each: a differing column fails, else a
    compared column marked truncated is "inconclusive".  The first three
    are the model's cached outcomes; the commutator steps R L - L R, from
    the word table.  A model with a Fock
    twin meets the first three by the premise, so all four are read off
    the twin, whose commutator decides the model's as ``heisenberg``
    transports every ladder word.
    """
    from .reports import VerificationReport

    params: dict[str, object] = {"degree": m.n_max}
    if m.nu is not None:
        params["nu"] = m.nu
    if (moved := on_fock_twin(m, verify_model, **params)) is not None:
        return moved
    comm, b, top = m.words.op("RL") - m.words.op("LR"), m.basis_op, m.n_max
    outcomes = {
        "ladder-lowering": m.lowering_outcome,
        "ladder-raising": m.raising_outcome,
        "vacuum": m.vacuum_outcome,
        "commutator": _axiom_outcome(m, comm.step, lambda n: _multiple(b, n, -IOTA), top - 1),
    }
    return [
        VerificationReport(check, m.label(), dict(params), tainted, first_failure=bad)
        for check, (bad, tainted) in outcomes.items()
    ]


# each catalog name as (family builder, parameter); bessel's nu comes
# from the caller
_CATALOG: dict[str, tuple[Callable[..., UmbralModel], Fraction | int | None]] = {
    "monomial": (_build_appell, 0),
    "lower-factorial": (_build_factorial, 1),
    "upper-factorial": (_build_factorial, -1),
    "hermite": (_build_appell, 1),
    "heat": (_build_even, ZERO),
    "bessel": (_build_even, None),
}
MODEL_NAMES = tuple(_CATALOG)


@functools.lru_cache(maxsize=1)
def _fock_pair(n_max: int) -> UmbralModel:
    """monomial(n_max), one object per process for every model that
    has it as its Fock twin; only the latest degree's pair is kept."""
    return build_model("monomial", n_max)


def build_model(
    name: str,
    n_max: int,
    nu: Fraction | int | str | None = None,
    cap: int | None = None,
) -> UmbralModel:
    """Catalog dispatch by name; ``nu`` is required for (and only for)
    the bessel model, and must be > 0.  An unknown name is refused
    before its ``nu`` is looked at, and n_max < 1 after both."""
    if name not in _CATALOG:
        raise ParameterError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        )
    if name == "bessel":
        if nu is None:
            raise ParameterError("bessel model requires --nu")
        nu = as_fraction(nu)
        if nu <= 0:
            raise ParameterError(f"bessel model needs nu > 0, got {format_rational(nu)}")
    elif nu is not None:
        raise ParameterError(f"model {name!r} takes no nu parameter")
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    build, param = _CATALOG[name]
    return build(name, n_max, cap, nu if param is None else param)
