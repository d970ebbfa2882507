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
truncation marks are the flagged p_n.  Every builder emits B and the
factorial and even ladders straight from integer columns;
``UmbralModel.basis``, the p_n as ``Poly``s, is a view made on demand.
The factorial raising operators are the closed form R = t f'(D)^{-1}
of the delta operator L = f(D) (finite operator calculus), also built
over the integers.  On the capped space the factorial raising loses
(n_max+1) p_{n_max+1} from its top column, which is marked truncated.
The duals l_k = l_0 L^k are integer rows too (``dual_functionals``),
stacked once per model into the dual matrix D (``dual_op``), which
carries from the start the closure of L's marks: every column from
which a power of L reads a marked column.

The even models grade by basis index n <-> degree 2n and live on the
even subspace only; applying their operators to a polynomial with
odd-degree content raises DomainError (for the Bessel lowering this is
forced: B_nu t = nu/t is not a polynomial).
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import (
    CapMismatchError,
    DomainError,
    LinearOp,
    ONE,
    ParameterError,
    Poly,
    ZERO,
    as_fraction,
    column_poly,
    format_rational,
)
from .formal import OpWordTable
from .kernels import EMPTY, Column, icol, icol_eq, icol_mul, imat_transpose

IOTA = ONE  # structure constant of the Heisenberg relation, fixed package-wide

MODEL_NAMES = (
    "monomial",
    "lower-factorial",
    "upper-factorial",
    "hermite",
    "heat",
    "bessel",
)


#: e_0 over the denominator 1: the row of evaluation at 0
EVAL0: tuple[Column, int] = (((0,), (1,)), 1)


class Parity(enum.Enum):
    ALL = "all"
    EVEN = "even"


@dataclass(frozen=True)
class UmbralModel:
    name: str
    n_max: int                    # top basis index
    degree_cap: int               # cap of the ambient polynomial space
    parity: Parity
    basis_op: LinearOp            # B: column n is p_n, marked when p_n is flagged
    lowering: LinearOp
    raising: LinearOp
    vacuum: tuple[Column, int]    # l_0: integer row over one positive denominator
    shift_invariant: bool
    nu: Fraction | None = None    # Bessel parameter, if any

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

    def vacuum_is_eval0(self) -> bool:
        return icol_eq(*self.vacuum, *EVAL0)

    @functools.cached_property
    def basis(self) -> tuple[Poly, ...]:
        """p_0 .. p_{n_max} as ``Poly``s, each flagged when B marks its
        column: a view of ``basis_op`` for the callers that work on
        polynomials."""
        b = self.basis_op
        return tuple(
            column_poly(col, b.den, self.degree_cap, n in b.trunc_cols)
            for n, col in enumerate(b.cols[: self.n_max + 1])
        )

    @functools.cached_property
    def dual_op(self) -> LinearOp:
        """D, whose row k is the dual l_k = l_0 o L^k, computed once per
        model: each row of ``dual_functionals`` put over the last one's
        denominator vden * L.den^n_max.  D marks every column from which
        L's sparsity pattern leads to a column L marks: the closure of
        L's marks, which holds each mark ``@`` gives a power L^k."""
        low = self.lowering
        marks = set(low.trunc_cols)
        while new := {j for j, (r, _) in enumerate(low.cols) if not marks.isdisjoint(r)} - marks:
            marks |= new
        duals = dual_functionals(self)
        den = duals[-1][1]
        rows = [(r, tuple(x * (den // d) for x in v)) for (r, v), d in duals]
        return LinearOp(imat_transpose(rows, self.degree_cap + 1), den, self.degree_cap, marks)

    @functools.cached_property
    def basis_forms(self) -> list[tuple[tuple[tuple[int, int], ...], int]]:
        """``_form`` of each column of B, made once per model for the
        two-variable tables of the binomial and character checks."""
        b = self.basis_op
        return [_form(rows, vals, b.den) for rows, vals in b.cols]

    @functools.cached_property
    def words(self) -> OpWordTable:
        """The one table of ladder-word operators that the formal
        checks and the squared-ladder triple share."""
        return OpWordTable(self.lowering, self.raising)


def _form(
    rows: Sequence[int], vals: Sequence[int], den: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The polynomial sum_i vals[i] t^rows[i] / den as its nonzero
    (degree, integer numerator) pairs over its own reduced denominator:
    the smaller the integers, the cheaper the two-variable tables of
    ``translations.first_difference``."""
    g = math.gcd(den, *vals)
    return tuple(zip(rows, [x // g for x in vals])), den // g


def _basis_op(cap: int, polys: Sequence[tuple[Sequence[int], int]]) -> LinearOp:
    """B from p_n = sum_i c[i] t^i / d over the pairs (c, d) of
    ``polys``, c an integer coefficient list and d > 0, for
    n = 0..len(polys)-1; the columns above are zero."""
    den = math.lcm(*(d for _, d in polys))
    cols = []
    for cs, d in polys:
        rows, vals = icol(cs)
        cols.append((rows, tuple(den // d * x for x in vals)))
    return LinearOp(cols + [EMPTY] * (cap + 1 - len(cols)), den, cap)


def _derivative_op(cap: int) -> LinearOp:
    return LinearOp([EMPTY] + [((j - 1,), (j,)) for j in range(1, cap + 1)], 1, cap)


def _mult_by_t_op(cap: int) -> LinearOp:
    return LinearOp([((j + 1,), (1,)) for j in range(cap)] + [EMPTY], 1, cap, {cap})


def _shift_cols(cap: int, y: int) -> list[Column]:
    """The columns of f(t) -> f(t+y) for an integer y != 0: column j is
    (t+y)^j, all j+1 entries nonzero, by Pascal's rule
    C(j+1, i) y^(j+1-i) = y C(j, i) y^(j-i) + C(j, i-1) y^(j-i+1)."""
    col, cols = [1], []
    for j in range(cap + 1):
        cols.append((tuple(range(j + 1)), tuple(col)))
        col = [y * a + b for a, b in zip(col + [0], [0] + col)]
    return cols


def _checked_cap(n_max: int, cap: int | None, parity: Parity) -> int:
    """The degree cap, by default the degree of p_{n_max}; refuses
    n_max < 1 and a cap below that degree."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
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
    evaluation at 0 only when s = 0 (He_2(0) = -s)."""
    cap = _checked_cap(n_max, cap, Parity.ALL)
    he = [[1], [0, 1]]
    for n in range(1, n_max):
        he.append([y - s * n * x for x, y in zip(he[-2] + [0, 0], [0] + he[-1])])
    moments = [
        0 if k % 2 else s ** (k // 2) * math.prod(range(k - 1, 0, -2)) for k in range(n_max + 1)
    ]
    lowering = _derivative_op(cap)
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.ALL,
        basis_op=_basis_op(cap, [(c, math.factorial(n)) for n, c in enumerate(he)]),
        lowering=lowering,
        raising=_mult_by_t_op(cap) - lowering.scale(s),
        vacuum=(icol(moments), 1),
        shift_invariant=True,
    )


def _build_factorial(name: str, n_max: int, cap: int | None, step: int) -> UmbralModel:
    """c_n = t(t-step)...(t-step(n-1)), p_n = c_n/n!, with the ladder
    pair in closed form: L f = step*(f(t+step) - f(t)) and
    R f = t f(t-step).  Column j < cap of R is t(t-step)^j.  The top
    column is t(t-step)^cap less the (n_max+1) p_{n_max+1} = c_{cap+1}
    term that leaves the space; their t^{cap+1} terms cancel."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    cap = n_max if cap is None else cap
    if cap != n_max:
        raise CapMismatchError(
            "factorial models need the degree cap equal to the top basis "
            "index (the top raising column is defined relative to cap = n_max)"
        )
    # c_{n+1} = c_n * (t - step*n), for n = 0..cap
    cs = [[1]]
    for n in range(cap + 1):
        cs.append([y - step * n * x for x, y in zip(cs[-1] + [0], [0] + cs[-1])])
    # L = step * (ahead - 1): the shift's columns without their diagonal
    ahead, back = _shift_cols(cap, step), _shift_cols(cap, -step)
    lowering = [(rows[:-1], tuple(step * x for x in vals[:-1])) for rows, vals in ahead]
    cols = [(tuple(i + 1 for i in rows), vals) for rows, vals in back[:cap]]
    top = [x - y for x, y in zip(back[cap][1], cs[cap + 1][1:])]
    cols.append((tuple(i + 1 for i, x in enumerate(top) if x), tuple(x for x in top if x)))
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.ALL,
        basis_op=_basis_op(cap, [(c, math.factorial(n)) for n, c in enumerate(cs[: n_max + 1])]),
        lowering=LinearOp(lowering, 1, cap),
        raising=LinearOp(cols, 1, cap, {cap}),
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
    # 1/c_n = q^n / a_n over the integers, with nu = p/q and
    # a_n = prod_{k<=n} 2k(2kq + p - q) > 0
    p, q = nu.numerator, nu.denominator
    a = [1]
    for k in range(1, n_max + 1):
        a.append(a[-1] * 2 * k * (2 * k * q + p - q))
    basis_op = _basis_op(cap, [([0] * (2 * n) + [q**n], a[n]) for n in range(n_max + 1)])
    # B_nu t^j = j (j + nu - 1) t^{j-2};  R t^j = t^{j+2} / (2 (j + nu + 1)),
    # the raising over the lcm of its denominators 2 (jq + p + q) / q
    low = [((j - 2,), (j * (j * q + p - q),)) if j % 2 == 0 else EMPTY for j in range(2, cap + 1)]
    lowering = LinearOp([EMPTY, EMPTY] + low, q, cap)
    dens = {j: 2 * (j * q + p + q) for j in range(0, cap - 1, 2)}
    den = math.lcm(*dens.values())
    raising = LinearOp(
        [((j + 2,), (q * (den // dens[j]),)) if j in dens else EMPTY for j in range(cap + 1)],
        den, cap, frozenset(j for j in range(0, cap + 1, 2) if j + 2 > cap),
    )
    return UmbralModel(
        name=name,
        n_max=n_max,
        degree_cap=cap,
        parity=Parity.EVEN,
        basis_op=basis_op,
        lowering=lowering,
        raising=raising,
        vacuum=EVAL0,
        shift_invariant=False,
        nu=nu if nu else None,
    )


def basis_matrix(m: UmbralModel, top: int) -> LinearOp:
    """B cut to p_0..p_top: its columns and marks for n <= top, each
    column checked to lie in the model's space; every other column is
    zero and unmarked.  The ladder axioms are operator identities on
    it."""
    b = m.basis_op
    for rows, _ in b.cols[: top + 1]:
        m.check_degrees_in_space(rows)
    return LinearOp(
        b.cols[: top + 1] + (EMPTY,) * (b.cap - top), b.den, b.cap,
        [n for n in b.trunc_cols if n <= top],
    )


def lowering_mismatch(m: UmbralModel, b: LinearOp, top: int) -> tuple[int | None, bool]:
    """L B = B S_down on columns 0..top, with S_down e_n = e_{n-1}:
    the first n with L p_n != p_{n-1} (p_{-1} = 0), and the taint."""
    cap = m.degree_cap
    s_down = LinearOp([EMPTY] + [((j - 1,), (1,)) for j in range(1, cap + 1)], 1, cap)
    return (m.lowering @ b).compare_on_columns(b @ s_down, range(top + 1))


def vacuum_op(m: UmbralModel) -> LinearOp:
    """The operator whose row 0 is l_0 and whose other rows are zero."""
    (rows, vals), den = m.vacuum
    cols = [EMPTY] * (m.degree_cap + 1)
    for i, x in zip(rows, vals):
        cols[i] = ((0,), (x,))
    return LinearOp(cols, den, m.degree_cap)


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


def pairing_mismatch(db: LinearOp, k: int, top: int) -> tuple[int | None, bool]:
    """l_k B = e_k on columns 0..top, given D B with l_k as row k of D:
    the first n with <l_k, p_n> != delta_kn, read off row k of D B, and
    the taint: whether D B marks a column scanned up to there."""
    tainted = False
    for n, (rows, vals) in enumerate(db.cols[: top + 1]):
        tainted = tainted or n in db.trunc_cols
        i = bisect.bisect_left(rows, k)
        x = vals[i] if i < len(rows) and rows[i] == k else 0
        if x != (db.den if n == k else 0):
            return n, tainted
    return None, tainted


def verify_model(m: UmbralModel) -> list["VerificationReport"]:
    """The model axioms as identities on the basis matrix B, one report
    each, with S_up e_n = (n+1) e_{n+1}:

    * ``ladder-lowering``: L B = B S_down, i.e. L p_n = p_{n-1}, p_{-1} = 0
    * ``ladder-raising``:  R B = B S_up on columns n < n_max
    * ``vacuum``:          l_0 B = e_0, i.e. <l_0, p_n> = delta_{0n}
    * ``commutator``:      [R, L] B = -iota B on columns n < n_max
      (the top index is excluded: there the raising already truncated),
      with R L and L R taken from the model's word table, where the
      formal checks find them again

    ``LinearOp.compare_on_columns`` decides each: a differing column
    fails, else a compared column marked truncated is "inconclusive".
    """
    from .reports import VerificationReport, status_of

    params: dict[str, object] = {"degree": m.n_max}
    if m.nu is not None:
        params["nu"] = m.nu
    top, cap = m.n_max, m.degree_cap
    b = m.basis_op
    s_up = LinearOp([((j + 1,), (j + 1,)) for j in range(cap)] + [EMPTY], 1, cap)
    comm = m.words.op("RL") - m.words.op("LR")
    outcomes = {
        "ladder-lowering": lowering_mismatch(m, b, top),
        "ladder-raising": (m.raising @ b).compare_on_columns(b @ s_up, range(top)),
        "vacuum": pairing_mismatch(vacuum_op(m) @ b, 0, top),
        "commutator": (comm @ b).compare_on_columns(b.scale(-IOTA), range(top)),
    }
    return [
        VerificationReport(check, m.label(), dict(params), status_of(bad, tainted), first_failure=bad)
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


def build_model(
    name: str,
    n_max: int,
    nu: Fraction | int | str | None = None,
    cap: int | None = None,
) -> UmbralModel:
    """Catalog dispatch by name; ``nu`` is required for (and only for)
    the bessel model, and must be > 0.  An unknown name is refused
    before its ``nu`` is looked at."""
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
    build, param = _CATALOG[name]
    return build(name, n_max, cap, nu if param is None else param)
