"""Exact truncated-polynomial arithmetic.

Everything downstream works inside the finite-dimensional space of
polynomials of degree <= cap over the rationals, stored densely in the
monomial basis t^k.  Three data types live here:

* ``Poly`` -- a coefficient vector with an explicit degree cap and a
  sticky ``truncated`` flag.  Any operation that would drop a nonzero
  coefficient above the cap sets the flag instead of failing silently;
  verification code downstream treats a set flag as "inconclusive",
  never as success.

* ``LinearOp`` -- a (cap+1) x (cap+1) rational matrix, column j holding
  the image of t^j.  Internally the matrix is fraction-free: an integer
  matrix plus a single positive denominator, reduced once per operation.
  That keeps the hot paths (operator products in the verification
  checks) on plain integer arithmetic; see ``umbra.kernels``.
  Operators remember which input columns are unreliable because the
  construction already truncated them (``trunc_cols``); applying an
  operator to a polynomial that touches such a column sets the
  polynomial's flag.

* ``Functional`` -- a row vector pairing against coefficient vectors.

Scalars are ``fractions.Fraction`` throughout; the wire format for
rationals is the literal string "p/q" handled by ``parse_rational`` /
``format_rational``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import kernels

#: Default degree cap; wide enough that every catalog check at basis
#: index <= 16 stays inside the truncation-safe zone (even-parity models
#: use degree 2n for index n).
DEFAULT_DEGREE_CAP = 32

ZERO = Fraction(0)
ONE = Fraction(1)


class UmbraError(Exception):
    """Base class for all errors raised by this package."""


class CapMismatchError(UmbraError):
    """Operands live at different degree caps."""


class NilpotencyError(UmbraError):
    """Operator exponential requested for a non-nilpotent operator."""


class DomainError(UmbraError):
    """Input lies outside the operator's or model's domain."""


class ParameterError(UmbraError):
    """Parameter outside the supported range, or a failed hypothesis."""


class CapShortfallError(UmbraError):
    """Working cap too small for the requested output degree."""


class QuadratureError(UmbraError):
    """Numerical integration failed to meet its tolerance."""


def as_fraction(x: Fraction | int | str | float) -> Fraction:
    """Coerce to Fraction; strings use the "p/q" literal format."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rational(x)
    return Fraction(x)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign; q must be positive."""
    s = text.strip()
    if "/" in s:
        p, _, q = s.partition("/")
        try:
            num, den = int(p), int(q)
        except ValueError as exc:
            raise ParameterError(f"bad rational literal {text!r}") from exc
        if den <= 0:
            raise ParameterError(f"bad rational literal {text!r}: denominator must be positive")
        return Fraction(num, den)
    try:
        return Fraction(int(s))
    except ValueError as exc:
        raise ParameterError(f"bad rational literal {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, else "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rewrite fractions over one positive denominator: (numerators, den)."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


class Poly:
    """Polynomial of degree <= cap with exact rational coefficients.

    Equality compares coefficient vectors at a shared cap and ignores
    the truncation flag (the flag is provenance, not value).
    """

    __slots__ = ("coeffs", "cap", "truncated")

    def __init__(
        self,
        coeffs: Iterable[Fraction | int | str],
        cap: int,
        truncated: bool = False,
    ):
        if cap < 0:
            raise ParameterError("degree cap must be >= 0")
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > cap + 1:
            raise CapMismatchError(
                f"{len(cs)} coefficients exceed degree cap {cap}"
            )
        cs.extend([ZERO] * (cap + 1 - len(cs)))
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.cap = cap
        self.truncated = truncated

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap: int) -> "Poly":
        return cls((), cap)

    @classmethod
    def monomial(cls, k: int, cap: int, coeff: Fraction | int = 1) -> "Poly":
        """coeff * t^k."""
        if not 0 <= k <= cap:
            raise CapMismatchError(f"monomial degree {k} outside cap {cap}")
        cs = [ZERO] * (k + 1)
        cs[k] = as_fraction(coeff)
        return cls(cs, cap)

    # -- inspection ---------------------------------------------------

    def degree(self) -> int:
        """Degree of the stored polynomial; -1 for the zero polynomial."""
        for k in range(self.cap, -1, -1):
            if self.coeffs[k]:
                return k
        return -1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.cap == other.cap and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.cap))

    def __repr__(self) -> str:
        terms = [
            f"{format_rational(c)}*t^{k}"
            for k, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        flag = ", truncated" if self.truncated else ""
        return f"Poly({body}, cap={self.cap}{flag})"

    # -- arithmetic ---------------------------------------------------

    def _check_cap(self, other: "Poly") -> None:
        if self.cap != other.cap:
            raise CapMismatchError(
                f"degree caps differ: {self.cap} vs {other.cap}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_cap(other)
        cs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return Poly(cs, self.cap, self.truncated or other.truncated)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_cap(other)
        cs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return Poly(cs, self.cap, self.truncated or other.truncated)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def scale(self, q: Fraction | int) -> "Poly":
        q = as_fraction(q)
        return Poly([q * c for c in self.coeffs], self.cap, self.truncated)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product, truncated at the cap; sets the flag when the
        truncation drops a nonzero coefficient."""
        self._check_cap(other)
        cap = self.cap
        out = [ZERO] * (cap + 1)
        lost = False
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = i + j
                if k <= cap:
                    out[k] += a * b
                else:
                    lost = True
        return Poly(out, cap, self.truncated or other.truncated or lost)

    def shift(self, y: Fraction | int) -> "Poly":
        """Substitute t -> t + y.  Degree never grows, so this is exact."""
        y = as_fraction(y)
        if y == 0:
            return self
        cap = self.cap
        out = [ZERO] * (cap + 1)
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            yp = ONE
            for i in range(j, -1, -1):
                out[i] += c * math.comb(j, i) * yp
                yp *= y
        return Poly(out, cap, self.truncated)

    def eval(self, y: Fraction | int) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        y = as_fraction(y)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def derivative(self) -> "Poly":
        """d/dt; exact (degree drops)."""
        cs = [
            self.coeffs[k] * k for k in range(1, self.cap + 1)
        ]
        return Poly(cs, self.cap, self.truncated)

    def with_flag(self, truncated: bool) -> "Poly":
        return Poly(self.coeffs, self.cap, truncated)


def _reduced(num: list[list[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical fraction-free form: positive denominator, content 1."""
    if den == 0:
        raise ParameterError("zero denominator")
    if den < 0:
        den = -den
        num = [[-x for x in row] for row in num]
    g = kernels.iseq_gcd(num, den)
    if g > 1:
        den //= g
        num = kernels.imat_div(num, g)
    return tuple(tuple(row) for row in num), den


class LinearOp:
    """Rational matrix acting on Poly coefficient vectors.

    Stored as (integer matrix ``num``, positive denominator ``den``)
    with the content reduced away, so operator products run on plain
    integer arithmetic.  ``trunc_cols`` marks input degrees whose
    columns were already truncated when the operator was constructed
    (for a raising operator, the top basis degree); applying the
    operator to a polynomial with mass on such a column taints the
    result's ``truncated`` flag.

    Equality compares the rational matrices (caps included) and ignores
    ``trunc_cols``.
    """

    __slots__ = ("num", "den", "cap", "trunc_cols")

    def __init__(
        self,
        num: Sequence[Sequence[int]],
        den: int,
        cap: int,
        trunc_cols: frozenset[int] = frozenset(),
        _reduced_already: bool = False,
    ):
        n = cap + 1
        if len(num) != n or any(len(row) != n for row in num):
            raise CapMismatchError(f"matrix shape does not match cap {cap}")
        if _reduced_already:
            self.num = tuple(tuple(row) for row in num)
            self.den = den
        else:
            self.num, self.den = _reduced([list(row) for row in num], den)
        self.cap = cap
        self.trunc_cols = frozenset(trunc_cols)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        entries: Sequence[Sequence[Fraction | int]],
        trunc_cols: frozenset[int] = frozenset(),
    ) -> "LinearOp":
        """Build from a square grid of rationals, entries[row][col]."""
        cap = len(entries) - 1
        flat = [as_fraction(x) for row in entries for x in row]
        nums, den = _common_denominator(flat)
        n = cap + 1
        num = [nums[i * n : (i + 1) * n] for i in range(n)]
        return cls(num, den, cap, trunc_cols)

    @classmethod
    def from_columns(
        cls,
        cap: int,
        columns: Mapping[int, Mapping[int, Fraction]] | Callable[[int], Mapping[int, Fraction]],
        trunc_cols: frozenset[int] = frozenset(),
    ) -> "LinearOp":
        """Build from the action on monomials: columns[j] maps output
        degree -> coefficient of the image of t^j."""
        grid: list[list[Fraction]] = [
            [ZERO] * (cap + 1) for _ in range(cap + 1)
        ]
        for j in range(cap + 1):
            col = columns(j) if callable(columns) else columns.get(j, {})
            for i, v in col.items():
                if not 0 <= i <= cap:
                    raise CapMismatchError(
                        f"output degree {i} outside cap {cap}"
                    )
                grid[i][j] = as_fraction(v)
        return cls.from_entries(grid, trunc_cols)

    @classmethod
    def identity(cls, cap: int) -> "LinearOp":
        n = cap + 1
        num = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(num, 1, cap, _reduced_already=True)

    @classmethod
    def zero(cls, cap: int) -> "LinearOp":
        n = cap + 1
        num = [[0] * n for _ in range(n)]
        return cls(num, 1, cap, _reduced_already=True)

    # -- inspection ---------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def column(self, j: int) -> Poly:
        cs = [Fraction(self.num[i][j], self.den) for i in range(self.cap + 1)]
        return Poly(cs, self.cap)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOp):
            return NotImplemented
        return (
            self.cap == other.cap
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.cap))

    def __repr__(self) -> str:
        nz = sum(1 for row in self.num for x in row if x)
        return f"LinearOp(cap={self.cap}, nonzeros={nz}, den={self.den})"

    # -- algebra ------------------------------------------------------

    def _check_cap(self, other: "LinearOp") -> None:
        if self.cap != other.cap:
            raise CapMismatchError(
                f"degree caps differ: {self.cap} vs {other.cap}"
            )

    def __matmul__(self, other: "LinearOp") -> "LinearOp":
        """Composition self o other (apply ``other`` first)."""
        self._check_cap(other)
        num = kernels.imat_mul(self.num, other.num)
        rnum, rden = _reduced(num, self.den * other.den)
        tcols = set(other.trunc_cols)
        if self.trunc_cols:
            bad_rows = self.trunc_cols
            for j in range(self.cap + 1):
                if j in tcols:
                    continue
                if any(other.num[i][j] for i in bad_rows):
                    tcols.add(j)
        return LinearOp(rnum, rden, self.cap, frozenset(tcols), _reduced_already=True)

    def __add__(self, other: "LinearOp") -> "LinearOp":
        self._check_cap(other)
        g = math.gcd(self.den, other.den)
        ca = other.den // g
        cb = self.den // g
        num = kernels.imat_comb(self.num, other.num, ca, cb)
        rnum, rden = _reduced(num, self.den * ca)
        return LinearOp(
            rnum, rden, self.cap,
            self.trunc_cols | other.trunc_cols, _reduced_already=True,
        )

    def __sub__(self, other: "LinearOp") -> "LinearOp":
        return self + other.scale(-1)

    def scale(self, q: Fraction | int) -> "LinearOp":
        q = as_fraction(q)
        if q == 0:
            return LinearOp.zero(self.cap)
        num = [[x * q.numerator for x in row] for row in self.num]
        rnum, rden = _reduced(num, self.den * q.denominator)
        return LinearOp(rnum, rden, self.cap, self.trunc_cols, _reduced_already=True)

    def power(self, k: int) -> "LinearOp":
        if k < 0:
            raise ParameterError("negative operator power")
        acc = LinearOp.identity(self.cap)
        for _ in range(k):
            acc = self @ acc
        return acc

    def apply(self, f: Poly) -> Poly:
        if f.cap != self.cap:
            raise CapMismatchError(
                f"degree caps differ: {self.cap} vs {f.cap}"
            )
        nums, fden = _common_denominator(f.coeffs)
        w = kernels.imat_vec(self.num, nums)
        d = self.den * fden
        cs = [Fraction(x, d) for x in w]
        tainted = f.truncated or any(
            f.coeffs[j] for j in self.trunc_cols if j <= f.cap
        )
        return Poly(cs, f.cap, tainted)

    def is_nilpotent(self) -> bool:
        """True iff the matrix is nilpotent (checked by repeated squaring;
        on a (cap+1)-dimensional space nilpotency forces A^(cap+1) = 0)."""
        num = [list(row) for row in self.num]
        e = 1
        while e <= self.cap:
            num = kernels.imat_mul(num, num)
            e *= 2
            if all(all(x == 0 for x in row) for row in num):
                return True
        return all(all(x == 0 for x in row) for row in num)

    def equal_on_columns(self, other: "LinearOp", cols: Iterable[int]) -> int | None:
        """First column in ``cols`` where the two operators differ, or
        None if they agree on all of them."""
        self._check_cap(other)
        da, db = self.den, other.den
        for j in cols:
            for i in range(self.cap + 1):
                if self.num[i][j] * db != other.num[i][j] * da:
                    return j
        return None


class Functional:
    """Linear functional on the truncated polynomial space: a row
    vector paired against coefficient vectors."""

    __slots__ = ("row", "cap")

    def __init__(self, row: Iterable[Fraction | int], cap: int):
        rs = [as_fraction(c) for c in row]
        if len(rs) > cap + 1:
            raise CapMismatchError(
                f"{len(rs)} entries exceed degree cap {cap}"
            )
        rs.extend([ZERO] * (cap + 1 - len(rs)))
        self.row: tuple[Fraction, ...] = tuple(rs)
        self.cap = cap

    @classmethod
    def eval_at_zero(cls, cap: int) -> "Functional":
        """f |-> f(0)."""
        return cls((ONE,), cap)

    def pair(self, f: Poly) -> Fraction:
        """<l, f>.  Exact; callers worried about truncated inputs must
        inspect f.truncated themselves."""
        if f.cap != self.cap:
            raise CapMismatchError(
                f"degree caps differ: {self.cap} vs {f.cap}"
            )
        return sum(
            (a * b for a, b in zip(self.row, f.coeffs) if a and b), ZERO
        )

    def after(self, op: LinearOp) -> "Functional":
        """The pullback l o op (row vector times matrix)."""
        if op.cap != self.cap:
            raise CapMismatchError(
                f"degree caps differ: {self.cap} vs {op.cap}"
            )
        nums, rden = _common_denominator(self.row)
        w = kernels.ivec_mat(nums, op.num)
        d = rden * op.den
        return Functional([Fraction(x, d) for x in w], self.cap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return self.cap == other.cap and self.row == other.row

    def __hash__(self) -> int:
        return hash((self.row, self.cap))

    def __repr__(self) -> str:
        nz = sum(1 for x in self.row if x)
        return f"Functional(cap={self.cap}, nonzeros={nz})"


def op_commutator(a: LinearOp, b: LinearOp) -> LinearOp:
    """[a, b] = a @ b - b @ a."""
    return (a @ b) - (b @ a)


def exp_lowering(a: LinearOp, y: Fraction | int, f: Poly) -> Poly:
    """exp(y*a) applied to f, for nilpotent a: the finite sum
    sum_k y^k/k! a^k f.  Refuses non-nilpotent operators outright
    rather than truncating a divergent series."""
    if not a.is_nilpotent():
        raise NilpotencyError(
            "exp_lowering requires a nilpotent operator; "
            "got one with a nonzero power at every order up to the cap"
        )
    y = as_fraction(y)
    acc = f
    g = f
    yk = ONE
    for k in range(1, a.cap + 2):
        g = a.apply(g)
        if g.is_zero() and not g.truncated:
            break
        yk *= Fraction(y, k)
        acc = acc + g.scale(yk)
    return acc


def _exp_series(a: LinearOp, y: Fraction) -> LinearOp:
    """sum_k y^k a^k / k! for a nilpotent matrix a, up to its first
    vanishing power."""
    acc = term = LinearOp.identity(a.cap)
    yk = ONE
    for k in range(1, a.cap + 2):
        term = a @ term
        if term.is_zero():
            break
        yk *= Fraction(y, k)
        acc = acc + term.scale(yk)
    return acc


def exp_nilpotent_matrix(a: LinearOp, y: Fraction | int) -> LinearOp:
    """exp(y*a) as a matrix, for genuinely nilpotent a (a lowering
    operator, typically).  The sum terminates on its own and nothing is
    lost, so only a's own truncation marks carry over."""
    if not a.is_nilpotent():
        raise NilpotencyError(
            "exp_nilpotent_matrix requires a nilpotent operator"
        )
    y = as_fraction(y)
    if y == 0:
        return LinearOp.identity(a.cap)
    return _exp_series(a, y)


def exp_raising_matrix(a: LinearOp, x: Fraction | int) -> LinearOp:
    """exp(x*a) as a matrix on the truncated space.

    For a raising-type operator the true exponential is an infinite
    series; on the capped space the stored matrix is nilpotent, so the
    sum below is finite but every column silently lost its above-cap
    part.  The result therefore marks *all* columns truncated whenever
    x != 0 (and inherits a.trunc_cols regardless).
    """
    x = as_fraction(x)
    if x == 0:
        return LinearOp.identity(a.cap)
    if not a.is_nilpotent():
        raise NilpotencyError(
            "exp_raising_matrix needs the capped matrix to be nilpotent"
        )
    acc = _exp_series(a, x)
    all_cols = frozenset(range(a.cap + 1))
    return LinearOp(acc.num, acc.den, acc.cap, all_cols, _reduced_already=True)
