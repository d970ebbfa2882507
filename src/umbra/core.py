"""Exact truncated-polynomial arithmetic.

Everything downstream works inside the finite-dimensional space of
polynomials of degree <= cap over the rationals, stored densely in the
monomial basis t^k.  Three data types live here:

* ``Poly`` -- a coefficient vector with an explicit degree cap and a
  sticky ``truncated`` flag.  Any operation that would drop a nonzero
  coefficient above the cap sets the flag instead of failing silently;
  verification code downstream treats a set flag as "inconclusive",
  never as success.  Polynomials enter and leave the commands in this
  form; a model's basis is not stored as ``Poly``s but as one
  ``LinearOp``, its basis matrix, of which ``Poly``s are a view.

* ``LinearOp`` -- a (cap+1) x (cap+1) rational matrix, column j holding
  the image of t^j.  Internally it is sparse and fraction-free: a tuple
  of ``umbra.kernels`` columns of integer numerators over one positive
  denominator, their common factor reduced away once per operation.
  An exact vector is one such column over its own denominator
  (``integer_vector``; ``column_poly`` turns it back into a ``Poly``),
  so operator products and the products of an operator with a vector
  all run in the kernels' one loop.  Its one
  constructor, ``LinearOp(cols, den, cap, trunc_cols)``, takes integer
  columns over any nonzero denominator and canonicalizes them.
  Operators remember which input columns are unreliable because the
  construction already truncated them (``trunc_cols``).  ``step``, the
  one product of an operator with an exact vector, holds the one rule
  that a vector reading a marked column is tainted; ``powers`` walks
  op^k v by it, and ``apply`` is ``step`` between ``integer_vector``
  and ``column_poly``.  ``compare_on_columns``, the comparison behind
  the exact checks, reports a compared column marked on either side
  through ``outcome``, the one verdict rule of every exact check.

* ``Functional`` -- a row vector pairing against coefficient vectors,
  kept as its nonzero entries.  No code in the package calls it (a
  model's vacuum is an integer row); it stays because the benchmark's
  tracer wraps ``pair`` and ``after``, and the tests' oracles use it.

Scalars are ``fractions.Fraction`` throughout; the wire format for
rationals is the literal string "p/q" handled by ``parse_rational`` /
``format_rational``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

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


class DomainError(UmbraError):
    """Input lies outside the operator's or model's domain."""


class ParameterError(UmbraError):
    """Parameter outside the supported range, or a failed hypothesis."""


class CapShortfallError(UmbraError):
    """Working cap too small for the requested output degree."""


class QuadratureError(UmbraError):
    """Numerical integration failed to meet its tolerance."""


class Record:
    """A value of the fields ``_fields``, which its ``__init__`` checks
    and sets once: equal by class and fields (and not hashable), and
    copied with some changed by ``_replace``, through ``__init__`` and
    its refusals."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _replace(self, **changes: Any) -> Any:
        return type(self)(**{**{k: getattr(self, k) for k in self._fields}, **changes})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, k) == getattr(other, k) for k in self._fields
        )


def outcome(checks: Iterable[tuple[Any, bool, bool]]) -> tuple[Any, bool]:
    """The verdict rule of every exact check, over (key, holds, marked)
    triples in the order checked: (the key of the first that does not
    hold, or None; whether one up to and including it is marked).  It
    reads ``checks`` lazily, so nothing past the first failure is computed."""
    tainted = False
    for key, holds, marked in checks:
        if marked:
            tainted = True
        if not holds:
            return key, tainted
    return None, tainted


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


def format_float(x: float) -> str:
    """x as its ``:g`` text when that reads back as x, else as ``repr``:
    a message never rounds the value it names onto another one."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _require_same_cap(cap: int, other: int) -> None:
    """Refuse operands at two different degree caps."""
    if cap != other:
        raise CapMismatchError(f"degree caps differ: {cap} vs {other}")


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rewrite fractions over one positive denominator: (numerators, den)."""
    den = math.lcm(*{v.denominator for v in values})
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_vector(values: Sequence[Fraction]) -> tuple[kernels.Column, int]:
    """A rational vector as a kernel column of integer numerators over
    one positive denominator."""
    nums, den = _common_denominator(values)
    return kernels.icol(nums), den


def column_poly(col: kernels.Column, den: int, cap: int, truncated: bool = False) -> "Poly":
    """The ``Poly`` of a kernel column of integer numerators over the
    positive denominator ``den``: the one way back from integers to a
    polynomial at the edge of a command."""
    cs = [ZERO] * (cap + 1)
    for i, x in zip(*col):
        cs[i] = Fraction(x, den)
    return Poly(cs, cap, truncated)


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

    # -- inspection ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.cap == other.cap and self.coeffs == other.coeffs

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _require_same_cap(self.cap, other.cap)
        cs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return Poly(cs, self.cap, self.truncated or other.truncated)

    def __sub__(self, other: "Poly") -> "Poly":
        _require_same_cap(self.cap, other.cap)
        cs = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        return Poly(cs, self.cap, self.truncated or other.truncated)

    def scale(self, q: Fraction | int) -> "Poly":
        q = as_fraction(q)
        return Poly([q * c for c in self.coeffs], self.cap, self.truncated)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product, truncated at the cap; sets the flag when the
        truncation drops a nonzero coefficient."""
        _require_same_cap(self.cap, other.cap)
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


def _reduced(cols, den: int):
    """Canonical fraction-free form of sparse columns: positive
    denominator, content 1 over the nonzeros."""
    if den == 0:
        raise ParameterError("zero denominator")
    if den < 0:
        den = -den
        cols = [(rows, tuple(-x for x in vals)) for rows, vals in cols]
    # last column first: in a catalog build the gcd usually reaches 1 only
    # in the top column, and the gcd does not depend on the order
    g = kernels.iseq_gcd(reversed(cols), den)
    if g > 1:
        den //= g
        cols = [(rows, tuple(x // g for x in vals)) for rows, vals in cols]
    return tuple(cols), den


class LinearOp:
    """Rational matrix acting on Poly coefficient vectors.

    Stored fraction-free and sparse: ``cols[j]`` is the kernel column
    (``umbra.kernels``) of column j's numerators over one positive
    denominator ``den``, with the content of the nonzeros reduced away.
    The constructor takes such columns over any nonzero denominator and
    reduces them to this form.  ``num`` is a dense
    tuple-of-rows view computed on demand.  ``trunc_cols``
    marks input degrees whose columns were already truncated when the
    operator was constructed (for a raising operator, the top basis
    degree); applying the operator to a polynomial with mass on such a
    column taints the result's ``truncated`` flag.

    Equality compares the rational matrices (caps included) and ignores
    ``trunc_cols``.
    """

    __slots__ = ("cols", "den", "cap", "trunc_cols")

    def __init__(
        self, cols, den: int, cap: int, trunc_cols: Iterable[int] = frozenset()
    ):
        self.cols, self.den = _reduced(cols, den)
        if len(self.cols) != cap + 1:
            raise CapMismatchError(f"{len(self.cols)} columns do not match cap {cap}")
        self.cap = cap
        self.trunc_cols = frozenset(trunc_cols)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, cap: int) -> "LinearOp":
        return cls([((j,), (1,)) for j in range(cap + 1)], 1, cap)

    @classmethod
    def zero(cls, cap: int) -> "LinearOp":
        return cls([kernels.EMPTY] * (cap + 1), 1, cap)

    # -- inspection ---------------------------------------------------

    @property
    def num(self) -> tuple[tuple[int, ...], ...]:
        """Dense integer numerators as a tuple of rows (a fresh view)."""
        n = self.cap + 1
        rows = [[0] * n for _ in range(n)]
        for j, (col_rows, vals) in enumerate(self.cols):
            for i, x in zip(col_rows, vals):
                rows[i][j] = x
        return tuple(tuple(row) for row in rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOp):
            return NotImplemented
        return (
            self.cap == other.cap
            and self.den == other.den
            and self.cols == other.cols
        )

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "LinearOp") -> "LinearOp":
        """Composition self o other (apply ``other`` first).  Column j
        of the product is tainted when it is tainted in ``other`` or
        when column j of ``other`` reaches a row that ``self`` marks."""
        _require_same_cap(self.cap, other.cap)
        cols = kernels.imat_mul(self.cols, other.cols)
        tcols = set(other.trunc_cols)
        bad_rows = self.trunc_cols
        if bad_rows:
            tcols.update(
                j for j, (rows, _) in enumerate(other.cols)
                if not bad_rows.isdisjoint(rows)
            )
        return LinearOp(cols, self.den * other.den, self.cap, tcols)

    def __add__(self, other: "LinearOp") -> "LinearOp":
        _require_same_cap(self.cap, other.cap)
        g = math.gcd(self.den, other.den)
        ca = other.den // g
        cb = self.den // g
        cols = kernels.imat_comb(((ca, self.cols), (cb, other.cols)))
        return LinearOp(cols, self.den * ca, self.cap, self.trunc_cols | other.trunc_cols)

    def __sub__(self, other: "LinearOp") -> "LinearOp":
        return self + other.scale(-1)

    def scale(self, q: Fraction | int) -> "LinearOp":
        q = as_fraction(q)
        if q == 0:
            return LinearOp.zero(self.cap)
        p = q.numerator
        cols = [(rows, tuple(p * x for x in vals)) for rows, vals in self.cols]
        return LinearOp(cols, self.den * q.denominator, self.cap, self.trunc_cols)

    def step(
        self, vec: kernels.Column, den: int, tainted: bool
    ) -> tuple[kernels.Column, int, bool]:
        """(self vec, den * self.den, taint) for vec a kernel column over
        den, summed in a list as tall as the operator: the taint is raised
        when vec reads a column self marks, even one with no image."""
        return (
            kernels.icol_mul(self.cols, vec, len(self.cols)), den * self.den,
            tainted or not self.trunc_cols.isdisjoint(vec[0]),
        )

    def powers(
        self, vec: kernels.Column, den: int, tainted: bool
    ) -> Iterator[tuple[kernels.Column, int, bool]]:
        """(self^k vec, its denominator, its taint) for k = 0, 1, ...,
        each one ``step`` from the last, ending after the first zero."""
        while True:
            yield vec, den, tainted
            if not vec[0]:
                return
            vec, den, tainted = self.step(vec, den, tainted)

    def apply(self, f: Poly) -> Poly:
        _require_same_cap(self.cap, f.cap)
        col, den, tainted = self.step(*integer_vector(f.coeffs), f.truncated)
        return column_poly(col, den, f.cap, tainted)

    def compare_on_columns(
        self, other: "LinearOp", cols: Iterable[int]
    ) -> tuple[int | None, bool]:
        """``outcome`` of comparing the two operators column by column on
        ``cols``, each column marked when either side marks it."""
        _require_same_cap(self.cap, other.cap)
        marks = self.trunc_cols | other.trunc_cols
        return outcome(
            (j, kernels.icol_eq(self.cols[j], self.den, other.cols[j], other.den), j in marks)
            for j in cols
        )


class Functional:
    """Linear functional on the truncated polynomial space: a row
    vector paired against coefficient vectors, stored as its nonzero
    (index, coefficient) pairs in index order."""

    __slots__ = ("terms", "cap")

    def __init__(self, row: Iterable[Fraction | int], cap: int):
        rs = [as_fraction(c) for c in row]
        if len(rs) > cap + 1:
            raise CapMismatchError(
                f"{len(rs)} entries exceed degree cap {cap}"
            )
        self.terms: tuple[tuple[int, Fraction], ...] = tuple(
            (i, q) for i, q in enumerate(rs) if q
        )
        self.cap = cap

    def pair(self, f: Poly) -> Fraction:
        """<l, f>.  Exact; callers worried about truncated inputs must
        inspect f.truncated themselves."""
        _require_same_cap(self.cap, f.cap)
        cs = f.coeffs
        return sum((a * cs[i] for i, a in self.terms if cs[i]), ZERO)

    def after(self, op: LinearOp) -> "Functional":
        """The pullback l o op (row vector times matrix)."""
        _require_same_cap(self.cap, op.cap)
        nums, rden = _common_denominator([a for _, a in self.terms])
        weights = {i: y for (i, _), y in zip(self.terms, nums)}
        d = rden * op.den
        terms = []
        for j, (rows, vals) in enumerate(op.cols):
            w = sum(weights[i] * x for i, x in zip(rows, vals) if i in weights)
            if w:
                terms.append((j, Fraction(w, d)))
        out = Functional.__new__(Functional)
        out.terms, out.cap = tuple(terms), self.cap
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return self.cap == other.cap and self.terms == other.terms
