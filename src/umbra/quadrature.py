"""Deterministic Gauss-Legendre quadrature for the numeric transforms.

One driver, ``integrate``, with two rules.  Both start from the pieces
that the ends of the integrand's mass cut.  The fixed rule takes one
fixed-node panel per piece (for integrands known to be smooth there,
and for difference-quotient work where the integration error must vary
smoothly with outer parameters); the adaptive rule bisects each piece
left to right until each panel's refinement residual is inside its
share of the tolerance budget.  Everything is evaluated in a fixed
order, so results are reproducible bit for bit for a given spec.

The nodes and weights are computed here, in integers, and each is the
correctly rounded double of its true value (see ``_gauss_nodes``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .core import ParameterError, QuadratureError, Record, format_float

ADAPTIVE = "adaptive"
FIXED = "fixed"
#: The bisection depth at which the adaptive rule gives up.
MAX_SUBDIVISIONS = 32
#: The panels one adaptive integration may use before it gives up.  Of the
#: tests, the CI steps and the benchmark workloads, the most one
#: integration takes is 451 (``bessel hankel --fn gauss --lambda 1e6``);
#: ``cosine --fn bump`` takes 128,923 at v = 1e12 and 292,791 at 1e13.
MAX_PANELS = 2**19
_GUARD_BITS = 16       # first guard of the node enclosures; doubled on each retry
_GUARD_RETRIES = 6
_NEWTON_STEPS = 40     # cap per node; from the starting guess it takes about 5


class QuadratureSpec(Record):
    """Integration policy.  ``nodes`` is the Gauss-Legendre order per
    panel.  Both rules start from the pieces cut by the ends of the
    integrand's ``mass``, if any: the fixed rule takes one panel per
    piece, and the adaptive rule bisects each at most
    ``MAX_SUBDIVISIONS`` deep, in ``MAX_PANELS`` panels over all pieces."""

    __slots__ = _fields = ("rule", "nodes", "rel_tol", "abs_tol", "mass")

    def __init__(
        self, rule: str = ADAPTIVE, nodes: int = 24, rel_tol: float = 1e-10,
        abs_tol: float = 1e-12, mass: tuple[float, ...] = (),
    ) -> None:
        if rule not in (ADAPTIVE, FIXED):
            raise ParameterError(f"unknown quadrature rule {rule!r}")
        if nodes < 2:
            raise ParameterError("need at least 2 nodes per panel")
        if rel_tol <= 0 or abs_tol <= 0:
            raise ParameterError("tolerances must be positive")
        self.rule, self.nodes, self.rel_tol, self.abs_tol, self.mass = (
            rule, nodes, rel_tol, abs_tol, mass)


class ScalarFn(Record):
    """Real function with a declared decay class, which the transforms
    use to truncate unbounded integrals: "compact" on its support
    [a, b], "exponential" (|f| <~ e^{-rate*|t|}) or "none".
    ``dfn``/``d2fn`` carry analytic derivatives where a check needs
    them; ``growth_degree`` bounds |f| by a constant times
    (1+|t|)^growth_degree when there is no decay (the heat kernel still
    wins against any polynomial).
    The declaration is a caller contract; only ``cosine_transform`` checks it.
    ``heat_covariant`` does not trust |f| <= 1 under exponential decay:
    its cut point grows with |f| there."""

    __slots__ = _fields = ("fn", "decay", "a", "b", "rate", "dfn", "d2fn", "growth_degree")

    def __init__(
        self, fn: Callable[[float], float], decay: str = "none", a: float | None = None,
        b: float | None = None, rate: float | None = None,
        dfn: Callable[[float], float] | None = None, d2fn: Callable[[float], float] | None = None,
        growth_degree: int = 0,
    ) -> None:
        if decay not in ("compact", "exponential", "none"):
            raise ParameterError(f"unknown decay class {decay!r}")
        if decay == "compact":
            if a is None or b is None or not a < b:
                raise ParameterError("compact support needs a < b")
        if decay == "exponential":
            if rate is None or rate <= 0:
                raise ParameterError("exponential decay needs a positive rate")
        if growth_degree < 0:
            raise ParameterError("growth_degree must be >= 0")
        self.fn, self.decay, self.a, self.b, self.rate = fn, decay, a, b, rate
        self.dfn, self.d2fn, self.growth_degree = dfn, d2fn, growth_degree

    def __call__(self, t: float) -> float:
        return self.fn(t)

    @property
    def mass(self) -> tuple[float, ...]:
        """Ends of an interval outside which f is negligible (e^-40 past 40/rate)."""
        if self.decay == "exponential":
            return -40.0 / self.rate, 40.0 / self.rate
        return (self.a, self.b) if self.decay == "compact" else ()


@lru_cache(maxsize=None)
def _gauss_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre nodes, ascending, and their weights,
    each the correctly rounded double of its true value.  A try at
    ``guard`` bits (_gauss_rule) returns nothing when some enclosure
    straddles a rounding boundary; the guard bits then double, at most
    _GUARD_RETRIES times (Ziv, ACM TOMS 17(3), 1991)."""
    guard = _GUARD_BITS
    for _ in range(_GUARD_RETRIES):
        rule = _gauss_rule(n, guard)
        if rule is not None:
            return rule
        guard *= 2
    raise QuadratureError(
        f"the {n}-point Gauss-Legendre rule could not be rounded in {_GUARD_RETRIES} tries"
    )


def _gauss_rule(n: int, guard: int) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """Newton's method on the three-term Legendre recurrence, in fixed
    point at scale 2^prec (Golub & Welsch, Math. Comp. 23, 1969, give
    the recurrence and the weights).  Each positive node x starts from
    Tricomi's guess and stops where the Newton step is below d/4; then

    - P_n changes sign on [x - d, x + d]: |P_n(x)| < d min |P_n'| there,
      with P_n' = n Q / (1 - x^2), Q = P_(n-1) - x P_n;
    - the weight 2 / ((1 - x^2) P_n'(x)^2) = 2 (1 - x^2) / (n Q)^2 is
      bounded over the same interval;

    each from one midpoint pass at x and the node-free error bounds of
    _spread.  A value returns only when both ends of its enclosure
    round to the same double.  For odd n the middle node is 0, with
    weight 2 / (n P_(n-1)(0))^2 = 2^(4m+1) / (n binom(2m, m))^2, m = (n-1)/2."""
    _, e_point = _spread(n, 0)
    d = (e_point + 1) << guard
    e_prev, e_n = _spread(n, d)
    prec = e_n.bit_length() + 64 + guard
    one = 1 << prec
    nodes, weights = [], []
    for i in range(n // 2):
        theta = math.pi * (4 * i + 3) / (4 * n + 2)
        x = int(math.ldexp((1 - (n - 1) / (8 * n ** 3)) * math.cos(theta), prec))
        for _ in range(_NEWTON_STEPS):
            p, q, s = _legendre(n, x, prec)
            step = p * s // (n * q)
            if abs(step) < d >> 2:
                break
            x -= step
        else:
            return None
        # error bounds over [x - d, x + d]: Q, and 1 - x^2
        qr = e_prev + d + e_n + 1
        sr = 2 * d + 1
        aq = abs(q)
        if not (aq > qr and s > sr and (abs(p) + e_point) * (s + sr) < d * n * (aq - qr)):
            return None
        lo, hi = (x - d) / one, (x + d) / one
        w_lo = (2 * (s - sr) << prec) / (n * n * (aq + qr) ** 2)
        w_hi = (2 * (s + sr) << prec) / (n * n * (aq - qr) ** 2)
        if lo != hi or w_lo != w_hi:
            return None
        nodes.append(lo)
        weights.append(w_lo)
    middle, middle_w = [], []
    if n % 2:
        m = n // 2
        middle, middle_w = [0.0], [(2 << 4 * m) / (n * math.comb(2 * m, m)) ** 2]
    xs = [-x for x in nodes] + middle + nodes[::-1]
    ws = weights + middle_w + weights[::-1]
    return tuple(xs), tuple(ws)


def _legendre(n: int, x: int, prec: int) -> tuple[int, int, int]:
    """(P_n, P_(n-1) - x P_n, 1 - x^2) at x / 2^prec, in units of
    2^-prec, by (k+1) P_(k+1) = (2k+1) x P_k - k P_(k-1) with floor
    divisions; _spread bounds their errors."""
    p0, p1 = 1 << prec, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * (x * p1 >> prec) - k * p0) // (k + 1)
    return p1, p0 - (x * p1 >> prec), (1 << prec) - (x * x >> prec)


def _spread(n: int, d: int) -> tuple[int, int]:
    """(e_(n-1), e_n): e_k bounds |2^prec P_k(y) - p_k| for every y
    within d units of x, |y| <= 1, where p_k is _legendre's P_k at x.
    From |P_k(y)| <= 1 and |x| <= 2^prec, each step's error is at most
    ((2k+1) (e_k + d + 1) + k e_(k-1)) / (k+1) + 1.  The bounds grow
    like (1 + sqrt 2)^k and do not depend on x or prec."""
    e0, e1 = 0, d
    for k in range(1, n):
        e0, e1 = e1, -(-((2 * k + 1) * (e1 + d + 1) + k * e0) // (k + 1)) + 1
    return e0, e1


def _panel(fn: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    xs, ws = _gauss_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for x, w in zip(xs, ws):
        acc += w * fn(mid + half * x)
    return acc * half


def integrate(
    fn: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    """The integral over [lo, hi], summed from -0.0 (so one piece is its
    value bit for bit) over the pieces that the ends of ``spec.mass`` cut,
    lest a rule step over a narrow mass.  The fixed rule takes one panel
    per piece, with no error control: the caller asserts smoothness.  It
    is the rule under difference quotients, where the cuts move smoothly
    with the outer parameter but bisection would make the error jump.
    The adaptive rule bisects each piece left to right, and accepts a
    panel when refining it once moves the result by less than its
    width-proportional share of abs_tol (or rel_tol against the running
    magnitude).  Past the depth limit, or once it has used more than
    ``MAX_PANELS`` panels, it raises QuadratureError carrying the
    residual actually achieved."""
    if hi <= lo:
        return 0.0
    cuts = [lo, *sorted(c for c in spec.mass if lo < c < hi), hi]
    pieces = zip(cuts, cuts[1:])
    if spec.rule == FIXED:
        return sum((_panel(fn, a, b, spec.nodes) for a, b in pieces), -0.0)
    width, panels = hi - lo, len(cuts) - 1

    def recurse(a: float, b: float, coarse: float, depth: int) -> float:
        nonlocal panels
        panels += 2
        m = 0.5 * (a + b)
        left = _panel(fn, a, m, spec.nodes)
        right = _panel(fn, m, b, spec.nodes)
        fine = left + right
        err = abs(fine - coarse)
        budget = max(spec.abs_tol * (b - a) / width, spec.rel_tol * abs(fine))
        if err <= budget:
            return fine
        if depth >= MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"no convergence on [{format_float(a)}, {format_float(b)}] after "
                f"{MAX_SUBDIVISIONS} subdivisions; achieved residual "
                f"{err:.3e} against budget {budget:.3e}"
            )
        if panels > MAX_PANELS:
            raise QuadratureError(
                f"no convergence within {MAX_PANELS} panels: {panels} used, "
                f"achieved residual {err:.3e} against budget {budget:.3e} "
                f"on [{format_float(a)}, {format_float(b)}]"
            )
        return (
            recurse(a, m, left, depth + 1)
            + recurse(m, b, right, depth + 1)
        )

    return sum((recurse(a, b, _panel(fn, a, b, spec.nodes), 0) for a, b in pieces), -0.0)
