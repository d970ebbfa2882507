"""Deterministic Gauss-Legendre quadrature for the numeric transforms.

Two rules only: a single fixed-node panel (for integrands known to be
smooth on a short interval, and for difference-quotient work where the
integration error must vary smoothly with outer parameters) and an
adaptive composite rule that bisects left to right until each panel's
refinement residual is inside its share of the tolerance budget.
Everything is evaluated in a fixed order, so results are reproducible
bit for bit for a given spec.

numpy is imported in one place, ``_gauss_nodes``, for its Gauss-Legendre
nodes and weights.  That function is cached, so a float command loads
numpy once, at its first panel, and the exact half of umbra (which
imports this module through the CLI but integrates nothing) never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .core import ParameterError, QuadratureError

ADAPTIVE = "adaptive"
FIXED = "fixed"
#: The bisection depth at which the adaptive rule gives up.
MAX_SUBDIVISIONS = 32


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration policy.  ``nodes`` is the Gauss-Legendre order per
    panel; the adaptive rule bisects at most ``MAX_SUBDIVISIONS`` deep."""

    rule: str = ADAPTIVE
    nodes: int = 24
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.rule not in (ADAPTIVE, FIXED):
            raise ParameterError(f"unknown quadrature rule {self.rule!r}")
        if self.nodes < 2:
            raise ParameterError("need at least 2 nodes per panel")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be positive")


@dataclass(frozen=True)
class ScalarFn:
    """Real function with a declared decay class, which the transforms
    use to truncate unbounded integrals.  ``dfn``/``d2fn`` carry
    analytic derivatives where a check needs them; ``growth_degree``
    bounds |f| by a constant times (1+|t|)^growth_degree when there is
    no decay (the heat kernel still wins against any polynomial).
    The declaration is a caller contract; only ``cosine_transform`` checks it.
    ``heat_covariant`` does not trust |f| <= 1 under exponential decay:
    its cut point grows with |f| there."""

    fn: Callable[[float], float]
    decay: str = "none"              # "compact" | "exponential" | "none"
    a: float | None = None           # compact support [a, b]
    b: float | None = None
    rate: float | None = None        # exponential: |f| <~ e^{-rate*|t|}
    dfn: Callable[[float], float] | None = None
    d2fn: Callable[[float], float] | None = None
    growth_degree: int = 0

    def __post_init__(self) -> None:
        if self.decay not in ("compact", "exponential", "none"):
            raise ParameterError(f"unknown decay class {self.decay!r}")
        if self.decay == "compact":
            if self.a is None or self.b is None or not self.a < self.b:
                raise ParameterError("compact support needs a < b")
        if self.decay == "exponential":
            if self.rate is None or self.rate <= 0:
                raise ParameterError("exponential decay needs a positive rate")
        if self.growth_degree < 0:
            raise ParameterError("growth_degree must be >= 0")

    def __call__(self, t: float) -> float:
        return self.fn(t)


@lru_cache(maxsize=None)
def _gauss_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    return tuple(float(v) for v in x), tuple(float(v) for v in w)


def _panel(fn: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    xs, ws = _gauss_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = 0.0
    for x, w in zip(xs, ws):
        acc += w * fn(mid + half * x)
    return acc * half


def integrate_fixed(
    fn: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    """One Gauss-Legendre panel at spec.nodes.  No error control: the
    caller asserts smoothness.  This is the rule of choice under
    difference quotients, where adaptive panel boundaries would make
    the quadrature error jump between nearby evaluation points."""
    if hi <= lo:
        return 0.0
    return _panel(fn, lo, hi, spec.nodes)


def integrate_adaptive(
    fn: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    """Left-to-right bisection: a panel is accepted when refining it
    once moves the result by less than its width-proportional share of
    abs_tol (or rel_tol against the running magnitude).  Exceeding the
    depth limit raises QuadratureError carrying the residual that was
    actually achieved."""
    if hi <= lo:
        return 0.0
    width = hi - lo

    def recurse(a: float, b: float, coarse: float, depth: int) -> float:
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
                f"no convergence on [{a:g}, {b:g}] after "
                f"{MAX_SUBDIVISIONS} subdivisions; achieved residual "
                f"{err:.3e} against budget {budget:.3e}"
            )
        return (
            recurse(a, m, left, depth + 1)
            + recurse(m, b, right, depth + 1)
        )

    return recurse(lo, hi, _panel(fn, lo, hi, spec.nodes), 0)


def integrate(
    fn: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> float:
    if spec.rule == FIXED:
        return integrate_fixed(fn, lo, hi, spec)
    return integrate_adaptive(fn, lo, hi, spec)
