"""umbra: exact ladder-operator engine for umbral models.

The package has two halves.  The exact half works over the rationals in
a truncated polynomial space: umbral model catalog (monomials, falling
and rising factorials, Hermite, heat, Bessel), the covariant transform
to the monomial picture, dual functionals and basis expansion, the
transmutation map between models, generalized translations with the
binomial/character checks, and formal verification of the Heisenberg
group law and twisted convolution.  The float half reproduces the
classical transmutation integrals (Poisson, Hankel, heat kernel,
cosine) with deterministic Gauss-Legendre quadrature.
"""

from .core import (
    DEFAULT_DEGREE_CAP,
    CapMismatchError,
    CapShortfallError,
    DomainError,
    Functional,
    LinearOp,
    ParameterError,
    Poly,
    QuadratureError,
    UmbraError,
    format_rational,
    parse_rational,
)

__version__ = "0.1.0"
