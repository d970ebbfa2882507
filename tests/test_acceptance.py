"""Acceptance suite.

Thirteen gate criteria, one test each, printing a PASS/FAIL line per
criterion so the suite reads as a checklist under ``pytest -v -s``.
Exact-arithmetic criteria use zero tolerance; numeric criteria pin the
tolerances promised in the package documentation.
"""

import math
from fractions import Fraction

import pytest

from umbra.core import Poly
from umbra.heisenberg import (
    composition_check_formal,
    generic_sl2_ladder,
    group_law_check,
    metaplectic_check,
    metaplectic_sequences,
    sl2_closure_check,
    weyl_relation_check,
)
from umbra.models import build_model, verify_model
from umbra.numeric import (
    canned_fn,
    cosine_transform,
    hankel_intertwining_check,
    hankel_transform,
    heat_covariant,
    little_bessel_j,
    poisson_intertwining_check,
    poisson_transform,
)
from umbra.quadrature import ScalarFn
from umbra.reports import PASS
from umbra.transforms import (
    biorthogonality_check,
    check_transmutation_intertwining,
    covariant_w0,
    expand_in_basis,
    reassemble,
    umbral_map,
)
from umbra.translations import binomial_check, character_check, generalized_translate

import reference as ref

N = 16
BESSEL_NUS = (1, 2, Fraction(5, 2), 3)


def catalog_n16():
    models = [
        build_model("monomial", N),
        build_model("lower-factorial", N),
        build_model("upper-factorial", N),
        build_model("hermite", N),
        build_model("heat", N),
    ]
    models += [build_model("bessel", N, nu=nu) for nu in BESSEL_NUS]
    return models


def tally(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_01_ladder_axioms():
    ok = True
    for m in catalog_n16():
        for r in verify_model(m):
            ok &= r.status == PASS
    tally("criterion 1: ladder axioms, full catalog at N=16, exact", ok)


def test_criterion_02_binomial_identity():
    ok = True
    for name in ("monomial", "lower-factorial", "upper-factorial"):
        m = build_model(name, N)
        for n in range(N + 1):
            ok &= binomial_check(m, n).status == PASS
    tally("criterion 2: binomial identity, n <= 16, exact bivariate", ok)


def test_criterion_03_covariant_transform():
    ok = True
    for m in catalog_n16():
        cap, ps = m.degree_cap, ref.basis(m)
        for n in range(N + 1):
            want = Poly([0] * n + [Fraction(1, math.factorial(n))], cap)
            ok &= covariant_w0(m, ps[n]) == want
        # intertwining on the safe zone, exactly
        for n in range(1, N + 1):
            lhs = covariant_w0(m, m.lowering.apply(ps[n]))
            ok &= lhs == covariant_w0(m, ps[n]).derivative()
        u = Poly([0, 1], cap)
        for n in range(N):
            lhs = covariant_w0(m, m.raising.apply(ps[n]))
            ok &= lhs == u * covariant_w0(m, ps[n])
    tally("criterion 3: W0 images u^n/n! and both intertwinings, exact", ok)


def test_criterion_04_biorthogonality():
    ok = True
    for m in catalog_n16():
        ok &= biorthogonality_check(m).status == PASS
        f = Poly([], m.degree_cap)
        for n, p in enumerate(ref.basis(m)[: N + 1]):
            f = f + p.scale(Fraction(n + 1, n + 2))
        ok &= reassemble(m, expand_in_basis(m, f)) == f
    tally("criterion 4: bi-orthogonality and round-trip expansion, exact", ok)


def test_criterion_05_transmutation_pairs():
    ok = True
    models = catalog_n16()
    for src in models:
        for dst in models:
            if src.parity != dst.parity:
                continue
            ok &= check_transmutation_intertwining(src, dst).status == PASS
    tally("criterion 5: transmutation intertwining, all same-parity pairs", ok)


def test_criterion_06_heat_translation():
    m = build_model("heat", 8)
    ok = True
    for k in range(1, 7):
        f = Poly([0] * (2 * k) + [1], m.degree_cap)
        for y in (1, Fraction(1, 2), -3):
            got = generalized_translate(m, y, f)
            want = (f.shift(y) + f.shift(-y)).scale(Fraction(1, 2))
            ok &= got == want
    tally("criterion 6: heat translation is the symmetrized shift, exact", ok)


def test_criterion_07_character_property():
    ok = True
    for name, nu in (
        ("monomial", None),
        ("heat", None),
        ("bessel", 2),
        ("bessel", Fraction(5, 2)),
    ):
        m = build_model(name, 12, nu=nu)
        ok &= character_check(m, 10).status == PASS
    tally("criterion 7: character property to order 10, exact", ok)


def test_criterion_08_bessel_closed_form():
    worst = 0.0
    for lam in (0.25, 1.0, 4.0):
        for k in range(50):
            t = 0.1 + k * (10.0 - 0.1) / 49
            z = math.sqrt(lam) * t
            worst = max(worst, abs(little_bessel_j(2, lam, t) - math.sin(z) / z))
    tally(f"criterion 8: nu=2 series vs sinc, max err {worst:.2e} <= 1e-12",
          worst <= 1e-12)


def test_criterion_09_poisson():
    one = canned_fn("one")
    worst_one = max(
        abs(poisson_transform(nu, one, x) - 1.0)
        for nu in (1, 2, 3, 3.5)
        for x in (0.5, 1.0, 2.0, 5.0)
    )
    grid = [0.5 + 4.5 * k / 19 for k in range(20)]
    cos = canned_fn("cos")
    worst_cos = max(
        abs(poisson_transform(2, cos, x) - math.sin(x) / x) for x in grid
    )
    rep = poisson_intertwining_check(2.0, cos, grid)
    ok = (
        worst_one <= 1e-10
        and worst_cos <= 1e-8
        and rep.max_residual <= 1e-6
        and rep.direction_holding is not None
    )
    tally(
        "criterion 9: Poisson normalization {:.1e}, sinc {:.1e}, "
        "intertwining {:.1e} (direction: {})".format(
            worst_one, worst_cos, rep.max_residual, rep.direction_holding
        ),
        ok,
    )


def test_criterion_10_hankel():
    f = canned_fn("exp")
    worst = max(
        abs(hankel_transform(2, f, lam) - 2.0 / (1.0 + lam) ** 2)
        for lam in (0.25, 1.0, 4.0)
    )
    bump = canned_fn("bump")
    residuals = [
        hankel_intertwining_check(nu, bump, [0.25, 1.0, 4.0]).max_residual
        for nu in (2.0, 3.0)
    ]
    ok = worst <= 1e-6 and max(residuals) <= 1e-6
    tally(
        f"criterion 10: Hankel table {worst:.1e}, "
        f"intertwining {max(residuals):.1e} <= 1e-6",
        ok,
    )


def test_criterion_11_heat_and_cosine():
    worst = 0.0
    for n in range(5):
        cs = [0.0] * (2 * n) + [1.0 / math.factorial(2 * n)]

        def poly(t, cs=tuple(cs)):
            acc = 0.0
            for c in reversed(cs):
                acc = acc * t + c
            return acc

        sf = ScalarFn(fn=poly, decay="none", growth_degree=2 * n)
        for u in (0.5, 1.0, 2.0):
            want = u**n / math.factorial(n)
            worst = max(worst, abs(heat_covariant(sf, u) - want))
    gauss = canned_fn("gauss")
    worst_cos = max(
        abs(cosine_transform(gauss, v) - math.sqrt(math.pi) * math.exp(-v / 4))
        for v in (0.0, 1.0, 4.0)
    )
    ok = worst <= 1e-8 and worst_cos <= 1e-8
    tally(
        f"criterion 11: heat covariant {worst:.1e}, cosine {worst_cos:.1e} <= 1e-8",
        ok,
    )


def test_criterion_12_heisenberg_formal_checks():
    ok = True
    for name in ("monomial", "heat"):
        m = build_model(name, 12)  # working indices = output index 4 + order 8
        for check in (group_law_check, weyl_relation_check, composition_check_formal):
            r = check(m, 8)
            ok &= r.status == PASS and r.max_residual == 0
    tally("criterion 12: group law, Weyl, composition at order 8, exact", ok)


def test_criterion_13_metaplectic():
    ok = True
    for name in ("monomial", "lower-factorial", "upper-factorial", "hermite"):
        m = build_model(name, 32)
        for r in metaplectic_check(m):
            ok &= r.status == PASS
        ok &= sl2_closure_check(m).status == PASS
    for name in ("heat", "bessel"):
        m = build_model(name, 16, nu=Fraction(5, 2) if name == "bessel" else None)
        for r in metaplectic_check(m):
            ok &= r.status == PASS
        res = generic_sl2_ladder(*metaplectic_sequences(m)[:3])
        ok &= res.ok and res.constants == (4, -2, 2)
    seqs = [list(s) for s in metaplectic_sequences(build_model("heat", 8))[:3]]
    seqs[2][3] += 1
    bad = generic_sl2_ladder(*seqs)
    ok &= (not bad.ok) and bad.first_violation is not None
    tally("criterion 13: metaplectic constants (4,-2,2) on every certifiable column, "
          "perturbation rejected", ok)
