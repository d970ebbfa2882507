"""Seeded request lists for the three workloads, with their expected
answers and the verdict rule that compares an output against them.

A request is the argv handed to ``umbra.cli.main`` plus what the oracle
expects back.  Expectations are computed here, before any timing, from
``oracle`` (which shares no code with umbra).  The seed changes the
values of the inputs and the order of the requests, but each workload
is balanced so that the work in a pass stays nearly the same from seed
to seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import oracle

WORKLOADS = ("verify-catalog", "exact-maps", "numeric-transforms")

#: Nominal seconds of one pass over each workload's request list, timed
#: on a 2-vCPU Intel Xeon VM.  A run makes ceil(seconds / PASS_S) passes:
#: a fixed number for a given ``--seconds``, so the measured work never
#: depends on how fast the program is.
PASS_S = {"verify-catalog": 20.0, "exact-maps": 4.0, "numeric-transforms": 10.0}

#: Per-request deadline in seconds.  verify-catalog requests run a whole
#: model's checks at degree 32; the others are short requests whose
#: slowest member (a Hankel transform at lambda = 4) takes 2 to 4 s.
DEADLINE_S = {"verify-catalog": 60.0, "exact-maps": 20.0, "numeric-transforms": 10.0}

CATALOG = ("monomial", "lower-factorial", "upper-factorial", "hermite", "heat", "bessel")
ALL_PARITY = ("monomial", "lower-factorial", "upper-factorial", "hermite")
#: (name, nu) for every model the exact-maps workload draws from.
MAP_MODELS = tuple((m, None) for m in ALL_PARITY) + (
    ("heat", None), ("bessel", Fraction(2)), ("bessel", Fraction(5, 2)),
)
MAP_DEGREES = (8, 16, 32)

#: The reports ``verify --all`` must give, in order, per catalog model:
#: the ladder axioms, the transform checks, the translation checks that
#: apply (binomial type for monomial and factorial bases only, Delsarte
#: eigenfunctions for all but Hermite) and the Heisenberg/sl2 checks.
#: 104 reports over the six models.
_LADDER = ("ladder-lowering", "ladder-raising", "vacuum", "commutator",
           "biorthogonality", "covariant", "generating-function")
_GROUP = ("group-law", "weyl-relation", "twisted-composition", "twisted-convolution",
          "sl2-closure", "sl2-commutator", "sl2-z-lowering", "sl2-z-raising")
CATALOG_CHECKS = {
    "monomial": _LADDER + ("binomial", "character", "delsarte") + _GROUP,
    "lower-factorial": _LADDER + ("binomial", "character", "delsarte") + _GROUP,
    "upper-factorial": _LADDER + ("binomial", "character", "delsarte") + _GROUP,
    "hermite": _LADDER + ("character",) + _GROUP,
    "heat": _LADDER + ("character", "delsarte") + _GROUP,
    "bessel": _LADDER + ("character", "delsarte") + _GROUP,
}

#: Tolerances promised by the package documentation and its acceptance
#: suite: j_nu grids at 1e-12, Poisson at 1e-8, Hankel at 1e-6.
J_TOL = 1e-12
QUAD_TOL = 1e-8
HANKEL_TOL = 1e-6

#: An unbounded request: the exact-rational series at lambda t^2 = 1e10,
#: which does not finish in 20 s.  Run once after the passes as a probe,
#: under a deadline fit for one point of j_nu, which a bounded-time
#: evaluation returns in milliseconds.
DEADLINE_PROBE = ["bessel", "j", "--nu", "2", "--lambda", "1e6", "--x", "100", "--format", "json"]
PROBE_DEADLINE_S = 2.0


@dataclass
class Request:
    argv: list[str]
    expect: dict[str, Any]


def _fmt(q: Fraction) -> str:
    return oracle.format_rational(q)


def _model_flags(model: tuple, prefix: str = "--model", nu_flag: str = "--nu") -> list[str]:
    name, nu = model
    out = [prefix, name]
    if nu is not None:
        out += [nu_flag, _fmt(nu)]
    return out


def _random_poly(rng: random.Random, model: str, n_max: int) -> list[Fraction]:
    """Small-rational polynomial inside the model's space, on basis
    indices 0..6: numerators in [-9, 9], denominators in [1, 6]."""
    top = min(n_max, 6)
    coeffs = [Fraction(0)] * (oracle.index_degree(model, top) + 1)
    for n in range(top + 1):
        coeffs[oracle.index_degree(model, n)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if not coeffs[-1]:
        coeffs[-1] = Fraction(1)
    return coeffs


def _poly_flag(coeffs: list[Fraction]) -> str:
    # "--poly=..." keeps a leading negative coefficient from being read
    # as an option by argparse.
    return "--poly=" + ",".join(_fmt(c) for c in coeffs)


# -- workloads ---------------------------------------------------------

def verify_catalog(rng: random.Random) -> list[Request]:
    """verify --all at degree 32 on every catalog model, seeded order."""
    reqs = []
    for name in CATALOG:
        argv = ["verify", "--all", "--model", name, "--degree", "32", "--format", "json"]
        if name == "bessel":
            argv += ["--nu", "5/2"]
        reqs.append(Request(argv, {"kind": "reports", "checks": list(CATALOG_CHECKS[name])}))
    rng.shuffle(reqs)
    return reqs


def passes(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / PASS_S[workload]))


def exact_maps(rng: random.Random) -> list[Request]:
    """Short exact requests (transmute, w0, translate, genfun), balanced
    over degrees and models, plus the 18 same-parity transmutation
    checks at degree 16."""
    reqs: list[Request] = []
    for kind in ("transmute", "w0", "translate", "genfun"):
        for degree in MAP_DEGREES:
            models = list(MAP_MODELS)
            rng.shuffle(models)
            for i, model in enumerate(models):
                fmt = ("json", "csv")[(i + MAP_DEGREES.index(degree)) % 2]
                reqs.append(_exact_request(rng, kind, model, degree, fmt))
    for src in MAP_MODELS:
        for dst in MAP_MODELS:
            same = (src[0] in ALL_PARITY) == (dst[0] in ALL_PARITY)
            if src != dst and same:
                argv = (["verify", "--check", "transmute"]
                        + _model_flags(src, "--from", "--from-nu")
                        + _model_flags(dst, "--to", "--to-nu")
                        + ["--degree", "16", "--format", "json"])
                reqs.append(Request(argv, {"kind": "reports",
                                           "checks": ["transmutation-intertwining"]}))
    rng.shuffle(reqs)
    return reqs


def _exact_request(rng: random.Random, kind: str, model: tuple, degree: int, fmt: str) -> Request:
    name = model[0]
    if kind == "genfun":
        order = rng.randint(2, min(degree, 12))
        argv = ["genfun"] + _model_flags(model) + ["--degree", str(degree), "--order", str(order), "--format", fmt]
        rows = oracle.genfun_rows(model, degree, order)
        return Request(argv, {"kind": "genfun", "format": fmt, "rows": [[_fmt(c) for c in r] for r in rows]})
    f = _random_poly(rng, name, degree)
    if kind == "transmute":
        dst = rng.choice(MAP_MODELS)
        argv = (["transmute"] + _model_flags(model, "--from", "--from-nu")
                + _model_flags(dst, "--to", "--to-nu") + ["--degree", str(degree)])
        want, var = oracle.transmute(model, dst, degree, f), "t"
    elif kind == "w0":
        argv = ["w0"] + _model_flags(model) + ["--degree", str(degree)]
        want, var = oracle.w0(model, degree, f), "u"
    else:
        y = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        argv = ["translate"] + _model_flags(model) + ["--degree", str(degree), "--y=" + _fmt(y)]
        want, var = oracle.translate(model, degree, y, f), "t"
    argv += [_poly_flag(f), "--format", fmt]
    return Request(argv, {"kind": "coeffs", "format": fmt, "variable": var,
                          "coefficients": [_fmt(c) for c in want]})


def _jittered(rng: random.Random, centers: tuple[float, ...]) -> list[float]:
    """Each design point moved by up to 5%: the values, and so the
    answers, change with the seed while the work stays the same."""
    return [c * (1 + 0.1 * (rng.random() - 0.5)) for c in centers]


def numeric_transforms(rng: random.Random) -> list[Request]:
    """The float half: j_nu grids over both series paths, Hankel, Poisson,
    heat and cosine transforms, and the two intertwining checks.  The
    seed moves every input within a few percent of a fixed design point,
    because the cost of quadrature and of the exact series depends on
    where the inputs fall."""
    reqs: list[Request] = []
    # j_nu grids: five points with lambda t^2 between 1e-2 and 25 run the
    # float series; lambda t^2 near 1e2, 1e3, ..., 1e6 runs the exact-
    # rational one.  Those t are multiples of 1/8 and lambda is 1, because
    # the exact series' cost grows with the bit length of lambda t^2: at
    # full 53-bit floats z = 1e6 alone takes about 30 s (the unbounded
    # case that the deadline probe covers).
    lam = 1.0
    for nu in ("2", "5/2", "3"):
        zs = _jittered(rng, (1e-2, 1e-1, 1.0, 6.0, 20.0))
        ts = [math.sqrt(z / lam) for z in zs]
        ts += [round(math.sqrt(10 ** i / lam) * 8) / 8 for i in range(2, 7)]
        argv = ["bessel", "j", "--nu", nu, "--lambda", repr(lam),
                "--grid", ",".join(repr(t) for t in ts), "--format", "json"]
        want = [oracle.little_j(Fraction(nu), lam, t) for t in ts]
        reqs.append(Request(argv, {"kind": "values", "key": "t", "values": want, "tol": J_TOL}))
    # Hankel transforms spread over lambda in [0.5, 4]; the cost grows
    # with lambda.
    hankel_cases = (("exp", "2"), ("gauss", "3"), ("exp", "5/2"), ("gauss", "2"))
    for (fn, nu), lam in zip(hankel_cases, _jittered(rng, (0.75, 1.5, 2.25, 3.25))):
        argv = ["bessel", "hankel", "--nu", nu, "--fn", fn, "--lambda", repr(lam), "--format", "json"]
        want = oracle.hankel(Fraction(nu), fn, lam)
        reqs.append(Request(argv, {"kind": "values", "key": None, "values": [want], "tol": HANKEL_TOL}))

    # Poisson, heat and cosine transforms take one point per request.
    # These 40 cheap requests and the four intertwining checks are most
    # of the list, so the median latency sits among them, and the 90th
    # percentile among the three j_nu grids and the cheapest Hankel
    # transform, which cost about the same, rather than in the gap below
    # the three dearer Hankel transforms.
    def point(argv: list[str], flag: str, x: float, want: float) -> Request:
        return Request(argv + [flag, repr(x), "--format", "json"],
                       {"kind": "values", "key": None, "values": [want], "tol": QUAD_TOL})

    def poly() -> list[Fraction]:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)]

    for nu in ("2", "5/2", "3"):
        xs = _jittered(rng, (0.6, 1.0, 1.5, 2.0, 2.8))
        if nu == "5/2":
            argv = ["bessel", "poisson", "--nu", nu, "--fn", "cos"]
            reqs += [point(argv, "--x", x, oracle.poisson_cos(Fraction(nu), x)) for x in xs]
        else:
            f = poly()
            argv = ["bessel", "poisson", "--nu", nu, _poly_flag(f)]
            reqs += [point(argv, "--x", x, oracle.poisson_poly(Fraction(nu), f, x)) for x in xs]
    f = poly()
    for fn in ("gauss", "cos", "poly"):
        argv = ["heat", "covariant"] + ([_poly_flag(f)] if fn == "poly" else ["--fn", fn])
        reqs += [point(argv, "--u", u, oracle.heat(fn, u, f)) for u in _jittered(rng, (0.3, 0.6, 1.0, 1.4, 1.9))]
    for fn in ("gauss", "bump"):
        reqs += [point(["cosine", "--fn", fn], "--v", v, oracle.cosine(fn, v))
                 for v in _jittered(rng, (0.8, 2.5, 4.5, 6.5, 8.5))]
    # The Poisson transform satisfies B (P f) = P (f''), the r2 relation;
    # the Hankel transform turns B into multiplication by -lambda.
    for nu, fn in (("2", "cos"), ("3", "gauss")):
        argv = ["verify", "--check", "poisson-intertwining", "--nu", nu, "--fn", fn, "--format", "json"]
        reqs.append(Request(argv, {"kind": "residual", "direction": "r2"}))
    for nu in ("2", "3"):
        lams = _jittered(rng, (0.5, 1.5, 3.5))
        argv = ["verify", "--check", "hankel-intertwining", "--nu", nu, "--fn", "bump",
                "--grid", ",".join(repr(x) for x in lams), "--format", "json"]
        reqs.append(Request(argv, {"kind": "residual", "direction": "holds"}))
    rng.shuffle(reqs)
    return reqs


def build(workload: str, seed: int) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    return {"verify-catalog": verify_catalog, "exact-maps": exact_maps,
            "numeric-transforms": numeric_transforms}[workload](rng)


def probe_request() -> Request:
    return Request(list(DEADLINE_PROBE), {"kind": "values", "key": None,
                                          "values": [oracle.little_j(2, 1e6, 100.0)], "tol": J_TOL})


# -- verdicts ----------------------------------------------------------

def verdict(expect: dict[str, Any], rc: int, out: str) -> str | None:
    """None when the output matches the oracle, else the reason it fails."""
    kind = expect["kind"]
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        if kind == "reports":
            data = json.loads(out)
            reps = data if isinstance(data, list) else [data]
            checks = [r["check"] for r in reps]
            if checks != expect["checks"]:
                return f"checks {checks}, expected {expect['checks']}"
            bad = [r["check"] for r in reps if r["status"] != "pass"]
            return f"not pass: {bad}" if bad else None
        if kind == "coeffs":
            return _check_coeffs(expect, out)
        if kind == "genfun":
            return _check_genfun(expect, out)
        if kind == "values":
            return _check_values(expect, out)
        if kind == "residual":
            data = json.loads(out)
            if data["direction_holding"] != expect["direction"]:
                return f"direction {data['direction_holding']}, expected {expect['direction']}"
            if not data["max_residual"] <= data["params"]["tol"]:
                return f"residual {data['max_residual']}"
            return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown expectation {kind!r}")


def _csv_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))[1:]


def _check_coeffs(expect: dict[str, Any], out: str) -> str | None:
    if expect["format"] == "json":
        data = json.loads(out)
        if data["variable"] != expect["variable"] or data["truncated"] is not False:
            return f"variable/truncated {data['variable']}/{data['truncated']}"
        got = data["coefficients"]
    else:
        got = [row[1] for row in _csv_rows(out) if row]
    return None if got == expect["coefficients"] else "coefficients differ"


def _check_genfun(expect: dict[str, Any], out: str) -> str | None:
    if expect["format"] == "json":
        data = json.loads(out)
        if data["report"]["status"] != "pass":
            return "generating-function check not pass"
        rows = data["rows"]
    else:
        rows = [row[1:] for row in _csv_rows(out) if row]
    return None if rows == expect["rows"] else "rows differ"


def _check_values(expect: dict[str, Any], out: str) -> str | None:
    data = json.loads(out)
    got = [data["value"]] if expect["key"] is None else [row["value"] for row in data]
    want = expect["values"]
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    for g, w in zip(got, want):
        if not oracle.close(float(g), w, expect["tol"]):
            return f"value {g!r}, expected {w!r}"
    return None
