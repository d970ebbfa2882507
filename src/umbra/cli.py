"""Command-line front end.

Grammar: umbra <models|verify|w0|transmute|translate|bessel|heat|cosine|genfun>

Exact commands exchange rationals as "p/q" strings and polynomials as
comma-separated coefficient lists; the float commands (bessel, heat,
cosine) take decimal floats or "p/q".  Exit codes: 0 success/pass,
1 verification failure (or an inconclusive result: a truncation-tainted
check certifies nothing), 2 usage or parameter error, 3 numeric
non-convergence, 141 (128 + SIGPIPE) when the reader of stdout went away
before the output was written, as in ``umbra ... | head -1``; that case
prints nothing more.

``verify`` runs the checks listed in ``CHECKS``: one by name with
``--check``, or every one that applies to the model with ``--all``.
Beside it, ``FLOAT_COMMANDS`` holds one row per float command and mode,
and ``_cmd_float`` serves them all: a row names the point flag and
builds the function of one point from the other flags.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import sys
import types
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, NamedTuple, Sequence

from .core import (
    DEFAULT_DEGREE_CAP,
    ParameterError,
    Poly,
    QuadratureError,
    UmbraError,
    format_rational,
    parse_rational,
)
from .kernels import Column
from .models import MODEL_NAMES, UmbralModel, build_model, verify_model
from .reports import (
    ResidualReport,
    VerificationReport,
    reports_to_json,
    rows_to_csv,
)
from . import heisenberg, transforms, translations


def _lazy(name: str) -> types.ModuleType:
    """``umbra.<name>`` as imported before, else registered in sys.modules
    and on the package but run only when one of its attributes is first
    read (``importlib.util.LazyLoader``): exact commands never compile it."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


numeric, quadrature = _lazy("numeric"), _lazy("quadrature")

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_PIPE = 141


def _rational_flag(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (UmbraError, ValueError) as exc:
        raise ParameterError(f"bad rational for {name}: {exc}") from None


def _float_flag(name: str, text: str) -> float:
    """Numeric commands accept a decimal float or "p/q", finite as a double."""
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(parse_rational(text))
        except (UmbraError, ValueError):
            raise ParameterError(f"bad numeric value for {name}: {text!r}") from None
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {text!r}")
    return value


def _parse_grid(text: str, flag: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece:
            out.append(_float_flag(flag, piece))
    if not out:
        raise ParameterError(f"{flag} needs at least one value")
    return out


def _parse_poly(text: str, cap: int) -> Poly:
    coeffs = []
    for k, piece in enumerate(text.split(",")):
        piece = piece.strip()
        coeffs.append(_rational_flag(f"--poly[{k}]", piece) if piece else Fraction(0))
    if len(coeffs) > cap + 1:
        raise ParameterError(
            f"polynomial has {len(coeffs)} coefficients but the working "
            f"degree is {cap}; raise --degree"
        )
    return Poly(coeffs, cap)


def _load_model(args: argparse.Namespace, attr: str = "model") -> UmbralModel:
    name = getattr(args, attr, None)
    if not name:
        flag = {"src": "--from", "to": "--to"}.get(attr, "--model")
        raise ParameterError(f"{flag} is required")
    nu = None
    if attr == "model":
        raw_nu = args.nu
    else:
        # --from-nu / --to-nu name one side; --nu goes to a side that takes nu
        raw_nu = getattr(args, f"{attr}_nu", None)
        if not raw_nu and name == "bessel":
            raw_nu = args.nu
    if raw_nu is not None:
        nu = _rational_flag("--nu", raw_nu)
    return build_model(name, args.degree, nu=nu)


def _load_pair(args: argparse.Namespace) -> tuple[UmbralModel, UmbralModel]:
    """The --from and --to models."""
    src = _load_model(args, "src")
    dst = _load_model(args, "to")
    if args.nu is not None and "bessel" not in (args.src, args.to):
        raise ParameterError(
            f"--nu given but neither {args.src!r} nor {args.to!r} takes nu"
        )
    return src, dst


def _order(args: argparse.Namespace, default: int | None) -> int | None:
    """--order if it was given, else ``default``."""
    if args.order is None:
        return default
    if args.order < 0:
        raise ParameterError(f"--order must be >= 0, got {args.order}")
    return args.order


def _nu(args: argparse.Namespace) -> float:
    """--nu of a float command or residual check, 2 if it is not given."""
    return _float_flag("--nu", args.nu) if args.nu else 2.0


def _tol(args: argparse.Namespace, default: float | None) -> float | None:
    """--tol if it was given, else ``default``."""
    tol = getattr(args, "tol", None)
    if tol is None:
        return default
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"--tol must be finite and > 0, got {tol}")
    return tol


def _emit(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        print(text)


def _coeff_output(args: argparse.Namespace, poly: Poly, var: str) -> str:
    coeffs = [format_rational(c) for c in poly.coeffs]
    if args.format == "json":
        return json.dumps(
            {"variable": var, "coefficients": coeffs, "truncated": poly.truncated},
            sort_keys=True,
        )
    if args.format == "csv":
        return rows_to_csv(
            ("degree", "coefficient"),
            [(k, c) for k, c in enumerate(coeffs)],
        )
    top = max((k for k, c in enumerate(poly.coeffs) if c), default=0)
    return ", ".join(coeffs[: top + 1])


def _rows_output(
    args: argparse.Namespace, header: Sequence[str], rows: list[tuple], plain: str | None = None
) -> str:
    """A table as a JSON list of objects, as CSV, or under --format plain
    as one ``plain.format(*row)`` line per row (CSV if ``plain`` is None)."""
    if args.format == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], sort_keys=True)
    if args.format == "plain" and plain:
        return "\n".join(plain.format(*r) for r in rows)
    return rows_to_csv(header, rows)


def _report_exit(reports: Sequence[VerificationReport | ResidualReport]) -> int:
    return _EXIT_OK if all(r.passed for r in reports) else _EXIT_FAIL


def _report_output(
    args: argparse.Namespace, reports: Sequence[VerificationReport | ResidualReport]
) -> str:
    if args.format == "json":
        if len(reports) == 1:
            return reports[0].to_json()
        return reports_to_json(reports)
    if isinstance(reports[0], ResidualReport):
        rep = reports[0]
        if args.format == "csv":
            return rows_to_csv(
                ("check", "max_residual", "direction_holding"),
                [(rep.check, rep.max_residual, rep.direction_holding or "")],
            )
        return (f"{rep.check}: max_residual={rep.max_residual:.3e} "
                f"direction={rep.direction_holding}")
    if args.format == "csv":
        return rows_to_csv(
            ("check", "model", "status", "max_residual", "first_failure"),
            [
                (r.check, r.model or "", r.status,
                 "" if r.max_residual is None else r.max_residual,
                 "" if r.first_failure is None else json.dumps(r.first_failure, sort_keys=True, default=str))
                for r in reports
            ],
        )
    lines = []
    for r in reports:
        extra = ""
        if r.max_residual is not None:
            extra = f"  max_residual={float(r.max_residual):.3e}"
        if r.first_failure is not None:
            extra += f"  at {r.first_failure}"
        lines.append(f"{r.check:28s} {(r.model or '-'):24s} {r.status}{extra}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name in MODEL_NAMES:
        nu = Fraction(5, 2) if name == "bessel" else None
        m = build_model(name, 4, nu=nu)
        rows.append((name, m.parity.value, "yes" if m.shift_invariant else "no",
                     "yes" if m.vacuum_is_eval0() else "no",
                     "--nu p/q required" if name == "bessel" else ""))
    _emit(args, _rows_output(
        args, ("model", "parity", "shift_invariant", "vacuum_is_eval0", "notes"), rows,
        "{:16s} parity={:5s} shift_invariant={:3s} vacuum_is_eval0={:3s} {}",
    ))
    return _EXIT_OK


class _Target:
    """What the checks of one verify run act on: the --model model, built
    on first use and then shared, and the flags for everything else."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def model(self) -> UmbralModel:
        return _load_model(self.args)


#: Order default meaning the model's top basis index.
TOP = "n_max"


def _always(m: UmbralModel) -> bool:
    return True


class Check(NamedTuple):
    """One verify check.

    ``run(target, order)`` returns its reports.  ``applies(model)`` says
    whether ``--all`` runs it on that model.  ``order`` and
    ``all_order`` are its formal order by default under ``--check`` and
    under ``--all``: None for a check that takes no order, an int that
    ``--order`` replaces (left alone, it is capped at the model's top
    basis index), or ``TOP``, the model's top basis index, which
    ``--order`` replaces under ``--check`` only.
    """

    run: Callable[[_Target, int | None], list]
    applies: Callable[[UmbralModel], bool] = lambda m: False
    order: int | str | None = None
    all_order: int | str | None = None


def _model_check(name: str) -> Callable[[_Target, int | None], list]:
    return lambda t, _: [r for r in verify_model(t.model) if r.check == name]


def _residual_check(check: str, fn: str, grid: list[float]) -> Check:
    """The verify check that runs ``numeric.<check>`` with --nu (2 by
    default), --fn (``fn`` by default), --grid (``grid`` by default) and
    --tol (1e-6 by default), read in that order."""

    def run(t: _Target, _: int | None) -> list[ResidualReport]:
        nu, f = _nu(t.args), numeric.canned_fn(t.args.fn or fn)
        points = _parse_grid(t.args.grid, "--grid") if t.args.grid else grid
        return [getattr(numeric, check)(nu, f, points, tol=_tol(t.args, 1e-6))]

    return Check(run)


# Checks call through their module attributes so that anything wrapping
# a module function (a profiler, a tracer) sees the call.
CHECKS: dict[str, Check] = {
    "ladder": Check(lambda t, _: verify_model(t.model), _always),
    "lowering": Check(_model_check("ladder-lowering")),
    "raising": Check(_model_check("ladder-raising")),
    "vacuum": Check(_model_check("vacuum")),
    "commutator": Check(_model_check("commutator")),
    "duals": Check(lambda t, _: [transforms.biorthogonality_check(t.model)], _always),
    "covariant": Check(lambda t, _: [transforms.covariant_check(t.model)], _always),
    "genfun": Check(lambda t, k: [transforms.generating_function(t.model, k)],
                    _always, TOP, TOP),
    "binomial": Check(lambda t, k: translations.binomial_sweep(t.model, k),
                      lambda m: m.shift_invariant and m.vacuum_is_eval0(), TOP, TOP),
    "character": Check(lambda t, k: [translations.character_check(t.model, k)], _always, 8, 6),
    "delsarte": Check(lambda t, k: [translations.delsarte_eigen_check(t.model, k)],
                      lambda m: m.vacuum_is_eval0(), TOP, TOP),
    "transmute": Check(
        lambda t, _: [transforms.check_transmutation_intertwining(*_load_pair(t.args))]),
    "group-law": Check(lambda t, k: [heisenberg.group_law_check(t.model, k)], _always, 4, 4),
    "weyl": Check(lambda t, k: [heisenberg.weyl_relation_check(t.model, k)], _always, 4, 4),
    "composition": Check(lambda t, k: [heisenberg.composition_check_formal(t.model, k)],
                         _always, 4, 4),
    "twisted": Check(lambda t, _: [heisenberg.twisted_convolve_check()], _always),
    "sl2": Check(lambda t, _: [heisenberg.sl2_closure_check(t.model)], lambda m: m.n_max >= 2),
    "metaplectic": Check(lambda t, _: heisenberg.metaplectic_check(t.model),
                         lambda m: m.n_max >= 2),
    "poisson-intertwining": _residual_check(
        "poisson_intertwining_check", "cos", [0.5 + k * 4.5 / 19 for k in range(20)]),
    "hankel-intertwining": _residual_check("hankel_intertwining_check", "bump", [0.25, 1.0, 4.0]),
}


def _check_order(check: Check, target: _Target, sweep: bool) -> int | None:
    """The formal order ``check`` runs at; ``sweep`` is True under --all."""
    given = _order(target.args, None)
    default = check.all_order if sweep else check.order
    if default is None:
        return None
    if default == TOP:
        if sweep or given is None:
            return target.model.n_max
    elif given is None:
        return min(default, target.model.n_max)
    return given


def _cmd_verify(args: argparse.Namespace) -> int:
    target = _Target(args)
    if args.all:
        checks = [c for c in CHECKS.values() if c.applies(target.model)]
    elif args.check:
        checks = [CHECKS[args.check]]
    else:
        raise ParameterError("verify needs --check NAME or --all")
    reports = []
    for check in checks:
        reports.extend(check.run(target, _check_order(check, target, args.all)))
    _emit(args, _report_output(args, reports))
    return _report_exit(reports)


def _cmd_w0(args: argparse.Namespace) -> int:
    m = _load_model(args)
    if not args.poly:
        raise ParameterError("w0 needs --poly \"c0,c1,...\"")
    f = _parse_poly(args.poly, m.degree_cap)
    _emit(args, _coeff_output(args, transforms.covariant_w0(m, f), "u"))
    return _EXIT_OK


def _cmd_transmute(args: argparse.Namespace) -> int:
    src, dst = _load_pair(args)
    if not args.poly:
        raise ParameterError("transmute needs --poly \"c0,c1,...\"")
    f = _parse_poly(args.poly, src.degree_cap)
    _emit(args, _coeff_output(args, transforms.umbral_map(src, dst, f), "t"))
    return _EXIT_OK


def _cmd_translate(args: argparse.Namespace) -> int:
    m = _load_model(args)
    if not args.poly:
        raise ParameterError("translate needs --poly \"c0,c1,...\"")
    if args.y is None:
        raise ParameterError("translate needs --y p/q")
    y = _rational_flag("--y", args.y)
    f = _parse_poly(args.poly, m.degree_cap)
    _emit(args, _coeff_output(args, translations.generalized_translate(m, y, f), "t"))
    return _EXIT_OK


def _genfun_row(col: Column, den: int, cap: int) -> list[str]:
    """The t^0..t^cap coefficients of a kernel column over den > 0 as
    ``format_rational`` prints them: one gcd per nonzero, "0" elsewhere."""
    row = ["0"] * (cap + 1)
    for i, x in zip(*col):
        g = math.gcd(x, den)
        row[i] = str(x // g) if g == den else f"{x // g}/{den // g}"
    return row


def _cmd_genfun(args: argparse.Namespace) -> int:
    m = _load_model(args)
    order = _order(args, min(8, m.n_max))
    report = transforms.generating_function(m, order)
    cols = m.basis_op.cols[: order + 1]
    table = [_genfun_row(col, m.basis_op.den, m.degree_cap) for col in cols]
    if args.format == "json":
        out = {"report": report.to_dict(), "rows": table}
        _emit(args, json.dumps(out, sort_keys=True, default=str))
    elif args.format == "plain":
        lines = [_report_output(args, [report])]
        for k, (row, (rows, _)) in enumerate(zip(table, cols)):
            lines.append(f"s^{k}: " + ", ".join(row[: rows[-1] + 1 if rows else 1]))
        _emit(args, "\n".join(lines))
    else:
        header = ["s_order"] + [f"t^{j}" for j in range(m.degree_cap + 1)]
        _emit(args, rows_to_csv(header, [[k] + row for k, row in enumerate(table)]))
    return _report_exit([report])


def _scalar_fn(args: argparse.Namespace) -> numeric.ScalarFn:
    if args.poly:
        p = _parse_poly(args.poly, args.degree)
        try:
            fs = [float(c) for c in p.coeffs]
        except OverflowError:
            raise ParameterError("--poly coefficients must lie within the double range") from None
        deg = max((k for k, c in enumerate(p.coeffs) if c), default=0)

        def fn(t: float) -> float:
            acc = 0.0
            for c in reversed(fs):
                acc = acc * t + c
            return acc

        return numeric.ScalarFn(fn=fn, decay="none", growth_degree=deg)
    return numeric.canned_fn(args.fn or "one")


def _quad_spec(args: argparse.Namespace) -> quadrature.QuadratureSpec:
    tol = _tol(args, None)
    spec = quadrature.QuadratureSpec
    return spec() if tol is None else spec(abs_tol=tol, rel_tol=tol)


class FloatCommand(NamedTuple):
    """One float command, or one mode of it.  ``flag`` names its point,
    which the parser stores under ``attr``; ``column`` heads the points
    in a table, and ``missing`` is the refusal when neither the point nor
    --grid is given.  ``at(args, q)`` reads the other flags and returns
    the function of one point.  It looks its ``numeric`` function up as
    the command runs, so anything wrapping that function (a profiler, a
    tracer) sees every call."""

    flag: str
    attr: str
    column: str
    missing: str
    at: Callable[[argparse.Namespace, quadrature.QuadratureSpec], Callable[[float], float]]


FLOAT_COMMANDS: dict[tuple[str, str | None], FloatCommand] = {
    ("bessel", "j"): FloatCommand(
        "--x", "x", "t", "bessel j needs --x T or --grid",
        lambda a, q: partial(numeric.little_bessel_j, _nu(a),
                             _float_flag("--lambda", a.lam) if a.lam else 1.0)),
    ("bessel", "poisson"): FloatCommand(
        "--x", "x", "x", "bessel poisson needs --x F or --grid",
        lambda a, q: partial(numeric.poisson_transform, _nu(a), _scalar_fn(a), q=q)),
    ("bessel", "hankel"): FloatCommand(
        "--lambda", "lam", "lambda", "bessel hankel needs --lambda F or --grid",
        lambda a, q: partial(numeric.hankel_transform, _nu(a), _scalar_fn(a), q=q)),
    ("heat", "covariant"): FloatCommand(
        "--u", "u", "u", "heat covariant needs --u F or --grid",
        lambda a, q: partial(numeric.heat_covariant, _scalar_fn(a), q=q)),
    ("cosine", None): FloatCommand(
        "--v", "v", "v", "cosine needs --v F or --grid",
        lambda a, q: partial(numeric.cosine_transform, _scalar_fn(a), q=q)),
}


def _cmd_float(args: argparse.Namespace) -> int:
    """Every float command: its function at each --grid point, or else
    at its one point.  The flags are read in the order --tol, --nu,
    --lambda or --fn/--poly, then the points."""
    row = FLOAT_COMMANDS[args.command, getattr(args, "mode", None)]
    at = row.at(args, _quad_spec(args))
    if args.grid:
        points = _parse_grid(args.grid, "--grid")
    elif getattr(args, row.attr) is None:
        raise ParameterError(row.missing)
    else:
        points = [_float_flag(row.flag, getattr(args, row.attr))]
    rows = [(x, at(x)) for x in points]
    if len(rows) > 1 or args.format == "csv":
        _emit(args, _rows_output(args, (row.column, "value"), rows))
    elif args.format == "json":
        _emit(args, json.dumps({"value": rows[0][1]}))
    else:
        _emit(args, repr(rows[0][1]))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, model: bool = False) -> None:
    if model:
        p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument("--nu", help='Bessel parameter as "p/q"')
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE_CAP,
                       help="working basis-index cap")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p.add_argument("--out", help="write output to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a word starting with "-" and a
    digit, or "-." and a digit, as a value, never as a flag, so that
    ``--poly -1,2`` and ``--y -1/2`` parse as ``--poly=-1,2`` and
    ``--y=-1/2`` do, as ``--x -1`` always did.  No umbra flag looks like
    that.  ``add_subparsers`` makes the subparsers of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    top = _Parser(
        prog="umbra",
        description="Exact ladder-operator calculus and its numeric transforms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list the model catalog")
    _add_common(p)
    p.set_defaults(handler=_cmd_models)

    p = sub.add_parser("verify", help="run verification checks")
    _add_common(p, model=True)
    p.add_argument("--check", choices=tuple(CHECKS))
    p.add_argument("--all", action="store_true",
                   help="every check applicable to the model")
    p.add_argument("--order", type=int, help="formal order for series checks")
    p.add_argument("--tol", type=float, help="tolerance for residual checks")
    p.add_argument("--from", dest="src", choices=MODEL_NAMES,
                   help="source model for --check transmute")
    p.add_argument("--to", dest="to", choices=MODEL_NAMES)
    p.add_argument("--from-nu", dest="src_nu", help='source --nu as "p/q"')
    p.add_argument("--to-nu", dest="to_nu", help='target --nu as "p/q"')
    p.add_argument("--fn", help="canned function for numeric checks")
    p.add_argument("--grid", help="comma-separated evaluation points")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("w0", help="covariant transform of a polynomial")
    _add_common(p, model=True)
    p.add_argument("--poly", help='coefficients "c0,c1,..." as rationals')
    p.set_defaults(handler=_cmd_w0)

    p = sub.add_parser("transmute", help="map a polynomial between models")
    _add_common(p)
    p.add_argument("--from", dest="src", choices=MODEL_NAMES, required=True)
    p.add_argument("--to", dest="to", choices=MODEL_NAMES, required=True)
    p.add_argument("--nu", help='Bessel parameter for either side, as "p/q"')
    p.add_argument("--from-nu", dest="src_nu")
    p.add_argument("--to-nu", dest="to_nu")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE_CAP)
    p.add_argument("--poly", help='coefficients "c0,c1,..." as rationals')
    p.set_defaults(handler=_cmd_transmute)

    p = sub.add_parser("translate", help="generalized translation of a polynomial")
    _add_common(p, model=True)
    p.add_argument("--y", help='translation step as "p/q"')
    p.add_argument("--poly", help='coefficients "c0,c1,..." as rationals')
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("genfun", help="generating-function coefficient table")
    _add_common(p, model=True)
    p.add_argument("--order", type=int, help="series order in s")
    p.set_defaults(handler=_cmd_genfun)

    for name, text, modes, points, grid in (
        ("bessel", "Bessel-type numeric transforms", ("j", "poisson", "hankel"),
         (("--nu", "nu", "parameter (float or p/q)"), ("--lambda", "lam", "spectral parameter"),
          ("--x", "x", "evaluation point")), "evaluation points"),
        ("heat", "heat-kernel covariant transform", ("covariant",),
         (("--u", "u", "diffusion time"),), "u values"),
        ("cosine", "cosine transform", (), (("--v", "v", "frequency-squared parameter"),),
         "v values"),
    ):
        p = sub.add_parser(name, help=text)
        if modes:
            p.add_argument("mode", choices=modes)
        _add_common(p)
        for flag, dest, help_ in points:
            p.add_argument(flag, dest=dest, help=help_)
        p.add_argument("--grid", help=f"comma-separated {grid}")
        p.add_argument("--fn", help="canned function name")
        p.add_argument("--poly", help="polynomial input (rational coefficients)")
        p.add_argument("--degree", type=int, default=DEFAULT_DEGREE_CAP)
        p.add_argument("--tol", type=float)
        p.set_defaults(handler=_cmd_float)

    return top, sub.choices


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.  The parser is built
    on the first call and reused by every later one in the process; it
    holds no per-call state, as each parse starts a fresh namespace; a
    command's own subparser alone parses an argv that starts with it."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except QuadratureError as exc:
        print(f"umbra: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except UmbraError as exc:
        print(f"umbra: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
