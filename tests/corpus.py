"""One argv corpus for the command line, and a byte-identity sweep of it
across two source trees.

The corpus is the ``CASES`` of ``test_golden``, ``test_exact_commands``
and ``test_float_commands``; every ``verify --check`` on every catalog
model (``transmute`` from each model to each) in each format; and
``bessel j`` at points where j_nu takes the series in fixed point or
Hankel's expansion in integers (x from 30 to 1900) and where it takes
Hankel's expansion in floats (x past 2000); and, in each format, argvs
that exit 1 (an intertwining check that holds in neither direction or
fails at a tolerance no float meets) and 3 (a heat covariant whose tail
bound is past the double range).

    python tests/corpus.py --against DIR

runs every argv through ``umbra.cli.main`` once on this tree and once
on the tree at DIR (a checkout with its own ``src/``), each tree in its
own process, and prints each argv whose exit code, stdout or stderr
differ.  It exits 1 when one does, else 0.  ``--list`` prints the
corpus, one JSON argv a line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("plain", "json", "csv")
J_NUS = ("2", "5/2", "2.7", "31/2", "7")
J_SERIES_X = ("30", "60", "130", "400", "1000", "1900")
J_FLOAT_HANKEL_X = ("2500", "5000", "1e4")
NOT_PASSING = (
    ["heat", "covariant", "--fn", "gauss", "--u", "1e308"],
    ["verify", "--check", "poisson-intertwining", "--nu", "2", "--fn", "cos", "--tol", "1e-30"],
    ["verify", "--check", "hankel-intertwining", "--nu", "2", "--fn", "bump", "--tol", "1e-30"],
)


def corpus() -> list[list[str]]:
    """The argvs, in a fixed order, each once."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_exact_commands
    import test_float_commands
    import test_golden
    from umbra.cli import CHECKS
    from umbra.models import MODEL_NAMES

    def named(flag: str, model: str, nu_flag: str = "--nu") -> list[str]:
        return [flag, model] + ([nu_flag, "5/2"] if model == "bessel" else [])

    argvs = [argv for module in (test_golden, test_exact_commands, test_float_commands)
             for _, argv in sorted(module.CASES.items())]
    for check in CHECKS:
        for model in MODEL_NAMES:
            targets = (
                [[*named("--from", model, "--from-nu"), *named("--to", other, "--to-nu")]
                 for other in MODEL_NAMES]
                if check == "transmute" else [named("--model", model)]
            )
            argvs += [["verify", "--check", check, *target, "--format", fmt]
                      for target in targets for fmt in FORMATS]
    argvs += [["bessel", "j", "--nu", nu, "--lambda", "1", "--x", x]
              for nu in J_NUS for x in J_SERIES_X + J_FLOAT_HANKEL_X]
    argvs += [["bessel", "j", "--nu", nu, "--lambda=-1", "--x", x]
              for nu in J_NUS for x in ("30", "300")]
    argvs += [[*argv, "--format", fmt] for argv in NOT_PASSING for fmt in FORMATS]
    return list(map(list, dict.fromkeys(map(tuple, argvs))))


def run(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of ``umbra.cli.main`` on argv; an
    argparse exit counts by its code, and any other exception by its
    type and message."""
    from umbra import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an output too
            code = f"{type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def sweep(tree: Path, argvs: list[list[str]]) -> list[list]:
    """``run`` on every argv, in one fresh process on ``tree``'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--worker"], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", type=Path, metavar="DIR")
    group.add_argument("--list", action="store_true")
    group.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        results = [run(argv) for argv in json.load(sys.stdin)]
        json.dump(results, sys.stdout)
        return 0
    argvs = corpus()
    if args.list:
        for argv in argvs:
            print(json.dumps(argv))
        return 0
    ours, theirs = sweep(ROOT, argvs), sweep(args.against.resolve(), argvs)
    differ = [argv for argv, a, b in zip(argvs, ours, theirs) if a != b]
    for argv in differ:
        print("differs:", " ".join(argv))
    print(f"{len(argvs)} argvs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
