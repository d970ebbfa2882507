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
bound is past the double range); in each format, ``models`` and a
Hankel intertwining on grid points 1e-7 apart; the command-line
refusals that no golden reaches, each exiting 2; and one argv for each
path that nothing else enters, and for each fixed bug.

    python tests/corpus.py --against DIR

runs every argv through ``umbra.cli.main`` once on this tree and once
on the tree at DIR (a checkout with its own ``src/``), each tree in its
own process, and prints each argv whose exit code, stdout or stderr
differ.  It exits 1 when one does, else 0.  ``--list`` prints the
corpus, one JSON argv a line.

    python tests/corpus.py --record

rewrites ``tests/golden/corpus-digests.json``, one digest of (exit code,
stdout, stderr) per argv, which ``tests/test_corpus.py`` checks (only
for an intended output change, noted in CHANGES.md).  The same test
runs the corpus under ``sys.setprofile`` (``traced_sweep``) and fails
on any function of ``src/umbra`` that it never enters and that
``tests/unreached.txt`` does not list with a reason.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "corpus-digests.json"
FORMATS = ("plain", "json", "csv")
J_NUS = ("2", "5/2", "2.7", "31/2", "7")
J_SERIES_X = ("30", "60", "130", "400", "1000", "1900")
J_FLOAT_HANKEL_X = ("2500", "5000", "1e4")
HUGE = "1" + "0" * 400 + "/3"  # a p/q past the double range
NOT_PASSING = (
    ["heat", "covariant", "--fn", "gauss", "--u", "1e308"],
    ["verify", "--check", "poisson-intertwining", "--nu", "2", "--fn", "cos", "--tol", "1e-30"],
    ["verify", "--check", "hankel-intertwining", "--nu", "2", "--fn", "bump", "--tol", "1e-30"],
)
#: three grid points whose :g texts coincide, each a residual of its own
CLOSE_GRID = ["verify", "--check", "hankel-intertwining", "--nu", "2", "--fn", "bump",
              "--grid", "1.0000001,1.0000002,1.0000003"]
REFUSALS = (
    ["models", "--out", "/nonexistent/dir/models.json"],
    ["verify", "--model", "monomial"],
    ["w0", "--model", "monomial"],
    ["transmute", "--from", "monomial", "--to", "hermite"],
    ["translate", "--model", "monomial", "--poly", "1,2"],
    ["verify", "--check", "transmute", "--to", "hermite"],
    ["verify", "--check", "transmute", "--from", "monomial", "--to", "hermite", "--nu", "2"],
    # a refused value whose :g text would round onto the bound
    ["bessel", "poisson", "--nu", "0.9999999", "--x", "1", "--fn", "cos"],
    ["bessel", "poisson", "--nu", "1000001", "--x", "1", "--fn", "cos"],
    ["verify", "--check", "poisson-intertwining", "--nu", "8000.001", "--fn", "cos"],
    ["bessel", "j", "--nu", "2", "--lambda=-1", "--x", "4000.0001"],
    ["bessel", "hankel", "--nu", "60", "--fn", "gauss", "--lambda", "21000"],
    ["verify", "--check", "poisson-intertwining", "--nu", "2", "--fn", "cos",
     "--grid", "0.00099999999"],
    ["verify", "--check", "poisson-intertwining", "--nu", "2", "--fn", "cos", "--grid", "10000.001"],
    # the model catalog's own refusals
    ["verify", "--check", "ladder", "--model", "bessel"],
    ["verify", "--check", "ladder", "--model", "bessel", "--nu", "0"],
    ["verify", "--check", "ladder", "--model", "monomial", "--nu", "2"],
    ["verify", "--check", "ladder", "--model", "monomial", "--degree", "0"],
    ["translate", "--model", "monomial", "--y", "1"],
    ["heat", "covariant", "--poly=" + HUGE, "--u", "1"],
    ["bessel", "j", "--nu", "2", "--x", HUGE],
    ["verify", "--check", "group-law", "--order", "40", "--degree", "32", "--model", "hermite"],
    ["verify", "--check", "metaplectic", "--degree", "1", "--model", "monomial"],
    ["verify", "--check", "sl2", "--degree", "1", "--model", "heat"],
    ["w0", "--model", "heat", "--poly", "0,1"],
    ["bessel", "j", "--nu", "2", "--lambda=-1", "--x", "800"],
)
#: paths that no argv above enters and that do not refuse, and fixed bugs
FAR_PATHS = (
    ["transmute", "--from", "bessel", "--nu", "5/2", "--to", "heat", "--degree", "8", "--poly=1,0,2"],
    # exit 3: the adaptive rule's subdivision limit
    ["bessel", "hankel", "--nu", "2", "--fn", "exp", "--lambda", "1", "--tol", "1e-300"],
    # nan in the report, then "both" from quotients that were 0: now refused
    ["verify", "--check", "poisson-intertwining", "--nu", "1", "--fn", "gauss", "--grid", "1e155"],
    # "neither" from one panel, before
    ["verify", "--check", "poisson-intertwining", "--nu", "2", "--fn", "cos", "--grid", "200"],
    # exit 3, its input once rounded in the message
    ["heat", "covariant", "--fn", "gauss", "--u", "1.0000001e308"],
    ["heat", "covariant", "--fn", "exp", "--u", "100"],
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
    argvs += [[*argv, "--format", fmt] for argv in (CLOSE_GRID, ["models"]) for fmt in FORMATS]
    argvs += REFUSALS + FAR_PATHS
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


def work(argvs: list[list[str]], reach: bool) -> list:
    """[``run`` of each argv, the (file, first line) of every code object
    entered], the second empty unless ``reach``.  The profile hook goes
    in before anything imports umbra, so import-time calls count."""
    entered: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code  # the dict keeps each id's code alive

    if reach:
        sys.setprofile(profile)
    results = [run(argv) for argv in argvs]
    sys.setprofile(None)
    return [results, sorted({(c.co_filename, c.co_firstlineno) for c in entered.values()})]


def sweep(tree: Path, argvs: list[list[str]], reach: bool = False) -> list:
    """``work`` on every argv, in one fresh process on ``tree``'s src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--worker", *(["--reach"] if reach else [])],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def functions(package: Path) -> dict[tuple[str, int], str]:
    """Every function that the modules of ``package`` define, by (file,
    first line as its code object has it, decorators included) ->
    "module.Class.name"."""
    out: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), path.stem)
    return out


def traced_sweep(argvs: list[list[str]]) -> tuple[list[list], set[str]]:
    """(``run`` of each argv, the functions of this tree's ``umbra`` that
    no argv entered), from one fresh process under ``sys.setprofile``."""
    results, entered = sweep(ROOT, argvs, reach=True)
    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    defined = functions(ROOT / "src" / "umbra")
    return results, {name for key, name in defined.items() if key not in entered}


def digest(result: list) -> str:
    """A short digest of one [exit code, stdout, stderr]."""
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]


def digests(argvs: list[list[str]], results: list[list]) -> dict[str, str]:
    """{argv joined by spaces: ``digest``}, in corpus order."""
    out = {" ".join(argv): digest(result) for argv, result in zip(argvs, results)}
    assert len(out) == len(argvs), "two argvs join to the same key"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", type=Path, metavar="DIR")
    group.add_argument("--list", action="store_true")
    group.add_argument("--record", action="store_true")
    group.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reach", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(work(json.load(sys.stdin), args.reach), sys.stdout)
        return 0
    argvs = corpus()
    if args.list:
        for argv in argvs:
            print(json.dumps(argv))
        return 0
    if args.record:
        results, _ = sweep(ROOT, argvs)
        DIGESTS.write_text(json.dumps(digests(argvs, results), indent=1) + "\n")
        print(f"{len(argvs)} digests written to {DIGESTS.relative_to(ROOT)}")
        return 0
    (ours, _), (theirs, _) = sweep(ROOT, argvs), sweep(args.against.resolve(), argvs)
    differ = [argv for argv, a, b in zip(argvs, ours, theirs) if a != b]
    for argv in differ:
        print("differs:", " ".join(argv))
    print(f"{len(argvs)} argvs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
