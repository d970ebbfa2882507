"""Tests of the benchmark itself: oracles, tracing, self-time arithmetic,
the per-request deadline, compare mode, and BENCHMARK.json against what
the benchmark prints.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from umbra import cli  # noqa: E402

#: Which boundaries each workload is meant to exercise (the per-layer
#: table of the benchmark's design).
EXERCISED = {
    "verify-catalog": (
        "cli.main", "models.build_model", "models.verify_model", "core.matmul", "core.combine",
        "core.apply", "core.functional", "core.poly", "kernels.imat_mul", "kernels.imat_comb",
        "kernels.iseq_gcd", "formal.word_table", "formal.series_mul", "formal.materialize",
        "formal.first_difference", "heisenberg.group_law", "heisenberg.weyl",
        "heisenberg.composition", "heisenberg.twisted", "heisenberg.sl2",
        "heisenberg.metaplectic", "transforms.dual_functionals", "transforms.expand_in_basis",
        "transforms.covariant_w0", "transforms.checks", "translations.checks", "reports.render",
    ),
    "exact-maps": (
        "cli.main", "models.build_model", "core.apply", "core.functional", "core.poly",
        "transforms.dual_functionals", "transforms.expand_in_basis", "transforms.umbral_map",
        "transforms.covariant_w0", "transforms.checks", "translations.generalized_translate",
        "reports.render",
    ),
    "numeric-transforms": (
        "cli.main", "reports.render", "numeric.j_nu", "numeric.j_nu.float_path",
        "numeric.j_nu.exact_path", "numeric.transform", "quadrature.integrate",
    ),
}


def _subset(name: str) -> list[workloads.Request]:
    """The workload's own requests, trimmed to keep the test short: the
    monomial model for verify-catalog (it runs every check family), and
    all numeric requests but the three slowest Hankel transforms."""
    reqs = workloads.build(name, 7)
    if name == "verify-catalog":
        return [r for r in reqs if "monomial" in r.argv]
    if name == "numeric-transforms":
        slow = [r for r in reqs if r.argv[:2] == ["bessel", "hankel"] and "--fn" in r.argv
                and float(r.argv[r.argv.index("--lambda") + 1]) > 1.0]
        return [r for r in reqs if r not in slow]
    return reqs


def _traced(name: str) -> tuple[dict[str, float], list[workloads.Request], list[dict]]:
    reqs = _subset(name)
    tracer = layers.Tracer()
    tracer.install()
    try:
        results = [tracer.request(i, lambda r=r: worker.call(cli.main, r.argv, 60.0))
                   for i, r in enumerate(reqs)]
    finally:
        tracer.uninstall()
    return tracer.metrics(), reqs, results


@pytest.fixture(scope="module")
def traced():
    return {name: _traced(name) for name in workloads.WORKLOADS}


def test_outputs_match_oracles_and_perturbations_are_rejected(traced):
    for name, (_, reqs, results) in traced.items():
        for req, res in zip(reqs, results):
            assert res["failure"] is None, (req.argv, res)
            assert workloads.verdict(req.expect, res["rc"], res["out"]) is None, req.argv
    _, reqs, results = traced["numeric-transforms"]
    req, res = next((q, s) for q, s in zip(reqs, results) if q.argv[:2] == ["bessel", "hankel"])
    data = json.loads(res["out"])
    data["value"] *= 1 + 1e-5
    assert workloads.verdict(req.expect, 0, json.dumps(data)) is not None
    _, reqs, results = traced["exact-maps"]
    req, res = next((q, s) for q, s in zip(reqs, results)
                    if q.expect["kind"] == "coeffs" and q.expect["format"] == "json")
    data = json.loads(res["out"])
    data["coefficients"][0] = oracle.format_rational(
        oracle.Fraction(data["coefficients"][0]) + oracle.Fraction(1, 10**9))
    assert workloads.verdict(req.expect, 0, json.dumps(data)) is not None
    assert workloads.verdict(req.expect, 2, res["out"]) is not None
    # A catalog request that drops a check family, or renames a check,
    # fails even when every report it does give says pass.
    _, reqs, results = traced["verify-catalog"]
    req, res = reqs[0], results[0]
    reports = json.loads(res["out"])
    assert len(reports) == len(workloads.CATALOG_CHECKS["monomial"]) == 18
    assert workloads.verdict(req.expect, 0, json.dumps(reports[:-1])) is not None
    reports[0]["check"] = "ladder"
    assert workloads.verdict(req.expect, 0, json.dumps(reports)) is not None


def test_closed_forms_agree_with_mpmath_quadrature():
    mp = oracle.mpmath
    lam = 1.7
    x = mp.sqrt(lam)
    for nu in (oracle.Fraction(2), oracle.Fraction(5, 2), oracle.Fraction(3)):
        a = (oracle._mpf(nu) - 1) / 2
        for fn, f in (("exp", lambda t: mp.exp(-t)), ("gauss", lambda t: mp.exp(-t * t))):
            def integrand(t):
                return f(t) * mp.gamma(a + 1) * (2 / (x * t)) ** a * mp.besselj(a, x * t) * t ** (2 * a + 1)

            assert abs(oracle.hankel(nu, fn, lam) - float(mp.quad(integrand, [0, 10, 50]))) < 1e-12
    c3 = 2 * mp.gamma(2) / (mp.sqrt(mp.pi) * mp.gamma(1.5))
    direct = mp.quad(lambda th: c3 * mp.cos(th) ** 2 * (2 * mp.sin(th)) ** 2, [0, mp.pi / 2])
    assert abs(oracle.poisson_poly(3, [0, 0, oracle.Fraction(1)], 2.0) - float(direct)) < 1e-14


def test_every_boundary_fires_on_its_workload(traced):
    prefixes = {p for p, _ in layers.BOUNDARIES} | {p for p, _ in layers.COUNTED}
    assert prefixes == {p for ps in EXERCISED.values() for p in ps}
    for name, expected in EXERCISED.items():
        metrics = traced[name][0]
        silent = [p for p in expected if metrics[f"{p}.calls"] == 0]
        assert not silent, (name, silent)
    cat = traced["verify-catalog"][0]
    assert 0 < cat["core.matmul.useful_ratio"] < 1
    assert cat["core.matmul.peak_bits"] > 0
    assert 0 < cat["formal.product_reuse"] < 1
    assert cat["formal.materialize.terms"] >= cat["formal.materialize.calls"]
    num = traced["numeric-transforms"][0]
    assert num["quadrature.integrand_evals"] > num["quadrature.panels"] > 0


def test_layers_stay_silent_where_they_do_not_belong(traced):
    cat, num = traced["verify-catalog"][0], traced["numeric-transforms"][0]
    assert all(v == 0 for k, v in cat.items() if k.startswith(("numeric.", "quadrature.")))
    assert all(v == 0 for k, v in num.items() if k.startswith(("formal.", "heisenberg.")))


def test_install_and_uninstall_restore_every_binding():
    import umbra.core
    import umbra.numeric
    import umbra.quadrature

    before = (umbra.numeric.integrate, umbra.core.LinearOp.__matmul__, cli.build_model)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert umbra.numeric.integrate is umbra.quadrature.integrate is not before[0]
        assert umbra.core.LinearOp.__matmul__ is not before[1]
        assert cli.build_model is not before[2]
    finally:
        tracer.uninstall()
    assert (umbra.numeric.integrate, umbra.core.LinearOp.__matmul__, cli.build_model) == before


def test_self_time_on_a_synthetic_span_tree():
    # request [0, 10] -> main [1, 9] -> two children [2, 4] and [3, 6]
    # (overlapping: coverage is their union [2, 6]) and a grandchild
    # [5, 5.5] of the second child.
    names = [0, 1, 2, 3, 2]
    starts = [0.0, 1.0, 2.0, 3.0, 5.0]
    ends = [10.0, 9.0, 4.0, 6.0, 5.5]
    parents = [-1, 0, 1, 1, 3]
    own = layers.self_times(names, starts, ends, parents)
    assert own[0] == pytest.approx(10 - 8)
    assert own[1] == pytest.approx(8 - 4)
    assert own[3] == pytest.approx(3 - 0.5)
    assert own[2] == pytest.approx(2 + 0.5)


def test_tracer_folds_reentrant_calls_and_charges_bookkeeping_to_no_layer(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(layers, "perf_counter", lambda: clock[0])

    def advance(dt):
        clock[0] += dt

    tracer = layers.Tracer()
    inner = tracer._spanned("x", lambda: advance(1.0))
    outer = tracer._spanned("x", lambda: inner() or 1, lambda args, result: advance(2.0))
    tracer.request(0, outer)
    assert tracer.calls["x"] == 1
    by_id = layers.self_times(tracer.span_name, tracer.span_start, tracer.span_end, tracer.span_parent)
    own = {tracer.names[i]: v for i, v in by_id.items()}
    assert own == {layers.REQUEST: 0.0, "x": 1.0, layers.BOOKKEEPING: 2.0}
    assert tracer.request_time() == 3.0


def test_deadline_stops_the_work_and_leaves_no_live_worker():
    threads = threading.active_count()
    res = worker.call(cli.main, workloads.DEADLINE_PROBE, 0.5)
    assert res["failure"] == "deadline"
    assert 0.5 <= res["latency_s"] < 2.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    cpu = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - cpu < 0.05
    # the interpreter is still usable for the next request
    nxt = worker.call(cli.main, ["bessel", "j", "--nu", "2", "--lambda", "1", "--x", "1"], 5.0)
    assert nxt["failure"] is None and nxt["rc"] == 0


def test_negative_leading_coefficient_needs_the_equals_form():
    # A CLI defect the workloads route around: "--poly -1,2" is parsed as
    # an option and exits 2.
    bad = worker.call(cli.main, ["transmute", "--from", "monomial", "--to", "hermite",
                                 "--degree", "4", "--poly", "-1,2"], 5.0)
    good = worker.call(cli.main, ["transmute", "--from", "monomial", "--to", "hermite",
                                  "--degree", "4", "--poly=-1,2"], 5.0)
    assert bad["rc"] == 2 and good["rc"] == 0


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a = [r.argv for r in workloads.build(name, 3)]
        assert a == [r.argv for r in workloads.build(name, 3)]
    assert [r.argv for r in workloads.build("exact-maps", 3)] != [
        r.argv for r in workloads.build("exact-maps", 4)]


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert run.default_seconds() == spec["run_seconds"]
    assert sum(len(checks) for checks in workloads.CATALOG_CHECKS.values()) == 104


def test_compare_prints_old_to_new_with_the_base_and_flags_changed_outputs(tmp_path, capsys):
    def rec(v, seed, digest="d0"):
        return json.dumps({"workload": "exact-maps", "seed": seed, "trace": 0, "digest": digest,
                           "metrics": {"run_s": v}})

    traced = json.dumps({"workload": "exact-maps", "seed": 1, "trace": 1, "digest": "d0",
                         "metrics": {"run_s": 99.0}, "layers": {"core.apply.calls": 10}})
    (tmp_path / "old.jsonl").write_text("\n".join([rec(2.0, 1), rec(4.0, 2), traced]) + "\n")
    (tmp_path / "new.jsonl").write_text("\n".join([rec(1.5, 1), traced]) + "\n")
    assert run.compare(str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl"))
    out = capsys.readouterr().out
    assert "run_s" in out and "3 -> 1.5" in out and "new/old 0.500x" in out
    assert "base: old median of 2 runs; new of 1" in out
    assert "core.apply.calls" in out
    assert "1 of 1 shared workload/seed pairs have identical digests" in out
    (tmp_path / "new.jsonl").write_text(rec(1.5, 2, digest="d1") + "\n")
    assert not run.compare(str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl"))
    assert "DIGEST DIFFERS exact-maps seed 2" in capsys.readouterr().out


def test_pass_count_is_fixed_and_repeats_are_checked_as_they_end():
    # The number of passes follows from --seconds alone, never from the
    # program's speed.
    assert workloads.passes("verify-catalog", 30) == 2
    assert workloads.passes("exact-maps", 1) == 1
    outputs = iter(["a", "b", "a", "b", "c", "b"])

    def main(argv):
        print(next(outputs))
        return 0

    passes = worker.Passes(main, [["x"], ["y"]], 5.0)
    for _ in range(3):
        passes.run()
    assert [r["out"] for r in passes.first] == ["a\n", "b\n"]
    assert passes.mismatches == [1, 0] and passes.count == 3
    assert len(passes.latencies) == len(passes.ref_latencies) == 3


def test_speed_samples_inside_a_long_request_are_left_out_of_its_latency():
    def main(argv):
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass
        return 0

    passes = worker.Passes(main, [["busy"]], 5.0)
    passes.run()
    inside = len(passes.samples) - 2          # all but the ones at either end of the pass
    assert inside >= 1
    assert passes.latencies[0][0] < 0.8
    speeds = [spent for _, spent in passes.samples]
    assert passes.ref_latencies[0][0] == pytest.approx(
        passes.latencies[0][0] * worker.CALIBRATION_REF_S * len(speeds) / sum(speeds))
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-maps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
