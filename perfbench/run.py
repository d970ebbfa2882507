"""umbra benchmark: seeded, oracle-checked workloads driven through the
public CLI entry ``umbra.cli.main`` as a closed loop with one client.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --trace 0
    python3 perfbench/run.py --workload all --out results.jsonl
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Run from the repository root.  The program is the checkout's ``src/``;
the benchmark refuses to run without it.  One run:

1. builds the workload's request list from the seed and computes every
   expected answer (``workloads``, ``oracle``) before anything is timed;
2. times ``import umbra.cli`` in several fresh interpreters (setup_s);
3. runs the requests in a fresh worker process (``worker``): a fixed
   number of passes, ceil(seconds / nominal pass time of the workload),
   where ``--seconds`` defaults to BENCHMARK.json's run_seconds; with
   ``--trace 1`` it runs an untraced, a traced and another untraced pass
   instead (``layers``);
4. checks every output against its oracle and prints a table, then one
   JSON line: end-to-end metrics untraced, per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_CHILDREN = 15
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: The result line's metrics.  Request times are rescaled to the
#: reference speed of the machine (see ``worker.calibrate``), because on
#: a shared VM the plain wall times of two runs drift apart by more than
#: the bounds a regression must be told from.
END_TO_END = {
    "setup_s": "s",
    "run_ref_s": "s",
    "req_p50_ref_ms": "ms",
    "req_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
#: The same request times as plain wall time, in the table and the
#: result file only.
WALL = {"setup_wall_s": "s", "run_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms"}
#: Reported in the table and the result file; zero on healthy workloads,
#: so the result line carries it as attempted/failed instead.
ERROR_RATE = "error_rate"
EXTRA_LAYERS = {
    "setup.numpy_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    return {**layers.layer_metric_units(), **EXTRA_LAYERS}


def _env() -> dict[str, str]:
    """The child environment: the checkout's src first, no UMBRA_* knobs,
    and numpy's OpenBLAS held to one thread.  umbra does no BLAS work,
    but importing numpy otherwise starts a BLAS thread pool, and on a
    2-vCPU machine the time that takes depends on what else runs on the
    other core: import times then drifted by 30% over minutes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("UMBRA_")}
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


#: The child times the import, then calibrates (see worker.calibrate),
#: after the timed part so that nothing it imports is charged to umbra.
_IMPORT_CHILD = (
    "import time; t = time.perf_counter(); import umbra.cli; t = time.perf_counter() - t; "
    "from worker import calibrate; print(repr(t), repr(calibrate()))"
)


def measure_setup(trace: bool, deadline: float) -> dict[str, Any]:
    """Import time of umbra.cli over fresh interpreters, the first child
    only compiling bytecode and discarded.  setup_s is the median of the
    import times rescaled to the reference speed by each child's own
    calibration; setup_wall_s the median of the plain ones.  Traced runs
    also read numpy's cumulative import time from -X importtime."""
    env = _env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    samples = []
    for i in range(SETUP_CHILDREN + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if i:
            samples.append([float(x) for x in proc.stdout.split()])
    out = {
        "setup_s": statistics.median(t * worker.CALIBRATION_REF_S / cal for t, cal in samples),
        "setup_wall_s": statistics.median(t for t, _ in samples),
        "samples": samples,
    }
    if trace:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import umbra.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        out["setup.numpy_s"] = numpy_import_s(proc.stderr)
    return out


def numpy_import_s(importtime: str) -> float:
    """Cumulative seconds of the top-level numpy import in -X importtime
    output (lines "import time: self | cumulative | name")."""
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def run_worker(job: dict[str, Any], deadline: float) -> dict[str, Any]:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def default_seconds() -> float:
    """BENCHMARK.json's run_seconds: the benchmark's one statement of
    how long a run measures."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def latency_metrics(passes: list[list[float]]) -> tuple[float, float, float]:
    """(pass time in s, p50 and p90 in ms) from per-pass request
    latencies: each request counts with its median over the passes."""
    per_request = [statistics.median(each) * 1000 for each in zip(*passes)]
    return sum(per_request) / 1000, statistics.median(per_request), percentile(per_request, 90)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    deadline = time.monotonic() + RUN_LIMIT_S
    requests = workloads.build(name, seed)
    probe = workloads.probe_request() if name == "numeric-transforms" else None
    setup = measure_setup(trace, deadline)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    job = {
        "requests": [r.argv for r in requests],
        "deadline_s": workloads.DEADLINE_S[name],
        "passes": workloads.passes(name, seconds),
        "trace": int(trace),
        "probe": probe.argv if probe else None,
        "probe_deadline_s": workloads.PROBE_DEADLINE_S,
        "spans_path": str(out_dir / f"spans-{name}-{seed}.tsv"),
    }
    res = run_worker(job, deadline)

    passes = res["passes"]
    failed, reasons = 0, []
    digest = hashlib.sha256()
    for req, first, repeats in zip(requests, res["first"], res["repeat_failures"]):
        digest.update(json.dumps([req.argv, first["rc"], first["out"]]).encode())
        why = first["failure"] or workloads.verdict(req.expect, first["rc"], first["out"])
        if why:
            failed += passes
            reasons.append(f"{' '.join(req.argv)[:100]}: {why} {first['err'].strip()[-200:]}")
        else:
            failed += repeats
            if repeats:
                reasons.append(f"{' '.join(req.argv)[:100]}: output changed between passes")
    attempted = len(requests) * passes

    overruns = 0
    if probe is not None:
        p = res["probe"]
        why = p["failure"] or workloads.verdict(probe.expect, p["rc"], p["out"])
        overruns = int(p["failure"] == "deadline")
        if why and not overruns:
            failed += 1
            reasons.append(f"deadline probe: {why}")

    run_s, p50, p90 = latency_metrics(res["latencies"])
    run_ref_s, p50_ref, p90_ref = latency_metrics(res["ref_latencies"])
    metrics = {
        "setup_s": setup["setup_s"],
        "setup_wall_s": setup["setup_wall_s"],
        "run_ref_s": run_ref_s,
        "req_p50_ref_ms": p50_ref,
        "req_p90_ref_ms": p90_ref,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "run_s": run_s,
        "req_p50_ms": p50,
        "req_p90_ms": p90,
        ERROR_RATE: (failed + overruns) / (attempted + (probe is not None)),
    }
    record: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "requests": len(requests), "passes": passes, "attempted": attempted, "failed": failed,
        "deadline_overruns": overruns, "digest": digest.hexdigest(), "failures": reasons[:20],
        "metrics": metrics, "timed_passes": len(res["pass_times"]), "pass_times": res["pass_times"],
        "setup_samples": setup["samples"],
    }
    if trace:
        record["layers"] = {**res["layers"], "setup.numpy_s": setup["setup.numpy_s"]}
        record["traced_s"] = res["traced_s"]
        record["spans"] = res["spans"]
        record["spans_path"] = job["spans_path"]
    return record


def print_table(rec: dict[str, Any]) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  requests {rec['requests']}  "
          f"passes {rec['passes']} ({rec['timed_passes']} timed)  "
          f"attempted {rec['attempted']}  failed {rec['failed']}")
    units = {**END_TO_END, **WALL, ERROR_RATE: "ratio"}
    for key, unit in units.items():
        print(f"  {key:<14} {rec['metrics'][key]:>14.6g} {unit}")
    if rec["workload"] == "numeric-transforms":
        print(f"  deadline probe ({' '.join(workloads.DEADLINE_PROBE[:8])}): "
              f"{'overran the deadline' if rec['deadline_overruns'] else 'finished'}; "
              f"counted in {ERROR_RATE}")
    print(f"  digest {rec['digest']}")
    for why in rec["failures"]:
        print(f"  FAILED {why}")
    if "layers" in rec:
        lay = rec["layers"]
        print(f"  trace: {rec['spans']} spans in {rec['spans_path']}; "
              f"overhead {lay['trace.overhead_s']:.3f} s; span coverage {lay['trace.span_coverage']:.4f}")
        for key, unit in per_layer_units().items():
            print(f"    {key:<40} {lay[key]:>14.6g} {unit}")


def result_line(rec: dict[str, Any]) -> str:
    if rec["trace"]:
        metrics = {k: {"value": rec["layers"][k], "unit": u} for k, u in per_layer_units().items()}
    else:
        metrics = {k: {"value": rec["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def compare(old_path: str, new_path: str) -> bool:
    """old -> new medians per workload for every metric in both files,
    each ratio given with its base (the old median and run count).  Runs
    of the same workload and seed must have the same output digest: a
    change that makes the program faster must not change what it says."""
    def load(path):
        groups: dict[str, dict[str, list[float]]] = {}
        digests: dict[tuple[str, int], set[str]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    g = groups.setdefault(rec["workload"], {})
                    # end-to-end values from untraced runs only
                    for k, v in (rec["layers"] if rec["trace"] else rec["metrics"]).items():
                        g.setdefault(k, []).append(v)
                    digests.setdefault((rec["workload"], rec["seed"]), set()).add(rec["digest"])
        return groups, digests

    (old, old_digests), (new, new_digests) = load(old_path), load(new_path)
    units = {**END_TO_END, **WALL, ERROR_RATE: "ratio", **per_layer_units()}
    for wl in sorted(set(old) | set(new)):
        print(f"workload {wl}")
        for key, unit in units.items():
            a, b = old.get(wl, {}).get(key), new.get(wl, {}).get(key)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.3f}x" if ma else "n/a (base 0)"
            print(f"  {key:<40} {ma:>12.6g} -> {mb:<12.6g} {unit:<6} new/old {ratio} "
                  f"(base: old median of {len(a)} runs; new of {len(b)})")
    shared = sorted(set(old_digests) & set(new_digests))
    differ = [k for k in shared if old_digests[k] | new_digests[k] != old_digests[k] & new_digests[k]]
    print(f"outputs: {len(shared) - len(differ)} of {len(shared)} shared workload/seed pairs "
          f"have identical digests")
    for wl, seed in differ:
        print(f"  DIGEST DIFFERS {wl} seed {seed}")
    return not differ


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="nominal measuring time, which fixes the number of passes "
                        "(default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's full record as a JSON line")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="print old -> new medians from two --out files")
    args = p.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if not args.workload:
        p.error("--workload is required")
    if not (SRC / "umbra" / "cli.py").is_file():
        print(f"perfbench: no umbra sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    seconds = default_seconds() if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, seconds, bool(args.trace))
        print_table(rec)
        records.append(rec)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        print(result_line(records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
