"""Workload process: runs a request list in-process through
``umbra.cli.main``, one request at a time, each under a deadline.

Reads a job from stdin as JSON and writes the outcome to stdout as JSON.
It is a fresh process so that its peak resident set belongs to this
workload alone; it imports nothing the oracle needs.  The deadline is a
real-time interval timer whose signal handler raises inside the
request, so an overrun stops the work itself: no thread or child
process is ever started.  Timed passes also sample the machine's speed
from a CPU-time interval timer (SIGPROF), in the same thread.

Job keys: requests (list of argv), deadline_s, passes (how many an
untraced run makes; a traced run always makes three), trace (0 or 1),
probe (argv or null), probe_deadline_s, spans_path.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from typing import Any, Callable

#: How often a pass re-measures the machine's speed, in seconds of CPU time.
CALIBRATE_EVERY_S = 0.5
#: What ``calibrate`` takes on the reference machine (a 2-vCPU Intel
#: Xeon VM in a quiet spell); latencies are rescaled to that speed.
CALIBRATION_REF_S = 0.006


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    for Exception inside the program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def call(main: Callable[[list[str]], int], argv: list[str], deadline_s: float) -> dict[str, Any]:
    """One request: exit code, captured output, failure (None, "deadline"
    or the exception) and latency in seconds."""
    out, err = io.StringIO(), io.StringIO()
    rc, failure = None, None
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except SystemExit as exc:   # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except DeadlineExceeded:
        failure = "deadline"
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-500:],
            "failure": failure, "latency_s": latency}


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact-rational work, a product
    of small dense Fraction matrices like the program's own operator
    products.  Its time tracks how fast the machine runs this kind of
    code at the moment, which on a shared VM drifts by 20-40% for tens
    of seconds at a time."""
    t0 = time.perf_counter()
    m = [[Fraction(i + 1, j + 2) for j in range(10)] for i in range(10)]
    for _ in range(2):
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in m]
    return time.perf_counter() - t0


def _digest(res: dict[str, Any]) -> str:
    return hashlib.sha256(f"{res['rc']}\n{res['out']}".encode()).hexdigest()


class Passes:
    """Runs passes over the request list.  The first pass's outputs are
    kept for the oracle; every later pass is checked against them as it
    ends and then dropped, so memory does not grow with the pass count.

    A timed pass also samples the machine's speed: it calibrates before
    its first request, after its last, and from a SIGPROF handler every
    ``CALIBRATE_EVERY_S`` of CPU time in between, inside requests too.
    A request's latency leaves out the calibrations that ran inside it;
    its reference latency is that latency times CALIBRATION_REF_S over
    the mean of the samples taken during it and the two that bracket it."""

    def __init__(self, main, requests: list[list[str]], deadline_s: float) -> None:
        self.main, self.requests, self.deadline_s = main, requests, deadline_s
        self.first: list[dict[str, Any]] = []
        self.digests: list[str] = []
        self.mismatches = [0] * len(requests)
        self.latencies: list[list[float]] = []
        self.ref_latencies: list[list[float]] = []
        self.count = 0
        self.samples: list[tuple[float, float]] = []   # (when it ended, seconds it took)
        self.calibrating = 0.0                          # seconds of calibration in this pass
        self._busy = False

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            spent = calibrate()
            self.samples.append((time.perf_counter(), spent))
            self.calibrating += spent
        finally:
            self._busy = False

    def _request(self, argv: list[str], tracer, rid: int) -> tuple[dict[str, Any], float, float]:
        """One request with its start and end times; its latency leaves
        out any calibration that ran inside it."""
        main, deadline_s = self.main, self.deadline_s
        before, start = self.calibrating, time.perf_counter()
        if tracer is None:
            res = call(main, argv, deadline_s)
        else:
            res = tracer.request(rid, lambda: call(main, argv, deadline_s))
        end = time.perf_counter()
        res["latency_s"] = end - start - (self.calibrating - before)
        return res, start, end

    def run(self, tracer=None, timed: bool = True) -> float:
        """One pass; returns its wall time without the calibrations.  An
        untimed pass (the traced one) is checked but adds no latencies."""
        results, spans = [], []
        self.samples, self.calibrating = [], 0.0
        if timed:
            self._sample()
            previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        t0, skip = time.perf_counter(), self.calibrating
        try:
            for rid, argv in enumerate(self.requests):
                res, start, end = self._request(argv, tracer, rid)
                results.append(res)
                spans.append((start, end))
        finally:
            if timed:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
        elapsed = time.perf_counter() - t0 - (self.calibrating - skip)
        self.count += 1
        if timed:
            self._sample()
            lat = [r["latency_s"] for r in results]
            self.latencies.append(lat)
            self.ref_latencies.append([x * CALIBRATION_REF_S / speed
                                       for x, speed in zip(lat, self._speeds(spans))])
        if not self.first:
            self.first = [{k: r[k] for k in ("rc", "out", "err", "failure")} for r in results]
            self.digests = [_digest(r) for r in results]
        else:
            for i, r in enumerate(results):
                if r["failure"] is not None or _digest(r) != self.digests[i]:
                    self.mismatches[i] += 1
        return elapsed

    def _speeds(self, spans: list[tuple[float, float]]) -> list[float]:
        """Per request, the mean calibration time over the samples taken
        during it and the last before and first after it."""
        times = [t for t, _ in self.samples]
        out = []
        for start, end in spans:
            lo = max(bisect.bisect_right(times, start) - 1, 0)
            hi = min(bisect.bisect_left(times, end), len(times) - 1)
            window = [spent for _, spent in self.samples[lo:hi + 1]]
            out.append(sum(window) / len(window))
        return out


def run(job: dict[str, Any]) -> dict[str, Any]:
    from umbra import cli

    main = lambda argv: cli.main(argv)  # noqa: E731 - looked up per call, so a traced cli.main is seen
    passes = Passes(main, job["requests"], job["deadline_s"])
    pass_times = [passes.run()]
    outcome: dict[str, Any] = {}
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_time = passes.run(tracer, timed=False)
        finally:
            tracer.uninstall()
        # Untraced passes on both sides of the traced one; the faster of
        # the two is the reference, so a slow spell of the machine during
        # one of them does not read as (negative) tracing overhead.
        pass_times.append(passes.run())
        layers = tracer.metrics()
        layers["trace.overhead_s"] = traced_time - min(pass_times)
        layers["trace.span_coverage"] = tracer.request_time() / traced_time
        outcome["layers"] = layers
        outcome["traced_s"] = traced_time
        outcome["spans"] = len(tracer.span_start)
        tracer.write(job["spans_path"])
    else:
        while passes.count < job["passes"]:
            pass_times.append(passes.run())
    probe = call(main, job["probe"], job["probe_deadline_s"]) if job["probe"] else None
    outcome.update({
        "pass_times": pass_times,
        "latencies": passes.latencies,
        "ref_latencies": passes.ref_latencies,
        "first": passes.first,
        "repeat_failures": passes.mismatches,
        "passes": passes.count,
        "probe": probe,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return outcome


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    json.dump(result, sys.stdout)
