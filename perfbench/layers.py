"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each layer's public boundary in umbra: module
functions are replaced wherever a module of the package has bound them
(so ``umbra.numeric.integrate`` is patched as well as
``umbra.quadrature.integrate``), methods are replaced on their class.
Each wrapped call records a span (name, start, end, parent, request id)
in flat in-memory arrays; a call that re-enters the boundary it is
already inside is folded into the outer span.  Self time is computed
afterwards as a span's duration minus the part of it that its child
spans cover.  Timed runs never import this module.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable

# Boundaries as (layer metric prefix, targets).  A target is
# "module:function" or "module:Class.method".
BOUNDARIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cli.main", ("umbra.cli:main",)),
    ("models.build_model", ("umbra.models:build_model",)),
    ("models.verify_model", ("umbra.models:verify_model",)),
    ("core.matmul", ("umbra.core:LinearOp.__matmul__",)),
    ("core.combine", ("umbra.core:LinearOp.__add__", "umbra.core:LinearOp.__sub__",
                      "umbra.core:LinearOp.scale")),
    ("core.apply", ("umbra.core:LinearOp.apply",)),
    ("core.functional", ("umbra.core:Functional.after", "umbra.core:Functional.pair")),
    ("core.poly", tuple(f"umbra.core:Poly.{m}" for m in (
        "__add__", "__sub__", "__mul__", "scale", "shift", "eval", "derivative"))),
    ("kernels.imat_mul", ("umbra.kernels:imat_mul",)),
    ("kernels.imat_comb", ("umbra.kernels:imat_comb",)),
    ("kernels.iseq_gcd", ("umbra.kernels:iseq_gcd",)),
    ("formal.word_table", ("umbra.formal:OpWordTable.__init__",
                           "umbra.formal:OpWordTable.low_then_high_word",
                           "umbra.formal:OpWordTable.high_then_low_word")),
    ("formal.series_mul", ("umbra.formal:FormalOpSeries.mul",)),
    ("formal.materialize", ("umbra.formal:FormalOpSeries.materialize",)),
    ("formal.first_difference", ("umbra.formal:series_first_difference",)),
    ("heisenberg.group_law", ("umbra.heisenberg:group_law_check",)),
    ("heisenberg.weyl", ("umbra.heisenberg:weyl_relation_check",)),
    ("heisenberg.composition", ("umbra.heisenberg:composition_check_formal",)),
    ("heisenberg.twisted", ("umbra.heisenberg:twisted_convolve_check",)),
    ("heisenberg.sl2", ("umbra.heisenberg:sl2_closure_check",)),
    ("heisenberg.metaplectic", ("umbra.heisenberg:metaplectic_check",)),
    ("transforms.dual_functionals", ("umbra.transforms:dual_functionals",)),
    ("transforms.expand_in_basis", ("umbra.transforms:expand_in_basis",)),
    ("transforms.umbral_map", ("umbra.transforms:umbral_map",)),
    ("transforms.covariant_w0", ("umbra.transforms:covariant_w0",)),
    ("transforms.checks", ("umbra.transforms:biorthogonality_check",
                           "umbra.transforms:covariant_check",
                           "umbra.transforms:generating_function",
                           "umbra.transforms:check_transmutation_intertwining")),
    ("translations.generalized_translate", ("umbra.translations:generalized_translate",)),
    ("translations.checks", ("umbra.translations:binomial_check",
                             "umbra.translations:character_check",
                             "umbra.translations:delsarte_eigen_check")),
    ("reports.render", ("umbra.reports:VerificationReport.to_json",
                        "umbra.reports:ResidualReport.to_json",
                        "umbra.reports:reports_to_json", "umbra.reports:rows_to_csv")),
    ("numeric.j_nu", ("umbra.numeric:little_bessel_j",
                      "umbra.numeric:little_bessel_j_with_derivatives")),
    ("numeric.j_nu.exact_path", ("umbra.numeric:_bessel_series_exact",)),
    ("numeric.transform", ("umbra.numeric:poisson_transform", "umbra.numeric:hankel_transform",
                           "umbra.numeric:heat_covariant", "umbra.numeric:cosine_transform")),
    ("quadrature.integrate", ("umbra.quadrature:integrate",)),
)

#: Counted, not timed: the float series runs once per integrand point.
COUNTED: tuple[tuple[str, str], ...] = (
    ("numeric.j_nu.float_path", "umbra.numeric:_bessel_series_float"),
)

#: Counters beyond calls and self time, with their units.
EXTRA_METRICS: dict[str, str] = {
    "core.matmul.macs_dense": "count",
    "core.matmul.macs_useful": "count",
    "core.matmul.peak_bits": "bits",
    "core.matmul.useful_ratio": "ratio",
    "formal.series_mul.term_products": "count",
    "formal.series_mul.matmuls": "count",
    "formal.product_reuse": "ratio",
    "formal.materialize.terms": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.panels": "count",
}

REQUEST = "request"
BOOKKEEPING = "trace.bookkeeping"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    out: dict[str, str] = {}
    for prefix, _ in BOUNDARIES:
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.self_s"] = "s"
    for prefix, _ in COUNTED:
        out[f"{prefix}.calls"] = "count"
    out.update(EXTRA_METRICS)
    return out


def self_times(
    names: Iterable[int], starts: Iterable[float], ends: Iterable[float], parents: Iterable[int]
) -> dict[int, float]:
    """Total self time per name id: each span's duration minus the union
    of its children's intervals, clipped to the span."""
    names, starts, ends, parents = list(names), list(starts), list(ends), list(parents)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out: dict[int, float] = {}
    for i, name in enumerate(names):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out[name] = out.get(name, 0.0) + (hi - lo) - covered
    return out


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, original) for a target string."""
    modname, _, path = target.partition(":")
    owner: Any = sys.modules[modname]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.stack: list[tuple[int, int]] = []   # (span index, name id)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peak_bits = 0
        self.request_id = -1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span store ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_request.append(self.request_id)
        self.span_end.append(0.0)
        self.stack.append((idx, nid))
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def bookkeeping(self, start: float) -> None:
        """Record time spent computing counters as its own span, so that
        it is not charged to the layer that made the call."""
        idx = self.open(self.name_id(BOOKKEEPING))
        self.span_start[idx] = start
        self.close(idx)

    def request(self, rid: int, fn: Callable[[], Any]) -> Any:
        """Run one request under a root span tagged with its id."""
        self.request_id = rid
        idx = self.open(self.name_id(REQUEST))
        try:
            return fn()
        finally:
            self.close(idx)
            self.request_id = -1

    # -- wrappers -----------------------------------------------------

    def _spanned(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        """Wrap fn in a span; ``post(args, result)`` computes counters
        after the span has closed."""
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                t0 = perf_counter()
                post(args, result)
                tracer.bookkeeping(t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _integrate(self, fn: Callable) -> Callable:
        """quadrature.integrate, also counting integrand evaluations."""
        counts = self.counts

        def counting(f, lo, hi, spec):
            n = [0]

            def g(x):
                n[0] += 1
                return f(x)

            try:
                return fn(g, lo, hi, spec)
            finally:
                counts["quadrature.integrand_evals"] += n[0]
                counts["quadrature.panels"] += n[0] // spec.nodes

        return self._spanned("quadrature.integrate", counting)

    def _matmul_post(self, args, result) -> None:
        a, b = args[0].num, args[1].num
        n = len(a)
        col_nnz = [0] * n
        for row in a:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        row_nnz = [sum(1 for x in row if x) for row in b]
        self.counts["core.matmul.macs_dense"] += n ** 3
        self.counts["core.matmul.macs_useful"] += sum(c * r for c, r in zip(col_nnz, row_nnz))
        bits = max(max((abs(x).bit_length() for row in result.num for x in row), default=0),
                   result.den.bit_length())
        self.peak_bits = max(self.peak_bits, bits)
        series_mul = self._ids["formal.series_mul"]
        if any(nid == series_mul for _, nid in self.stack):
            self.counts["formal.series_mul.matmuls"] += 1

    def _series_mul_post(self, args, result) -> None:
        self.counts["formal.series_mul.term_products"] += sum(len(v) for v in result.terms.values())

    def _materialize_post(self, args, result) -> None:
        self.counts["formal.materialize.terms"] += len(args[0].terms.get(args[1]) or ())

    def install(self) -> None:
        """Patch every boundary; umbra must already be imported."""
        posts = {
            "core.matmul": self._matmul_post,
            "formal.series_mul": self._series_mul_post,
            "formal.materialize": self._materialize_post,
        }
        for prefix, targets in BOUNDARIES:
            for target in targets:
                if prefix == "quadrature.integrate":
                    self._patch(target, self._integrate)
                else:
                    self._patch(target, lambda fn, p=prefix: self._spanned(p, fn, posts.get(p)))
        for prefix, target in COUNTED:
            self._patch(target, lambda fn, p=prefix: self._counted(p, fn))

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr, original = _resolve(target)
        wrapped = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for mod in [m for name, m in sys.modules.items() if name.startswith("umbra") and m]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero where a boundary never fired."""
        by_id = self_times(self.span_name, self.span_start, self.span_end, self.span_parent)
        own = {self.names[i]: s for i, s in by_id.items()}
        out: dict[str, float] = {}
        for name in layer_metric_units():
            if name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = own.get(name[: -len(".self_s")], 0.0)
        out.update({k: self.counts[k] for k in EXTRA_METRICS})
        out["core.matmul.peak_bits"] = self.peak_bits
        dense = out["core.matmul.macs_dense"]
        out["core.matmul.useful_ratio"] = out["core.matmul.macs_useful"] / dense if dense else 0.0
        products = out["formal.series_mul.term_products"]
        out["formal.product_reuse"] = 1.0 - out["formal.series_mul.matmuls"] / products if products else 0.0
        return out

    def request_time(self) -> float:
        """Summed duration of the request root spans."""
        rid = self._ids.get(REQUEST)
        return sum(e - s for n, s, e in zip(self.span_name, self.span_start, self.span_end) if n == rid)

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: request, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_request[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
