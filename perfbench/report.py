"""Metric names and units, per-layer derivation, and the result line.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics of
``BENCHMARK.json`` (the smoke test checks it).  ``error_rate`` is printed
by name in the human-readable summary; the result line carries the same
figure as ``failed / attempted``, since a metric that reads 0 on a
healthy run cannot carry a relative bound.
"""

from __future__ import annotations

import json
import os

from common import OUT_DIR, median, quantile
from tracer import Span, layer_table

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
    "points_per_s": "1/s",
    "first_point_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serving.http.submit_rtt_p50_ms": "ms",
    "serving.http.result_rtt_p50_ms": "ms",
    "serving.http.search_rtt_p50_ms": "ms",
    "serving.http.result_poll_yield": "ratio",
    "serving.journal.append_p50_ms": "ms",
    "serving.journal.appends_per_request": "count",
    "serving.runtime.execute_p50_ms": "ms",
    "serving.runtime.worker_cpu_ms_per_request": "ms",
    "serving.pool.admit_p50_us": "us",
    "serving.pool.queue_wait_p50_ms": "ms",
    "serving.pool.service_p50_ms": "ms",
    "serving.scheduler.next_batch_wait_p50_ms": "ms",
    "serving.scheduler.batch_size_mean": "count",
    "observability.tracing.new_trace_p50_us": "us",
    "search.index.top_k_p50_us": "us",
    "runtime.comparison.compare_p50_us": "us",
    "runtime.comparison.tile_hit_ratio": "ratio",
    "baselines.gpu.locality_sims": "count",
    "baselines.gpu.locality_s_total": "s",
    "runtime.executor.run_calls": "count",
    "runtime.executor.run_s_total": "s",
    "loadgen.lag_p99_ms": "ms",
    "tracing.overhead_p50_ms": "ms",
    "tracing.overhead_ratio": "ratio",
}

#: A ``measure_locality`` call that returns from a memo takes
#: microseconds (a few ms when it waits for the interpreter lock); one
#: that runs the cache simulation takes 0.25 s or more.
LOCALITY_SIM_MIN_S = 0.05


class Measured:
    """What one pass of a workload measured, traced or not."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_s: list[float] = []
        self.window_s = 0.0
        self.completed = 0
        self.points = 0
        #: Wall time of work whose requests overlap (a campaign), the base
        #: of per-layer shares in place of the summed request latencies.
        self.overlapped_s = 0.0
        self.setup_s: list[float] = []
        self.first_point_s: list[float] = []
        self.peak_rss_mb = 0.0
        #: Per-layer inputs the program reports itself.
        self.queue_wait_s: list[float] = []
        self.service_s: list[float] = []
        self.lag_s: list[float] = []
        self.result_polls = 0
        self.result_200s = 0
        self.worker_cpu_s = 0.0
        self.pricing_requests = 0
        self.notes: dict = {}

    def request_time_s(self) -> float:
        return self.overlapped_s or sum(self.latencies_s)

    def latency_ms(self, q: float) -> float:
        return quantile(self.latencies_s, q) * 1e3

    def end_to_end(self) -> dict:
        window = self.window_s or float("nan")
        return {
            "setup_s": median(self.setup_s),
            "latency_p50_ms": self.latency_ms(0.5),
            "latency_p99_ms": self.latency_ms(0.99),
            "throughput_rps": self.completed / window,
            "points_per_s": self.points / window,
            "first_point_s": median(self.first_point_s),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _p50(spans: list[Span], scale: float) -> float:
    values = [span.end - span.start for span in spans]
    return median(values) * scale if values else 0.0


def per_layer(spans: list[Span], traced: Measured,
              untraced: Measured) -> tuple[dict, dict]:
    """Every :data:`PER_LAYER` metric from one traced pass, and the
    numerator, denominator and base of each ratio among them.

    A layer the workload never reaches reads 0 (its span count in the
    report is 0 too).  Timings come from the timed phase; the locality
    and executor counts cover set-up as well, where pool warm-up does
    its cold pricing."""
    timed = [span for span in spans if span.phase == "timed"]
    named: dict[str, list[Span]] = {}
    for span in timed:
        named.setdefault(span.name, []).append(span)
    every: dict[str, list[Span]] = {}
    for span in spans:
        every.setdefault(span.name, []).append(span)

    def of(name):
        return named.get(name, [])

    batches = of("serving.scheduler.next_batch")
    compares = of("runtime.comparison.compare")
    compare_ids = {span.sid for span in compares}
    missed = {span.parent for span in of("runtime.executor.run")
              if span.parent in compare_ids}
    sims = [s for s in every.get("baselines.gpu.measure_locality", [])
            if s.end - s.start >= LOCALITY_SIM_MIN_S]
    runs = every.get("runtime.executor.run", [])
    requests = max(traced.attempted, 1)
    untraced_p50 = untraced.latency_ms(0.5)
    traced_p50 = traced.latency_ms(0.5)
    journal = of("serving.journal.append")
    bases = {
        "serving.http.result_poll_yield": {
            "numerator": traced.result_200s,
            "denominator": traced.result_polls,
            "base": "GET /result calls answered 200 over all GET /result "
                    "calls"},
        "serving.journal.appends_per_request": {
            "numerator": len(journal), "denominator": traced.attempted,
            "base": "journal appends over requests attempted"},
        "serving.runtime.worker_cpu_ms_per_request": {
            "numerator_s": traced.worker_cpu_s,
            "denominator": traced.pricing_requests,
            "base": "worker-process CPU over pricing requests"},
        "runtime.comparison.tile_hit_ratio": {
            "numerator": len(compares) - len(missed),
            "denominator": len(compares),
            "base": "compare calls that ran no executor tile over all "
                    "compare calls"},
        "tracing.overhead_ratio": {
            "numerator_ms": traced_p50 - untraced_p50,
            "denominator_ms": untraced_p50,
            "base": "traced minus untraced latency p50, over untraced p50"},
    }
    metrics = {
        "serving.http.submit_rtt_p50_ms": _p50(of("serving.http.submit"), 1e3),
        "serving.http.result_rtt_p50_ms": _p50(of("serving.http.result"), 1e3),
        "serving.http.search_rtt_p50_ms": _p50(of("serving.http.search"), 1e3),
        "serving.http.result_poll_yield": (
            traced.result_200s / traced.result_polls
            if traced.result_polls else 0.0),
        "serving.journal.append_p50_ms": _p50(
            of("serving.journal.append"), 1e3),
        "serving.journal.appends_per_request": len(journal) / requests,
        "serving.runtime.execute_p50_ms": _p50(
            of("serving.runtime.execute"), 1e3),
        "serving.runtime.worker_cpu_ms_per_request": (
            traced.worker_cpu_s * 1e3 / traced.pricing_requests
            if traced.pricing_requests else 0.0),
        "serving.pool.admit_p50_us": _p50(of("serving.pool.admit"), 1e6),
        "serving.pool.queue_wait_p50_ms": (
            median(traced.queue_wait_s) * 1e3 if traced.queue_wait_s else 0.0),
        "serving.pool.service_p50_ms": (
            median(traced.service_s) * 1e3 if traced.service_s else 0.0),
        "serving.scheduler.next_batch_wait_p50_ms": (
            median([s.attrs["batch_wait_s"] for s in batches]) * 1e3
            if batches else 0.0),
        "serving.scheduler.batch_size_mean": (
            sum(s.attrs["batch_size"] for s in batches) / len(batches)
            if batches else 0.0),
        "observability.tracing.new_trace_p50_us": _p50(
            of("observability.tracing.new_trace"), 1e6),
        "search.index.top_k_p50_us": _p50(of("search.index.top_k"), 1e6),
        "runtime.comparison.compare_p50_us": _p50(compares, 1e6),
        "runtime.comparison.tile_hit_ratio": (
            (len(compares) - len(missed)) / len(compares)
            if compares else 0.0),
        "baselines.gpu.locality_sims": float(len(sims)),
        "baselines.gpu.locality_s_total": sum(s.end - s.start for s in sims),
        "runtime.executor.run_calls": float(len(runs)),
        "runtime.executor.run_s_total": sum(s.end - s.start for s in runs),
        "loadgen.lag_p99_ms": (
            quantile(traced.lag_s, 0.99) * 1e3 if traced.lag_s else 0.0),
        "tracing.overhead_p50_ms": traced_p50 - untraced_p50,
        "tracing.overhead_ratio": (traced_p50 - untraced_p50) / untraced_p50,
    }
    return metrics, bases


def write_trace_report(workload: str, seed: int, tracer, traced: Measured,
                       untraced: Measured, metrics: dict, bases: dict,
                       overhead_note: str) -> str:
    """Write the spans and the per-layer report; returns the report path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    tracer.resolve_request_ids()
    tracer.dump(stem + "-spans.jsonl")
    request_time = traced.request_time_s()
    spans = tracer.spans
    report = {
        "workload": workload,
        "seed": seed,
        "spans_file": os.path.relpath(stem + "-spans.jsonl", OUT_DIR),
        "spans": len(spans),
        "unwrapped_calls": tracer.unwrapped,
        "layers_timed": layer_table(spans, request_time, "timed"),
        "layers_setup": layer_table(spans, request_time, "setup"),
        "per_layer_metrics": metrics,
        "ratios": bases,
        "tracing_overhead": {
            "untraced": untraced.end_to_end(),
            "traced": traced.end_to_end(),
            "latency_p50_ms": metrics["tracing.overhead_p50_ms"],
            "ratio": metrics["tracing.overhead_ratio"],
            "note": overhead_note,
        },
        "traced_requests": traced.attempted,
        "notes": traced.notes,
    }
    path = stem + "-trace.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    return path


def print_layers(report_path: str) -> None:
    with open(report_path) as handle:
        report = json.load(handle)
    print(f"per-layer self time, timed phase (report: {report_path})")
    for layer, row in report["layers_timed"].items():
        print(f"  {layer:<34} spans {row['spans']:>7}  self "
              f"{row['self_s']:9.4f} s  share {row['share_of_request_time']:7.4f}"
              f" of {row['base_request_time_s']:.3f} s request time")


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    """Print the human summary, then the one-line JSON result."""
    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.6f} {units[name]}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<44} {rate:14.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
