"""Spans recorded from outside the program, around its layers' calls.

The traced run wraps public functions of each layer (the table in
``LAYER_CALLS``) with a recorder that notes the span's name, start, end,
parent span and request id.  Spans stay in memory and are written out
when the run ends.  Nothing under ``src/`` is changed: the wrappers are
installed on the classes and modules at run time and removed after.

Request ids: a span inherits its parent's id; a root span on a worker
thread finds its request through the program's ambient trace context
(``current_trace()``), whose trace id the admission span maps to the
request id.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "trace",
                 "phase", "attrs")

    def __init__(self, sid, name, start, parent, rid, trace, phase):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.trace = trace
        self.phase = phase
        self.attrs = None

    def to_dict(self) -> dict:
        out = {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request_id": self.rid,
            "phase": self.phase,
        }
        if self.trace:
            out["trace_id"] = self.trace
        if self.attrs:
            out.update(self.attrs)
        return out


def _request_of(request) -> str | None:
    return getattr(request, "id", None)


def _first_arg_id(args, kwargs):
    return _request_of(args[1]) if len(args) > 1 else None


def _admit_after(span, result):
    span.rid = result[0]


def _trace_after(span, result):
    span.attrs = {"opened_trace": getattr(result, "trace_id", None)}


def _batch_after(span, result):
    """Record the batch size and how long the batch head waited inside
    this call (from when it was both queued and asked for, to return):
    the scheduler's own share of a request's latency.  An empty return
    is an idle poll, kept apart as layer ``idle``."""
    if not result:
        span.name = "idle.next_batch"
        return
    now = time.perf_counter()
    head_queued = result[0].submitted_at - time.monotonic() + now
    span.attrs = {"batch_size": len(result),
                  "batch_wait_s": now - max(span.start, head_queued)}


def _route_after(span, result):
    if isinstance(result, tuple) and isinstance(result[1], dict):
        span.rid = result[1].get("id") or span.rid
        span.attrs = {"status": result[0]}


#: (module, owner class or None for a module function, attribute, span
#: name, request-id getter, after-hook).  Owners that do not exist in the
#: program under test are skipped and reported as unwrapped.
LAYER_CALLS = (
    ("repro.serving.pool", "CrossbarPool", "admit",
     "serving.pool.admit", None, _admit_after),
    ("repro.serving.pool", "CrossbarPool", "admit_search",
     "serving.pool.admit", None, _admit_after),
    ("repro.serving.pool", None, "run_point",
     "runtime.campaign.run_point", None, None),
    ("repro.serving.journal", "RequestJournal", "admitted",
     "serving.journal.append", _first_arg_id, None),
    ("repro.serving.journal", "RequestJournal", "dispatched",
     "serving.journal.append",
     lambda args, kwargs: args[1] if len(args) > 1 else None, None),
    ("repro.serving.journal", "RequestJournal", "completed",
     "serving.journal.append", _first_arg_id, None),
    ("repro.serving.scheduler", "BatchingScheduler", "next_batch",
     "serving.scheduler.next_batch", None, _batch_after),
    ("repro.serving.runtime.subprocess", "SubprocessRuntime", "execute",
     "serving.runtime.execute",
     lambda args, kwargs: _request_of(args[2]) if len(args) > 2 else None,
     None),
    ("repro.observability.tracing", "TraceStore", "new_trace",
     "observability.tracing.new_trace", None, _trace_after),
    ("repro.search.index", "SearchIndex", "top_k",
     "search.index.top_k", None, None),
    ("repro.runtime.comparison", "ComparisonHarness", "compare",
     "runtime.comparison.compare", None, None),
    ("repro.baselines.gpu", "GPUModel", "measure_locality",
     "baselines.gpu.measure_locality", None, None),
    ("repro.runtime.executor", "APIMExecutor", "run",
     "runtime.executor.run", None, None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.unwrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._current_trace = None

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = None
        if parent is not None:
            rid = rid if rid is not None else parent.rid
            trace = parent.trace
        elif self._current_trace is not None:
            ctx = self._current_trace()
            trace = getattr(ctx, "trace_id", None)
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.sid if parent is not None else 0, rid, trace,
                    self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, rid=None,
               **attrs) -> None:
        """A span measured by the caller itself (the HTTP client side)."""
        span = Span(next(self._ids), name, start, 0, rid, None, self.phase)
        span.end = end
        span.attrs = attrs or None
        self.spans.append(span)

    # -- wrapping -------------------------------------------------------------

    def traced(self, original, name: str, rid_of=None, after=None):
        """``original`` wrapped so each call records one span."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name, rid_of(args, kwargs) if rid_of else None)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                tracer.close(span)

        return traced

    def wrap(self, owner, attr: str, name: str, rid_of=None,
             after=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(original, name, rid_of, after))
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer call in :data:`LAYER_CALLS` that exists."""
        from repro.observability import tracing

        self._current_trace = tracing.current_trace
        for module_name, owner_name, attr, name, rid_of, after in LAYER_CALLS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            owner = module if owner_name is None else getattr(
                module, owner_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.unwrapped.append(f"{module_name}.{owner_name}.{attr}")
                continue
            self.wrap(owner, attr, name, rid_of, after)
        return self

    def wrap_routes(self, routes: list) -> list:
        """Wrap HTTP route handlers (server side of the front door).

        ``functools.wraps`` keeps each handler's signature visible, which
        the server inspects to decide whether to pass the query dict."""
        wrapped = []
        for method, pattern, handler in routes:
            path = pattern.pattern.strip("/^$?").split("/")[0]
            wrapped.append((method, pattern, self.traced(
                handler, f"serving.frontend.{path}", None, _route_after)))
        return wrapped

    def wrap_route_builder(self, frontend) -> None:
        """Make ``frontend.build_server`` build wrapped route handlers."""
        original = frontend.build_routes
        frontend.build_routes = lambda pool: self.wrap_routes(original(pool))
        self._patches.append((frontend, "build_routes", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def resolve_request_ids(self) -> None:
        """Give each span without one the request id of an ancestor, or
        of the program trace it ran under (mapped at admission)."""
        by_sid = {span.sid: span for span in self.spans}

        def ancestor_rid(span):
            while span is not None:
                if span.rid is not None:
                    return span.rid
                span = by_sid.get(span.parent)
            return None

        trace_rid = {}
        for span in self.spans:
            opened = (span.attrs or {}).get("opened_trace")
            if opened:
                trace_rid[opened] = ancestor_rid(span)
        for span in self.spans:
            if span.rid is None:
                span.rid = ancestor_rid(span) or trace_rid.get(span.trace)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path: str) -> list[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            data = json.loads(line)
            span = Span(data["id"], data["name"], data["start"],
                        data["parent"], data["request_id"],
                        data.get("trace_id"), data["phase"])
            span.end = data["end"]
            extra = {k: v for k, v in data.items() if k not in (
                "id", "name", "start", "end", "parent", "request_id",
                "phase", "trace_id")}
            span.attrs = extra or None
            spans.append(span)
    return spans


# -- analysis -----------------------------------------------------------------


def layer_of(name: str) -> str:
    """``serving.pool.admit`` -> ``serving.pool``."""
    return name.rsplit(".", 1)[0]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children are recorded on their parent's thread, so they nest inside
    the parent and do not overlap one another."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start)
    return {span.sid: (span.end - span.start) - child_time.get(span.sid, 0.0)
            for span in spans}


def layer_table(spans: list[Span], request_time_s: float,
                phase: str = "timed") -> dict:
    """Per-layer span count, total and self time, and self-time share of
    the total request time (``base_request_time_s``) in one phase."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        if span.phase != phase:
            continue
        entry = table.setdefault(layer_of(span.name), {
            "spans": 0, "total_s": 0.0, "self_s": 0.0})
        entry["spans"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own[span.sid]
    for entry in table.values():
        entry["share_of_request_time"] = (
            entry["self_s"] / request_time_s if request_time_s > 0 else 0.0)
        entry["base_request_time_s"] = request_time_s
    return dict(sorted(table.items()))
