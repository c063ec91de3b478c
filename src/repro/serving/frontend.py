"""The network frontend: JSON-over-HTTP API over a :class:`CrossbarPool`.

Endpoints (all JSON unless noted):

- ``POST /submit`` — body ``{"workload": "Sobel", "relax_bits": 16,
  "dataset_bytes": 67108864, "tenant": "alice", "priority": 1,
  "deadline_s": 2.5, "idempotency_key": "job-42"}`` (only ``workload``
  required).  Replies ``202 {"id": ..., "status": "queued"}``; a repeat
  submit under the same ``idempotency_key`` with the identical payload
  is ``200 {"status": "duplicate"}`` carrying the *original* id, a
  different payload under a used key is ``409``; admission rejection is
  ``429`` with a ``Retry-After`` header, an unknown workload or bad
  field is ``400``, no healthy shard is ``503``.
- ``POST /search`` — body ``{"query": [0, 1, ...], "k": 10,
  "relax_bits": 0, "tenant": ..., "priority": ..., "deadline_s": ...,
  "idempotency_key": ...}`` (only ``query`` — a dim-length 0/1 vector —
  required).  Admits one similarity search against the pool's seeded
  binary codebook; same reply/ error contract as ``/submit`` (202
  queued, 200 duplicate, 409 conflict, 400 on a malformed query or
  ``k``).  The terminal result's ``search`` field carries the top-k ids,
  (possibly quantized) Hamming distances and the relax rung's shift.
- ``GET /result/<id>`` — ``200`` with the terminal
  :class:`~repro.serving.scheduler.ServeResult` once done, ``202
  {"status": "pending"}`` while queued/executing, ``404`` for unknown
  ids, ``410`` once the result was evicted (capacity/TTL bound).
- ``GET /trace/<id>`` — the request's trace timeline (by trace id or
  request id): every hop from admission through scheduler, pool worker,
  supervisor, executor and controller; ``404`` once evicted/unknown.
- ``GET /healthz`` — ``200`` while at least one shard admits traffic and
  the SLO error budget is not fast-burning, ``503`` otherwise.
- ``GET /stats`` — scheduler depths, admission counters, per-shard
  served/failures/busy time.
- ``GET /fleet`` — the fleet control plane: live shard set with
  per-shard in-flight depth, shed tenants, and (when an autoscaler is
  attached) its policy, counters and recent decisions.
- ``GET /query?series=…&window=…&fn=…`` — retained telemetry history
  for the series matching the selector (optionally restricted to the
  trailing ``window`` seconds, optionally with a derived scalar:
  ``rate``/``ewma``/``slope``/``mean``/``min``/``max``/``value``).
  ``503`` while no telemetry pipeline is attached, ``400`` on a
  malformed selector/expression.
- ``GET /alerts`` — every alert rule's state
  (inactive/pending/firing/resolved), current value and transition
  count, plus the firing roll-up.  ``503`` without telemetry.
- ``GET /metrics`` — the process Prometheus scrape (text exposition).

:func:`build_server` wires these routes into the shared
:class:`~repro.serving.http.JsonHttpServer`.
"""

from __future__ import annotations

import re

from repro.errors import (
    AdmissionRejectedError,
    DuplicateRequestError,
    JournalError,
    ReproError,
    SearchError,
    ServingError,
    ShardUnavailableError,
    TelemetryError,
)
from repro.serving.http import PROMETHEUS_CONTENT_TYPE, JsonHttpServer
from repro.serving.pool import CrossbarPool
from repro.units import MIB

__all__ = ["build_routes", "build_server"]

_SUBMIT_FIELDS = {
    "workload", "relax_bits", "dataset_bytes", "tenant", "priority",
    "deadline_s", "idempotency_key",
}

_SEARCH_FIELDS = {
    "query", "k", "relax_bits", "tenant", "priority", "deadline_s",
    "idempotency_key",
}


def _submit_handler(pool: CrossbarPool):
    def handle(_match, body):
        if not isinstance(body, dict) or "workload" not in body:
            return 400, {"error": 'body must be JSON with a "workload" key'}
        unknown = set(body) - _SUBMIT_FIELDS
        if unknown:
            return 400, {"error": f"unknown fields {sorted(unknown)}"}
        try:
            request_id, duplicate = pool.admit(
                workload=str(body["workload"]),
                relax_bits=int(body.get("relax_bits", 0)),
                dataset_bytes=float(body.get("dataset_bytes", 64 * MIB)),
                tenant=str(body.get("tenant", "default")),
                priority=(
                    None
                    if body.get("priority") is None
                    else int(body["priority"])
                ),
                deadline_s=(
                    None
                    if body.get("deadline_s") is None
                    else float(body["deadline_s"])
                ),
                idempotency_key=(
                    None
                    if body.get("idempotency_key") is None
                    else str(body["idempotency_key"])
                ),
            )
        except DuplicateRequestError as exc:
            return 409, {
                "error": str(exc),
                "idempotency_key": exc.idempotency_key,
                "id": exc.request_id,
            }
        except JournalError:
            # The admitted record could not be made durable, so the id
            # cannot be acknowledged: a journal outage is a server fault
            # (500 via the server's handler-exception path), not a 400.
            raise
        except AdmissionRejectedError as exc:
            return (
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
        except ShardUnavailableError as exc:
            # A draining pool says when to come back; a breaker-dark pool
            # has no estimate, so no Retry-After header in that case.
            if exc.retry_after_s is not None:
                return (
                    503,
                    {"error": str(exc), "retry_after_s": exc.retry_after_s},
                    {"Retry-After": f"{exc.retry_after_s:.3f}"},
                )
            return 503, {"error": str(exc)}
        except (ServingError, ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        trace_id = pool.trace_id_for(request_id) or ""
        # A duplicate submit is answered 200, not 202: nothing new was
        # queued — the id points at the original request.
        return (200 if duplicate else 202), {
            "id": request_id,
            "status": "duplicate" if duplicate else "queued",
            "trace_id": trace_id,
        }

    return handle


def _search_handler(pool: CrossbarPool):
    def handle(_match, body):
        if not isinstance(body, dict) or "query" not in body:
            return 400, {"error": 'body must be JSON with a "query" key'}
        unknown = set(body) - _SEARCH_FIELDS
        if unknown:
            return 400, {"error": f"unknown fields {sorted(unknown)}"}
        query = body["query"]
        if not isinstance(query, list):
            return 400, {"error": '"query" must be a list of 0/1 bits'}
        try:
            request_id, duplicate = pool.admit_search(
                query,
                k=int(body.get("k", 10)),
                relax_bits=int(body.get("relax_bits", 0)),
                tenant=str(body.get("tenant", "default")),
                priority=(
                    None
                    if body.get("priority") is None
                    else int(body["priority"])
                ),
                deadline_s=(
                    None
                    if body.get("deadline_s") is None
                    else float(body["deadline_s"])
                ),
                idempotency_key=(
                    None
                    if body.get("idempotency_key") is None
                    else str(body["idempotency_key"])
                ),
            )
        except DuplicateRequestError as exc:
            return 409, {
                "error": str(exc),
                "idempotency_key": exc.idempotency_key,
                "id": exc.request_id,
            }
        except JournalError:
            raise  # durability outage: a server fault, not a 400
        except AdmissionRejectedError as exc:
            return (
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
        except ShardUnavailableError as exc:
            if exc.retry_after_s is not None:
                return (
                    503,
                    {"error": str(exc), "retry_after_s": exc.retry_after_s},
                    {"Retry-After": f"{exc.retry_after_s:.3f}"},
                )
            return 503, {"error": str(exc)}
        except (SearchError, ServingError, ValueError, TypeError) as exc:
            # A malformed query/k is the client's fault: self-correcting 400.
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        trace_id = pool.trace_id_for(request_id) or ""
        return (200 if duplicate else 202), {
            "id": request_id,
            "status": "duplicate" if duplicate else "queued",
            "trace_id": trace_id,
        }

    return handle


def _result_handler(pool: CrossbarPool):
    def handle(match, _body):
        request_id = match.group("id")
        status = pool.results.status(request_id)
        if status == "unknown":
            return 404, {"error": f"unknown request id {request_id!r}"}
        if status == "evicted":
            reason = pool.results.eviction_reason(request_id) or "evicted"
            return 410, {
                "error": (
                    f"result for {request_id!r} was evicted ({reason}); "
                    "results are retained up to the store's capacity and "
                    "TTL — fetch sooner or raise the bounds"
                ),
                "id": request_id,
                "reason": reason,
            }
        if status == "pending":
            return 202, {
                "id": request_id,
                "status": "pending",
                "trace_id": pool.trace_id_for(request_id) or "",
            }
        return 200, pool.results.get(request_id).to_dict()

    return handle


def _trace_handler(pool: CrossbarPool):
    def handle(match, _body):
        trace_id = match.group("id")
        timeline = pool.traces.timeline(trace_id)
        if timeline is None:
            return 404, {"error": f"unknown or evicted trace {trace_id!r}"}
        return 200, timeline

    return handle


def _healthz_handler(pool: CrossbarPool):
    def handle(_match, _body):
        health = pool.healthz()
        ok = (
            health["healthy_shards"] > 0
            and health["status"] != "fast_burn"
        )
        return (200 if ok else 503), health

    return handle


def _stats_handler(pool: CrossbarPool):
    def handle(_match, _body):
        return 200, pool.stats()

    return handle


def _fleet_handler(pool: CrossbarPool):
    def handle(_match, _body):
        return 200, pool.fleet_status()

    return handle


def _query_handler(pool: CrossbarPool):
    def handle(_match, _body, query):
        if pool.telemetry is None:
            return 503, {
                "error": "telemetry is not enabled on this server "
                "(start with --telemetry)"
            }
        selector = query.get("series")
        if not selector:
            return 400, {
                "error": "the series selector is required: "
                "/query?series=<name[{label=\"value\"}]>"
            }
        window = query.get("window")
        fn = query.get("fn") or None
        try:
            window_s = None if window in (None, "") else float(window)
            if window_s is not None and window_s <= 0:
                raise ValueError(f"window must be positive: {window_s}")
            payload = pool.telemetry.query(selector, window_s, fn=fn)
        except (TelemetryError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, payload

    return handle


def _alerts_handler(pool: CrossbarPool):
    def handle(_match, _body):
        if pool.telemetry is None:
            return 503, {
                "error": "telemetry is not enabled on this server "
                "(start with --telemetry)"
            }
        return 200, pool.telemetry.alerts()

    return handle


def _metrics_handler():
    def handle(_match, _body):
        from repro.observability import default_registry, to_prometheus

        return (
            200,
            to_prometheus(default_registry()),
            {"Content-Type": PROMETHEUS_CONTENT_TYPE},
        )

    return handle


def build_routes(pool: CrossbarPool):
    """The frontend route table over one pool."""
    return [
        ("POST", re.compile(r"/submit/?$"), _submit_handler(pool)),
        ("POST", re.compile(r"/search/?$"), _search_handler(pool)),
        (
            "GET",
            re.compile(r"/result/(?P<id>[A-Za-z0-9._:-]+)/?$"),
            _result_handler(pool),
        ),
        (
            "GET",
            re.compile(r"/trace/(?P<id>[A-Za-z0-9._:-]+)/?$"),
            _trace_handler(pool),
        ),
        ("GET", re.compile(r"/healthz/?$"), _healthz_handler(pool)),
        ("GET", re.compile(r"/stats/?$"), _stats_handler(pool)),
        ("GET", re.compile(r"/fleet/?$"), _fleet_handler(pool)),
        ("GET", re.compile(r"/query/?$"), _query_handler(pool)),
        ("GET", re.compile(r"/alerts/?$"), _alerts_handler(pool)),
        ("GET", re.compile(r"/metrics/?$"), _metrics_handler()),
    ]


def build_server(
    pool: CrossbarPool,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = 1 << 20,
) -> JsonHttpServer:
    """An HTTP server exposing ``pool`` (not yet started)."""
    return JsonHttpServer(
        build_routes(pool),
        host=host,
        port=port,
        max_body_bytes=max_body_bytes,
    )
