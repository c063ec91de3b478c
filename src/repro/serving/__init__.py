"""The serving layer: sharded execution behind a batching queue.

The paper's pitch is throughput at scale — APIM keeps per-element cost
flat while the GPU baseline degrades with dataset size — and this package
is the tier that turns the single-process reproduction into a service:

- :mod:`repro.serving.scheduler` — bounded priority queues with tenant
  fair-share, deadline-aware admission control, backpressure, and
  max-batch/max-wait coalescing of same-workload requests;
- :mod:`repro.serving.pool` — the :class:`CrossbarPool`: N shards, each a
  private executor/harness wrapped in the PR-2 supervisor, pulling
  batches so a breaker-tripped shard sheds traffic to healthy ones;
- :mod:`repro.serving.runtime` — pluggable execution mechanics per pool:
  inline (synchronous), thread (daemon thread per shard) or subprocess
  (process per shard behind a frame protocol — GIL escape, worker
  supervision, crash recovery with exactly-once re-drive);
- :mod:`repro.serving.http` — the shared stdlib HTTP server (graceful
  shutdown, bounded bodies) the metrics endpoint reuses;
- :mod:`repro.serving.frontend` — the JSON API (``/submit``,
  ``/result/<id>``, ``/healthz``, ``/stats``, ``/metrics``) behind
  ``repro serve``.

See ``docs/serving.md`` for the architecture and tuning guide.

Re-exports resolve lazily (module ``__getattr__``), so importing one
submodule — the subprocess worker, say — does not drag in the HTTP stack
or the pool.
"""

from __future__ import annotations

import importlib

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    "BatchingScheduler": "repro.serving.scheduler",
    "Client": "repro.serving.pool",
    "CrossbarPool": "repro.serving.pool",
    "InlineRuntime": "repro.serving.runtime",
    "JsonHttpServer": "repro.serving.http",
    "PoolShard": "repro.serving.pool",
    "ResultStore": "repro.serving.scheduler",
    "ServeRequest": "repro.serving.scheduler",
    "ServeResult": "repro.serving.scheduler",
    "ServingConfig": "repro.serving.scheduler",
    "ShardRuntime": "repro.serving.runtime",
    "SubprocessRuntime": "repro.serving.runtime",
    "ThreadRuntime": "repro.serving.runtime",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
