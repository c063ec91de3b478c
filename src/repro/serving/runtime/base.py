"""The shard-runtime contract: who drives a pool's shards, and how.

A :class:`~repro.serving.pool.CrossbarPool` owns the *policy* of serving
(admission, queueing, rescue ladder, results, health) while a
:class:`ShardRuntime` owns the *mechanics* of execution — which thread or
process actually runs each dispatched request.  Three implementations:

- :class:`~repro.serving.runtime.inline.InlineRuntime` — no concurrency;
  requests execute on the submitting thread.  Deterministic, trivially
  debuggable, the campaign/test default when parallelism is noise.
- :class:`~repro.serving.runtime.thread.ThreadRuntime` — one daemon
  thread per shard (the pre-runtime behaviour).  Cheap, shares the GIL,
  right for I/O-light loads and small pools.
- :class:`~repro.serving.runtime.subprocess.SubprocessRuntime` — one
  worker *process* per shard behind a frame protocol: true parallelism
  (GIL escape) and fault containment — a segfaulting shard worker is a
  respawn, not an outage.

Runtimes are selected per pool: ``CrossbarPool(runtime="subprocess")`` or
an instance for custom tuning.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import ServingError

if TYPE_CHECKING:
    from repro.serving.pool import CrossbarPool

__all__ = ["ShardRuntime"]


class ShardRuntime(ABC):
    """Drives a bound pool's shards; see the module docstring."""

    #: Selection key (``CrossbarPool(runtime=<name>)``) and stats label.
    name = "base"

    def __init__(self) -> None:
        self.pool: "CrossbarPool | None" = None
        self._lifecycle_lock = threading.Lock()
        # Worker lifecycle counts (aggregated across shards).  Thread and
        # inline runtimes never spawn processes, so theirs stay zero; the
        # subprocess runtime feeds /stats and /healthz through these.
        self.spawned = 0
        self.deaths = 0
        self.respawns = 0
        self.redriven = 0

    def bind(self, pool: "CrossbarPool") -> "ShardRuntime":
        """Attach to the pool this runtime drives (exactly once)."""
        if self.pool is not None and self.pool is not pool:
            raise ServingError(
                f"{type(self).__name__} is already bound to another pool"
            )
        self.pool = pool
        return self

    @abstractmethod
    def start(self) -> None:
        """Begin driving the bound pool's shards."""

    @abstractmethod
    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop driving; with ``drain`` the queue is already empty."""

    def after_submit(self) -> None:
        """Hook invoked after each successful admission (inline pumping)."""

    def shard_added(self, shard) -> None:
        """Begin driving a shard added to a *started* pool.

        Called by :meth:`CrossbarPool.add_shard` after the shard is
        visible in ``pool.shards``.  The default is a no-op — the inline
        runtime discovers shards by iterating ``pool.shards`` on every
        pump; runtimes that dedicate a thread or process per shard
        override this to spawn one for the newcomer.
        """

    def shard_removed(self, shard, timeout: float = 30.0) -> None:
        """Stop driving a shard removed from a *started* pool.

        Called by :meth:`CrossbarPool.remove_shard` after the shard left
        ``pool.shards`` (so it receives no new requests).  Implementations
        must complete the shard's in-flight work before returning — the
        loss-free half of the live-resize contract — and release any
        per-shard worker registration.  The default is a no-op.
        """

    def _count(self, field: str, amount: int = 1) -> None:
        with self._lifecycle_lock:
            setattr(self, field, getattr(self, field) + amount)

    def lifecycle(self) -> dict:
        """Aggregated worker lifecycle counts for /stats and /healthz."""
        with self._lifecycle_lock:
            return {
                "spawned": self.spawned,
                "deaths": self.deaths,
                "respawns": self.respawns,
                "redriven": self.redriven,
            }

    def stats(self) -> dict:
        """JSON-able runtime description (extended by subclasses)."""
        return {"name": self.name, "workers": self.lifecycle()}
