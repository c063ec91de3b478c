"""One daemon thread per shard: the classic in-process runtime."""

from __future__ import annotations

import threading
import time

from repro.errors import FleetError
from repro.observability.instruments import record_shard_health
from repro.serving.runtime.base import ShardRuntime

__all__ = ["ThreadRuntime"]


class ThreadRuntime(ShardRuntime):
    """The pre-runtime :class:`CrossbarPool` behaviour, factored out.

    Each shard gets a daemon thread pulling one request at a time from
    the scheduler and running it through the pool's rescue ladder.  Shards
    share the GIL, so NumPy-heavy loads do not scale with shard count —
    that is :class:`~repro.serving.runtime.subprocess.SubprocessRuntime`'s
    job — but threads are free to start and right for small pools.

    Threads are tracked per shard so the fleet control plane can resize a
    live pool: :meth:`shard_added` spawns one thread for the newcomer,
    :meth:`shard_removed` signals the victim's thread and joins it — the
    thread finishes its current request first, so every request the shard
    held reaches a terminal result before the resize returns.
    """

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self._threads: dict[int, threading.Thread] = {}
        self._shard_stops: dict[int, threading.Event] = {}
        self._stop = threading.Event()

    def _spawn(self, shard) -> None:
        stop = self._shard_stops[shard.index] = threading.Event()
        thread = threading.Thread(
            target=self._drive,
            args=(shard, stop),
            name=f"crossbar-{shard.key}",
            daemon=True,
        )
        self._threads[shard.index] = thread
        thread.start()
        self.pool.scheduler.register_worker()

    def start(self) -> None:
        self._stop.clear()
        for shard in self.pool.shards:
            self._spawn(shard)

    def shard_added(self, shard) -> None:
        self._spawn(shard)

    def shard_removed(self, shard, timeout: float = 30.0) -> None:
        stop = self._shard_stops.pop(shard.index, None)
        thread = self._threads.pop(shard.index, None)
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                # The request in flight outlives the deadline.  The thread
                # still terminates every request it holds (the rescue
                # ladder guarantees it) — only the resize's bounded-time
                # promise is broken, which callers must hear about.
                raise FleetError(
                    f"{shard.key} did not drain within {timeout:.1f}s; "
                    "its in-flight request completes in the background"
                )
        self.pool.scheduler.unregister_worker()

    def _drive(self, shard, shard_stop: threading.Event) -> None:
        pool = self.pool
        while not self._stop.is_set() and not shard_stop.is_set():
            if not shard.healthy:
                record_shard_health(shard.index, False)
                time.sleep(min(pool.idle_poll_s, 0.05))
                continue
            record_shard_health(shard.index, True)
            batch = pool.scheduler.next_batch(timeout=pool.idle_poll_s)
            if batch:
                pool._dispatch(shard, batch[0])

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._stop.set()
        threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._shard_stops.clear()
        for _ in threads:
            self.pool.scheduler.unregister_worker()
