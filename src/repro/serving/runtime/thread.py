"""One driver thread per shard: the in-process runtime and the shared
driver loop the subprocess runtime builds on."""

from __future__ import annotations

import threading
import time

from repro.errors import FleetError
from repro.observability.instruments import record_shard_health
from repro.serving.runtime.base import ShardRuntime

__all__ = ["ThreadRuntime"]

#: How long an idle driver blocks on the queue per poll, and how long a
#: driver whose breaker is open rests before looking again.
IDLE_POLL_S = 0.02


class ThreadRuntime(ShardRuntime):
    """Each shard gets a daemon driver thread pulling one request at a
    time from the scheduler and running it through :meth:`execute`.

    Shards share the GIL, so NumPy-heavy loads do not scale with shard
    count — that is
    :class:`~repro.serving.runtime.subprocess.SubprocessRuntime`'s job,
    which reuses this driver and only changes where a request executes —
    but threads are free to start and right for small pools.

    Drivers are tracked per shard so the fleet control plane can resize a
    live pool: :meth:`shard_added` spawns one for the newcomer,
    :meth:`shard_removed` signals the victim's driver and joins it — the
    driver finishes its current request first, so every request the
    shard held reaches a terminal result before the resize returns.
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
        # The shard left the pool whether or not its driver drained in
        # time: deadline admission must stop counting it as a worker.
        self.pool.scheduler.unregister_worker()
        if thread is not None and thread.is_alive():
            # The request in flight outlives the deadline.  The driver
            # still terminates every request it holds (the rescue ladder
            # guarantees it) — only the resize's bounded-time promise is
            # broken, which callers must hear about.
            raise FleetError(
                f"{shard.key} did not drain within {timeout:.1f}s; "
                "its in-flight request completes in the background"
            )

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._stop.set()
        threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._shard_stops.clear()
        for _ in threads:
            self.pool.scheduler.unregister_worker()

    def _drive(self, shard, shard_stop: threading.Event) -> None:
        pool = self.pool
        while not self._stop.is_set() and not shard_stop.is_set():
            self._reap(shard)
            if not shard.healthy:
                record_shard_health(shard.index, False)
                time.sleep(IDLE_POLL_S)
                continue
            record_shard_health(shard.index, True)
            batch = pool.scheduler.next_batch(timeout=IDLE_POLL_S)
            if batch:
                pool._dispatch(shard, batch[0])

    def _reap(self, shard) -> None:
        """Per-poll hook: notice a shard resource that died while idle
        (in-process shards hold none)."""
