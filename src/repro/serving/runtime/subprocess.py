"""Process-per-shard execution: GIL escape with crash containment.

Each shard gets a worker process (`python -m repro.serving.runtime.worker`)
plus a parent-side driver thread.  The driver pulls requests exactly like
the thread runtime, but executes each request by round-tripping a frame
through the worker's pipes — NumPy bit-plane pricing then runs in a
process of its own, so four shards use four cores instead of fighting
over one GIL.

The supervision ladder, on worker death (pipe EOF after SIGKILL / segfault
/ OOM, or a hang past ``hang_timeout_s``, or lost framing):

1. the death is **detected** and normalised to
   :class:`~repro.errors.WorkerCrashedError` (never a raw
   ``BrokenPipeError``/``EOFError``);
2. the shard's circuit **breaker** records a failure — a crash-looping
   shard trips open and stops pulling traffic while it cools down;
3. the worker is **respawned** under capped exponential backoff (the
   death streak doubles the delay up to ``respawn_backoff_cap_s``);
4. the in-flight request is **re-driven** through the fresh worker, up to
   ``max_redrives`` times, then falls back to in-process execution via
   the pool's own rescue ladder — every admitted request still reaches
   exactly one terminal result, and the trace shows every attempt.

Results carry the worker's buffered trace events and counter deltas; the
driver replays them into the parent's trace store and metrics registry,
so ``GET /trace/<id>`` and ``GET /metrics`` see through the process
boundary.
"""

from __future__ import annotations

import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time

from repro.errors import ProtocolError, ServingError, WorkerCrashedError
from repro.observability.instruments import (
    record_shard_health,
    record_worker_death,
    record_worker_redrive,
    record_worker_respawn,
    record_worker_spawn,
)
from repro.observability.registry import active_registry, apply_counter_deltas
from repro.observability.tracing import replay_events
from repro.runtime.campaign import CampaignPoint
from repro.serving.runtime.base import ShardRuntime
from repro.serving.runtime.protocol import (
    MAX_FRAME_BYTES,
    read_frame,
    write_frame,
)
from repro.serving.scheduler import RESULT_STATUSES

__all__ = ["SubprocessRuntime", "WorkerHandle"]


def _worker_env() -> dict:
    """The staged child environment: inherit, but guarantee ``repro`` is
    importable by prepending its source root to ``PYTHONPATH``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


class WorkerHandle:
    """One live worker process: spawn, frame I/O, liveness, teardown."""

    def __init__(
        self,
        shard_index: int,
        spec: dict,
        spawn_timeout_s: float = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.shard_index = shard_index
        self.max_frame_bytes = max_frame_bytes
        self._lock = threading.Lock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.runtime.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics land on the parent's stderr
            env=_worker_env(),
        )
        self._fd = self.process.stdout.fileno()
        try:
            self.send({"type": "init", **spec})
            ready = self.recv(timeout=spawn_timeout_s)
        except (WorkerCrashedError, ProtocolError):
            self.kill()
            raise
        if ready.get("type") != "ready":
            self.kill()
            raise ProtocolError(
                f"shard {shard_index} worker handshake replied "
                f"{ready.get('type')!r}, expected 'ready'"
            )

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def send(self, payload: dict) -> None:
        """Write one frame; raw pipe errors become worker-crash errors."""
        try:
            with self._lock:
                write_frame(
                    self.process.stdin, payload, self.max_frame_bytes
                )
        except (BrokenPipeError, EOFError, OSError, ValueError) as exc:
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {self.pid} is gone "
                f"({type(exc).__name__}: {exc})",
                shard=self.shard_index,
                pid=self.pid,
                reason="exited",
            ) from exc

    def recv(self, timeout: float) -> dict:
        """Read one frame with a hang deadline.

        Reads the raw pipe fd via ``select`` + ``os.read`` — never the
        buffered wrapper, whose internal buffer ``select`` cannot see.
        EOF at a frame boundary means the worker died cleanly-for-us
        (:class:`WorkerCrashedError`, reason ``exited``); a deadline
        overrun kills the wedged worker and reports reason ``hang``;
        torn frames raise :class:`~repro.errors.ProtocolError`.
        """
        deadline = time.monotonic() + timeout

        def read(n: int) -> bytes:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError
                ready, _, _ = select.select(
                    [self._fd], [], [], min(remaining, 0.5)
                )
                if ready:
                    return os.read(self._fd, n)

        try:
            frame = read_frame(read, self.max_frame_bytes, eof_ok=True)
        except TimeoutError:
            pid = self.pid
            self.kill()
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {pid} hung past "
                f"{timeout:.1f}s deadline; killed",
                shard=self.shard_index,
                pid=pid,
                reason="hang",
            ) from None
        if frame is None:
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {self.pid} died "
                "(pipe EOF mid-conversation)",
                shard=self.shard_index,
                pid=self.pid,
                reason="exited",
            )
        return frame

    def kill(self) -> None:
        """SIGKILL the worker (idempotent)."""
        try:
            self.process.kill()
        except OSError:
            pass
        try:
            self.process.wait(timeout=5.0)
        except Exception:
            pass
        self._close_pipes()

    def sigkill_mid_request(self) -> None:
        """The chaos ``worker_kill`` fault: raw SIGKILL, no cleanup —
        exactly what a segfault or OOM-kill looks like from the parent."""
        try:
            os.kill(self.process.pid, signal.SIGKILL)
        except OSError:
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful drain: shutdown frame → wait → terminate → kill."""
        try:
            self.send({"type": "shutdown"})
        except WorkerCrashedError:
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass


class SubprocessRuntime(ShardRuntime):
    """One worker process per shard; see the module docstring."""

    name = "subprocess"

    def __init__(
        self,
        hang_timeout_s: float = 120.0,
        spawn_timeout_s: float = 60.0,
        max_redrives: int = 2,
        respawn_backoff_base_s: float = 0.05,
        respawn_backoff_cap_s: float = 1.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        super().__init__()
        if hang_timeout_s <= 0 or spawn_timeout_s <= 0:
            raise ServingError("worker timeouts must be positive")
        if max_redrives < 0:
            raise ServingError("max_redrives must be non-negative")
        self.hang_timeout_s = hang_timeout_s
        self.spawn_timeout_s = spawn_timeout_s
        self.max_redrives = max_redrives
        self.respawn_backoff_base_s = respawn_backoff_base_s
        self.respawn_backoff_cap_s = respawn_backoff_cap_s
        self.max_frame_bytes = max_frame_bytes
        self._threads: dict[int, threading.Thread] = {}
        self._shard_stops: dict[int, threading.Event] = {}
        self._stop = threading.Event()
        self._handles: dict[int, WorkerHandle | None] = {}
        self._streaks: dict[int, int] = {}
        self._worker_cpu_s: dict[int, float] = {}
        self._spawn_locks: dict[int, threading.Lock] = {}

    # -- lifecycle ------------------------------------------------------------

    def _spawn_driver(self, shard) -> None:
        pool = self.pool
        self._handles.setdefault(shard.index, None)
        self._streaks.setdefault(shard.index, 0)
        self._worker_cpu_s.setdefault(shard.index, 0.0)
        self._spawn_locks.setdefault(shard.index, threading.Lock())
        stop = self._shard_stops[shard.index] = threading.Event()
        thread = threading.Thread(
            target=self._drive,
            args=(shard, stop),
            name=f"crossbar-{shard.key}-driver",
            daemon=True,
        )
        self._threads[shard.index] = thread
        thread.start()
        pool.scheduler.register_worker()

    def start(self) -> None:
        self._stop.clear()
        for shard in self.pool.shards:
            self._spawn_driver(shard)

    def shard_added(self, shard) -> None:
        self._spawn_driver(shard)

    def shard_removed(self, shard, timeout: float = 30.0) -> None:
        from repro.errors import FleetError

        stop = self._shard_stops.pop(shard.index, None)
        thread = self._threads.pop(shard.index, None)
        if stop is not None:
            stop.set()
        alive = False
        if thread is not None:
            thread.join(timeout=timeout)
            alive = thread.is_alive()
        if not alive:
            handle = self._handles.pop(shard.index, None)
            if handle is not None:
                handle.shutdown()
        self.pool.scheduler.unregister_worker()
        if alive:
            # Worker teardown is skipped — the driver may still be
            # round-tripping its last request through the process.
            raise FleetError(
                f"{shard.key} driver did not drain within {timeout:.1f}s; "
                "its in-flight request completes in the background"
            )

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._stop.set()
        threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._shard_stops.clear()
        for index, handle in list(self._handles.items()):
            if handle is not None:
                if drain:
                    handle.shutdown()
                else:
                    handle.kill()
                self._handles[index] = None
        for _ in threads:
            self.pool.scheduler.unregister_worker()

    # -- worker supervision ---------------------------------------------------

    def _spec(self, shard) -> dict:
        """The staged environment for one shard's worker process."""
        pool = self.pool
        retry = shard.supervisor.retry
        spec = {
            "shard_index": shard.index,
            "seed": pool.seed,
            "tile_elements": pool.tile_elements,
            "apim_config": (
                None
                if pool.apim_config is None
                else dataclasses.asdict(pool.apim_config)
            ),
            "retry": {
                "max_attempts": retry.max_attempts,
                "base_delay": retry.base_delay,
                "multiplier": retry.multiplier,
                "max_delay": retry.max_delay,
                "jitter_seed": retry.jitter_seed,
            },
            "deadline_s": shard.supervisor.deadline_s,
            "qos": {
                "min_psnr_db": pool.qos.min_psnr_db,
                "max_relative_error": pool.qos.max_relative_error,
            },
            "max_relax_bits": pool.max_relax_bits,
            "degradation_step": pool.degradation_step,
            "max_trace_events": pool.traces.max_events,
            "chaos": (
                None
                if shard.chaos is None
                else dataclasses.asdict(shard.chaos.policy)
            ),
        }
        return spec

    def _reap(self, shard) -> None:
        """Notice a worker that died between requests (idle death)."""
        handle = self._handles.get(shard.index)
        if handle is not None and not handle.alive:
            self._note_death(shard, handle, reason="exited")

    def _note_death(self, shard, handle: WorkerHandle, reason: str) -> None:
        self._handles[shard.index] = None
        self._streaks[shard.index] = self._streaks.get(shard.index, 0) + 1
        self._count("deaths")
        record_worker_death(shard.index, reason)
        shard.breaker.record_failure(shard.key)
        record_shard_health(shard.index, shard.healthy)
        handle.kill()  # reap the zombie; idempotent if already gone

    def _ensure_worker(self, shard) -> WorkerHandle:
        """The shard's live worker, (re)spawned under capped backoff."""
        with self._spawn_locks[shard.index]:
            handle = self._handles.get(shard.index)
            if handle is not None and handle.alive:
                return handle
            streak = self._streaks.get(shard.index, 0)
            respawn = streak > 0
            if streak > 0:
                delay = min(
                    self.respawn_backoff_cap_s,
                    self.respawn_backoff_base_s * (2 ** (streak - 1)),
                )
                if delay > 0:
                    time.sleep(delay)
            try:
                handle = WorkerHandle(
                    shard.index,
                    self._spec(shard),
                    spawn_timeout_s=self.spawn_timeout_s,
                    max_frame_bytes=self.max_frame_bytes,
                )
            except (WorkerCrashedError, ProtocolError) as exc:
                self._streaks[shard.index] = streak + 1
                raise WorkerCrashedError(
                    f"shard {shard.index} worker failed to spawn: {exc}",
                    shard=shard.index,
                    reason="spawn",
                ) from exc
            except OSError as exc:
                self._streaks[shard.index] = streak + 1
                raise WorkerCrashedError(
                    f"shard {shard.index} worker failed to spawn: {exc}",
                    shard=shard.index,
                    reason="spawn",
                ) from exc
            self._handles[shard.index] = handle
            self._count("spawned")
            record_worker_spawn(shard.index)
            if respawn:
                self._count("respawns")
                record_worker_respawn(shard.index)
            return handle

    # -- the driver loop ------------------------------------------------------

    def _drive(self, shard, shard_stop: threading.Event) -> None:
        pool = self.pool
        while not self._stop.is_set() and not shard_stop.is_set():
            self._reap(shard)
            if not shard.healthy:
                record_shard_health(shard.index, False)
                time.sleep(min(pool.idle_poll_s, 0.05))
                continue
            record_shard_health(shard.index, True)
            batch = pool.scheduler.next_batch(timeout=pool.idle_poll_s)
            if batch:
                pool._dispatch(shard, batch[0], execute=self.execute)

    def execute(self, shard, request):
        """Run one request through the shard's worker process.

        Returns ``(point, status, attempts, error)`` — the same contract
        as the pool's in-process executor.  Worker deaths are absorbed
        here: breaker, respawn, bounded re-drive, then in-process
        fallback.  This method *never* lets a raw pipe error escape.
        """
        pool = self.pool
        redrives = 0
        while True:
            try:
                handle = self._ensure_worker(shard)
                chaos_kill = (
                    shard.chaos is not None
                    and shard.chaos.should_kill_worker(shard.key)
                )
                handle.send(
                    {
                        "type": "run",
                        "id": request.id,
                        "workload": request.workload,
                        "relax_bits": request.relax_bits,
                        "dataset_bytes": request.dataset_bytes,
                    }
                )
                if chaos_kill:
                    # SIGKILL *after* the request is on the wire: the
                    # worker dies mid-request, exactly the fault the
                    # recovery ladder exists for.
                    request.trace_event(
                        "runtime", "chaos_worker_kill",
                        shard=shard.index, pid=handle.pid,
                    )
                    handle.sigkill_mid_request()
                reply = handle.recv(timeout=self.hang_timeout_s)
                if (
                    reply.get("type") != "result"
                    or reply.get("id") != request.id
                ):
                    raise ProtocolError(
                        f"shard {shard.index} worker answered frame "
                        f"type={reply.get('type')!r} id={reply.get('id')!r} "
                        f"to request {request.id!r}"
                    )
            except (WorkerCrashedError, ProtocolError) as exc:
                if isinstance(exc, ProtocolError):
                    # Framing is lost: the stream cannot be resynced, so
                    # a protocol violation is a worker death with a
                    # different cause of death.
                    handle = self._handles.get(shard.index)
                    if handle is not None:
                        handle.kill()
                        self._note_death(shard, handle, reason="protocol")
                    crashed_pid = None
                else:
                    crashed_pid = exc.pid
                    handle = self._handles.get(shard.index)
                    if handle is not None:
                        self._note_death(shard, handle, reason=exc.reason)
                request.trace_event(
                    "runtime", "worker_died",
                    f"{type(exc).__name__}: {exc}",
                    shard=shard.index,
                    pid=crashed_pid,
                    redrives=redrives,
                )
                if redrives < self.max_redrives:
                    redrives += 1
                    self._count("redriven")
                    record_worker_redrive(shard.index)
                    request.trace_event(
                        "runtime", "redrive",
                        shard=shard.index, attempt=redrives,
                    )
                    continue
                # Out of worker attempts: finish the request in-process
                # through the same rescue ladder — terminal, never lost.
                request.trace_event(
                    "runtime", "redrive_local",
                    "worker re-drive budget exhausted; executing in-process",
                    shard=shard.index,
                )
                return pool._execute_local(shard, request)
            else:
                self._streaks[shard.index] = 0
                replay_events(request.trace, reply.get("events") or [])
                registry = active_registry()
                if registry is not None:
                    apply_counter_deltas(
                        registry, reply.get("metrics") or []
                    )
                self._worker_cpu_s[shard.index] = (
                    self._worker_cpu_s.get(shard.index, 0.0)
                    + float(reply.get("cpu_s") or 0.0)
                )
                point_dict = reply.get("point")
                point = None
                if point_dict is not None:
                    try:
                        point = CampaignPoint(**point_dict)
                    except Exception:
                        point = None  # foreign payload shape: no point
                status = str(reply.get("status", "error"))
                attempts = int(reply.get("attempts", 0) or 0)
                error = reply.get("error")
                if status not in RESULT_STATUSES:
                    error = f"worker returned unknown status {status!r}"
                    status = "error"
                    point = None
                return point, status, attempts, error

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        out = super().stats()
        out["hang_timeout_s"] = self.hang_timeout_s
        out["max_redrives"] = self.max_redrives
        out["shards"] = {
            str(index): {
                "pid": None if handle is None else handle.pid,
                "alive": handle is not None and handle.alive,
                "death_streak": self._streaks.get(index, 0),
                "worker_cpu_s": round(
                    self._worker_cpu_s.get(index, 0.0), 6
                ),
            }
            for index, handle in sorted(self._handles.items())
        }
        return out

    def worker_cpu_seconds(self) -> float:
        """Total CPU seconds burned inside worker processes (benches)."""
        return sum(self._worker_cpu_s.values())
