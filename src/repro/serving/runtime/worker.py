"""The subprocess shard worker: ``python -m repro.serving.runtime.worker``.

One worker process serves one shard.  It speaks the length-prefixed JSON
frame protocol (:mod:`repro.serving.runtime.protocol`) over its stdin /
stdout pipes:

- first frame in must be ``{"type": "init", ...}`` carrying the shard
  index, the pool's :class:`~repro.serving.runtime.shard.ShardRecipe`
  (seed, tile size, APIM config, chaos policy) and the trace-event
  bound, from which the worker builds the same
  :class:`~repro.serving.runtime.shard.ShardUnit` an in-process shard
  owns; it replies ``{"type": "ready", "pid": ...}``;
- ``{"type": "run", "id", "workload", "relax_bits", "dataset_bytes"}``
  executes one request through :func:`~repro.runtime.campaign.run_point`
  (the full rescue ladder) and replies a ``result`` frame carrying the
  terminal :class:`~repro.runtime.campaign.CampaignPoint`, the buffered
  trace events, the counter deltas this request produced, and wall/CPU
  service time — everything the supervisor needs to make the subprocess
  indistinguishable from in-process execution;
- ``{"type": "ping"}`` → ``{"type": "pong"}`` (liveness probe);
- ``{"type": "shutdown"}`` → ``{"type": "bye"}`` and a clean exit.

The process grabs the *binary* stdout handle at startup and rebinds
``sys.stdout`` to stderr, so a stray ``print`` anywhere below can never
corrupt the frame stream.  A crash of any kind — the parent observes it
as pipe EOF — is the supervisor's problem: it respawns the worker and
re-drives the in-flight request.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import traceback

from repro.errors import ProtocolError
from repro.observability.registry import (
    counter_deltas,
    default_registry,
    snapshot_counters,
)
from repro.observability.tracing import BufferedTraceContext
from repro.runtime.campaign import run_point
from repro.serving.runtime.protocol import read_frame, write_frame
from repro.serving.runtime.shard import ShardRecipe, ShardUnit

__all__ = ["main"]


class _WorkerState:
    """The staged shard environment, built from one init frame."""

    def __init__(self, frame: dict) -> None:
        self.shard = ShardUnit(
            int(frame["shard_index"]), ShardRecipe.from_frame(frame)
        )
        self.max_trace_events = int(frame["max_trace_events"])
        self.served = 0


def _run(state: _WorkerState, frame: dict) -> dict:
    """Execute one run frame; always returns a terminal result frame."""
    request_id = str(frame.get("id", ""))
    registry = default_registry()
    before = snapshot_counters(registry)
    buffer = BufferedTraceContext(max_events=state.max_trace_events)
    wall_start = time.monotonic()
    cpu_start = time.process_time()
    point = None
    status = "error"
    attempts = 0
    error = None
    shard = state.shard
    try:
        point = run_point(
            shard.workload(str(frame["workload"])),
            int(frame.get("relax_bits", 0)),
            float(frame.get("dataset_bytes", 0) or 64 << 20),
            shard.harness,
            supervisor=shard.supervisor,
            chaos=shard.chaos,
            key_prefix=f"{shard.key}/",
            trace=buffer,
        )
        status = point.status
        attempts = point.attempts
    except Exception as exc:  # belt and braces: run_point says "never"
        error = f"{type(exc).__name__}: {exc}"
        buffer.event(
            "worker", "error", error, shard=shard.index,
        )
    state.served += 1
    return {
        "type": "result",
        "id": request_id,
        "status": status,
        "attempts": attempts,
        "error": error,
        "point": None if point is None else dataclasses.asdict(point),
        "events": buffer.drain(),
        "metrics": counter_deltas(registry, before),
        "busy_s": time.monotonic() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
        "served": state.served,
        "pid": os.getpid(),
    }


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # From here on the binary stdout belongs to the frame protocol; any
    # stray print lands on stderr instead of corrupting the stream.
    sys.stdout = sys.stderr

    def read(n: int) -> bytes:
        return stdin.read(n) or b""

    state: _WorkerState | None = None
    while True:
        try:
            frame = read_frame(read, eof_ok=True)
        except ProtocolError as exc:
            print(f"worker: unrecoverable stream error: {exc}",
                  file=sys.stderr)
            return 1
        if frame is None:  # parent closed our stdin: clean shutdown
            return 0
        kind = frame.get("type")
        try:
            if kind == "init":
                state = _WorkerState(frame)
                reply = {
                    "type": "ready",
                    "pid": os.getpid(),
                    "shard": state.shard.index,
                }
            elif kind == "ping":
                reply = {"type": "pong", "pid": os.getpid()}
            elif kind == "shutdown":
                write_frame(stdout, {"type": "bye", "pid": os.getpid()})
                return 0
            elif kind == "run":
                if state is None:
                    reply = {
                        "type": "result",
                        "id": str(frame.get("id", "")),
                        "status": "error",
                        "attempts": 0,
                        "error": "run before init",
                        "point": None,
                        "events": [],
                        "metrics": [],
                        "busy_s": 0.0,
                        "cpu_s": 0.0,
                        "served": 0,
                        "pid": os.getpid(),
                    }
                else:
                    reply = _run(state, frame)
            else:
                reply = {
                    "type": "error",
                    "error": f"unknown frame type {kind!r}",
                    "pid": os.getpid(),
                }
        except Exception:
            # An init/dispatch failure must not wedge the loop silently:
            # report it and keep serving (the parent decides what's next).
            detail = traceback.format_exc(limit=8)
            print(f"worker: frame {kind!r} failed:\n{detail}",
                  file=sys.stderr)
            reply = {
                "type": "error",
                "error": detail.strip().splitlines()[-1],
                "pid": os.getpid(),
            }
        try:
            write_frame(stdout, reply)
        except (BrokenPipeError, OSError):
            return 0  # parent is gone; nothing left to serve


if __name__ == "__main__":
    raise SystemExit(main())
