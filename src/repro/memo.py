"""A process-wide single-flight memo for pure functions.

Pricing results — GPU cache locality and APIM tiles — are deterministic
functions of their inputs, so the process computes each once and every
model, harness and shard shares the value instead of caching it per
object.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["SingleFlightMemo"]

V = TypeVar("V")


class SingleFlightMemo(Generic[V]):
    """A thread-safe, single-flight memo: the first caller of a missing
    key computes it while later callers of that key wait for the value.
    A failed computation stores nothing and lets one waiter retry."""

    def __init__(self) -> None:
        self._values: dict[Hashable, V] = {}
        self._pending: dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value of ``key``, computing it with ``compute`` if absent."""
        while True:
            with self._lock:
                if key in self._values:
                    return self._values[key]
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    break
            pending.wait()
        try:
            value = compute()
            with self._lock:
                self._values[key] = value
            return value
        finally:
            with self._lock:
                del self._pending[key]
            pending.set()
