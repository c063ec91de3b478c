"""Trace-driven cache and TLB simulators.

The paper obtains its GPU-side numbers from multi2sim, a cycle-accurate
CPU-GPU simulator.  We replace it with an analytic GPU model
(:mod:`repro.baselines.gpu`) whose *memory behaviour* is measured by these
simulators: workloads emit address traces over a scaled tile, the hierarchy
counts hits/misses per level, and the GPU model extrapolates per-element
statistics to the full dataset.

Components:

- :class:`Cache` — set-associative, true-LRU, write-back/write-allocate.
- :class:`CacheHierarchy` — an inclusive two-level stack over DRAM;
  returns, per access, the level that served it.
- :class:`LockstepLRU` / :func:`hierarchy_fractions` — the fast path the
  GPU and CPU models use.  Cache sets are independent, so each chunk of
  line addresses is partitioned by set index with a stable sort; repeat
  accesses to a set's MRU line are dropped (each is a hit and leaves the
  LRU order unchanged); the rest run through a ``(sets, ways)`` tag array
  and an LRU-stamp array, one "round" per access rank, with every set
  that has an access at that rank advanced in the same vector step.  L2
  runs the same way on L1's miss stream, with its own set count.  Which
  level serves an access does not depend on dirty state, so write flags
  are not consulted.  :class:`Cache`/:class:`CacheHierarchy` remain the
  per-access reference the fast path is tested against.
- :class:`TLB` — a fully-associative LRU translation buffer; misses model
  the page-walk cost that grows with dataset footprint (one of the two
  mechanisms behind Figure 5's widening GPU gap).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "LockstepLRU",
    "TLB",
    "hierarchy_fractions",
]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative LRU cache.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be ``line_bytes * ways * sets``.
    line_bytes:
        Cache-line size (power of two).
    ways:
        Associativity.
    name:
        Label for reports.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        ways: int = 8,
        name: str = "cache",
    ) -> None:
        if not _is_power_of_two(line_bytes):
            raise ConfigurationError(f"line size {line_bytes} not a power of two")
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive: {ways}")
        if size_bytes <= 0 or size_bytes % (line_bytes * ways):
            raise ConfigurationError(
                f"capacity {size_bytes} not divisible by line*ways "
                f"({line_bytes}*{ways})"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"set count {self.num_sets} not a power of two"
            )
        self.name = name
        self.stats = CacheStats()
        # sets[i] maps tag -> dirty flag, ordered LRU-first.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one address; returns True on hit.

        On a miss the line is allocated (write-allocate) and the LRU victim
        evicted, counting a writeback when dirty.
        """
        if addr < 0:
            raise ConfigurationError(f"negative address {addr}")
        index, tag = self._locate(addr)
        ways = self._sets[index]
        if tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            _victim, dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = write
        return False

    def flush(self) -> int:
        """Drop all lines; returns the number of dirty lines written back."""
        dirty = sum(
            1 for ways in self._sets for is_dirty in ways.values() if is_dirty
        )
        self.stats.writebacks += dirty
        for ways in self._sets:
            ways.clear()
        return dirty

    def reset_stats(self) -> None:
        """Zero the counters without touching contents."""
        self.stats = CacheStats()


class CacheHierarchy:
    """A two-level cache stack over DRAM.

    :meth:`access` walks L1 then L2; the return value names the level that
    served the request (``"l1"``, ``"l2"`` or ``"dram"``), which the GPU
    model converts into latency and energy.
    """

    def __init__(self, l1: Cache, l2: Cache) -> None:
        self.l1 = l1
        self.l2 = l2
        self.dram_accesses = 0

    def access(self, addr: int, write: bool = False) -> str:
        """Access the stack; returns the serving level."""
        if self.l1.access(addr, write):
            return "l1"
        if self.l2.access(addr, write):
            return "l2"
        self.dram_accesses += 1
        return "dram"

    def reset_stats(self) -> None:
        """Zero all counters."""
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.dram_accesses = 0


def _set_count(size_bytes: int, line_bytes: int, ways: int) -> int:
    """Sets of a ``size_bytes`` cache, validated as :class:`Cache` does."""
    if ways <= 0:
        raise ConfigurationError(f"ways must be positive: {ways}")
    if size_bytes <= 0 or size_bytes % (line_bytes * ways):
        raise ConfigurationError(
            f"capacity {size_bytes} not divisible by line*ways "
            f"({line_bytes}*{ways})"
        )
    return size_bytes // (line_bytes * ways)


class LockstepLRU:
    """Hit/miss behaviour of one set-associative true-LRU cache level,
    with all sets advanced together in numpy.

    Agrees with :class:`Cache` access-for-access on which accesses hit;
    it keeps no dirty bits, so it counts no evictions or writebacks.
    """

    def __init__(self, sets: int, ways: int) -> None:
        if not _is_power_of_two(sets):
            raise ConfigurationError(f"set count {sets} not a power of two")
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive: {ways}")
        self.sets = sets
        self.ways = ways
        self.hits = 0
        self.misses = 0
        self._index_bits = sets.bit_length() - 1
        # Empty ways hold tag -1 and stamp -1, so they are filled first.
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._stamps = np.full((sets, ways), -1, dtype=np.int64)
        self._clock = 0

    def access(self, lines: np.ndarray) -> np.ndarray:
        """Run a chunk of line addresses (in access order); returns the
        lines that missed, in access order."""
        count = lines.size
        if count == 0:
            return lines
        index = lines & (self.sets - 1)
        order = _stable_order(index, self.sets)
        index = index[order]
        by_set = lines[order]
        first = np.empty(count, dtype=bool)
        first[0] = True
        np.not_equal(index[1:], index[:-1], out=first[1:])
        # A repeat of the set's previous line is an MRU hit: drop it.
        keep = first.copy()
        np.not_equal(by_set[1:], by_set[:-1], out=keep[1:])
        keep[1:] |= first[1:]
        kept = int(np.count_nonzero(keep))
        self.hits += count - kept
        # Rank of each access within its set: round r advances every set
        # that has an (r+1)-th access in this chunk, in one vector step.
        starts = np.flatnonzero(first[keep])
        rank = np.arange(kept) - np.repeat(starts, np.diff(starts, append=kept))
        rounds = _stable_order(rank, kept)
        where = order[keep][rounds]
        index = index[keep][rounds]
        tags = (by_set[keep] >> self._index_bits)[rounds]
        bounds = np.cumsum(np.bincount(rank)).tolist()
        ways = self.ways
        tag_slots = self._tags.reshape(-1)
        stamp_slots = self._stamps.reshape(-1)
        missed = []
        lo = 0
        for hi in bounds:
            sets, tag = index[lo:hi], tags[lo:hi]
            held = np.take(self._tags, sets, axis=0)
            slot = sets * ways + (held == tag[:, None]).argmax(axis=1)
            miss = np.flatnonzero(tag_slots[slot] != tag)
            if miss.size:
                sets = sets[miss]
                victim = np.take(self._stamps, sets, axis=0).argmin(axis=1)
                slot[miss] = sets * ways + victim
                tag_slots[slot[miss]] = tag[miss]
                missed.append(where[lo + miss])
            stamp_slots[slot] = self._clock
            self._clock += 1
            lo = hi
        positions = np.sort(np.concatenate(missed or [where[:0]]))
        self.hits += kept - positions.size
        self.misses += positions.size
        return lines[positions]


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` below ``bound``; 16-bit
    keys take numpy's linear-time radix sort."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def hierarchy_fractions(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    line_bytes: int,
    l1: tuple[int, int],
    l2: tuple[int, int],
) -> tuple[float, float, float]:
    """Per-access service fractions ``(l1, l2, dram)`` of an address
    trace given as ``(addrs, writes)`` numpy chunks, through an L1 and an
    L2 each given as ``(size_bytes, ways)``.

    Equal, bit for bit, to counting :meth:`CacheHierarchy.access` results
    over the same accesses with :class:`Cache` levels of the same
    geometry.
    """
    if not _is_power_of_two(line_bytes):
        raise ConfigurationError(f"line size {line_bytes} not a power of two")
    offset_bits = line_bytes.bit_length() - 1
    upper, lower = (
        LockstepLRU(_set_count(size, line_bytes, ways), ways)
        for size, ways in (l1, l2)
    )
    total = dram = 0
    for addrs, _writes in chunks:
        if addrs.size == 0:
            continue
        if addrs.min() < 0:
            raise ConfigurationError(f"negative address {addrs.min()}")
        total += addrs.size
        dram += lower.access(upper.access(addrs >> offset_bits)).size
    if total == 0:
        raise ConfigurationError("trace emitted no accesses")
    return upper.hits / total, lower.hits / total, dram / total


class TLB:
    """Fully-associative LRU translation look-aside buffer.

    Coverage is ``entries * page_bytes``; working sets beyond it miss on
    (almost) every new page, and each miss costs a multi-level page walk
    whose own memory references degrade with page-table footprint — the GPU
    model prices that via :meth:`walk_references`.
    """

    def __init__(self, entries: int = 1024, page_bytes: int = 4096) -> None:
        if entries <= 0:
            raise ConfigurationError(f"entries must be positive: {entries}")
        if not _is_power_of_two(page_bytes):
            raise ConfigurationError(f"page size {page_bytes} not a power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self.hits = 0
        self.misses = 0
        self._pages: OrderedDict[int, None] = OrderedDict()

    @property
    def coverage_bytes(self) -> int:
        """Footprint fully covered by the TLB."""
        return self.entries * self.page_bytes

    def access(self, addr: int) -> bool:
        """Translate one address; returns True on TLB hit."""
        if addr < 0:
            raise ConfigurationError(f"negative address {addr}")
        page = addr // self.page_bytes
        if page in self._pages:
            self.hits += 1
            self._pages.move_to_end(page)
            return True
        self.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return False

    @property
    def miss_rate(self) -> float:
        """Misses per translation (0 when idle)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @staticmethod
    def walk_references(footprint_bytes: float, page_bytes: int = 4096) -> int:
        """Radix page-walk references needed for a footprint.

        A 4-level x86-style walk touches one entry per level; levels whose
        table spans a single page are effectively free (always cached), so
        small footprints walk cheaply and gigabyte footprints pay the full
        four references.
        """
        if footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        pages = max(1, int(footprint_bytes // page_bytes))
        entries_per_level = page_bytes // 8  # 8-byte PTEs
        levels = 1
        while pages > entries_per_level**levels and levels < 4:
            levels += 1
        return levels
