"""Property tests: the set-partitioned lockstep LRU simulator against the
per-access :class:`Cache`/:class:`CacheHierarchy` reference.

Traces are drawn with runs of repeated addresses, so the MRU-repeat
drop is exercised, and are fed in chunks of 1, 7 and 64 Ki accesses, so
chunk boundaries fall inside those runs.  Geometries are random
power-of-two set counts with unequal L1/L2 sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cache import (
    Cache,
    CacheHierarchy,
    LockstepLRU,
    hierarchy_fractions,
)
from repro.errors import ConfigurationError

LINE_BYTES = st.sampled_from([8, 16, 64])
SETS = st.sampled_from([1, 2, 4, 8, 16, 64])
WAYS = st.integers(min_value=1, max_value=6)
CHUNK = st.sampled_from([1, 7, 1 << 16])

#: (address, repeat count, is_write) runs, expanded in order.
RUNS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def _expand(runs):
    trace = [(addr, write) for addr, repeat, write in runs
             for _ in range(repeat)]
    addrs = np.array([addr for addr, _ in trace], dtype=np.int64)
    writes = np.array([write for _, write in trace], dtype=bool)
    return trace, addrs, writes


def _chunks(addrs, writes, size):
    for lo in range(0, addrs.size, size):
        yield addrs[lo:lo + size], writes[lo:lo + size]


class TestAgainstCacheHierarchy:
    @settings(max_examples=150, deadline=None)
    @given(LINE_BYTES, SETS, WAYS, SETS, WAYS, CHUNK, RUNS)
    def test_fractions_bit_identical(self, line, sets1, ways1, sets2, ways2,
                                     chunk, runs):
        trace, addrs, writes = _expand(runs)
        l1 = (line * ways1 * sets1, ways1)
        l2 = (line * ways2 * sets2, ways2)
        hierarchy = CacheHierarchy(
            Cache(l1[0], line, ways=ways1), Cache(l2[0], line, ways=ways2)
        )
        counts = {"l1": 0, "l2": 0, "dram": 0}
        for addr, write in trace:
            counts[hierarchy.access(addr, write)] += 1
        total = len(trace)
        expected = (counts["l1"] / total, counts["l2"] / total,
                    counts["dram"] / total)
        got = hierarchy_fractions(_chunks(addrs, writes, chunk), line, l1, l2)
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(SETS, WAYS, CHUNK, RUNS)
    def test_miss_stream_in_access_order(self, sets, ways, chunk, runs):
        """One level alone: the returned misses are exactly the lines the
        reference cache missed on, in the order it missed them."""
        trace, addrs, _ = _expand(runs)
        line = 16
        cache = Cache(line * ways * sets, line, ways=ways)
        expected = [addr // line for addr, write in trace
                    if not cache.access(addr, write)]
        level = LockstepLRU(sets, ways)
        got = [level.access(addrs[lo:lo + chunk] // line)
               for lo in range(0, addrs.size, chunk)]
        assert np.concatenate(got).tolist() == expected
        assert level.hits == cache.stats.hits
        assert level.misses == cache.stats.misses


class TestValidation:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            LockstepLRU(3, 2)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            hierarchy_fractions(iter(()), 64, (1000, 8), (1 << 20, 16))

    def test_rejects_negative_addresses(self):
        chunk = (np.array([64, -64], dtype=np.int64), np.zeros(2, bool))
        with pytest.raises(ConfigurationError):
            hierarchy_fractions([chunk], 64, (1 << 15, 8), (1 << 20, 16))

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError):
            hierarchy_fractions(iter(()), 64, (1 << 15, 8), (1 << 20, 16))
