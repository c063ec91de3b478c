"""Unit tests for the GPU baseline model (repro.baselines.gpu)."""

from __future__ import annotations

import pytest

import sys
import threading
import time

import numpy as np

from repro.baselines.gpu import (
    GPUConfig,
    GPUModel,
    LocalityMemo,
    WorkloadProfile,
    affine_trace,
    row_trace,
)
from repro.errors import ConfigurationError
from repro.units import GIB, MIB


def _simple_profile(name="stream", reads=1.0, writes=1.0, flops=4.0,
                    passes=None):
    def trace(elements):
        return affine_trace(elements, [(0, 4, False), (1 << 28, 4, True)])

    return WorkloadProfile(
        name=name,
        element_bytes=4,
        flops_per_element=flops,
        reads_per_element=reads,
        writes_per_element=writes,
        passes=passes or (lambda n: 1.0),
        trace=trace,
    )


@pytest.fixture
def gpu():
    return GPUModel()


class TestProfile:
    def test_elements(self):
        assert _simple_profile().elements(400) == 100

    def test_elements_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            _simple_profile().elements(0)


class TestLocalityMeasurement:
    def test_fractions_sum_to_one(self, gpu):
        l1, l2, dram = gpu.measure_locality(_simple_profile(), 4096)
        assert l1 + l2 + dram == pytest.approx(1.0)

    def test_streaming_mostly_hits_lines(self, gpu):
        # Sequential 4-byte accesses: ~15/16 of reads hit the open line.
        l1, _l2, dram = gpu.measure_locality(_simple_profile(), 1 << 14)
        assert l1 > 0.8
        assert dram < 0.2

    @staticmethod
    def _two_sweeps(name, calls=None):
        """Sweep ``elements`` lines twice: the second sweep hits in L1
        while the lines fit there, and in L2 once they do not."""

        def trace(elements):
            if calls is not None:
                calls.append(elements)
                time.sleep(0.05)  # hold the key in flight
            return row_trace(
                2, [False] * elements,
                lambda sweep: np.broadcast_to(
                    np.arange(elements, dtype=np.int64) * 64,
                    (sweep.size, elements)),
            )

        return WorkloadProfile(
            name=name, element_bytes=64, flops_per_element=1,
            reads_per_element=1, writes_per_element=0,
            passes=lambda n: 1.0, trace=trace,
        )

    def test_memo_keyed_by_name_tile_and_geometry(self, gpu):
        profile = self._two_sweeps("memo-key")
        assert gpu.measure_locality(profile, 1024) == (0.5, 0.0, 0.5)
        # A tile beyond the 512 KiB L1 is a different key, not a memo hit.
        assert gpu.measure_locality(profile, 1 << 14) == (0.0, 0.5, 0.5)
        # So is another cache geometry at the same name and tile.
        small = GPUModel(GPUConfig(l1_bytes=32 * 1024))
        assert small.measure_locality(profile, 1024) == (0.0, 0.5, 0.5)
        # The memo is process-wide: a fresh model is served from it.
        assert GPUModel().measure_locality(profile, 1024) == (0.5, 0.0, 0.5)

    def test_concurrent_cold_misses_compute_once(self):
        calls = []
        profile = self._two_sweeps("memo-single-flight", calls)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    GPUModel().measure_locality(profile, 256)))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == [256]
        assert results == [(0.5, 0.0, 0.5)] * 8

    def test_failed_computation_is_not_memoised(self):
        memo = LocalityMemo()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ConfigurationError("first attempt fails")
            return (1.0, 0.0, 0.0)

        with pytest.raises(ConfigurationError):
            memo.get("key", flaky)
        assert memo.get("key", flaky) == (1.0, 0.0, 0.0)
        assert memo.get("key", flaky) == (1.0, 0.0, 0.0)
        assert len(attempts) == 2

    def test_empty_trace_rejected(self, gpu):
        profile = WorkloadProfile(
            name="empty", element_bytes=4, flops_per_element=1,
            reads_per_element=1, writes_per_element=0,
            passes=lambda n: 1.0, trace=lambda n: iter(()),
        )
        with pytest.raises(ConfigurationError):
            gpu.measure_locality(profile)


class TestEstimate:
    def test_time_and_energy_positive(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        assert est.time > 0 and est.energy > 0

    def test_breakdown_sums_to_energy(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        energy_parts = [v for k, v in est.breakdown.items() if k.startswith("e_")]
        assert sum(energy_parts) == pytest.approx(est.energy)

    def test_per_element_cost_grows_with_dataset(self, gpu):
        # The Figure 5 mechanism: translation + row locality degrade as the
        # dataset grows, so time per element must rise from 32 MB to 1 GB.
        small = gpu.estimate(_simple_profile(), 32 * MIB)
        large = gpu.estimate(_simple_profile(), GIB)
        per_elem_small = small.time / (32 * MIB / 4)
        per_elem_large = large.time / (GIB / 4)
        assert per_elem_large > per_elem_small

    def test_tlb_covered_dataset_has_no_walk_time(self, gpu):
        cfg = gpu.config
        est = gpu.estimate(_simple_profile(), cfg.tlb_entries * cfg.page_bytes)
        assert est.breakdown["walk_time"] == 0.0

    def test_passes_multiply_cost(self, gpu):
        one = gpu.estimate(_simple_profile(name="p1"), 64 * MIB)
        many = gpu.estimate(
            _simple_profile(name="p4", passes=lambda n: 4.0), 64 * MIB
        )
        assert many.time > 2 * one.time

    def test_edp_property(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        assert est.edp == pytest.approx(est.time * est.energy)

    def test_pass_below_one_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            gpu.estimate(
                _simple_profile(name="bad", passes=lambda n: 0.5), MIB
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"peak_flops": 0}, {"utilization": 0.0}, {"utilization": 1.5},
         {"e_flop": -1.0}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            GPUConfig(**kwargs)

    def test_r9_390_class_defaults(self):
        cfg = GPUConfig()
        assert cfg.peak_flops == pytest.approx(5.1e12)
        assert cfg.l2_bytes == 1024 * 1024
