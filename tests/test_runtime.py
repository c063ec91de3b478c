"""Tests for the runtime layer: executor, comparison harness, tuner."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig
from repro.errors import ConfigurationError, QoSError
from repro.quality.qos import QoSPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.executor import APIMExecutor
from repro.runtime.tuner import AdaptiveTuner
from repro.units import GIB, MIB
from repro.workloads import workload_by_name

TILE = 1 << 12


@pytest.fixture(scope="module")
def executor():
    return APIMExecutor()


@pytest.fixture(scope="module")
def harness():
    return ComparisonHarness(tile_elements=TILE)


class TestExecutor:
    def test_exact_run_meets_qos_perfectly(self, executor):
        result = executor.run(workload_by_name("Sobel"), elements=TILE)
        assert result.qol_percent == 0.0
        assert result.qos_ok

    def test_result_metrics_positive(self, executor):
        result = executor.run(workload_by_name("Robert"), elements=TILE)
        assert result.time > 0
        assert result.energy > 0
        assert result.edp == pytest.approx(result.time * result.energy)
        assert result.mul_count > 0 and result.add_count > 0

    def test_deterministic_given_seeded_rng(self, executor):
        w = workload_by_name("FFT")
        r1 = executor.run(w, elements=TILE, rng=np.random.default_rng(4))
        r2 = executor.run(w, elements=TILE, rng=np.random.default_rng(4))
        assert r1.qol_percent == r2.qol_percent
        assert r1.cost.cycles == r2.cost.cycles

    def test_shared_data_scores_same_input(self, executor):
        w = workload_by_name("Sharpen")
        data = w.generate(TILE, np.random.default_rng(8))
        exact = executor.run(w, data=data)
        approx = executor.run(w, spec=ApproxSpec.last_stage(32), data=data)
        assert np.array_equal(exact.reference, approx.reference)
        assert approx.qol_percent > 0

    def test_approximation_lowers_edp(self, executor):
        w = workload_by_name("Sobel")
        data = w.generate(TILE, np.random.default_rng(8))
        exact = executor.run(w, data=data)
        approx = executor.run(w, spec=ApproxSpec.last_stage(32), data=data)
        assert approx.edp < exact.edp


class TestComparisonHarness:
    def test_speedup_and_energy_math(self, harness):
        point = harness.compare(workload_by_name("Sobel"), GIB)
        assert point.speedup == pytest.approx(point.gpu_time / point.apim_time)
        assert point.edp_improvement == pytest.approx(
            point.speedup * point.energy_improvement
        )

    def test_apim_scales_linearly_for_single_pass_kernels(self, harness):
        w = workload_by_name("Sobel")
        t1, e1, _ = harness.apim_estimate(w, 256 * MIB)
        t2, e2, _ = harness.apim_estimate(w, 512 * MIB)
        # Lanes scale with the dataset, so time stays flat while energy
        # doubles with the element count.
        assert t2 == pytest.approx(t1, rel=0.05)
        assert e2 == pytest.approx(2 * e1, rel=0.05)

    def test_fft_pass_scaling_applied(self, harness):
        w = workload_by_name("FFT")
        t1, _, _ = harness.apim_estimate(w, 128 * MIB)
        t2, _, _ = harness.apim_estimate(w, GIB)
        # 8x the elements but also more passes: time per element grows.
        assert t2 > t1

    def test_tile_results_cached_per_spec(self, harness):
        w = workload_by_name("Robert")
        first = harness._tile_result(w, EXACT)
        second = harness._tile_result(w, EXACT)
        assert first is second

    def test_harnesses_share_one_cold_tile_run(self, monkeypatch):
        """Eight harnesses pricing the same cold tile at once run the
        executor once: the tile memo is process-wide and single-flight."""
        calls = []
        original = APIMExecutor.run

        def counted_run(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(APIMExecutor, "run", counted_run)
        # A seed no other test uses keeps this tile cold.
        harnesses = [
            ComparisonHarness(tile_elements=TILE, rng_seed=90_001)
            for _ in range(8)
        ]
        workload = workload_by_name("Robert")
        barrier = threading.Barrier(len(harnesses))
        results = []

        def price(harness):
            barrier.wait(timeout=10.0)
            results.append(harness._tile_result(workload, EXACT))

        threads = [
            threading.Thread(target=price, args=(harness,))
            for harness in harnesses
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(results) == 8
        assert all(result is results[0] for result in results)

    def test_sweep_returns_point_per_size(self, harness):
        sizes = [32 * MIB, 64 * MIB]
        rows = harness.sweep_sizes(workload_by_name("Robert"), sizes)
        assert [r.dataset_bytes for r in rows] == [int(s) for s in sizes]

    def test_invalid_tile_rejected(self):
        with pytest.raises(ConfigurationError):
            ComparisonHarness(tile_elements=0)


class TestAdaptiveTuner:
    def test_selects_largest_acceptable_relax(self):
        tuner = AdaptiveTuner(APIMExecutor(), max_relax_bits=32, step=4)
        result = tuner.tune(workload_by_name("Sobel"), elements=TILE)
        assert result.selected_relax_bits % 4 == 0
        assert result.selected_trial.qos_ok
        # Every rejected rung above the selection must have failed QoS.
        for trial in result.trials[:-1]:
            assert not trial.qos_ok

    def test_strict_policy_forces_lower_relax(self):
        loose = AdaptiveTuner(APIMExecutor(qos=QoSPolicy())).tune(
            workload_by_name("Robert"), elements=TILE
        )
        strict = AdaptiveTuner(
            APIMExecutor(qos=QoSPolicy(min_psnr_db=50.0))
        ).tune(workload_by_name("Robert"), elements=TILE)
        assert strict.selected_relax_bits <= loose.selected_relax_bits

    def test_trials_recorded_in_descending_order(self):
        tuner = AdaptiveTuner(APIMExecutor())
        result = tuner.tune(workload_by_name("DwtHaar1D"), elements=TILE)
        bits = [t.relax_bits for t in result.trials]
        assert bits == sorted(bits, reverse=True)
        assert bits[0] == 32

    def test_edp_gain_vs_exact(self):
        tuner = AdaptiveTuner(APIMExecutor())
        w = workload_by_name("Sharpen")
        result = tuner.tune(w, elements=TILE)
        exact = APIMExecutor().run(w, elements=TILE)
        assert result.edp_gain_vs_exact(exact.edp) > 1.0

    def test_invalid_construction(self):
        with pytest.raises(QoSError):
            AdaptiveTuner(max_relax_bits=0)
        with pytest.raises(QoSError):
            AdaptiveTuner(step=0)
