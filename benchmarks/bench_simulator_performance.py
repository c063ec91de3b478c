"""Simulator-performance microbenchmarks (not a paper artifact).

Measures the reproduction's own throughput: vectorised functional
arithmetic (exact, and relaxed at 8/16/32 bits, where only the
carry-save bits the approximate final stage reads are built), structural
micro-op simulation, the per-access cache simulator, a cold GPU locality
measurement (chunked trace through the set-partitioned lockstep
simulator), a cold executor tile run and a full workload execution.
Useful for regression-tracking the simulator itself; CI runs this file
with ``--benchmark-disable`` so every arm stays runnable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cache import Cache, hierarchy_fractions
from repro.baselines.gpu import GPUModel
from repro.core.approximation import ApproxSpec
from repro.core.engine import APIMEngine
from repro.core.multiplier import APIMMultiplier
from repro.crossbar.structural_multiplier import StructuralMultiplier
from repro.runtime.executor import APIMExecutor
from repro.workloads import workload_by_name

RNG = np.random.default_rng(77)
A = RNG.integers(0, 1 << 32, 1 << 16, dtype=np.uint64)
B = RNG.integers(0, 1 << 32, 1 << 16, dtype=np.uint64)


def test_functional_multiplier_throughput(benchmark):
    mult = APIMMultiplier()

    def run():
        return mult.multiply(A, B).cost.cycles

    cycles = benchmark(run)
    assert cycles > 0


@pytest.mark.parametrize("relax_bits", [8, 16, 32])
def test_functional_multiplier_approx_throughput(benchmark, relax_bits):
    mult = APIMMultiplier()
    spec = ApproxSpec.last_stage(relax_bits)

    def run():
        return mult.multiply(A, B, spec).products

    products = benchmark(run)
    exact = A * B
    diff = np.where(products >= exact, products - exact, exact - products)
    assert np.all(diff < np.uint64(1) << np.uint64(relax_bits))


def test_cold_executor_tile_throughput(benchmark):
    """One cold 1 Ki-element NeuralNet tile at relax 8: a fresh executor
    and engine per run, as a cold shard prices it."""
    workload = workload_by_name("NeuralNet")
    spec = ApproxSpec.last_stage(8)

    def run():
        return APIMExecutor().run(
            workload, spec=spec, elements=1024, rng=np.random.default_rng(2017)
        )

    result = benchmark(run)
    assert result.mul_count > 0


def test_engine_signed_mac_throughput(benchmark):
    engine = APIMEngine()
    x = RNG.integers(-(1 << 20), 1 << 20, 1 << 14)
    y = RNG.integers(-(1 << 20), 1 << 20, 1 << 14)

    def run():
        engine.reset()
        acc = engine.mul(x, y)
        return engine.add(acc, acc, width=50)

    benchmark(run)


def test_structural_multiplier_throughput(benchmark):
    mult = StructuralMultiplier(8, rows=220)

    def run():
        product, _ = mult.multiply(173, 89)
        assert product == 173 * 89

    benchmark(run)


def test_cache_simulator_throughput(benchmark):
    cache = Cache(1 << 20, line_bytes=64, ways=16)
    addresses = RNG.integers(0, 1 << 24, 20000).tolist()

    def run():
        for addr in addresses:
            cache.access(addr)
        return cache.stats.misses

    benchmark(run)


@pytest.mark.parametrize("name", ["FFT", "DwtHaar1D"])
def test_cold_gpu_locality_throughput(benchmark, name):
    """What ``GPUModel.measure_locality`` costs on a memo miss: the
    workload's default-tile trace through the R9 390's L1/L2."""
    model = GPUModel()
    cfg = model.config
    profile = workload_by_name(name).profile()

    def run():
        return hierarchy_fractions(
            profile.trace(model.DEFAULT_TILE_ELEMENTS),
            cfg.line_bytes,
            (cfg.l1_bytes, 8),
            (cfg.l2_bytes, 16),
        )

    assert benchmark(run) == model.measure_locality(profile)


def test_workload_execution_throughput(benchmark):
    workload = workload_by_name("Sobel")
    data = workload.generate(1 << 12, np.random.default_rng(5))

    def run():
        engine = APIMEngine()
        workload.run(engine, data)
        return engine.total_cost.cycles

    benchmark(run)
