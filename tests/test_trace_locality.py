"""Chunked workload traces and the locality fractions priced from them.

The golden tables were recorded with the per-access ``Cache`` /
``CacheHierarchy`` walk over per-access trace generators, before traces
became numpy chunks and the walk became the lockstep simulator; every
registered workload must still produce exactly these floats at the
default tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import gpu as gpu_module
from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import TRACE_CHUNK, GPUModel, affine_trace, row_trace
from repro.workloads import workload_by_name
from repro.workloads.registry import workload_names

#: ``(l1, l2, dram)`` per workload at ``GPUModel.DEFAULT_TILE_ELEMENTS``.
GPU_GOLDEN = {
    "Sobel": (0.9874481201171875, 0.0, 0.0125518798828125),
    "Robert": (0.9749481201171875, 0.0, 0.0250518798828125),
    "FFT": (0.9375, 0.0, 0.0625),
    "DwtHaar1D": (0.9397315979003906, 0.0022326878138950895,
                  0.05803571428571429),
    "Sharpen": (0.9790802001953125, 0.0, 0.0209197998046875),
    "QuasiR": (0.9375, 0.0, 0.0625),
    "GEMM": (0.998546511627907, 0.0, 0.0014534883720930232),
    "NeuralNet": (0.984283447265625, 0.0, 0.015716552734375),
    "Similarity": (0.875, 0.0, 0.125),
    "QuantizedLayer": (0.9687398274739584, 0.0, 0.031260172526041664),
}

#: The same at ``CPUModel.DEFAULT_TILE_ELEMENTS`` (L1 256 sets, L2 8192).
CPU_GOLDEN = {
    "Sobel": (0.9874481201171875, 0.0, 0.0125518798828125),
    "Robert": (0.9749481201171875, 0.0, 0.0250518798828125),
    "FFT": (0.9375, 0.041666666666666664, 0.020833333333333332),
    "DwtHaar1D": (0.9380574907575335, 0.03515679495675223,
                  0.026785714285714284),
    "Sharpen": (0.9790802001953125, 0.0, 0.0209197998046875),
    "QuasiR": (0.9375, 0.0, 0.0625),
    "GEMM": (0.998546511627907, 0.0, 0.0014534883720930232),
    "NeuralNet": (0.984283447265625, 0.0, 0.015716552734375),
    "Similarity": (0.875, 0.0, 0.125),
    "QuantizedLayer": (0.9687398274739584, 0.0, 0.031260172526041664),
}


def test_golden_tables_cover_every_registered_workload():
    assert set(GPU_GOLDEN) == set(workload_names()) == set(CPU_GOLDEN)


@pytest.mark.parametrize("name", sorted(GPU_GOLDEN))
def test_gpu_fractions_match_golden(name):
    profile = workload_by_name(name).profile()
    assert GPUModel().measure_locality(profile) == GPU_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CPU_GOLDEN))
def test_cpu_fractions_match_golden(name):
    profile = workload_by_name(name).profile()
    assert CPUModel().measure_locality(profile) == CPU_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GPU_GOLDEN))
def test_every_chunk_respects_the_size_bound(name):
    profile = workload_by_name(name).profile()
    sizes = []
    for addrs, writes in profile.trace(GPUModel.DEFAULT_TILE_ELEMENTS):
        assert addrs.dtype == np.int64 and writes.dtype == bool
        assert addrs.ndim == 1 and addrs.shape == writes.shape
        sizes.append(addrs.size)
    assert sizes and max(sizes) <= TRACE_CHUNK


def test_long_rows_split_across_chunks_in_order(monkeypatch):
    monkeypatch.setattr(gpu_module, "TRACE_CHUNK", 7)
    columns = [(100 * c, 1, c == 9) for c in range(10)]
    chunks = list(affine_trace(3, columns))
    assert [addrs.size for addrs, _ in chunks] == [7, 3] * 3
    addrs = np.concatenate([a for a, _ in chunks])
    writes = np.concatenate([w for _, w in chunks])
    expected = [100 * c + row for row in range(3) for c in range(10)]
    assert addrs.tolist() == expected
    assert writes.tolist() == [c == 9 for _ in range(3) for c in range(10)]


def test_short_rows_pack_whole_rows_per_chunk(monkeypatch):
    monkeypatch.setattr(gpu_module, "TRACE_CHUNK", 7)
    chunks = list(row_trace(
        5, [False, True], lambda i: np.stack([i, i + 10], axis=1)
    ))
    assert [addrs.size for addrs, _ in chunks] == [6, 4]
    assert np.concatenate([a for a, _ in chunks]).tolist() == [
        0, 10, 1, 11, 2, 12, 3, 13, 4, 14]
