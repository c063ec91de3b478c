"""The served pricing grid is bit-identical to the committed reference.

``perfbench/reference_points.json`` holds direct ``run_point`` pricing of
every registered workload x relax {0, 4, 8, 12, 16} at 64 MiB with
1024-element tiles and seed 2017, sealed by a sha256 of its points.  The
grid priced here through ``run_campaign`` — directly and through a
one-shard serving pool, as the benchmark's ``campaign_cold`` does — must
match it in every compared field, so a pricing change cannot pass tier-1
while moving a served number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os

import pytest

from repro.memo import SingleFlightMemo
from repro.runtime import comparison
from repro.runtime.campaign import point_key, run_campaign
from repro.serving.pool import CrossbarPool
from repro.workloads.registry import workload_names

_COMMON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "common.py",
)
_spec = importlib.util.spec_from_file_location("perfbench_common", _COMMON)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def reference() -> dict:
    with open(bench.REFERENCE_PATH) as handle:
        document = json.load(handle)
    points = document["points"]
    canonical = json.dumps(points, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == document["meta"]["sha256"]
    meta = document["meta"]
    assert meta["tile_elements"] == bench.TILE_ELEMENTS
    assert meta["seed"] == bench.PRICING_SEED
    assert meta["dataset_bytes"] == bench.DATASET_BYTES
    assert meta["levels"] == list(bench.CAMPAIGN_LEVELS)
    assert len(points) == len(workload_names()) * len(bench.CAMPAIGN_LEVELS)
    return points


@pytest.fixture
def cold_tiles(monkeypatch):
    """Fresh tile memos, so every tile is priced by the executor here
    rather than served from one an earlier test priced."""
    monkeypatch.setattr(comparison, "TILE_MEMO", SingleFlightMemo())
    monkeypatch.setattr(comparison, "TILE_INPUTS", SingleFlightMemo())


def _assert_matches(points, reference: dict) -> None:
    assert len(points) == len(reference)
    for point in points:
        served = dataclasses.asdict(point)
        expected = reference[
            point_key(point.workload, point.relax_bits, bench.DATASET_BYTES)
        ]
        wrong = [f for f in bench.POINT_FIELDS if served[f] != expected[f]]
        assert not wrong, f"{point.key} differs in {wrong}"


def test_campaign_grid_matches_reference(reference, cold_tiles):
    result = run_campaign(
        workload_names(), list(bench.CAMPAIGN_LEVELS),
        dataset_bytes=bench.DATASET_BYTES,
        tile_elements=bench.TILE_ELEMENTS, seed=bench.PRICING_SEED,
    )
    _assert_matches(result.points, reference)


def test_pooled_campaign_grid_matches_reference(reference, cold_tiles):
    pool = CrossbarPool(
        shards=1, runtime="thread", tile_elements=bench.TILE_ELEMENTS,
        seed=bench.PRICING_SEED,
    )
    pool.start()
    try:
        result = run_campaign(
            workload_names(), list(bench.CAMPAIGN_LEVELS),
            dataset_bytes=bench.DATASET_BYTES, pool=pool,
        )
    finally:
        pool.stop()
    _assert_matches(result.points, reference)
