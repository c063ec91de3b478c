"""Fleet acceptance: open-loop replay with live resize under chaos.

Not a paper artifact — the fleet control plane's acceptance harness.  A
seeded Poisson-plus-bursts trace (>= 100k requests at full size; a few
thousand under ``--quick`` for CI) is replayed open-loop against a live
thread-runtime pool at 10% injected chaos while the autoscaler resizes
it: burst windows feed ``slow_burn`` verdicts (grow), quiet windows feed
``ok`` (shrink), so the run deterministically crosses at least two
scale-ups AND two scale-downs mid-traffic.

Asserted invariants:

- **zero lost acknowledged requests** — every id the pool acknowledged
  reaches a terminal result, across every resize, with chaos injecting
  transients and corruptions throughout (the loss-free half of the
  live-resize contract; the scheduler's double-completion tripwire stays
  silent or the run errors);
- **>= 2 scale-ups and >= 2 scale-downs** actually executed live;
- **bounded p999** — the end-to-end tail stays finite and below the
  bound (open-loop load cannot hide saturation, so an unbounded queue
  would show up here);
- **bit-identical pricing** — spot-checked clean (``ok``) results match
  a direct in-process pricing of the same point exactly.

The measured numbers land in ``BENCH_fleet.json`` for CI to archive.
"""

from __future__ import annotations

import json
import time

from repro.core.approximation import ApproxSpec
from repro.fleet import Autoscaler, FleetPolicy, generate_trace, replay
from repro.runtime.chaos import ChaosPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.serving import CrossbarPool, ServingConfig
from repro.serving.scheduler import BatchingScheduler
from repro.workloads import workload_by_name

ARTIFACT = "BENCH_fleet.json"
TILE = 1 << 8
SEED = 2017
DATASET_BYTES = 1 << 20
#: transient 8% + corrupt 2% = the 10% chaos the contract names.
CHAOS = ChaosPolicy(
    transient_rate=0.08, latency_rate=0.0, corrupt_rate=0.02, seed=SEED
)
P999_BOUND_S = 30.0
#: Clean results to spot-check against direct pricing, per (w, m) key.
SPOT_CHECKS_PER_KEY = 3


def _arm(rate_rps: float, duration_s: float) -> dict:
    """One replay arm: trace -> live pool + autoscaler -> report."""
    config = ServingConfig(queue_capacity=512)
    pool = CrossbarPool(
        shards=1,
        tile_elements=TILE,
        seed=SEED,
        serving_config=config,
        scheduler=BatchingScheduler(config),
        chaos_policy=CHAOS,
        runtime="thread",
    )
    autoscaler = Autoscaler(
        pool,
        policy=FleetPolicy(
            min_shards=1, max_shards=4, grow_after=2, shrink_after=2,
            cooldown_s=0.0, headroom_burn=1e9,
        ),
        tenant_priorities={"interactive": 0, "bulk": 3},
    )
    trace = generate_trace(
        rate_rps=rate_rps,
        duration_s=duration_s,
        seed=SEED,
        burst_every_s=3.0,
        burst_len_s=1.0,
        burst_multiplier=4.0,
        tenants={"interactive": 3, "bulk": 1},
        workloads=("Sobel", "Robert"),
        relax_bits=(0, 8),
        dataset_bytes=DATASET_BYTES,
    )
    spot: dict[tuple[str, int], list] = {}

    def sample(_request_id, result):
        if result.status != "ok" or result.point is None:
            return
        key = (result.workload, result.relax_bits)
        bucket = spot.setdefault(key, [])
        if len(bucket) < SPOT_CHECKS_PER_KEY:
            bucket.append(result.point.speedup)

    started = time.perf_counter()
    with pool:
        report = replay(
            pool,
            trace,
            autoscaler=autoscaler,
            decide_every=max(50, len(trace) // 120),
            phase_verdicts=True,
            headroom_run_s=2.0,
            on_result=sample,
        )
    elapsed = time.perf_counter() - started
    # Bit-identical spot check: a clean served point prices exactly as a
    # direct in-process comparison of the same (workload, m, dataset).
    harness = ComparisonHarness(tile_elements=TILE)
    mismatches = []
    for (workload, relax), speedups in sorted(spot.items()):
        direct = harness.compare(
            workload_by_name(workload), DATASET_BYTES,
            ApproxSpec.last_stage(relax),
        )
        for served in speedups:
            if served != direct.speedup:
                mismatches.append(
                    f"{workload} m={relax}: served {served!r} != "
                    f"direct {direct.speedup!r}"
                )
    report.update(
        {
            "rate_rps": rate_rps,
            "duration_s": duration_s,
            "wall_s": elapsed,
            "processed_rps": len(trace) / elapsed,
            "spot_checks": sum(len(v) for v in spot.values()),
            "pricing_mismatches": mismatches,
        }
    )
    return report


def test_fleet_replay_loss_free_under_chaos(bench_quick):
    # ~4.4k effective req/s at rate 2000 (bursts fold in): >= 100k
    # arrivals over 25s full-size, a few thousand under --quick.
    rate, duration = (400.0, 5.0) if bench_quick else (2000.0, 25.0)
    report = _arm(rate, duration)
    floor = 2_000 if bench_quick else 100_000
    assert report["arrivals"] >= floor, (
        f"trace too small: {report['arrivals']} < {floor}"
    )
    print(
        f"fleet replay [{'quick' if bench_quick else 'full'}]: "
        f"{report['arrivals']} arrivals in {report['wall_s']:.1f}s "
        f"({report['processed_rps']:.0f} req/s), statuses "
        f"{dict(sorted(report['statuses'].items()))}"
    )
    print(
        f"  scale-ups={report['scale_ups']} "
        f"scale-downs={report['scale_downs']} sheds={report['sheds']} "
        f"final shards={report['final_shards']}, "
        f"p999={report['p999_s']:.3f}s, "
        f"{report['spot_checks']} pricing spot-checks"
    )
    # The loss-free contract, across every resize, under 10% chaos.
    assert report["lost"] == 0, f"LOST {report['lost']} acknowledged ids"
    assert (
        report["acknowledged"] + report["rejected"] == report["arrivals"]
    )
    assert sum(report["statuses"].values()) >= report["acknowledged"] - (
        report["statuses"].get("evicted_after_completion", 0)
    )
    # The autoscaler actually resized mid-traffic, both directions.
    assert report["scale_ups"] >= 2, report["scale_ups"]
    assert report["scale_downs"] >= 2, report["scale_downs"]
    # Open-loop tails stay bounded: the pool kept up with offered load.
    assert report["p999_s"] is not None
    assert report["p999_s"] < P999_BOUND_S
    # Serving is bit-identical to direct pricing, resizes included.
    assert report["spot_checks"] > 0
    assert not report["pricing_mismatches"], report["pricing_mismatches"]
    payload = {
        "tile_elements": TILE,
        "seed": SEED,
        "dataset_bytes": DATASET_BYTES,
        "chaos": {
            "transient_rate": CHAOS.transient_rate,
            "corrupt_rate": CHAOS.corrupt_rate,
        },
        "quick": bench_quick,
        "p999_bound_s": P999_BOUND_S,
        "replay": {
            key: value
            for key, value in report.items()
            if key != "decisions"  # thousands of rows; summary only
        },
        "decisions": len(report["decisions"]),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {ARTIFACT}")
