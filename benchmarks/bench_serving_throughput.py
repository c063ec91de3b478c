"""Serving-layer load generation: throughput, latency, rejection rate.

Not a paper artifact — the serving tier's first baseline.  Two arms:

- **closed-loop shard scaling, per runtime** (``--runtime
  {thread,subprocess,all}``): C client threads, each submit-and-wait in
  a loop over a GEMM-dominated mix, against a 1-shard and a 4-shard
  pool under 10% injected chaos.  Reports requests/s and p50/p99
  latency per (runtime, shard count) and asserts zero lost / zero
  duplicated requests.  The subprocess runtime is the GIL escape: on a
  host with >= 4 CPUs it must deliver >= 2x throughput at 4 shards; on
  smaller hosts that assert is skipped and the bench instead checks the
  work *distributes* — all four workers serve, and the aggregate
  worker-process CPU seconds stay near-linear (work is conserved, not
  duplicated, across the process boundary).  The thread runtime's
  scaling is reported but never asserted: pure-Python executors under
  one GIL cannot scale.
- **open-loop admission**: a burst far beyond a cold 1-shard pool's
  capacity against a tiny queue; asserts backpressure engages (some
  rejections) and every *admitted* request still reaches a terminal
  result.

The measured numbers land in ``BENCH_serving.json`` for CI to archive.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.errors import AdmissionRejectedError
from repro.runtime.chaos import ChaosPolicy
from repro.serving import Client, CrossbarPool, ServingConfig
from repro.units import MIB

ARTIFACT = "BENCH_serving.json"
TILE = 1 << 9
SEED = 2017
CHAOS = ChaosPolicy(transient_rate=0.08, corrupt_rate=0.02, seed=SEED)
#: GEMM-dominated request mix: (workload, relax_bits, dataset_bytes).
MIX = [
    ("GEMM", 0, 64 * MIB),
    ("GEMM", 8, 64 * MIB),
    ("GEMM", 16, 64 * MIB),
    ("Sobel", 8, 64 * MIB),
]
CLIENTS = 4
REQUESTS_PER_CLIENT = 25
TERMINAL = ("ok", "retried", "degraded", "fallback", "failed")


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _closed_loop(shards: int, runtime: str = "thread") -> dict:
    """C closed-loop clients over the mix; chaos on; full accounting."""
    pool = CrossbarPool(
        shards=shards,
        tile_elements=TILE,
        seed=SEED,
        chaos_policy=CHAOS,
        serving_config=ServingConfig(queue_capacity=256),
        runtime=runtime,
    )
    latencies: list[float] = []
    ids: list[str] = []
    statuses: list[str] = []
    lock = threading.Lock()
    with pool:
        # Warm-up: drive every mix key through the pool so each shard
        # prices its tiles and the GPU model memoises before the clock
        # starts (the measured regime is the steady state).
        warm = Client(pool, tenant="warm")
        for _ in range(max(2, shards)):
            for workload, relax, size in MIX:
                warm.call(workload, relax_bits=relax, dataset_bytes=size,
                          timeout=120.0)
        # Steady-state accounting only: each subprocess worker paid a
        # one-off cold-cache tile-pricing cost during warm-up that scales
        # with fan-out, not with request count.
        warm_cpu_s = (
            pool.runtime.worker_cpu_seconds()
            if runtime == "subprocess"
            else 0.0
        )

        def client_loop(name: str) -> None:
            client = Client(pool, tenant=name)
            for index in range(REQUESTS_PER_CLIENT):
                workload, relax, size = MIX[index % len(MIX)]
                started = time.perf_counter()
                request_id = client.submit(
                    workload, relax_bits=relax, dataset_bytes=size,
                    block=True,
                )
                result = client.result(request_id, timeout=120.0)
                elapsed = time.perf_counter() - started
                with lock:
                    ids.append(request_id)
                    statuses.append(result.status)
                    latencies.append(elapsed)

        threads = [
            threading.Thread(target=client_loop, args=(f"c{i}",))
            for i in range(CLIENTS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = time.perf_counter() - wall_start
        stats = pool.stats()
    expected = CLIENTS * REQUESTS_PER_CLIENT
    assert len(ids) == expected, f"lost requests: {len(ids)}/{expected}"
    assert len(set(ids)) == expected, "duplicated request ids"
    assert all(status in TERMINAL for status in statuses), set(statuses)
    ordered = sorted(latencies)
    busy = sum(shard["busy_s"] for shard in stats["shards"])
    worker_cpu_s = None
    if runtime == "subprocess":
        worker_cpu_s = pool.runtime.worker_cpu_seconds() - warm_cpu_s
    return {
        "runtime": runtime,
        "shards": shards,
        "requests": expected,
        "wall_s": wall,
        "throughput_rps": expected / wall,
        "p50_latency_s": _percentile(ordered, 0.50),
        "p99_latency_s": _percentile(ordered, 0.99),
        "status_counts": {
            status: statuses.count(status) for status in set(statuses)
        },
        "shard_served": [s["served"] for s in stats["shards"]],
        "shard_utilisation": [
            shard["busy_s"] / wall for shard in stats["shards"]
        ],
        "total_busy_s": busy,
        "worker_cpu_s": worker_cpu_s,
        "workers": stats["runtime"]["workers"],
    }


def _open_loop() -> dict:
    """A cold burst against a tiny queue: backpressure must engage."""
    pool = CrossbarPool(
        shards=1,
        tile_elements=TILE,
        seed=SEED,
        serving_config=ServingConfig(queue_capacity=8, retry_after_s=0.02),
    )
    admitted, rejected = [], 0
    with pool:
        for index in range(100):
            workload, relax, size = MIX[index % len(MIX)]
            try:
                admitted.append(
                    pool.submit(
                        workload=workload, relax_bits=relax,
                        dataset_bytes=size, tenant="open",
                    )
                )
            except AdmissionRejectedError as exc:
                assert exc.retry_after_s > 0
                rejected += 1
        results = [pool.result(i, timeout=120.0) for i in admitted]
    assert all(r.status in TERMINAL for r in results)
    assert len({r.id for r in results}) == len(admitted)
    return {
        "offered": 100,
        "admitted": len(admitted),
        "rejected": rejected,
        "rejection_rate": rejected / 100,
        "queue_capacity": 8,
    }


def test_serving_throughput_baseline(bench_rounds, bench_runtimes):
    """The serving tier's load test; writes ``BENCH_serving.json``."""
    cpus = os.cpu_count() or 1
    closed_loop: dict[str, dict] = {}
    print()
    for runtime in bench_runtimes:
        single = _closed_loop(1, runtime)
        quad = _closed_loop(4, runtime)
        scaling = quad["throughput_rps"] / single["throughput_rps"]
        closed_loop[runtime] = {
            "1": single,
            "4": quad,
            "scaling_4_vs_1": scaling,
        }
        for arm in (single, quad):
            print(
                f"closed-loop [{runtime}] {arm['shards']} shard(s): "
                f"{arm['throughput_rps']:.1f} req/s, "
                f"p50 {arm['p50_latency_s'] * 1e3:.2f} ms, "
                f"p99 {arm['p99_latency_s'] * 1e3:.2f} ms, "
                f"statuses {arm['status_counts']}"
            )
        print(
            f"scaling [{runtime}] 4 vs 1 shards: {scaling:.2f}x "
            f"on {cpus} CPU(s)"
        )
        if runtime != "subprocess":
            continue
        # The subprocess runtime is the GIL escape: hold it to real
        # parallelism where parallelism is physical.
        if cpus >= 4:
            assert scaling >= 2.0, (
                f"subprocess runtime: 4 shards only {scaling:.2f}x over "
                f"1 shard on {cpus} CPUs"
            )
        else:
            print(
                f"(subprocess scaling assertion skipped: {cpus} CPU(s); "
                "asserting work distribution instead)"
            )
            # Even time-sliced on one CPU, the 4-shard pool must spread
            # requests across its workers...
            serving = sum(1 for n in quad["shard_served"] if n > 0)
            assert serving >= 2, (
                f"only {serving}/4 subprocess workers served any request"
            )
            # ...and conserve work: the aggregate CPU seconds burned in
            # worker processes stays near-linear with request count (the
            # same mix at both shard counts), not multiplied by fan-out.
            per_request_1 = single["worker_cpu_s"] / single["requests"]
            per_request_4 = quad["worker_cpu_s"] / quad["requests"]
            assert per_request_1 > 0 and per_request_4 > 0
            ratio = per_request_4 / per_request_1
            assert 1.0 / 3.0 <= ratio <= 3.0, (
                f"worker CPU-seconds per request moved {ratio:.2f}x "
                "between 1 and 4 shards — work not conserved"
            )
    open_loop = _open_loop()
    payload = {
        "mix": [list(entry) for entry in MIX],
        "tile_elements": TILE,
        "clients": CLIENTS,
        "chaos": {
            "transient_rate": CHAOS.transient_rate,
            "corrupt_rate": CHAOS.corrupt_rate,
        },
        "cpu_count": cpus,
        "runtimes": list(bench_runtimes),
        "closed_loop": closed_loop,
        "scaling_4_vs_1": {
            runtime: arms["scaling_4_vs_1"]
            for runtime, arms in closed_loop.items()
        },
        "open_loop": open_loop,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(
        f"open-loop: {open_loop['rejected']}/100 rejected "
        f"({open_loop['rejection_rate'] * 100:.0f}%), all admitted terminal"
    )
    assert open_loop["rejected"] > 0, "backpressure never engaged"
