"""``pool_open``: the warm mix, open loop, straight into the pool.

An in-process ``CrossbarPool(runtime="thread", shards=2)`` takes a seeded
Poisson schedule (no bursts) at about 300 rps from one generator thread
through the public ``Client``/``pool.submit``/``pool.admit_search``; one
harvester thread collects results in submission order.  Latency runs
from when a request was *due*, so a stalled generator charges the wait
to the requests behind it; the generator's own lateness is reported.

At 300 rps a run of 30 s or more passes both the ``TraceStore`` (256)
and the ``ResultStore`` (8192) capacities, so the stores work at
capacity.  HTTP, the journal and cold pricing are bypassed.

Run by the same command but not listed in ``BENCHMARK.json``: its
latency follows the host's timer jitter too closely to hold a bound
(figures in ``workloads.json``).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict

import numpy as np

from common import (
    DATASET_BYTES, MIX_KEYS, SEARCH_K, Checks, Reference, SearchOracle,
    poisson_schedule, self_peak_rss_mb,
)
from report import Measured

RATE_RPS = 300.0
SHARDS = 2
#: Pool set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Extra cold 1-shard pools per run, each timing its first request, so
#: ``first_point_s`` is a median over enough cold shards to be steady.
PROBES = 4


def _submit(pool, request: dict) -> str:
    if request["kind"] == "search":
        request_id, _ = pool.admit_search(
            request["query"], k=request["k"],
            idempotency_key=request["idempotency_key"])
        return request_id
    return pool.submit(
        request["workload"], relax_bits=request["relax_bits"],
        dataset_bytes=DATASET_BYTES,
        idempotency_key=request["idempotency_key"])


def set_up(measured: Measured):
    """A started pool whose every shard has priced every mix key once.

    Shards keep private caches and pull work from one queue.  The first
    key is asked for alone until each shard has served it, so each shard's
    first (cold) request is timed on its own; warm-up then resubmits the
    keys a shard has not served yet until both have."""
    from repro.serving.pool import Client, CrossbarPool

    started = time.perf_counter()
    pool = CrossbarPool(shards=SHARDS, runtime="thread")
    pool.start()
    client = Client(pool)
    served = {key: set() for key in MIX_KEYS}
    workload, relax = MIX_KEYS[0]
    for _attempt in range(1000):
        if len(served[MIX_KEYS[0]]) == SHARDS:
            break
        asked = time.perf_counter()
        result = client.call(workload, relax_bits=relax,
                             dataset_bytes=DATASET_BYTES, timeout=300)
        if result.shard not in served[MIX_KEYS[0]]:
            measured.first_point_s.append(time.perf_counter() - asked)
            served[MIX_KEYS[0]].add(result.shard)
    for _round in range(64):
        todo = [key for key in MIX_KEYS if len(served[key]) < SHARDS]
        if not todo:
            break
        ids = [(key, client.submit(key[0], relax_bits=key[1],
                                   dataset_bytes=DATASET_BYTES))
               for key in todo]
        for key, request_id in ids:
            served[key].add(client.result(request_id, timeout=300).shard)
    rng = np.random.default_rng(0)
    client.search(rng.integers(0, 2, pool.search_index().dim), k=SEARCH_K)
    measured.setup_s.append(time.perf_counter() - started)
    measured.notes["warm_shards"] = {f"{w}/m{r}": sorted(s)
                                     for (w, r), s in served.items()}
    return pool


def probe_first_points(measured: Measured, probes: int) -> None:
    from repro.serving.pool import Client, CrossbarPool

    workload, relax = MIX_KEYS[0]
    for _ in range(probes):
        pool = CrossbarPool(shards=1, runtime="thread")
        with pool:
            asked = time.perf_counter()
            Client(pool).call(workload, relax_bits=relax,
                              dataset_bytes=DATASET_BYTES, timeout=300)
            measured.first_point_s.append(time.perf_counter() - asked)


def timed(pool, seed: int, seconds: float, measured: Measured,
          checks: Checks, reference: Reference, oracle: SearchOracle,
          tracer=None) -> None:
    schedule = poisson_schedule(seed, RATE_RPS, seconds)
    handoff: queue.Queue = queue.Queue()
    admitted: list[tuple] = []
    harvested: list[tuple] = []

    def generate(origin: float) -> None:
        for due_offset, request in schedule:
            due = origin + due_offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            measured.lag_s.append(time.perf_counter() - due)
            try:
                request_id = _submit(pool, request)
            except Exception as exc:  # a refused request is a failure
                checks.expect(False, f"submit refused: {exc!r}")
                measured.failed += 1
                continue
            admitted.append((request_id, request))
            handoff.put((request_id, due, request))
        handoff.put(None)

    def harvest() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            request_id, due, request = item
            try:
                result = pool.result(request_id, timeout=60)
            except Exception as exc:
                checks.expect(False, f"{request_id} lost: {exc!r}")
                measured.failed += 1
                continue
            harvested.append((time.perf_counter() - due, request, result))

    measured.attempted = len(schedule)
    if tracer is not None:
        tracer.phase = "timed"
    origin = time.perf_counter() + 0.05
    harvester = threading.Thread(target=harvest, name="perfbench-harvest")
    generator = threading.Thread(target=generate, args=(origin,),
                                 name="perfbench-generate")
    harvester.start()
    generator.start()
    generator.join()
    harvester.join()
    measured.window_s = time.perf_counter() - origin
    if tracer is not None:
        tracer.phase = "check"
    for latency, request, result in harvested:
        ok = result.completed
        if request["kind"] == "search":
            ok = oracle.check(checks, request["query"], request["k"],
                              result.search, result.id) and ok
        else:
            measured.points += ok
            measured.pricing_requests += 1
            point = None if result.point is None else asdict(result.point)
            ok = reference.check(checks, point, request["workload"],
                                 request["relax_bits"], result.id) and ok
        checks.expect(result.completed, f"{result.id} ended {result.status}")
        if not ok:
            measured.failed += 1
            continue
        measured.completed += 1
        measured.latencies_s.append(latency)
        measured.queue_wait_s.append(result.queue_wait_s)
        measured.service_s.append(result.service_s)
    _check_idempotency(pool, admitted, checks, measured)
    stats = pool.stats()
    measured.notes["results_evicted"] = stats["results"]["evicted"]
    measured.notes["traces_evicted"] = stats["traces"]["evicted"]
    measured.peak_rss_mb = self_peak_rss_mb()


def _check_idempotency(pool, admitted, checks, measured) -> None:
    """Resubmitting every key must return its one original id."""
    for request_id, request in admitted:
        if request["kind"] == "search":
            again, duplicate = pool.admit_search(
                request["query"], k=request["k"],
                idempotency_key=request["idempotency_key"])
        else:
            again, duplicate = pool.admit(
                request["workload"], relax_bits=request["relax_bits"],
                dataset_bytes=DATASET_BYTES,
                idempotency_key=request["idempotency_key"])
        if not checks.expect(
                duplicate and again == request_id,
                f"key {request['idempotency_key']} -> {again}, "
                f"first {request_id}"):
            measured.failed += 1


def run_pass(seed: int, seconds: float, smoke: bool = False,
             trace_pass: bool = False, tracer=None) -> tuple:
    """Set up :data:`SETUPS` pools (the last one serves the timed phase),
    then time :data:`PROBES` more cold shards' first requests.  A smoke
    run and either pass of a traced run set up once; a traced run skips
    the probes, which only feed ``first_point_s``."""
    measured, checks = Measured(), Checks()
    reference, oracle = Reference(), SearchOracle()
    pool = None
    for _ in range(1 if smoke or trace_pass else SETUPS):
        if pool is not None:
            pool.stop()
        pool = set_up(measured)
    try:
        timed(pool, seed, seconds, measured, checks, reference, oracle,
              tracer)
    finally:
        pool.stop()
    probe_first_points(measured, 0 if trace_pass else 1 if smoke else PROBES)
    return measured, checks
