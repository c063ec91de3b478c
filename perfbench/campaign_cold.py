"""``campaign_cold``: a fresh process prices the whole grid cold.

Each campaign runs in a new process: ``run_campaign`` over every
registered workload x relax {0, 4, 8, 12, 16} at 64 MiB through a
1-shard thread-runtime pool.  Nothing is warm, so the GPU-locality cache
simulation (``baselines.gpu``/``baselines.cache``), the APIM tile runs
(``runtime.executor``) and ``runtime.comparison`` dominate; HTTP and the
journal are bypassed.  Two shards would price the same workloads cold
twice and run-to-run time would depend on which shard won each race.

Every campaign_cold time is CPU time of the campaign process (user +
system, all threads): the work is single-threaded and CPU-bound, so on
an idle host this equals wall time less the ~2 ms coalescing wait per
point, while on a shared host it leaves out the time the hypervisor gave
to other guests, which moved wall-clock figures by up to 50% between
runs.  The wall-clock campaign times are kept in the run's notes.

The grid is fixed, so the seed changes nothing here; it is accepted for
a uniform command line.  The served grid is checked against the
committed reference, which a separate process computed, so no state of
the timed process can make the check pass.

Run as a script with ``--child`` it is that fresh process, and prints
one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict

from common import (
    CAMPAIGN_LEVELS, DATASET_BYTES, Checks, Reference, run_tempdir,
    self_peak_rss_mb,
)
from report import Measured

SMOKE_WORKLOADS = ("Sobel", "Robert")
SMOKE_LEVELS = (0, 8)
#: Seconds of run time per campaign: a run of ``--seconds`` measures
#: ``round(seconds / CAMPAIGN_SLOT_S)`` campaigns (at least one).  A
#: fixed count keeps host noise from changing how many are measured.
CAMPAIGN_SLOT_S = 15.0
#: Extra fresh processes per run that price one point (the grid's first)
#: cold, so ``first_point_s`` and ``setup_s`` are medians over enough
#: cold shards to be steady.
PROBES = 6
#: How often the child samples the result count to time completions.
POLL_S = 0.002


def grid(size: str) -> tuple[list[str], list[int]]:
    from repro.workloads.registry import workload_names

    if size == "probe":
        return workload_names()[:1], list(CAMPAIGN_LEVELS[:1])
    if size == "smoke":
        return list(SMOKE_WORKLOADS), list(SMOKE_LEVELS)
    return workload_names(), list(CAMPAIGN_LEVELS)


def child(trace_path: str | None, size: str) -> dict:
    """One cold campaign in this (fresh) process; times are this
    process's CPU seconds (set-up counts from process start)."""
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer().install()
    from repro.runtime.campaign import run_campaign
    from repro.serving.pool import CrossbarPool

    pool = CrossbarPool(shards=1, runtime="thread")
    pool.start()
    setup_s = time.process_time()
    workloads, levels = grid(size)
    completions: list[float] = []
    stop = threading.Event()

    def watch(origin: float) -> None:
        seen = 0
        while True:
            finished = stop.is_set()
            done = pool.results.completed
            now = time.process_time() - origin
            completions.extend([now] * (done - seen))
            seen = done
            if finished:
                return
            time.sleep(POLL_S)

    if tracer is not None:
        tracer.phase = "timed"
    origin, wall_origin = time.process_time(), time.perf_counter()
    watcher = threading.Thread(target=watch, args=(origin,))
    watcher.start()
    try:
        result = run_campaign(workloads, levels, dataset_bytes=DATASET_BYTES,
                              pool=pool)
        campaign_s = time.process_time() - origin
        wall_s = time.perf_counter() - wall_origin
    finally:
        stop.set()
        watcher.join()
        pool.stop()
    out = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "wall_s": wall_s,
        "completion_s": completions,
        "points": [asdict(point) for point in result.points],
        "grid": [workloads, levels],
        "rss_mb": self_peak_rss_mb(),
    }
    if tracer is not None:
        tracer.resolve_request_ids()
        tracer.dump(trace_path)
        out["unwrapped"] = tracer.unwrapped
    return out


def _spawn(seed: int, trace_path: str | None, size: str) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--seed", str(seed), "--grid", size]
    if trace_path:
        command += ["--trace-out", trace_path]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"campaign process failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(seed: int, seconds: float, smoke: bool = False,
             trace_pass: bool = False, tracer=None) -> tuple:
    """Cold campaigns in fresh processes, one after another (see
    :data:`CAMPAIGN_SLOT_S`), then :data:`PROBES` one-point cold
    processes.  Either pass of a traced run is one campaign and no
    probes; a smoke run uses a 2x2 grid and one probe."""
    measured, checks = Measured(), Checks()
    reference = Reference()
    campaigns = 1 if trace_pass else max(1, round(seconds / CAMPAIGN_SLOT_S))
    probes = 0 if trace_pass else 1 if smoke else PROBES
    runs = []
    with run_tempdir("campaign_cold") as tmp:
        for index in range(campaigns):
            trace_path = (os.path.join(tmp, f"spans{index}.jsonl")
                          if tracer is not None else None)
            runs.append(_spawn(seed, trace_path,
                               "smoke" if smoke else "full"))
            if tracer is not None:
                from tracer import load_spans

                tracer.spans.extend(load_spans(trace_path))
                tracer.unwrapped = runs[-1].get("unwrapped", [])
    probed = [_spawn(seed, None, "probe") for _ in range(probes)]
    for timed, batch in ((True, runs), (False, probed)):
        for run in batch:
            measured.setup_s.append(run["setup_s"])
            measured.first_point_s.append(run["completion_s"][0])
            _check_grid(run, reference, checks, measured, timed)
    for run in runs:
        measured.latencies_s.extend(run["completion_s"])
    measured.window_s = sum(run["campaign_s"] for run in runs)
    measured.overlapped_s = measured.window_s
    measured.peak_rss_mb = self_peak_rss_mb() + max(r["rss_mb"] for r in runs)
    measured.notes["campaigns"] = len(runs)
    measured.notes["campaign_cpu_s"] = [run["campaign_s"] for run in runs]
    measured.notes["campaign_wall_s"] = [run["wall_s"] for run in runs]
    return measured, checks


def _check_grid(run: dict, reference: Reference, checks: Checks,
                measured: Measured, timed: bool) -> None:
    """Every point present and bit-identical to the reference; a timed
    campaign's points count towards the rates."""
    workloads, levels = run["grid"]
    expected = {(w, level) for w in workloads for level in levels}
    served = {(p["workload"], p["relax_bits"]): p for p in run["points"]}
    checks.expect(set(served) == expected and
                  len(run["points"]) == len(expected),
                  f"grid has {len(run['points'])} points, "
                  f"expected {len(expected)}")
    for (workload, level) in sorted(expected):
        measured.attempted += 1
        ok = reference.check(checks, served.get((workload, level)), workload,
                             level, f"campaign {workload}/m{level}")
        if not ok:
            measured.failed += 1
        elif timed:
            measured.completed += 1
            measured.points += 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--grid", choices=("full", "smoke", "probe"),
                        default="full")
    args = parser.parse_args()
    from common import import_program

    import_program()
    print(json.dumps(child(args.trace_out, args.grid)))
