"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``fig4`` / ``fig5`` / ``fig6`` / ``table1`` / ``adaptive`` — regenerate
  one paper artifact and print it paper-style.
- ``report [-o FILE]`` — run everything and emit the markdown report.
- ``run WORKLOAD [-m RELAX]`` — execute one workload at a given
  approximation level and print quality/cost.
- ``sweep PARAM V1 V2 ...`` — sensitivity sweep of a model constant.
- ``faults`` — stuck-cell rate x spare-budget resilience campaign.
- ``campaign`` — (workload x relax-level) grid, optionally supervised
  (``--retries/--deadline``) and checkpointed (``--checkpoint/--resume``).
- ``chaos`` — fault-injected supervised campaign: completion yield,
  retry counts and degradation mix versus injected fault rate.
- ``metrics`` — run a supervised workload grid under full instrumentation
  and dump (or serve) the Prometheus scrape.
- ``serve`` — boot the sharded serving frontend: a :class:`CrossbarPool`
  behind the JSON-over-HTTP API (``/submit``, ``/result/<id>``,
  ``/trace/<id>``, ``/healthz``, ``/stats``, ``/fleet``, ``/metrics``).
  With ``--fleet-config FILE`` the pool geometry, shard count and
  autoscaler policy come from a DSE-selected fleet config;
  with ``--telemetry`` the streaming telemetry pipeline samples the
  registry and tail quantiles behind ``GET /query`` / ``GET /alerts``.
- ``top`` — the fleet dashboard: shards, per-tenant request rates, tail
  quantiles and firing alerts, either polling a live server (``--url``)
  or from a self-contained in-process demo (``--once`` for one frame).
- ``fleet`` — the fleet control plane: run the offline design-space
  exploration (sweep block geometry x interconnect x shard count, fold
  into a cost-latency Pareto frontier, write the
  per-tenant ``--fleet-config`` selection), or ``--quick`` — force one
  scale-up and one scale-down under a manual clock and assert ``/fleet``
  reflects both.
- ``slo`` — drive a request burst through a pool and report per-layer
  tail latency (p50/p95/p99/p999) plus multi-window burn-rate verdicts
  against an SLO policy.
- ``trace`` — pretty-print one request's end-to-end trace timeline
  (from a live demo pool with ``--quick``, or a JSONL spill file).
- ``search`` — in-memory binarized similarity search: recall-vs-relax
  demo over a seeded codebook, or the served round-trip self-test
  (``--quick``: boot a real server, POST /search, assert the top-k is
  bit-identical to a numpy brute force).
- ``workloads`` — list available workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.analysis.experiments import (
    run_adaptive,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.analysis.report import generate_report
from repro.analysis.sensitivity import SWEEPABLE, sweep_parameter
from repro.analysis.tables import (
    render_adaptive,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
)
from repro.core.approximation import ApproxSpec
from repro.runtime.executor import APIMExecutor
from repro.units import format_si
from repro.workloads import all_workloads, extension_workloads, workload_by_name

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APIM (DAC 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig4", help="error vs EDP of both approximations")
    p.add_argument("--samples", type=int, default=20000)

    p = sub.add_parser("fig5", help="APIM vs GPU over dataset sizes")
    p.add_argument("--tile", type=int, default=1 << 13)

    sub.add_parser("fig6", help="multi-operand adder comparison")

    p = sub.add_parser("table1", help="QoL/EDP grid over six applications")
    p.add_argument("--tile", type=int, default=1 << 13)

    p = sub.add_parser("adaptive", help="adaptive tuner per application")
    p.add_argument("--tile", type=int, default=1 << 13)

    p = sub.add_parser("report", help="full markdown reproduction report")
    p.add_argument("-o", "--output", default=None, help="write to a file")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--tile", type=int, default=1 << 12)

    p = sub.add_parser("run", help="run one workload at a relax level")
    p.add_argument("workload")
    p.add_argument("-m", "--relax", type=int, default=0)
    p.add_argument("--elements", type=int, default=None)
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser("sweep", help="sensitivity sweep of a constant")
    p.add_argument("parameter", choices=sorted(SWEEPABLE))
    p.add_argument("values", type=float, nargs="+")
    p.add_argument("--workload", default="Sobel")

    p = sub.add_parser("campaign", help="grid of workloads x relax levels")
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16, 32])
    p.add_argument("--tile", type=int, default=1 << 11)
    p.add_argument("-o", "--output", default=None, help="write CSV to a file")
    p.add_argument(
        "--checkpoint", default=None,
        help="JSONL journal path for kill-safe progress",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip points the checkpoint journal proves complete",
    )
    p.add_argument(
        "--retries", type=int, default=None,
        help="supervise each point with up to N attempts",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-point wall-clock deadline in seconds (implies supervision)",
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "chaos",
        help="fault-injected supervised campaign: yield vs chaos rate",
    )
    p.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.1, 0.3],
        help="transient-fault injection rates to sweep",
    )
    p.add_argument("--latency-rate", type=float, default=0.05)
    p.add_argument("--corrupt-rate", type=float, default=0.02)
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16, 32])
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument("--retries", type=int, default=4)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--trace", default=None,
        help="stream the supervision timeline to a Chrome trace file",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="tiny smoke grid (CI): one workload, two levels, two rates",
    )
    p.add_argument(
        "--worker-kill-rate", type=float, default=0.0,
        help="also run a subprocess-pool arm that SIGKILLs live workers "
        "at this per-request rate and asserts zero lost requests",
    )
    p.add_argument(
        "--server-kill", action="store_true",
        help="also SIGKILL a journaled serving *process* mid-load, "
        "restart it on the same journal, and assert zero acknowledged "
        "requests lost",
    )
    p.add_argument(
        "--server-kill-requests", type=int, default=10,
        help="acknowledged requests in flight when the server is killed",
    )

    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload grid and dump the "
        "Prometheus scrape",
    )
    p.add_argument("--workload", default="Sobel")
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16])
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "-o", "--output", default=None,
        help="write the exposition to a file instead of stdout",
    )
    p.add_argument(
        "--jsonl", default=None,
        help="also append a JSONL metrics snapshot to this file",
    )
    p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve the scrape at http://localhost:PORT/metrics "
        "(Ctrl-C to stop)",
    )
    p.add_argument(
        "--trace", default=None,
        help="stream span timings to a Chrome trace file",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="tiny smoke grid (CI): one level, small tile",
    )

    p = sub.add_parser(
        "serve",
        help="serve workload pricing over HTTP from a sharded crossbar pool",
    )
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8017,
        help="listen port (0 picks an ephemeral port)",
    )
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument("--queue-capacity", type=int, default=64)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--runtime", choices=("inline", "thread", "subprocess"),
        default="thread",
        help="shard execution mechanics: in-process threads (default), "
        "synchronous inline, or one supervised worker process per shard",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to flush in-flight requests after SIGTERM/SIGINT "
        "before forcing shutdown",
    )
    p.add_argument(
        "--journal", nargs="?", const="", default=None, metavar="DIR",
        help="write-ahead request journal directory: acknowledged "
        "requests survive a server crash and replay on restart (with "
        "--quick, DIR may be omitted to use a temporary directory)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="self-test (CI): boot on an ephemeral port, round-trip one "
        "workload over HTTP, verify the result, exit",
    )
    p.add_argument(
        "--fleet-config", default=None, metavar="FILE",
        help="boot from a DSE-selected fleet config (repro fleet): pool "
        "geometry, shard count and autoscaler policy",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="attach the streaming telemetry pipeline: retained series "
        "history behind GET /query and alert rules behind GET /alerts",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=1.0, metavar="S",
        help="telemetry sampling cadence in seconds (default 1.0)",
    )
    p.add_argument(
        "--telemetry-jsonl", default=None, metavar="FILE",
        help="also export one JSONL telemetry record per tick to FILE "
        "(rotated at 16 MiB, 3 files kept)",
    )

    p = sub.add_parser(
        "top",
        help="fleet dashboard: shards, tenant rates, tail quantiles and "
        "firing alerts, from a live server or an in-process demo",
    )
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="poll a live `repro serve --telemetry` endpoint "
        "(default: boot an in-process demo pool with injected slow "
        "traffic)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (the CI smoke)",
    )
    p.add_argument(
        "--frames", type=int, default=None,
        help="stop after N refreshes (default: until Ctrl-C)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "fleet",
        help="offline design-space exploration -> Pareto frontier -> "
        "fleet config, or the autoscaler smoke test",
    )
    p.add_argument(
        "-o", "--output", default="fleet.json",
        help="fleet-config file to write (repro serve --fleet-config)",
    )
    p.add_argument(
        "--block-rows", type=int, nargs="+", default=[256, 1024],
        help="crossbar block heights to sweep",
    )
    p.add_argument(
        "--interconnect-scales", type=float, nargs="+", default=[1.0, 4.0],
        help="interconnect energy multipliers to sweep",
    )
    p.add_argument(
        "--shard-counts", type=int, nargs="+", default=[1, 2, 4],
        help="provisioned shard counts to sweep",
    )
    p.add_argument("--workloads", nargs="+", default=["Sobel"])
    p.add_argument(
        "--offered-rps", type=float, default=200.0,
        help="offered load the serving model sizes for",
    )
    p.add_argument("--requests-per-point", type=int, default=3)
    p.add_argument("--tile", type=int, default=1 << 8)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--tenant", action="append", default=None, metavar="NAME:PRIO:SLO_S",
        help="tenant spec (repeatable), e.g. --tenant alice:0:0.5",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="self-test (CI): boot a pool+server on a manual clock, force "
        "one scale-up and one scale-down, assert /fleet reflects both",
    )

    p = sub.add_parser(
        "slo",
        help="serve a request burst and report tail latency + SLO burn "
        "rates",
    )
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16])
    p.add_argument("--repeat", type=int, default=3,
                   help="passes over the (workload x level) grid")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument(
        "--target", type=float, default=2.0,
        help="end-to-end latency objective in seconds",
    )
    p.add_argument(
        "--budget", type=float, default=0.01,
        help="error budget (allowed bad-request fraction)",
    )
    p.add_argument(
        "--chaos-rate", type=float, default=0.0,
        help="transient-fault injection rate while serving",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--quick", action="store_true",
        help="tiny burst (CI): one workload, two levels, small tile",
    )

    p = sub.add_parser(
        "trace",
        help="pretty-print one request's end-to-end trace timeline",
    )
    p.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id (or request id) to print",
    )
    p.add_argument(
        "--file", default=None,
        help="read traces from a TraceStore JSONL spill file",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--quick", action="store_true",
        help="demo/CI: serve one chaos-faulted request in-process and "
        "print its timeline",
    )

    p = sub.add_parser(
        "faults", help="fault-injection campaign: yield vs spare budget"
    )
    p.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.001, 0.005],
        help="per-cell stuck-fault rates to sweep",
    )
    p.add_argument(
        "--spare-fractions", type=float, nargs="+", default=[0.02, 0.1],
        help="spare-row budgets (fraction of rows per block)",
    )
    p.add_argument("--trials", type=int, default=5, help="dies per point")
    p.add_argument("--bits", type=int, default=8, help="operand width")
    p.add_argument(
        "--ops", type=int, default=4, help="multiplications per die"
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "search",
        help="in-memory binarized similarity search over the APIM fabric",
    )
    p.add_argument("--entries", type=int, default=512, help="codebook size")
    p.add_argument("--dim", type=int, default=256, help="bits per codeword")
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("-k", type=int, default=10, help="neighbours per query")
    p.add_argument(
        "--levels", type=int, nargs="+", default=[0, 4, 8, 16, 24, 32],
        help="relax-bits rungs for the recall ladder",
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--shards", type=int, default=2)
    p.add_argument(
        "--runtime", choices=("inline", "thread", "subprocess"),
        default="thread",
        help="shard runtime for the --quick served round trip",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="self-test (CI): boot a real server, round-trip POST "
        "/search, assert the exact-tier top-k is bit-identical to a "
        "numpy brute force, exit",
    )

    sub.add_parser("workloads", help="list available workloads")
    return parser


def _cmd_run(args: argparse.Namespace) -> str:
    workload = workload_by_name(args.workload)
    executor = APIMExecutor()
    result = executor.run(
        workload,
        spec=ApproxSpec.last_stage(args.relax),
        elements=args.elements,
        rng=np.random.default_rng(args.seed),
    )
    lines = [
        f"workload          : {result.workload}",
        f"elements          : {result.elements}",
        f"relax bits (m)    : {args.relax}",
        f"QoL               : {result.qol_percent:.3f} %"
        f" ({'meets' if result.qos_ok else 'MISSES'} QoS)",
        f"multiplications   : {result.mul_count}",
        f"additions         : {result.add_count}",
        f"lane-cycles       : {result.cost.cycles:.0f}",
        f"tile latency      : {format_si(result.time, 's')}",
        f"tile energy       : {format_si(result.energy, 'J')}",
        f"tile EDP          : {result.edp:.3e} J*s",
    ]
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    result = sweep_parameter(args.parameter, args.values, args.workload)
    lines = [
        f"sensitivity of {result.workload} at 1 GiB to {result.parameter} "
        f"({SWEEPABLE[result.parameter]})",
        f"{'value':>14} {'speedup':>9} {'energy':>9} {'EDP':>10}",
    ]
    for point in result.points:
        lines.append(
            f"{point.value:>14.4g} {point.speedup:>8.2f}x "
            f"{point.energy_improvement:>8.1f}x "
            f"{point.edp_improvement:>9.1f}x"
        )
    lines.append(f"EDP spread across the sweep: {result.spread():.2f}x")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep injected fault rates; non-zero exit on any lost point."""
    from repro.runtime.chaos import ChaosPolicy, chaos_table, run_chaos_campaign

    workloads = list(args.workloads)
    levels = list(args.levels)
    rates = list(args.rates)
    tile = args.tile
    seed = args.seed
    if args.quick:
        workloads, levels, rates, tile = ["Robert"], [0, 16], [0.0, 0.2], 1 << 9
        # This seed provably injects (and recovers) a transient on the tiny
        # grid, so the CI smoke exercises the retry path, not just a clean run.
        seed = 1
    outcomes = []
    for rate in rates:
        policy = ChaosPolicy(
            transient_rate=rate,
            latency_rate=args.latency_rate,
            corrupt_rate=args.corrupt_rate,
            seed=seed,
        )
        outcomes.append(
            run_chaos_campaign(
                workloads=workloads,
                relax_levels=levels,
                policy=policy,
                tile_elements=tile,
                max_attempts=args.retries,
                trace_path=args.trace,
            )
        )
    print("chaos recovery: supervised campaign under injected faults")
    print(chaos_table(outcomes))
    expected = len(workloads) * len(levels)
    lost = sum(
        expected - len(outcome.result.points)
        + outcome.status_counts["failed"]
        for outcome in outcomes
    )
    if lost:
        print(f"LOST POINTS: {lost} — supervision failed its completion "
              "guarantee")
        return 1
    print(f"all {expected} points terminal in every sweep — zero lost")
    code = 0
    if args.worker_kill_rate > 0.0:
        code = _chaos_worker_kill_arm(args, workloads, levels, tile, seed)
    if code == 0 and args.server_kill:
        code = _chaos_server_kill_arm(args, workloads, levels, tile, seed)
    return code


def _chaos_worker_kill_arm(
    args: argparse.Namespace,
    workloads: list,
    levels: list,
    tile: int,
    seed: int,
) -> int:
    """Worker-death chaos: SIGKILL live subprocess workers mid-request.

    Drives the grid through a 2-shard subprocess pool whose parent-side
    injector kills the serving worker at ``--worker-kill-rate`` per
    request.  Every kill must be absorbed by the respawn + re-drive
    ladder: the completion guarantee is zero lost requests.
    """
    from repro.errors import ServingError
    from repro.runtime.chaos import ChaosPolicy
    from repro.serving.pool import Client, CrossbarPool

    rate = args.worker_kill_rate
    grid = [(w, level) for w in workloads for level in levels]
    # Repeat the grid until the arm sees >= 8 requests: enough traffic
    # that a 10-50% kill rate deterministically lands some kills.
    repeats = max(1, -(-8 // len(grid)))
    pool = CrossbarPool(
        shards=2,
        tile_elements=tile,
        seed=seed,
        chaos_policy=ChaosPolicy(
            transient_rate=0.0, latency_rate=0.0, corrupt_rate=0.0,
            worker_kill_rate=rate, seed=seed,
        ),
        runtime="subprocess",
    )
    statuses: dict[str, int] = {}
    lost = 0
    with pool:
        client = Client(pool, tenant="chaos-kill")
        ids = [
            client.submit(workload, relax_bits=level, dataset_bytes=1 << 20)
            for _ in range(repeats)
            for workload, level in grid
        ]
        for request_id in ids:
            try:
                result = client.result(request_id, timeout=120.0)
                statuses[result.status] = statuses.get(result.status, 0) + 1
            except ServingError:
                lost += 1
        lifecycle = pool.runtime.lifecycle()
        kills = sum(
            shard.chaos.injected.get("worker_kill", 0)
            for shard in pool.shards
            if shard.chaos is not None
        )
    print(
        f"worker-kill arm: {len(ids)} request(s) through a 2-shard "
        f"subprocess pool at kill rate {rate:.0%}"
    )
    print(
        f"  kills injected={kills}  workers spawned={lifecycle['spawned']} "
        f"deaths={lifecycle['deaths']} respawns={lifecycle['respawns']} "
        f"re-driven={lifecycle['redriven']}"
    )
    print(f"  terminal statuses: {dict(sorted(statuses.items()))}")
    if lost:
        print(f"LOST REQUESTS: {lost} — crash recovery failed its "
              "completion guarantee")
        return 1
    print(f"  all {len(ids)} requests terminal exactly once — zero lost")
    return 0


def _chaos_server_kill_arm(
    args: argparse.Namespace,
    workloads: list,
    levels: list,
    tile: int,
    seed: int,
) -> int:
    """Whole-server chaos: SIGKILL a journaled serving process mid-load.

    Boots ``repro serve --journal`` as a real subprocess, submits keyed
    requests, SIGKILLs it with requests in flight, restarts it on the
    same journal and polls every acknowledged id to a terminal result.
    The exactly-once ledger must balance: zero acknowledged requests
    lost, zero duplicate terminal records, and every ``ok`` point
    bit-identical to direct in-process pricing.
    """
    from repro.serving.crashtest import run_server_kill_test

    summary = run_server_kill_test(
        requests=args.server_kill_requests,
        tile=tile,
        seed=seed,
        workloads=tuple(workloads),
        levels=tuple(levels),
    )
    recovery = summary["recovery"]
    print(
        f"server-kill arm: {summary['acknowledged']}/{summary['submitted']} "
        f"request(s) acknowledged, {summary['completed_before_kill']} "
        f"complete at SIGKILL"
    )
    print(
        f"  recovery: restored={recovery.get('restored', 0)} "
        f"replayed={recovery.get('replayed', 0)} "
        f"dropped={recovery.get('dropped', 0)} "
        f"truncated={recovery.get('truncated', 0)} bytes torn"
    )
    print(f"  terminal statuses: {dict(sorted(summary['statuses'].items()))}")
    failed = False
    if summary["lost"]:
        print(f"LOST REQUESTS: {summary['lost']} — the journal failed its "
              "durability guarantee")
        failed = True
    if summary["duplicate_completions"]:
        print(f"DUPLICATE COMPLETIONS: {summary['duplicate_completions']} — "
              "the exactly-once tripwire should have fired")
        failed = True
    if summary["mismatched"]:
        print("REPLAY MISMATCHES (served point != direct pricing):")
        for line in summary["mismatched"]:
            print(f"  {line}")
        failed = True
    if failed:
        return 1
    print(
        f"  all {summary['acknowledged']} acknowledged requests terminal "
        "exactly once after SIGKILL+restart — zero lost, replay "
        "bit-identical"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run one workload's grid fully instrumented; dump/serve the scrape."""
    from repro.observability import (
        JsonlSnapshotSink,
        MetricsRegistry,
        default_profiler,
        set_default_registry,
        to_prometheus,
    )
    from repro.runtime.campaign import run_campaign
    from repro.runtime.supervisor import RetryPolicy, Supervisor

    levels = [0] if args.quick else list(args.levels)
    tile = (1 << 8) if args.quick else args.tile

    # A fresh registry per invocation: the scrape describes this run, not
    # whatever executed earlier in the process.
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    profiler = default_profiler()
    trace = None
    try:
        if args.trace:
            from repro.runtime.trace import ChromeTraceWriter

            trace = profiler.trace = ChromeTraceWriter(args.trace)
        supervisor = Supervisor(
            retry=RetryPolicy(
                max_attempts=args.retries, jitter_seed=args.seed
            ),
        )
        result = run_campaign(
            [args.workload], levels,
            tile_elements=tile,
            supervisor=supervisor,
            seed=args.seed,
        )
        text = to_prometheus(registry)
        if args.jsonl:
            with JsonlSnapshotSink(args.jsonl) as sink:
                sink.write(
                    registry,
                    workload=args.workload,
                    points=len(result.points),
                )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"metrics written to {args.output}")
        else:
            print(text, end="")
        if args.serve is not None:
            _serve_metrics(registry, args.serve)
    finally:
        if trace is not None:
            profiler.trace = None
            trace.close()
        set_default_registry(previous)
    return 0


def _serve_metrics(registry, port: int) -> None:  # pragma: no cover - manual
    """Serve the live scrape over HTTP until interrupted."""
    import re

    from repro.observability import to_prometheus
    from repro.serving.http import JsonHttpServer

    def scrape(_match, _body):
        return 200, to_prometheus(registry)

    routes = [("GET", re.compile(r"/(metrics/?)?$"), scrape)]
    # No ``with server:`` here — that starts a *background* serve loop,
    # and running a second, foreground one on the same listener makes
    # shutdown racy (the first loop to exit resets socketserver's
    # shutdown flag before the other sees it).
    server = JsonHttpServer(routes, host="localhost", port=port)
    try:
        print(f"serving metrics at {server.url}/metrics (Ctrl-C to stop)")
        server.serve_forever(install_signal_handlers=True)
    finally:
        server.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded serving frontend (or its --quick self-test)."""
    from repro.serving.frontend import build_server, quick_selftest
    from repro.serving.pool import CrossbarPool
    from repro.serving.scheduler import ServingConfig

    if args.quick:
        journal_dir = None
        if args.journal is not None:
            import tempfile

            journal_dir = args.journal or tempfile.mkdtemp(
                prefix="repro-journal-"
            )
            os.makedirs(journal_dir, exist_ok=True)
        return quick_selftest(runtime=args.runtime, journal_dir=journal_dir)
    journal_path = None
    if args.journal is not None:
        if not args.journal:
            print("error: --journal requires DIR outside --quick")
            return 2
        os.makedirs(args.journal, exist_ok=True)
        journal_path = os.path.join(args.journal, "requests.jsonl")
    shards = args.shards
    apim_config = None
    fleet_document = None
    if args.fleet_config is not None:
        from repro.core.config import default_config
        from repro.fleet import load_fleet_config

        fleet_document = load_fleet_config(args.fleet_config)
        point = fleet_document["pool"]
        shards = point["shard_count"]
        base = default_config()
        apim_config = base.with_overrides(
            block_rows=point["block_rows"],
            e_interconnect=(
                base.e_interconnect * point["interconnect_scale"]
            ),
        )
    config = ServingConfig(queue_capacity=args.queue_capacity)
    pool = CrossbarPool(
        shards=shards,
        serving_config=config,
        apim_config=apim_config,
        tile_elements=args.tile,
        seed=args.seed,
        runtime=args.runtime,
        journal=journal_path,
    )
    pipeline = None
    if args.telemetry:
        from repro.observability.timeseries import TelemetryPipeline

        pipeline = TelemetryPipeline.for_pool(
            pool, interval_s=args.telemetry_interval
        )
        for rule in _default_telemetry_rules(pool, args.telemetry_interval):
            pipeline.add_rule(rule)
        if args.telemetry_jsonl:
            from repro.observability.export import JsonlSnapshotSink

            pipeline.attach_sink(
                JsonlSnapshotSink(
                    args.telemetry_jsonl, max_bytes=16 << 20, keep=3
                )
            )
        print(
            f"telemetry: sampling every {args.telemetry_interval:g}s "
            f"({len(pipeline.alert_rules)} alert rule(s); GET /query, "
            "GET /alerts)",
            flush=True,
        )
    if fleet_document is not None:
        from repro.fleet import Autoscaler, FleetPolicy

        verdict_source = None
        if pipeline is not None:
            from repro.observability.timeseries import SlopeVerdictSource

            verdict_source = SlopeVerdictSource(pipeline)
        policy_spec = fleet_document.get("autoscaler") or {}
        Autoscaler(
            pool,
            policy=FleetPolicy(**policy_spec) if policy_spec else None,
            tenant_priorities={
                name: spec["priority"]
                for name, spec in fleet_document.get("tenants", {}).items()
            },
            verdict_source=verdict_source,
        )
        point = fleet_document["pool"]
        print(
            f"fleet config: {args.fleet_config} -> block_rows="
            f"{point['block_rows']} interconnect x"
            f"{point['interconnect_scale']:g} shards={shards}, "
            "autoscaler attached",
            flush=True,
        )

    def graceful_drain():  # pragma: no cover - signal path
        # SIGTERM/SIGINT: close admission first (POST /submit answers 503
        # with Retry-After), flush everything already accepted, and only
        # then let the listener shut down.  The pool context exit joins
        # (or terminates) the workers afterwards.
        pool.begin_drain()
        print("drain: admission closed; flushing in-flight requests")
        if pool.wait_drained(timeout=args.drain_timeout):
            print("drain: all accepted requests terminal")
        else:
            print(f"drain: timeout after {args.drain_timeout:.0f}s; "
                  "forcing shutdown")

    with pool:
        if pipeline is not None:
            pipeline.start()
        if journal_path is not None:
            recovery = pool.recovery
            print(
                f"journal: {journal_path} (restored "
                f"{recovery['restored']} completed, replayed "
                f"{recovery['replayed']} in-flight, dropped "
                f"{recovery['truncated']} torn record(s))",
                flush=True,
            )
        # Foreground serving: do NOT enter ``with server:`` — that spawns
        # a background serve loop, and two loops on one listener race on
        # shutdown (socketserver's exiting loop resets the shutdown flag
        # before the survivor checks it, which hangs the process).
        server = build_server(pool, host=args.host, port=args.port)
        try:
            # flush: the crash-test driver parses this line from a pipe
            # to learn the ephemeral port before any request is sent.
            print(
                f"serving {shards} shard(s) [{args.runtime} runtime] "
                f"at {server.url} (POST /submit, GET /result/<id>, "
                "/healthz, /stats, /metrics; Ctrl-C to stop)",
                flush=True,
            )
            server.serve_forever(
                install_signal_handlers=True, on_signal=graceful_drain
            )
        finally:
            server.close()
            if pipeline is not None:
                pipeline.stop()
    return 0


def _default_telemetry_rules(pool, interval_s: float):
    """The out-of-the-box serving rule set for ``--telemetry``.

    One recording rule (the headline ``p99_slope_s_per_s``) plus two
    alerts: the sampled end-to-end p99 crossing the SLO latency target,
    and a sustained positive p99 slope (the same leading signal the
    fleet's :class:`SlopeVerdictSource` consumes).
    """
    from repro.observability.timeseries import AlertRule, RecordingRule

    p99 = 'repro_latency_quantile_seconds{layer="e2e",quantile="p99"}'
    slope_window = max(10.0 * interval_s, 30.0)
    target = pool.slo.policy.latency_target_s
    return [
        RecordingRule(
            "p99_slope_s_per_s", f"slope({p99}, {slope_window:g})"
        ),
        AlertRule(
            "e2e_p99_above_target",
            f"value({p99})",
            threshold=target,
            for_s=2.0 * interval_s,
            severity="page",
        ),
        AlertRule(
            "e2e_p99_rising",
            f"slope({p99}, {slope_window:g})",
            threshold=0.05 * target / slope_window,
            for_s=3.0 * interval_s,
            severity="warn",
        ),
    ]


def _render_top(stats: dict, alerts: dict | None, process: dict) -> str:
    """One ``repro top`` frame as plain text."""
    shards = stats.get("shards") or []
    healthy = sum(1 for s in shards if s.get("healthy"))
    verdict = (stats.get("slo") or {}).get("verdict", "?")
    firing = (alerts or {}).get("firing", [])
    lines = [
        f"repro top — {len(shards)} shard(s), {healthy} healthy · "
        f"verdict={verdict} · "
        + (f"FIRING: {', '.join(firing)}" if firing else "alerts: none firing")
    ]
    if process:
        rss = process.get("repro_process_rss_bytes")
        lines.append(
            "process: "
            f"rss={format_si(rss, 'B') if rss is not None else '?'} "
            f"cpu={process.get('repro_process_cpu_user_seconds', 0):.1f}s/"
            f"{process.get('repro_process_cpu_system_seconds', 0):.1f}s "
            f"threads={process.get('repro_process_threads', 0):.0f} "
            f"fds={process.get('repro_process_open_fds', 0):.0f}"
        )
    lines.append(
        f"  {'shard':<8} {'healthy':>7} {'served':>8} {'failures':>8} "
        f"{'in_flight':>9} {'busy_s':>10}"
    )
    for shard in shards:
        lines.append(
            f"  {shard['index']:<8} {str(bool(shard['healthy'])):>7} "
            f"{shard['served']:>8} {shard['failures']:>8} "
            f"{shard['in_flight']:>9} {shard['busy_s']:>10.3f}"
        )
    tenants = stats.get("tenants") or {}
    if tenants:
        lines.append(f"  {'tenant':<16} {'total':>8} {'ok':>8} {'rate/s':>10}")
        for name in sorted(tenants):
            entry = tenants[name]
            rate = entry.get("rate_per_s")
            lines.append(
                f"  {name:<16} {entry['total']:>8.0f} "
                f"{entry['by_status'].get('ok', 0):>8.0f} "
                f"{'-' if rate is None else f'{rate:.2f}':>10}"
            )
    tails = stats.get("latency") or {}
    if tails:
        lines.append(
            f"  {'layer':<12} {'count':>6} {'p50':>10} {'p95':>10} "
            f"{'p99':>10} {'p999':>10}"
        )
        for layer, summary in tails.items():
            lines.append(
                f"  {layer:<12} {summary['count']:>6} "
                f"{format_si(summary['p50'], 's'):>10} "
                f"{format_si(summary['p95'], 's'):>10} "
                f"{format_si(summary['p99'], 's'):>10} "
                f"{format_si(summary['p999'], 's'):>10}"
            )
    if alerts is not None:
        lines.append(
            f"  {'alert':<24} {'state':>9} {'severity':>8} {'value':>12} "
            f"{'threshold':>12}"
        )
        for rule in alerts.get("rules", []):
            value = rule.get("value")
            shown = "-" if value is None else f"{value:.4g}"
            threshold = f"{rule['op']}{rule['threshold']:.4g}"
            lines.append(
                f"  {rule['name']:<24} {rule['state']:>9} "
                f"{rule['severity']:>8} {shown:>12} {threshold:>12}"
            )
    return "\n".join(lines)


def _top_process_values(pipeline) -> dict:
    """Newest ``repro_process_*`` samples out of a local pipeline."""
    process = {}
    for key in pipeline.store.keys():
        if key.startswith("repro_process_"):
            latest = pipeline.store.get(key).latest()
            if latest is not None:
                process[key] = latest[1]
    return process


def _cmd_top(args: argparse.Namespace) -> int:
    """The fleet dashboard (one-shot, polling, or live-URL mode)."""
    frames = 1 if args.once else args.frames

    if args.url is not None:
        from repro.serving.frontend import _http_json

        base = args.url.rstrip("/")
        rendered = 0
        while frames is None or rendered < frames:
            if rendered:
                time.sleep(args.interval)
            status, stats = _http_json(f"{base}/stats")
            if status != 200:
                print(f"error: GET {base}/stats -> {status} {stats}")
                return 1
            status, alerts = _http_json(f"{base}/alerts")
            if status != 200:
                alerts = None  # telemetry not enabled on that server
            process = {}
            if (stats.get("telemetry") or {}).get("ticks"):
                for name in (
                    "repro_process_rss_bytes",
                    "repro_process_cpu_user_seconds",
                    "repro_process_cpu_system_seconds",
                    "repro_process_threads",
                    "repro_process_open_fds",
                ):
                    status, payload = _http_json(
                        f"{base}/query?series={name}&fn=value"
                    )
                    if status == 200 and payload.get("series"):
                        derived = payload["series"][0].get("derived") or {}
                        if derived.get("value") is not None:
                            process[name] = derived["value"]
            print(_render_top(stats, alerts, process))
            rendered += 1
        return 0

    # In-process demo: a real pool with telemetry attached, driven by a
    # short burst per frame.  Slow traffic is injected straight into the
    # latency analytics so the p99 alert demonstrably fires.
    from repro.observability.timeseries import TelemetryPipeline
    from repro.serving.pool import Client, CrossbarPool

    pool = CrossbarPool(shards=2, tile_elements=1 << 9, seed=args.seed)
    pipeline = TelemetryPipeline.for_pool(pool, interval_s=0.05)
    for rule in _default_telemetry_rules(pool, pipeline.interval_s):
        pipeline.add_rule(rule)
    target = pool.slo.policy.latency_target_s
    with pool:
        client = Client(pool, tenant="demo")
        rendered = 0
        while frames is None or rendered < frames:
            if rendered:
                time.sleep(args.interval)
            for workload in ("Sobel", "Robert"):
                client.call(workload, relax_bits=8, dataset_bytes=1 << 20)
            # The injected slow traffic: e2e observations far past the
            # SLO target, so /alerts shows a real firing rule.
            for _ in range(4):
                pool.latency.observe("e2e", 2.0 * target)
            for _ in range(4):
                pipeline.tick()
                time.sleep(pipeline.interval_s)
            print(
                _render_top(
                    pool.stats(),
                    pipeline.alerts(),
                    _top_process_values(pipeline),
                )
            )
            rendered += 1
    firing = pipeline.alerts()["firing"]
    if args.once and "e2e_p99_above_target" not in firing:
        print("TOP SMOKE FAIL: injected slow traffic fired no alert")
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Offline DSE -> Pareto frontier -> fleet config (or the smoke)."""
    if args.quick:
        from repro.serving.frontend import fleet_quick_selftest

        return fleet_quick_selftest()
    from repro.fleet import run_dse, write_fleet_config

    tenants = None
    if args.tenant:
        tenants = {}
        for spec in args.tenant:
            try:
                name, priority, slo_s = spec.split(":")
                tenants[name] = {
                    "priority": int(priority),
                    "latency_slo_s": float(slo_s),
                }
            except ValueError:
                print(f"error: --tenant wants NAME:PRIO:SLO_S, got {spec!r}")
                return 2
    result = run_dse(
        block_rows=tuple(args.block_rows),
        interconnect_scales=tuple(args.interconnect_scales),
        shard_counts=tuple(args.shard_counts),
        workloads=tuple(args.workloads),
        tenants=tenants,
        offered_rps=args.offered_rps,
        requests_per_point=args.requests_per_point,
        tile_elements=args.tile,
        seed=args.seed,
    )
    print(
        f"fleet DSE: {len(result.evaluations)} design point(s) at "
        f"{args.offered_rps:g} req/s offered, frontier has "
        f"{len(result.frontier)} non-dominated point(s)"
    )
    print(f"  {'design point':<22} {'latency':>10} {'cost':>10} {'util':>6}")
    for ev in result.frontier:
        print(
            f"  {ev['key']:<22} {format_si(ev['latency_s'], 's'):>10} "
            f"{ev['cost_w']:>9.3g}W {ev['utilisation']:>5.0%}"
        )
    for name, sel in sorted(result.selection.items()):
        slo = (
            "meets SLO"
            if sel["meets_slo"]
            else "MISSES SLO (fastest point chosen)"
        )
        print(
            f"  tenant {name}: prio={sel['priority']} "
            f"slo={sel['latency_slo_s']:g}s -> {sel['key']} ({slo})"
        )
    write_fleet_config(args.output, result)
    print(f"fleet config written to {args.output}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Serve a burst through a pool; report tails and burn-rate verdicts."""
    from repro.observability.slo import SLOPolicy, evaluate_points
    from repro.serving.pool import Client, CrossbarPool

    workloads = ["Robert"] if args.quick else list(args.workloads)
    levels = [0, 16] if args.quick else list(args.levels)
    tile = (1 << 9) if args.quick else args.tile
    repeat = 2 if args.quick else args.repeat
    policy = SLOPolicy(
        latency_target_s=args.target,
        error_budget=args.budget,
        min_events=1,  # the burst is the whole population; always judge it
    )
    chaos = None
    if args.chaos_rate:
        from repro.runtime.chaos import ChaosPolicy

        chaos = ChaosPolicy(
            transient_rate=args.chaos_rate,
            latency_rate=0.0,
            corrupt_rate=0.0,
            seed=args.seed,
        )
    pool = CrossbarPool(
        shards=args.shards,
        tile_elements=tile,
        seed=args.seed,
        chaos_policy=chaos,
        slo_policy=policy,
    )
    results = []
    with pool:
        client = Client(pool, tenant="slo")
        for _ in range(repeat):
            for workload in workloads:
                for level in levels:
                    results.append(
                        client.call(
                            workload, relax_bits=level,
                            dataset_bytes=1 << 20,
                        )
                    )
        live = pool.slo.evaluate()
        tails = pool.latency.summary()
        health = pool.healthz()
    offline = evaluate_points(
        [
            {
                "status": r.status,
                "apim_time_s": r.queue_wait_s + r.service_s,
            }
            for r in results
        ],
        policy,
    )
    print(
        f"slo: {len(results)} request(s), target {policy.latency_target_s}s"
        f" end-to-end, budget {policy.error_budget:.2%}"
    )
    print(
        f"  burn rates   : short({live['short_window_s']:.0f}s)="
        f"{live['short_burn']:.2f}  long({live['long_window_s']:.0f}s)="
        f"{live['long_burn']:.2f}  verdict={live['verdict']}"
    )
    print(
        f"  offline grid : bad={offline['bad']}/{offline['total']} "
        f"burn={offline['burn_rate']:.2f} verdict={offline['verdict']}"
        + (f" reasons={offline['by_reason']}" if offline["by_reason"] else "")
    )
    print(f"  healthz      : {health['status']}")
    print(f"  {'layer':<12} {'count':>6} {'p50':>10} {'p95':>10} "
          f"{'p99':>10} {'p999':>10}")
    for layer, summary in tails.items():
        print(
            f"  {layer:<12} {summary['count']:>6} "
            f"{format_si(summary['p50'], 's'):>10} "
            f"{format_si(summary['p95'], 's'):>10} "
            f"{format_si(summary['p99'], 's'):>10} "
            f"{format_si(summary['p999'], 's'):>10}"
        )
    return 1 if live["verdict"] == "fast_burn" else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Pretty-print a trace timeline (live demo or spill file)."""
    from repro.observability.tracing import format_timeline, load_spilled

    if args.file is not None:
        records = load_spilled(args.file)
        if args.trace_id is None:
            print(f"{args.file}: {len(records)} spilled trace(s)")
            for record in records:
                print(f"  {record.trace_id}  events={len(record.events)}")
            return 0
        for record in records:
            if record.trace_id == args.trace_id:
                print(format_timeline(record))
                return 0
        print(f"trace {args.trace_id!r} not found in {args.file}")
        return 1
    if not args.quick:
        print(
            "repro trace needs --quick (in-process demo) or "
            "--file SPILL.jsonl; live servers expose GET /trace/<id>"
        )
        return 2
    from repro.runtime.chaos import ChaosPolicy
    from repro.serving.pool import Client, CrossbarPool

    pool = CrossbarPool(
        shards=1,
        tile_elements=1 << 9,
        seed=args.seed,
        chaos_policy=ChaosPolicy(
            transient_rate=0.1, latency_rate=0.0, corrupt_rate=0.0,
            seed=args.seed,
        ),
    )
    with pool:
        client = Client(pool, tenant="demo")
        result = client.call("Robert", relax_bits=8, dataset_bytes=1 << 20)
        record = pool.traces.get(result.trace_id)
    if record is None:
        print(f"trace {result.trace_id!r} missing from the store")
        return 1
    print(format_timeline(record))
    layers = {event.layer for event in record.events}
    needed = {"frontend", "scheduler", "pool", "supervisor", "executor"}
    missing = needed - layers
    if missing:
        print(f"TIMELINE INCOMPLETE: missing layers {sorted(missing)}")
        return 1
    print(
        f"trace ok: {len(record.events)} events across "
        f"{len(layers)} layers, terminal status {result.status!r}"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Similarity-search demo (recall ladder) or served self-test."""
    if args.quick:
        from repro.serving.frontend import search_quick_selftest

        return search_quick_selftest(
            shards=args.shards, runtime=args.runtime
        )
    from repro.search import (
        MagicHammingKernel,
        build_planted_index,
        recall_at_k,
    )

    kernel = MagicHammingKernel(word_bits=16)
    kernel.self_test(np.random.default_rng(args.seed))
    cost = kernel.measure_word_cost()
    index, query_bits, _ = build_planted_index(
        entries=args.entries,
        dim=args.dim,
        queries=args.queries,
        seed=args.seed,
    )
    exact = [
        index.top_k(query_bits[i], args.k, relax_bits=0)
        for i in range(len(query_bits))
    ]
    print(
        f"search: {args.entries} codewords x {args.dim} bits, "
        f"{args.queries} quer{'y' if args.queries == 1 else 'ies'}, "
        f"top-{args.k}"
    )
    print(
        f"MAGIC Hamming kernel verified (16-bit witness): "
        f"{cost.nor_ops:.0f} NORs, {cost.cycles:.0f} cycles per word"
    )
    print(f"{'relax':>6} {'shift':>6} {'recall@' + str(args.k):>10}")
    for level in args.levels:
        recalls = [
            recall_at_k(
                np.array(exact[i].ids),
                np.array(
                    index.top_k(query_bits[i], args.k, relax_bits=level).ids
                ),
            )
            for i in range(len(query_bits))
        ]
        top = index.top_k(query_bits[0], args.k, relax_bits=level)
        print(
            f"{level:>6} {top.shift:>6} {float(np.mean(recalls)):>10.3f}"
        )
    return 0


def _cmd_workloads() -> str:
    lines = ["paper workloads (Table 1):"]
    for w in all_workloads():
        lines.append(f"  {w.name:<12} kind={w.kind}")
    lines.append("extension workloads:")
    for w in extension_workloads():
        lines.append(f"  {w.name:<12} kind={w.kind}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fig4":
        print(render_figure4(run_figure4(samples=args.samples)))
    elif args.command == "fig5":
        print(render_figure5(run_figure5(tile_elements=args.tile)))
    elif args.command == "fig6":
        print(render_figure6(run_figure6()))
    elif args.command == "table1":
        print(render_table1(run_table1(tile_elements=args.tile)))
    elif args.command == "adaptive":
        print(render_adaptive(run_adaptive(tile_elements=args.tile)))
    elif args.command == "report":
        report = generate_report(samples=args.samples, tile_elements=args.tile)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"report written to {args.output}")
        else:
            print(report)
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "campaign":
        from repro.runtime.campaign import run_campaign

        supervisor = None
        if args.retries is not None or args.deadline is not None:
            from repro.runtime.supervisor import RetryPolicy, Supervisor

            supervisor = Supervisor(
                retry=RetryPolicy(
                    max_attempts=args.retries or 3, jitter_seed=args.seed
                ),
                deadline_s=args.deadline,
            )
        result = run_campaign(
            list(args.workloads), list(args.levels),
            tile_elements=args.tile,
            supervisor=supervisor,
            checkpoint=args.checkpoint,
            resume=args.resume,
            seed=args.seed,
        )
        text = result.to_csv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"campaign written to {args.output} "
                  f"({len(result.points)} points)")
        else:
            print(text, end="")
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "metrics":
        return _cmd_metrics(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "top":
        return _cmd_top(args)
    elif args.command == "fleet":
        return _cmd_fleet(args)
    elif args.command == "slo":
        return _cmd_slo(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "search":
        return _cmd_search(args)
    elif args.command == "faults":
        from repro.resilience import campaign_table, run_fault_campaign

        points = run_fault_campaign(
            list(args.rates),
            list(args.spare_fractions),
            trials=args.trials,
            word_bits=args.bits,
            ops_per_trial=args.ops,
            seed=args.seed,
        )
        print(campaign_table(points))
    elif args.command == "workloads":
        print(_cmd_workloads())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
