"""Domain instrumentation: the metric families the runtime layers emit.

Every hot layer of the stack calls one small helper here instead of
touching the registry directly, which buys three things: the metric
*names* live in one place (the naming conventions are documented in
``docs/observability.md``), the per-call cost is a cached attribute lookup
plus a counter add, and disabling observability turns every helper into an
early-return — the property the overhead benchmark certifies.

Family handles are built once per registry and cached on it, so swapping
the default registry (tests, per-CLI-run isolation) transparently re-binds
all instrumentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observability.registry import (
    DEFAULT_ENERGY_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    active_registry,
)

if TYPE_CHECKING:
    from repro.runtime.executor import ExecutionResult

__all__ = [
    "record_backoff",
    "record_bist_scan",
    "record_breaker_transition",
    "record_campaign_point",
    "record_checkpoint_append",
    "record_checkpoint_recovery",
    "record_controller_command",
    "record_execution",
    "record_admission",
    "record_fleet_decision",
    "record_fleet_scale_event",
    "record_fleet_shed",
    "set_fleet_shards",
    "record_idempotency",
    "record_journal_append",
    "record_journal_recovery",
    "record_result_eviction",
    "record_queue_wait",
    "record_reroute",
    "record_request_duration",
    "record_residue_mismatch",
    "record_search_recall",
    "record_search_request",
    "record_search_topk",
    "record_resilience_degraded",
    "record_resilience_repair",
    "record_resilience_retry",
    "record_served",
    "record_shard_health",
    "record_supervision_event",
    "record_telemetry_tick",
    "record_worker_death",
    "record_worker_redrive",
    "record_worker_respawn",
    "record_worker_spawn",
    "sample_process_resources",
    "set_build_info",
    "set_codebook_size",
    "set_queue_depth",
    "set_telemetry_alert_states",
]

#: Rows a command activates (read or write wordline pulses), per opcode.
#: MAJ drives three wordlines together and writes one back; CPY reads the
#: source row and writes the destination; NOR/INIT/TICK act on cells or
#: the clock, not whole rows.
_ROW_ACTIVATIONS = {
    "WR": 1, "RD": 1, "CLR": 1, "CPY": 2, "MAJ": 4, "RETIRE": 2,
}


class _Instruments:
    """All family handles, resolved once against one registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        # -- executor --------------------------------------------------------
        self.executor_runs = registry.counter(
            "repro_executor_runs_total",
            "Workload executions finished, by terminal status.",
            ("workload", "status"),
        )
        self.executor_ops = registry.counter(
            "repro_executor_ops_total",
            "Arithmetic operations executed on the APIM engine.",
            ("workload", "op"),
        )
        self.executor_cycles = registry.counter(
            "repro_executor_cycles_total",
            "Simulated lane-cycles consumed by workload executions.",
            ("workload",),
        )
        self.executor_energy = registry.counter(
            "repro_executor_energy_joules_total",
            "Simulated energy consumed by workload executions.",
            ("workload",),
        )
        self.executor_faults = registry.counter(
            "repro_executor_faults_total",
            "Fault-handling activity surfaced by executions.",
            ("workload", "kind"),
        )
        self.executor_latency = registry.histogram(
            "repro_executor_time_seconds",
            "Simulated tile latency per execution.",
            ("workload",),
            DEFAULT_LATENCY_BUCKETS,
        )
        self.executor_energy_hist = registry.histogram(
            "repro_executor_energy_joules",
            "Simulated tile energy per execution.",
            ("workload",),
            DEFAULT_ENERGY_BUCKETS,
        )
        # -- supervisor ------------------------------------------------------
        self.supervisor_events = registry.counter(
            "repro_supervisor_events_total",
            "Supervision lifecycle events (attempt/retry/success/failure).",
            ("kind",),
        )
        self.supervisor_retries = registry.counter(
            "repro_supervisor_retries_total",
            "Supervised attempts that were retried after a retryable error.",
        )
        self.supervisor_backoff = registry.histogram(
            "repro_supervisor_backoff_seconds",
            "Backoff delays slept between supervised attempts.",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        self.breaker_transitions = registry.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            ("state",),
        )
        # -- campaign / checkpoint -------------------------------------------
        self.campaign_points = registry.counter(
            "repro_campaign_points_total",
            "Campaign grid points finished, by terminal status.",
            ("status",),
        )
        self.campaign_resumed = registry.counter(
            "repro_campaign_points_resumed_total",
            "Grid points skipped because the journal proved them complete.",
        )
        self.checkpoint_appends = registry.counter(
            "repro_checkpoint_appends_total",
            "Records appended to the write-ahead journal, by type.",
            ("type",),
        )
        self.checkpoint_fsyncs = registry.counter(
            "repro_checkpoint_fsyncs_total",
            "Journal fsync barriers paid (one per append).",
        )
        self.checkpoint_recovered = registry.counter(
            "repro_checkpoint_recovered_total",
            "Torn-tail records dropped while recovering a journal.",
        )
        # -- resilience ------------------------------------------------------
        self.bist_scans = registry.counter(
            "repro_resilience_bist_scans_total",
            "March-test BIST scans executed.",
        )
        self.stuck_cells = registry.counter(
            "repro_resilience_stuck_cells_total",
            "Stuck cells condemned by BIST scans.",
        )
        self.residue_mismatches = registry.counter(
            "repro_resilience_residue_mismatches_total",
            "Elements flagged by the online mod-3 residue check.",
        )
        self.resilience_repairs = registry.counter(
            "repro_resilience_repairs_total",
            "Rows moved off faulty cells, by mechanism.",
            ("mechanism",),
        )
        self.resilience_retries = registry.counter(
            "repro_resilience_retries_total",
            "Element re-execution rounds run by the resilience loop.",
        )
        self.resilience_degraded = registry.counter(
            "repro_resilience_degraded_total",
            "Elements kept corrupted after the repair budget ran out.",
        )
        # -- serving ---------------------------------------------------------
        self.serving_admission = registry.counter(
            "repro_serving_admission_total",
            "Admission-control outcomes (admitted / rejected_*).",
            ("outcome",),
        )
        self.serving_queue_depth = registry.gauge(
            "repro_serving_queue_depth",
            "Requests currently queued, per priority class.",
            ("priority",),
        )
        self.serving_queue_wait = registry.histogram(
            "repro_serving_queue_wait_seconds",
            "Wall-clock wait between admission and dispatch.",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        self.serving_requests = registry.counter(
            "repro_serving_requests_total",
            "Requests finished by the pool, by tenant and terminal status.",
            ("tenant", "status"),
        )
        self.serving_shard_requests = registry.counter(
            "repro_serving_shard_requests_total",
            "Requests executed per shard, by terminal status.",
            ("shard", "status"),
        )
        self.serving_shard_busy = registry.counter(
            "repro_serving_shard_busy_seconds_total",
            "Wall-clock seconds each shard spent executing requests.",
            ("shard",),
        )
        self.serving_shard_health = registry.gauge(
            "repro_serving_shard_healthy",
            "1 while the shard's breaker admits traffic, 0 while open.",
            ("shard",),
        )
        self.serving_reroutes = registry.counter(
            "repro_serving_reroutes_total",
            "Requests pushed back to the queue off an unhealthy shard.",
        )
        self.worker_spawns = registry.counter(
            "repro_serving_worker_spawns_total",
            "Shard worker processes spawned (initial starts and respawns).",
            ("shard",),
        )
        self.worker_deaths = registry.counter(
            "repro_serving_worker_deaths_total",
            "Shard worker processes that died, by detected reason.",
            ("shard", "reason"),
        )
        self.worker_respawns = registry.counter(
            "repro_serving_worker_respawns_total",
            "Shard worker processes restarted after a death.",
            ("shard",),
        )
        self.worker_redrives = registry.counter(
            "repro_serving_worker_redrives_total",
            "In-flight requests re-driven after their worker died.",
            ("shard",),
        )
        self.journal_appends = registry.counter(
            "repro_serving_journal_appends_total",
            "Records appended to the serving request journal, by type.",
            ("type",),
        )
        self.journal_recovered = registry.counter(
            "repro_serving_journal_recovered_total",
            "Journal recovery outcomes at startup: completed results "
            "restored, in-flight requests replayed, torn records dropped, "
            "duplicate terminal records skipped.",
            ("kind",),
        )
        self.idempotency_outcomes = registry.counter(
            "repro_serving_idempotency_total",
            "Idempotency-key submission outcomes (hit / conflict).",
            ("outcome",),
        )
        self.result_evictions = registry.counter(
            "repro_serving_result_evictions_total",
            "Results evicted from the ResultStore, by reason.",
            ("reason",),
        )
        # -- fleet control plane ---------------------------------------------
        self.fleet_shards = registry.gauge(
            "repro_fleet_shards",
            "Shards currently serving traffic in the pool.",
        )
        self.fleet_scale_events = registry.counter(
            "repro_fleet_scale_events_total",
            "Live-resize decisions executed, by direction (grow/shrink).",
            ("direction",),
        )
        self.fleet_shed_tenants = registry.counter(
            "repro_fleet_shed_tenants_total",
            "Tenants shed under fast burn (lowest priority first).",
        )
        self.fleet_decision_seconds = registry.histogram(
            "repro_fleet_decision_seconds",
            "Wall-clock cost of one autoscaler decision (evaluate + act).",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        # -- similarity search -----------------------------------------------
        self.search_requests = registry.counter(
            "repro_search_requests_total",
            "`/search` retrievals executed, by terminal status.",
            ("status",),
        )
        self.search_codebook_entries = registry.gauge(
            "repro_search_codebook_entries",
            "Codewords resident in the serving search index.",
        )
        self.search_topk = registry.histogram(
            "repro_search_topk_seconds",
            "Top-k evaluation latency (distance sweep + ranked reduce).",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        self.search_recall = registry.gauge(
            "repro_search_recall",
            "Most recent recall@k measured against the exact ranking, by "
            "relax rung.",
            ("relax_bits",),
        )
        self.request_duration = registry.histogram(
            "repro_request_duration_seconds",
            "End-to-end request latency (admission to completion); buckets "
            "carry trace-id exemplars.",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        self.build_info = registry.gauge(
            "repro_build_info",
            "Constant 1; labels identify the build serving this scrape.",
            ("version", "python", "config_hash"),
        )
        # -- process health ---------------------------------------------------
        self.process_rss = registry.gauge(
            "repro_process_rss_bytes",
            "Resident set size of this process.",
        )
        self.process_cpu_user = registry.gauge(
            "repro_process_cpu_user_seconds",
            "User-mode CPU seconds consumed by this process.",
        )
        self.process_cpu_system = registry.gauge(
            "repro_process_cpu_system_seconds",
            "Kernel-mode CPU seconds consumed by this process.",
        )
        self.process_threads = registry.gauge(
            "repro_process_threads",
            "Live Python threads in this process.",
        )
        self.process_open_fds = registry.gauge(
            "repro_process_open_fds",
            "File descriptors currently open in this process.",
        )
        # -- telemetry pipeline (self-observation) -----------------------------
        self.telemetry_samples = registry.counter(
            "repro_telemetry_samples_total",
            "Samples ingested into the telemetry time-series store.",
        )
        self.telemetry_alerts = registry.gauge(
            "repro_telemetry_alerts",
            "Alert rules currently in each state "
            "(inactive/pending/firing/resolved).",
            ("state",),
        )
        self.telemetry_eval = registry.histogram(
            "repro_telemetry_eval_seconds",
            "Wall-clock cost of one telemetry tick (sampling + rules).",
            (),
            DEFAULT_LATENCY_BUCKETS,
        )
        # -- crossbar controller ---------------------------------------------
        self.controller_commands = registry.counter(
            "repro_controller_commands_total",
            "Controller commands executed, by opcode.",
            ("opcode",),
        )
        self.controller_magic_ops = registry.counter(
            "repro_controller_magic_ops_total",
            "MAGIC NOR evaluations issued through the controller.",
        )
        self.controller_row_activations = registry.counter(
            "repro_controller_row_activations_total",
            "Wordline activations driven by controller commands.",
        )


def _instruments() -> _Instruments | None:
    registry = active_registry()
    if registry is None:
        return None
    cached = getattr(registry, "_repro_instruments", None)
    if cached is None:
        cached = _Instruments(registry)
        registry._repro_instruments = cached
    return cached


# -- executor -----------------------------------------------------------------


def record_execution(result: "ExecutionResult") -> None:
    """Roll one :class:`~repro.runtime.executor.ExecutionResult` into the
    executor families (ops, cycles, energy, faults, latency/energy
    distributions)."""
    inst = _instruments()
    if inst is None:
        return
    w = result.workload
    inst.executor_runs.labels(workload=w, status=result.status).inc()
    inst.executor_ops.labels(workload=w, op="mul").inc(result.mul_count)
    inst.executor_ops.labels(workload=w, op="add").inc(result.add_count)
    inst.executor_cycles.labels(workload=w).inc(result.cost.cycles)
    inst.executor_energy.labels(workload=w).inc(result.energy)
    inst.executor_latency.labels(workload=w).observe(result.time)
    inst.executor_energy_hist.labels(workload=w).observe(result.energy)
    for kind, count in (
        ("detected", result.faults_detected),
        ("repaired", result.repairs),
        ("retried", result.retries),
    ):
        if count:
            inst.executor_faults.labels(workload=w, kind=kind).inc(count)


# -- supervisor ---------------------------------------------------------------


def record_supervision_event(kind: str) -> None:
    """Count one supervision lifecycle event.

    ``attempt`` also materialises the retry counter at zero, so a scrape of
    a perfectly healthy run still exposes ``repro_supervisor_retries_total``
    (dashboards need the series to exist before it is interesting)."""
    inst = _instruments()
    if inst is None:
        return
    inst.supervisor_events.labels(kind=kind).inc()
    if kind == "attempt":
        inst.supervisor_retries.inc(0)
    elif kind == "retry":
        inst.supervisor_retries.inc()


def record_backoff(delay_s: float) -> None:
    """Observe one backoff sleep into the delay distribution."""
    inst = _instruments()
    if inst is not None:
        inst.supervisor_backoff.observe(delay_s)


def record_breaker_transition(state: str) -> None:
    """Count a breaker transition (``open``/``half_open``/``closed``)."""
    inst = _instruments()
    if inst is not None:
        inst.breaker_transitions.labels(state=state).inc()


# -- campaign / checkpoint ----------------------------------------------------


def record_campaign_point(status: str, resumed: bool = False) -> None:
    """Count one terminal grid point (``resumed=True`` for journal skips)."""
    inst = _instruments()
    if inst is None:
        return
    inst.campaign_points.labels(status=status).inc()
    if resumed:
        inst.campaign_resumed.inc()


def record_checkpoint_append(record_type: str) -> None:
    """Count one journal append and its fsync barrier."""
    inst = _instruments()
    if inst is None:
        return
    inst.checkpoint_appends.labels(type=record_type).inc()
    inst.checkpoint_fsyncs.inc()


def record_checkpoint_recovery(dropped: int) -> None:
    """Count torn-tail records dropped by journal recovery."""
    inst = _instruments()
    if inst is not None and dropped:
        inst.checkpoint_recovered.inc(dropped)


# -- resilience ---------------------------------------------------------------


def record_bist_scan(stuck_cells: int) -> None:
    """Count one BIST scan and the stuck cells it condemned."""
    inst = _instruments()
    if inst is None:
        return
    inst.bist_scans.inc()
    if stuck_cells:
        inst.stuck_cells.inc(stuck_cells)


def record_residue_mismatch(elements: int) -> None:
    """Count elements flagged by the online residue check."""
    inst = _instruments()
    if inst is not None and elements:
        inst.residue_mismatches.inc(elements)


def record_resilience_repair(mechanism: str) -> None:
    """Count one row replacement (``spare`` or ``relocate``)."""
    inst = _instruments()
    if inst is not None:
        inst.resilience_repairs.labels(mechanism=mechanism).inc()


def record_resilience_retry(elements: int) -> None:
    """Count one re-execution round covering ``elements`` elements."""
    inst = _instruments()
    if inst is not None:
        inst.resilience_retries.inc()


def record_resilience_degraded(elements: int) -> None:
    """Count elements surrendered to corruption by policy."""
    inst = _instruments()
    if inst is not None and elements:
        inst.resilience_degraded.inc(elements)


# -- serving ------------------------------------------------------------------


def record_admission(outcome: str) -> None:
    """Count one admission decision (``admitted`` / ``rejected_*``)."""
    inst = _instruments()
    if inst is not None:
        inst.serving_admission.labels(outcome=outcome).inc()


def set_queue_depth(priority: int, depth: int) -> None:
    """Publish one priority class's current queue depth."""
    inst = _instruments()
    if inst is not None:
        inst.serving_queue_depth.labels(priority=priority).set(depth)


def record_queue_wait(seconds: float) -> None:
    """Observe one request's admission-to-dispatch wait."""
    inst = _instruments()
    if inst is not None:
        inst.serving_queue_wait.observe(seconds)


def record_served(
    shard: int, tenant: str, status: str, busy_s: float
) -> None:
    """Roll one finished request into the tenant and shard families."""
    inst = _instruments()
    if inst is None:
        return
    inst.serving_requests.labels(tenant=tenant, status=status).inc()
    inst.serving_shard_requests.labels(shard=shard, status=status).inc()
    inst.serving_shard_busy.labels(shard=shard).inc(max(0.0, busy_s))


def record_shard_health(shard: int, healthy: bool) -> None:
    """Publish one shard's breaker state (1 healthy, 0 open)."""
    inst = _instruments()
    if inst is not None:
        inst.serving_shard_health.labels(shard=shard).set(1 if healthy else 0)


def record_reroute(requests: int) -> None:
    """Count requests pushed back to the queue off a sick shard."""
    inst = _instruments()
    if inst is not None and requests:
        inst.serving_reroutes.inc(requests)


def record_worker_spawn(shard: int) -> None:
    """Count one shard worker process spawn."""
    inst = _instruments()
    if inst is not None:
        inst.worker_spawns.labels(shard=shard).inc()


def record_worker_death(shard: int, reason: str = "crashed") -> None:
    """Count one shard worker death (``crashed``/``hang``/``protocol``)."""
    inst = _instruments()
    if inst is not None:
        inst.worker_deaths.labels(shard=shard, reason=reason).inc()


def record_worker_respawn(shard: int) -> None:
    """Count one worker restart after a death."""
    inst = _instruments()
    if inst is not None:
        inst.worker_respawns.labels(shard=shard).inc()


def record_worker_redrive(shard: int) -> None:
    """Count one in-flight request re-driven after its worker died."""
    inst = _instruments()
    if inst is not None:
        inst.worker_redrives.labels(shard=shard).inc()


def record_journal_append(record_type: str) -> None:
    """Count one fsync'd append to the serving request journal."""
    inst = _instruments()
    if inst is not None:
        inst.journal_appends.labels(type=record_type).inc()


def record_journal_recovery(
    restored: int = 0,
    replayed: int = 0,
    truncated: int = 0,
    duplicates: int = 0,
) -> None:
    """Roll one journal recovery pass into the recovery family."""
    inst = _instruments()
    if inst is None:
        return
    for kind, count in (
        ("restored", restored),
        ("replayed", replayed),
        ("truncated", truncated),
        ("duplicate_completions", duplicates),
    ):
        if count:
            inst.journal_recovered.labels(kind=kind).inc(count)


def record_idempotency(outcome: str) -> None:
    """Count one idempotency-key outcome (``hit`` / ``conflict``)."""
    inst = _instruments()
    if inst is not None:
        inst.idempotency_outcomes.labels(outcome=outcome).inc()


def record_result_eviction(reason: str, count: int = 1) -> None:
    """Count results evicted from the store (``capacity`` / ``ttl``)."""
    inst = _instruments()
    if inst is not None and count:
        inst.result_evictions.labels(reason=reason).inc(count)


# -- fleet control plane ------------------------------------------------------


def set_fleet_shards(count: int) -> None:
    """Publish the pool's live shard count."""
    inst = _instruments()
    if inst is not None:
        inst.fleet_shards.set(float(count))


def record_fleet_scale_event(direction: str) -> None:
    """Count one executed resize (``grow`` or ``shrink``)."""
    inst = _instruments()
    if inst is not None:
        inst.fleet_scale_events.labels(direction=direction).inc()


def record_fleet_shed(tenants: int = 1) -> None:
    """Count tenants shed under fast burn."""
    inst = _instruments()
    if inst is not None and tenants:
        inst.fleet_shed_tenants.inc(tenants)


def record_fleet_decision(seconds: float) -> None:
    """Observe the wall-clock cost of one autoscaler decision."""
    inst = _instruments()
    if inst is not None:
        inst.fleet_decision_seconds.observe(seconds)


# -- similarity search --------------------------------------------------------


def record_search_request(status: str) -> None:
    """Count one `/search` retrieval by terminal status."""
    inst = _instruments()
    if inst is not None:
        inst.search_requests.labels(status=status).inc()


def set_codebook_size(entries: int) -> None:
    """Publish the resident codebook size of the serving search index."""
    inst = _instruments()
    if inst is not None:
        inst.search_codebook_entries.set(float(entries))


def record_search_topk(seconds: float) -> None:
    """Observe one top-k evaluation latency."""
    inst = _instruments()
    if inst is not None:
        inst.search_topk.observe(seconds)


def record_search_recall(relax_bits: int, recall: float) -> None:
    """Publish a measured recall@k for one relax rung."""
    inst = _instruments()
    if inst is not None:
        inst.search_recall.labels(relax_bits=relax_bits).set(float(recall))


def record_request_duration(seconds: float, trace_id: str | None = None) -> None:
    """Observe one end-to-end request latency; ``trace_id`` becomes the
    bucket's exemplar, linking the aggregate histogram back to a concrete
    ``GET /trace/<id>`` timeline."""
    inst = _instruments()
    if inst is None:
        return
    exemplar = {"trace_id": trace_id} if trace_id else None
    inst.request_duration.observe(seconds, exemplar)


# -- process health / telemetry ------------------------------------------------


def process_resource_values() -> dict[str, float]:
    """Current process resource readings, psutil-free.

    RSS comes from ``/proc/self/statm`` (falling back to the *peak* RSS
    ``getrusage`` reports where /proc is absent), CPU seconds from
    ``getrusage``, open fds from ``/proc/self/fd`` when available.
    """
    import os
    import resource
    import threading

    usage = resource.getrusage(resource.RUSAGE_SELF)
    values = {
        "repro_process_cpu_user_seconds": float(usage.ru_utime),
        "repro_process_cpu_system_seconds": float(usage.ru_stime),
        "repro_process_threads": float(threading.active_count()),
    }
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        values["repro_process_rss_bytes"] = float(
            pages * os.sysconf("SC_PAGESIZE")
        )
    except (OSError, ValueError, IndexError):
        # ru_maxrss is kilobytes on Linux: the high-water mark, not the
        # current level — still the right order of magnitude for health.
        values["repro_process_rss_bytes"] = float(usage.ru_maxrss * 1024)
    try:
        values["repro_process_open_fds"] = float(
            len(os.listdir("/proc/self/fd"))
        )
    except OSError:  # pragma: no cover - /proc-less platforms
        pass
    return values


def sample_process_resources() -> dict[str, float]:
    """Read the process resources, publish the ``repro_process_*`` gauges,
    and return the readings (the telemetry pipeline stores them)."""
    values = process_resource_values()
    inst = _instruments()
    if inst is not None:
        inst.process_cpu_user.set(values["repro_process_cpu_user_seconds"])
        inst.process_cpu_system.set(
            values["repro_process_cpu_system_seconds"]
        )
        inst.process_threads.set(values["repro_process_threads"])
        inst.process_rss.set(values["repro_process_rss_bytes"])
        if "repro_process_open_fds" in values:
            inst.process_open_fds.set(values["repro_process_open_fds"])
    return values


def record_telemetry_tick(samples: int, eval_s: float) -> None:
    """Roll one telemetry tick into the self-observation families."""
    inst = _instruments()
    if inst is None:
        return
    inst.telemetry_samples.inc(max(0, samples))
    inst.telemetry_eval.observe(eval_s)


def set_telemetry_alert_states(counts: dict) -> None:
    """Publish how many alert rules sit in each state."""
    inst = _instruments()
    if inst is None:
        return
    for state, count in counts.items():
        inst.telemetry_alerts.labels(state=state).set(float(count))


# -- build info ---------------------------------------------------------------


def set_build_info(
    version: str | None = None,
    python: str | None = None,
    config_hash: str | None = None,
) -> None:
    """Publish the constant ``repro_build_info 1`` gauge.

    Defaults are resolved lazily (package version, interpreter version,
    a short hash of the default APIM config) so a scrape is attributable
    to the exact build that produced it.  Imports happen inside the
    function: ``repro/__init__`` imports the runtime which imports this
    module, so importing ``repro`` at module level would cycle.
    """
    inst = _instruments()
    if inst is None:
        return
    if version is None:
        from repro import __version__

        version = __version__
    if python is None:
        import platform

        python = platform.python_version()
    if config_hash is None:
        import hashlib

        from repro.core.config import default_config

        digest = hashlib.sha256(
            repr(default_config()).encode("utf-8")
        ).hexdigest()
        config_hash = digest[:12]
    inst.build_info.labels(
        version=version, python=python, config_hash=config_hash
    ).set(1)


# -- crossbar controller ------------------------------------------------------


def record_controller_command(opcode: str, cells: int = 0) -> None:
    """Count one controller command.

    ``cells`` is the cell count of NOR/INIT commands; a NOR command is one
    MAGIC evaluation regardless of fan-in, INITs pre-stage cells for free.
    """
    inst = _instruments()
    if inst is None:
        return
    inst.controller_commands.labels(opcode=opcode).inc()
    if opcode == "NOR":
        inst.controller_magic_ops.inc()
    rows = _ROW_ACTIVATIONS.get(opcode, 0)
    if rows:
        inst.controller_row_activations.inc(rows)
