"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload http_journal --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once with spans
around each layer's public calls, then prints the per-layer metrics and
the tracing overhead (traced minus untraced) and writes the spans and a
per-layer report under ``.perfbench_out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every run checks the program's outputs; a failed check
makes ``correct`` false and the exit code 1.

Workloads, the layers each one stresses and bypasses, and which
end-to-end metric each layer metric should move are recorded in
``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    MissingProgram, host_steal_ticks, import_program,
)

WORKLOADS = ("http_journal", "pool_open", "campaign_cold")

OVERHEAD_NOTES = {
    "http_journal": (
        "the traced pass hosts the pool and build_server in the benchmark "
        "process, next to the clients, while the untraced pass talks to a "
        "separate `repro serve` process: this difference includes that "
        "co-location as well as the span wrappers"),
    "pool_open": "same process layout in both passes: span wrappers only",
    "campaign_cold": (
        "one traced cold campaign minus one untraced, each in a fresh "
        "process; latency is per-point completion time"),
}


def untraced(workload: str, seed: int, seconds: float, smoke: bool,
             trace_pass: bool):
    """One untraced pass; the plain pass of a ``--trace 1`` run sets up
    once and skips the extra samples that only feed ``setup_s`` and
    ``first_point_s``."""
    module = importlib.import_module(workload)
    return module.run_pass(seed, seconds, smoke=smoke, trace_pass=trace_pass)


def traced(workload: str, seed: int, seconds: float, smoke: bool):
    from tracer import Tracer

    tracer = Tracer()
    if workload == "campaign_cold":
        # The wrappers are installed inside the fresh campaign process.
        from campaign_cold import run_pass

        return (*run_pass(seed, seconds, smoke=smoke, trace_pass=True,
                          tracer=tracer), tracer)
    tracer.install()
    try:
        if workload == "http_journal":
            from http_journal import run_traced_pass

            measured, checks = run_traced_pass(seed, seconds, tracer)
        else:
            from pool_open import run_pass

            measured, checks = run_pass(seed, seconds, smoke=smoke,
                                        trace_pass=True, tracer=tracer)
    finally:
        tracer.uninstall()
    return measured, checks, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small pass for the benchmark's own smoke test: one set-up, "
        "a 2x2 campaign grid")
    args = parser.parse_args(argv)
    try:
        import_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from report import END_TO_END, PER_LAYER, emit, per_layer, print_layers
    from report import write_trace_report

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    steal_before, total_before = host_steal_ticks()
    if args.trace == 0:
        measured, checks = untraced(args.workload, args.seed, args.seconds,
                                    args.smoke, trace_pass=False)
        passes = [measured]
        metrics, units = measured.end_to_end(), END_TO_END
    else:
        # Two passes of half the time each keep a traced run as long as
        # an untraced one.
        half = args.seconds / 2
        plain, plain_checks = untraced(args.workload, args.seed, half,
                                       args.smoke, trace_pass=True)
        measured, checks, tracer = traced(args.workload, args.seed, half,
                                          args.smoke)
        passes = [plain, measured]
        checks.run += plain_checks.run
        checks.failed += plain_checks.failed
        checks.messages = plain_checks.messages + checks.messages
        metrics, bases = per_layer(tracer.spans, measured, plain)
        units = PER_LAYER
        path = write_trace_report(args.workload, args.seed, tracer,
                                  measured, plain, metrics, bases,
                                  OVERHEAD_NOTES[args.workload])
        print_layers(path)
    print(f"checks: {checks.run} run, {checks.failed} failed")
    for message in checks.messages:
        print(f"  CHECK FAILED: {message}")
    steal, total = host_steal_ticks()
    measured.notes["host_steal_share"] = round(
        (steal - steal_before) / max(total - total_before, 1), 4)
    for key, value in measured.notes.items():
        print(f"  note {key}: {value}")
    emit(checks.failed == 0, sum(p.attempted for p in passes),
         sum(p.failed for p in passes), metrics, units)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
