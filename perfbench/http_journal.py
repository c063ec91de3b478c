"""``http_journal``: the warm mix over keep-alive HTTP, journaled.

The server is ``repro serve --journal DIR --runtime subprocess --shards
1`` in a child process.  Two closed-loop clients, each on one keep-alive
connection, send ``POST /submit`` with a unique ``idempotency_key`` (one
request in eight is a ``POST /search``) and re-poll ``GET /result/<id>``
on the same connection at once until it answers 200.  Every mix key is
warmed during set-up, so the HTTP front door, the journal's fsync before
each acknowledgement and the worker frame transport dominate.

The traced pass cannot wrap a child process, so it hosts the pool and
``build_server`` in the benchmark process; its overhead figure includes
that co-location.  Layers inside the worker process show only as the
``serving.runtime.execute`` span.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from http.client import HTTPConnection

from common import (
    DATASET_BYTES, MIX_KEYS, PRICING_SEED, SEARCH_K, TILE_ELEMENTS, Checks,
    MixSource, Reference, SearchOracle, process_peak_rss_mb, run_tempdir,
    self_peak_rss_mb,
)
from report import Measured

CLIENTS = 2
SHARDS = 1
JOURNAL_FILE = "requests.jsonl"
#: Server boots per run; ``setup_s`` and ``first_point_s`` are medians
#: over them.
SETUPS = 5


class Connection:
    """One keep-alive JSON connection; optionally records client spans."""

    def __init__(self, url: str, tracer=None) -> None:
        host, port = url.rsplit("//", 1)[1].split(":")
        self.http = HTTPConnection(host, int(port), timeout=120)
        self.tracer = tracer

    def call(self, method: str, path: str, payload=None, span=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        data = json.loads(response.read() or b"{}")
        end = time.perf_counter()
        if self.tracer is not None and span is not None:
            self.tracer.record(span, start, end, rid=data.get("id"),
                               status=response.status)
        return response.status, data, start, end

    def close(self) -> None:
        self.http.close()


def _payload(request: dict) -> tuple[str, dict, str]:
    if request["kind"] == "search":
        return "/search", {"query": request["query"], "k": request["k"],
                           "idempotency_key": request["idempotency_key"]}, \
            "serving.http.search"
    return "/submit", {"workload": request["workload"],
                       "relax_bits": request["relax_bits"],
                       "dataset_bytes": DATASET_BYTES,
                       "idempotency_key": request["idempotency_key"]}, \
        "serving.http.submit"


def _round_trip(conn: Connection, request: dict, counts: dict):
    """Submit, then poll until 200; returns (id, result, seconds) or a
    failure message."""
    path, payload, span = _payload(request)
    status, reply, start, _ = conn.call("POST", path, payload, span)
    if status != 202:
        return f"{path} answered {status}: {reply}"
    request_id = reply["id"]
    while True:
        status, result, _, end = conn.call(
            "GET", f"/result/{request_id}", span="serving.http.result")
        counts["polls"] += 1
        if status == 200:
            counts["ok"] += 1
            return request_id, result, end - start
        if status != 202:
            return f"/result/{request_id} answered {status}: {result}"


def _check_result(request: dict, result: dict, checks: Checks,
                  reference: Reference, oracle: SearchOracle) -> bool:
    ok = checks.expect(result.get("status") == "ok",
                       f"{result.get('id')} ended {result.get('status')}")
    if request["kind"] == "search":
        return oracle.check(checks, request["query"], request["k"],
                            result.get("search"), result.get("id")) and ok
    return reference.check(checks, result.get("point"), request["workload"],
                           request["relax_bits"], result.get("id")) and ok


def warm(conn: Connection, measured: Measured, checks: Checks,
         reference: Reference, oracle: SearchOracle) -> None:
    """Price every mix key once and run one search; the first request is
    a cold shard's first and is timed as ``first_point_s``."""
    counts = {"polls": 0, "ok": 0}
    for index, (workload, relax) in enumerate(MIX_KEYS):
        request = {"kind": "price", "workload": workload,
                   "relax_bits": relax, "idempotency_key": f"warm-{index}"}
        outcome = _round_trip(conn, request, counts)
        if isinstance(outcome, str):
            checks.expect(False, f"warm-up: {outcome}")
            measured.failed += 1
            continue
        if index == 0:
            measured.first_point_s.append(outcome[2])
        if not _check_result(request, outcome[1], checks, reference, oracle):
            measured.failed += 1
    request = {"kind": "search", "query": [0, 1] * (oracle.dim // 2),
               "k": SEARCH_K, "idempotency_key": "warm-search"}
    outcome = _round_trip(conn, request, counts)
    if isinstance(outcome, str) or not _check_result(
            request, outcome[1], checks, reference, oracle):
        checks.expect(False, f"warm-up search: {outcome}")
        measured.failed += 1


def wait_healthy(conn: Connection, timeout_s: float = 120.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        status, _, _, _ = conn.call("GET", "/healthz")
        if status == 200:
            return
        time.sleep(0.01)
    raise RuntimeError("server never answered /healthz with 200")


def drive(url: str, seed: int, seconds: float, measured: Measured,
          tracer=None) -> list:
    """The closed loop: ``[(request, id, result, seconds), ...]``."""
    deadline = time.perf_counter() + seconds
    done: list[tuple] = []
    failures: list[str] = []
    counts = defaultdict(int)
    lock = threading.Lock()

    def client(index: int) -> None:
        source = MixSource(seed, 1 + index)
        conn = Connection(url, tracer)
        local = {"polls": 0, "ok": 0}
        try:
            while time.perf_counter() < deadline:
                request = source.next()
                outcome = _round_trip(conn, request, local)
                with lock:
                    counts["attempted"] += 1
                    if isinstance(outcome, str):
                        failures.append(outcome)
                    else:
                        done.append((request, *outcome))
        finally:
            conn.close()
            with lock:
                counts["polls"] += local["polls"]
                counts["ok"] += local["ok"]

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(index,),
                                name=f"perfbench-client{index}")
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    measured.window_s = time.perf_counter() - started
    measured.attempted += counts["attempted"]
    measured.failed += len(failures)
    measured.result_polls += counts["polls"]
    measured.result_200s += counts["ok"]
    measured.notes["request_failures"] = failures[:10]
    return done


def score(done: list, measured: Measured, checks: Checks,
          reference: Reference, oracle: SearchOracle) -> None:
    for request, _request_id, result, seconds in done:
        if not _check_result(request, result, checks, reference, oracle):
            measured.failed += 1
            continue
        measured.completed += 1
        measured.latencies_s.append(seconds)
        measured.queue_wait_s.append(result.get("queue_wait_s", 0.0))
        measured.service_s.append(result.get("service_s", 0.0))
        if request["kind"] == "price":
            measured.points += 1
            measured.pricing_requests += 1


def check_ledger(journal_path: str, done: list, checks: Checks,
                 measured: Measured) -> None:
    """Zero acknowledged ids lost; each key maps to exactly one id."""
    from repro.serving.journal import load_request_journal

    state = load_request_journal(journal_path)
    ids_by_key = defaultdict(set)
    for entry in state.entries.values():
        if entry.idempotency_key:
            ids_by_key[entry.idempotency_key].add(entry.id)
    for request, request_id, _result, _seconds in done:
        key = request["idempotency_key"]
        ok = checks.expect(ids_by_key.get(key) == {request_id},
                           f"key {key} maps to {ids_by_key.get(key)}")
        ok = checks.expect(request_id in state.completed,
                           f"acknowledged {request_id} lost") and ok
        if not ok:
            measured.failed += 1
    if not checks.expect(state.duplicate_completions == 0,
                         f"{state.duplicate_completions} duplicate "
                         "completions in the journal"):
        measured.failed += 1


def check_resubmit(url: str, done: list, checks: Checks,
                   measured: Measured, sample: int = 4) -> None:
    """A resubmitted key is answered 200 with its original id."""
    conn = Connection(url)
    try:
        for request, request_id, _result, _seconds in done[:sample]:
            path, payload, _ = _payload(request)
            status, reply, _, _ = conn.call("POST", path, payload)
            if not checks.expect(
                    status == 200 and reply.get("id") == request_id,
                    f"resubmit of {request_id}: {status} {reply}"):
                measured.failed += 1
    finally:
        conn.close()


def _worker_pids(runtime_stats: dict) -> list[int]:
    return [shard["pid"] for shard in runtime_stats.get("shards", {}).values()
            if shard.get("pid")]


def _wait_gone(pids: list[int], timeout_s: float = 30.0) -> None:
    """Worker processes are the server's children; wait for them to end."""
    deadline = time.perf_counter() + timeout_s
    for pid in pids:
        while time.perf_counter() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.02)


def _stats(url: str) -> dict:
    conn = Connection(url)
    try:
        return conn.call("GET", "/stats")[1]
    finally:
        conn.close()


def run_pass(seed: int, seconds: float, smoke: bool = False,
             trace_pass: bool = False) -> tuple:
    """Untraced: boot :data:`SETUPS` servers (one for a smoke run or the
    plain pass of a traced run; the last serves the timed phase) against
    fresh journals in a fresh temporary directory."""
    from repro.serving.crashtest import ServerProcess

    measured, checks = Measured(), Checks()
    reference, oracle = Reference(), SearchOracle()
    workers: list[int] = []
    with run_tempdir("http_journal") as tmp:
        server = None
        try:
            for index in range(1 if smoke or trace_pass else SETUPS):
                if server is not None:
                    server.terminate()
                journal_dir = os.path.join(tmp, f"journal{index}")
                started = time.perf_counter()
                server = ServerProcess(
                    journal_dir, shards=SHARDS, tile=TILE_ELEMENTS,
                    seed=PRICING_SEED, runtime="subprocess").start()
                conn = Connection(server.url)
                try:
                    wait_healthy(conn)
                    warm(conn, measured, checks, reference, oracle)
                finally:
                    conn.close()
                measured.setup_s.append(time.perf_counter() - started)
                workers += _worker_pids(_stats(server.url)["runtime"])
            done = drive(server.url, seed, seconds, measured)
            check_resubmit(server.url, done, checks, measured)
            serving = [server.process.pid,
                       *_worker_pids(_stats(server.url)["runtime"])]
            measured.peak_rss_mb = self_peak_rss_mb() + sum(
                process_peak_rss_mb(pid) for pid in serving)
        finally:
            if server is not None:
                server.terminate()
        _wait_gone(workers)
        score(done, measured, checks, reference, oracle)
        check_ledger(os.path.join(journal_dir, JOURNAL_FILE), done, checks,
                     measured)
    return measured, checks


def run_traced_pass(seed: int, seconds: float, tracer) -> tuple:
    """The pool and ``build_server`` hosted here, so their calls can be
    wrapped; the worker process stays a separate process."""
    from repro.serving import frontend
    from repro.serving.pool import CrossbarPool

    measured, checks = Measured(), Checks()
    reference, oracle = Reference(), SearchOracle()
    tracer.wrap_route_builder(frontend)
    with run_tempdir("http_journal") as tmp:
        journal_path = os.path.join(tmp, JOURNAL_FILE)
        started = time.perf_counter()
        pool = CrossbarPool(shards=SHARDS, runtime="subprocess",
                            tile_elements=TILE_ELEMENTS, seed=PRICING_SEED,
                            journal=journal_path)
        server = frontend.build_server(pool)
        with pool, server:
            conn = Connection(server.url)
            try:
                wait_healthy(conn)
                warm(conn, measured, checks, reference, oracle)
            finally:
                conn.close()
            measured.setup_s.append(time.perf_counter() - started)
            cpu_before = pool.runtime.worker_cpu_seconds()
            tracer.phase = "timed"
            done = drive(server.url, seed, seconds, measured, tracer)
            tracer.phase = "check"
            measured.worker_cpu_s = (pool.runtime.worker_cpu_seconds()
                                     - cpu_before)
            workers = _worker_pids(pool.runtime.stats())
            measured.peak_rss_mb = self_peak_rss_mb() + sum(
                process_peak_rss_mb(pid) for pid in workers)
        _wait_gone(workers)
        score(done, measured, checks, reference, oracle)
        check_ledger(journal_path, done, checks, measured)
    return measured, checks
