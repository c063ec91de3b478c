"""Durable exactly-once serving: the request journal contract.

The serving tier's durability promise decomposes into properties these
tests pin one by one:

- **write-ahead** — an acknowledged id is on disk before the client sees
  it, so a SIGKILL at any byte leaves a journal from which the pool
  reconstructs exactly what it promised (the hypothesis arm cuts the log
  at every prefix and checks recovery never raises and never resurrects
  or forgets the wrong requests);
- **exactly-once** — the journal fold is first-terminal-record-wins, the
  result store's tripwire refuses a second completion (tombstones
  included), and a restarted scheduler never re-mints a journaled id;
- **idempotent submission** — one key, one request: retries return the
  original id (across restarts too), payload conflicts raise;
- **bounded results** — capacity and TTL evictions leave tombstones that
  answer HTTP 410 instead of an ambiguous 404;
- **crash-safe spill** — the trace store's JSONL spill goes through
  write-to-temp + fsync + atomic rename, so readers can never observe a
  torn line.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateRequestError,
    JournalError,
    ServingError,
    TracingError,
)
from repro.observability.tracing import TraceStore, load_spilled
from repro.runtime.campaign import CampaignPoint
from repro.runtime.recordlog import recover_log
from repro.serving.frontend import _result_handler
from repro.serving.journal import (
    RequestJournal,
    load_request_journal,
    payload_fingerprint,
    result_digest,
    serve_result_from_dict,
)
from repro.serving.pool import CrossbarPool
from repro.serving.scheduler import ResultStore, ServeRequest, ServeResult

WORKLOAD = "Robert"
DATASET = 1 << 20


#: A journal written before one-at-a-time dispatch, verbatim: its
#: completed result carries the since-removed ``batch_size`` field.
LEGACY_JOURNAL = (
    '{"dataset_bytes":1048576,"deadline_s":null,"fingerprint":'
    '"1d00a90fd9f338bd","id":"default-00000000","idempotency_key":"legacy",'
    '"priority":1,"relax_bits":8,"tenant":"default","trace_id":'
    '"d1d115c2-00000000","type":"admitted","v":1,"workload":"Robert"}\n'
    '{"id":"default-00000000","shard":0,"type":"dispatched","v":1}\n'
    '{"digest":"8006f00bbd5ed8ac","id":"default-00000000","result":'
    '{"attempts":1,"batch_size":1,"dataset_bytes":1048576,"error":null,'
    '"id":"default-00000000","point":{"apim_energy_j":0.00037437032077176495,'
    '"apim_time_s":0.025476682680378077,"attempts":1,"dataset_bytes":1048576,'
    '"edp_improvement":0.10429356040421298,"effective_relax_bits":8,'
    '"energy_improvement":25.832823311731413,"qol_percent":'
    '0.00013205631175080458,"qos_ok":true,"relax_bits":8,"speedup":'
    '0.004037249786663866,"status":"ok","workload":"Robert"},"queue_wait_s":'
    '0.003411659000050804,"relax_bits":8,"search":null,"service_s":'
    '0.08307699700003468,"shard":0,"status":"ok","tenant":"default",'
    '"trace_id":"d1d115c2-00000000","workload":"Robert"},"status":"ok",'
    '"type":"completed","v":1}\n'
)


def _pool(journal_path, **kwargs):
    kwargs.setdefault("shards", 1)
    kwargs.setdefault("tile_elements", 1 << 9)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("runtime", "inline")
    return CrossbarPool(journal=str(journal_path), **kwargs)


def _result(request_id="t-00000001", status="ok", **kwargs):
    kwargs.setdefault("tenant", "t")
    kwargs.setdefault("workload", WORKLOAD)
    kwargs.setdefault("relax_bits", 0)
    kwargs.setdefault("dataset_bytes", DATASET)
    return ServeResult(id=request_id, status=status, **kwargs)


class TestFingerprintAndDigest:
    def test_fingerprint_is_stable_and_payload_sensitive(self):
        base = payload_fingerprint(WORKLOAD, 8, DATASET, "a", 1)
        assert base == payload_fingerprint(WORKLOAD, 8, DATASET, "a", 1)
        assert base != payload_fingerprint(WORKLOAD, 16, DATASET, "a", 1)
        assert base != payload_fingerprint(WORKLOAD, 8, DATASET, "b", 1)

    def test_digest_ignores_timing_but_not_measurement(self):
        first = _result(queue_wait_s=0.1, service_s=0.2, shard=0)
        replay = _result(queue_wait_s=9.9, service_s=0.0, shard=3)
        assert result_digest(first.to_dict()) == result_digest(
            replay.to_dict()
        )
        other = _result(status="failed", error="boom")
        assert result_digest(first.to_dict()) != result_digest(
            other.to_dict()
        )

    def test_serve_result_round_trips_through_json(self):
        point = CampaignPoint(
            workload=WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
            qol_percent=1.5, qos_ok=True, speedup=10.0,
            energy_improvement=20.0, edp_improvement=200.0,
            apim_time_s=0.25, apim_energy_j=0.125,
        )
        original = _result(point=point, shard=1, attempts=2)
        rebuilt = serve_result_from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rebuilt == original

    def test_foreign_result_payload_raises_journal_error(self):
        with pytest.raises(JournalError):
            serve_result_from_dict({"id": "x", "unheard_of_field": 1})


class TestRequestJournalFold:
    def _request(self, request_id, **kwargs):
        kwargs.setdefault("workload", WORKLOAD)
        kwargs.setdefault("relax_bits", 8)
        kwargs.setdefault("dataset_bytes", DATASET)
        kwargs.setdefault("tenant", "t")
        kwargs.setdefault("priority", 1)
        return ServeRequest(id=request_id, **kwargs)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.describe({"shards": 1})
            journal.admitted(
                self._request("t-00000001"),
                idempotency_key="k1", fingerprint="f1", deadline_s=None,
            )
            journal.dispatched("t-00000001", shard=0)
            journal.completed(_result("t-00000001"))
            journal.admitted(self._request("t-00000002"))
            assert journal.appends == {
                "serve": 1, "admitted": 2, "dispatched": 1, "completed": 1,
            }
        state = load_request_journal(str(path))
        assert sorted(state.entries) == ["t-00000001", "t-00000002"]
        assert state.entries["t-00000001"].dispatches == 1
        assert state.entries["t-00000001"].idempotency_key == "k1"
        assert sorted(state.completed) == ["t-00000001"]
        assert state.replayable == ("t-00000002",)
        assert state.idempotency == {"k1": ("t-00000001", "f1")}
        assert state.max_seq == 2
        assert state.truncated == 0
        assert state.duplicate_completions == 0

    def test_first_terminal_record_wins(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal.completed(_result("t-00000001", status="ok"))
            journal.completed(_result("t-00000001", status="failed"))
        state = load_request_journal(str(path))
        assert state.completed["t-00000001"]["status"] == "ok"
        assert state.duplicate_completions == 1
        assert state.replayable == ()

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal.completed(_result("t-00000001"))
        with open(path, "ab") as handle:
            handle.write(b'{"type": "admitted", "id": "t-0000')  # SIGKILL
        state = load_request_journal(str(path))
        assert state.truncated == 1
        assert sorted(state.entries) == ["t-00000001"]
        # Reopening truncates the tear and appends after the clean prefix.
        with RequestJournal(str(path)) as journal:
            assert journal.recovered.truncated == 1
            journal.admitted(self._request("t-00000002"))
        state = load_request_journal(str(path))
        assert state.truncated == 0
        assert sorted(state.entries) == ["t-00000001", "t-00000002"]

    def test_unknown_record_types_are_skipped(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal._append({"type": "from_the_future", "id": "zz"})
        state = load_request_journal(str(path))
        assert sorted(state.entries) == ["t-00000001"]
        assert state.records == 2

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        state = load_request_journal(str(tmp_path / "never-written.jsonl"))
        assert state.entries == {}
        assert state.replayable == ()
        assert state.max_seq == -1


class TestKillAtAnyByte:
    """The hypothesis arm: SIGKILL at every byte offset of the log."""

    def _write_journal(self, path) -> bytes:
        with RequestJournal(str(path)) as journal:
            for index in range(1, 4):
                request = ServeRequest(
                    id=f"t-{index:08d}", workload=WORKLOAD,
                    relax_bits=8, dataset_bytes=DATASET, tenant="t",
                )
                journal.admitted(request, idempotency_key=f"k{index}",
                                 fingerprint=f"f{index}")
                if index < 3:  # the last request crashes before finishing
                    journal.completed(_result(f"t-{index:08d}"))
        return path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4000))
    def test_recovery_never_raises_never_lies(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("journal") / "requests.jsonl"
        raw = self._write_journal(path)
        cut = min(cut, len(raw))
        path.write_bytes(raw[:cut])
        state = load_request_journal(str(path))  # must never raise
        # A completed record that fully survived keeps its request out of
        # the replayable set: recovery never re-runs a finished request.
        for request_id in state.completed:
            assert request_id not in state.replayable
        # Every acknowledged-but-incomplete request is replayable: the
        # write-ahead promise means nothing acknowledged is forgotten.
        for request_id in state.entries:
            assert (
                request_id in state.completed
                or request_id in state.replayable
            )
        assert state.duplicate_completions == 0
        # Recovery is idempotent and leaves a clean, loadable journal.
        recover_log(str(path))
        recover_log(str(path))
        after = load_request_journal(str(path))
        assert after.truncated == 0
        assert sorted(after.entries) == sorted(state.entries)
        assert sorted(after.completed) == sorted(state.completed)


class TestIdempotentSubmission:
    def test_duplicate_key_returns_original_id(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            first, duplicate = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert duplicate is False
            again, duplicate = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert (again, duplicate) == (first, True)
            # No second request was queued for the retry.
            assert pool.stats()["journal"]["appends"]["admitted"] == 1

    def test_conflicting_payload_raises(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            first, _ = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            with pytest.raises(DuplicateRequestError) as info:
                pool.admit(
                    WORKLOAD, relax_bits=16, dataset_bytes=DATASET,
                    idempotency_key="k",
                )
            assert info.value.idempotency_key == "k"
            assert info.value.request_id == first

    def test_bad_keys_are_rejected(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            with pytest.raises(ServingError):
                pool.admit(WORKLOAD, idempotency_key="")
            with pytest.raises(ServingError):
                pool.admit(WORKLOAD, idempotency_key="x" * 257)


class TestCrashSafeRestart:
    def test_completed_results_are_restored_bit_identically(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with _pool(path) as pool:
            request_id = pool.submit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            first_life = pool.result(request_id, timeout=60.0)
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["restored"] == 1
            assert recovery["replayed"] == 0
            assert recovery["dropped"] == 0
            second_life = pool.result(request_id, timeout=1.0)
            # Identical dataclasses, timing fields included: the restore
            # path republishes the journaled payload, no recompute.
            assert second_life == first_life
            # The idempotency index survives the restart too.
            again, duplicate = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert (again, duplicate) == (request_id, True)

    def test_acknowledged_but_incomplete_requests_replay(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        # Hand-write the crash signature: admitted, never completed —
        # with a deadline that is long dead, which replay must drop.
        with RequestJournal(str(path)) as journal:
            request = ServeRequest(
                id="default-00000041", workload=WORKLOAD, relax_bits=8,
                dataset_bytes=DATASET, tenant="default",
            )
            journal.admitted(request, deadline_s=0.000001)
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["replayed"] == 1
            result = pool.result("default-00000041", timeout=60.0)
            # Not "expired": wall-clock deadlines die with the old life.
            assert result.status == "ok"
            # The restarted scheduler minted ids above the journaled max,
            # so new admissions cannot collide with the replayed id.
            fresh = pool.submit(
                WORKLOAD, relax_bits=0, dataset_bytes=DATASET
            )
            assert int(fresh.rpartition("-")[2]) > 41
        # On disk: exactly one terminal record for the replayed id.
        state = load_request_journal(str(path))
        assert state.duplicate_completions == 0
        assert state.replayable == ()

    def test_legacy_batch_size_result_is_redelivered(self, tmp_path):
        """A result journaled while dispatch still coalesced requests
        carries ``batch_size``.  It restores as delivered (no re-run) and
        its digest is unchanged."""
        path = tmp_path / "requests.jsonl"
        path.write_text(LEGACY_JOURNAL)
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["restored"] == 1
            assert recovery["replayed"] == 0
            result = pool.result("default-00000000", timeout=1.0)
        assert result.status == "ok"
        assert result.point.speedup == 0.004037249786663866
        assert result_digest(result.to_dict()) == "8006f00bbd5ed8ac"

    def test_double_completion_tripwire_fires(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            request_id = pool.submit(WORKLOAD, dataset_bytes=DATASET)
            result = pool.result(request_id, timeout=60.0)
            with pytest.raises(ServingError, match="completed twice"):
                pool.results.complete(result)


class TestResultStoreBounds:
    def test_capacity_eviction_leaves_a_tombstone(self):
        store = ResultStore(capacity=1)
        store.complete(_result("a-00000001"))
        store.complete(_result("a-00000002"))
        assert store.status("a-00000001") == "evicted"
        assert store.eviction_reason("a-00000001") == "capacity"
        assert store.status("a-00000002") == "done"
        assert store.evicted_by_reason["capacity"] == 1
        with pytest.raises(ServingError, match="evicted"):
            store.wait("a-00000001", timeout=0.01)

    def test_ttl_eviction_with_a_manual_clock(self):
        now = [0.0]
        store = ResultStore(capacity=8, ttl_s=10.0, clock=lambda: now[0])
        store.complete(_result("a-00000001"))
        now[0] = 5.0
        assert store.status("a-00000001") == "done"
        now[0] = 10.0
        assert store.status("a-00000001") == "evicted"
        assert store.eviction_reason("a-00000001") == "ttl"
        assert store.get("a-00000001") is None

    def test_tripwire_still_fires_on_tombstoned_ids(self):
        store = ResultStore(capacity=1)
        store.complete(_result("a-00000001"))
        store.complete(_result("a-00000002"))  # evicts a-00000001
        with pytest.raises(ServingError, match="completed twice"):
            store.complete(_result("a-00000001"))
        with pytest.raises(ServingError, match="cannot restore"):
            store.restore(_result("a-00000001"))

    def test_evicted_results_answer_410(self, tmp_path):
        with _pool(
            tmp_path / "requests.jsonl", result_capacity=1
        ) as pool:
            first = pool.submit(WORKLOAD, dataset_bytes=DATASET)
            pool.result(first, timeout=60.0)
            second = pool.submit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET
            )
            pool.result(second, timeout=60.0)
            handler = _result_handler(pool)
            match = re.match(r"/result/(?P<id>[A-Za-z0-9._:-]+)", f"/result/{first}")
            status, body = handler(match, None)
            assert status == 410
            assert body["id"] == first
            assert body["reason"] == "capacity"
            assert "evicted" in body["error"]
            assert pool.stats()["results"]["evicted_by_reason"] == {
                "capacity": 1, "ttl": 0,
            }

    def test_bad_bounds_are_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ResultStore(capacity=0)
        with pytest.raises(ConfigurationError):
            ResultStore(ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            ResultStore(tombstones=-1)


class TestAtomicSpill:
    def _store(self, tmp_path, **kwargs):
        kwargs.setdefault("capacity", 2)
        kwargs.setdefault("spill_path", str(tmp_path / "traces.jsonl"))
        kwargs.setdefault("id_prefix", "fixed")
        return TraceStore(**kwargs)

    def test_eviction_spills_whole_lines(self, tmp_path):
        store = self._store(tmp_path)
        for index in range(4):  # capacity 2: evicts (and spills) 2
            store.new_trace(index=index)
        records = load_spilled(str(tmp_path / "traces.jsonl"))
        assert [r.baggage["index"] for r in records] == [0, 1]
        assert store.spilled == 2

    def test_spill_goes_through_temp_then_atomic_rename(self, tmp_path):
        store = self._store(tmp_path)
        store.new_trace(index=0)
        assert store.spill_all() == 1
        # No staging debris left behind, and every line parses.
        leftovers = [
            p.name for p in tmp_path.iterdir() if ".tmp." in p.name
        ]
        assert leftovers == []
        with open(tmp_path / "traces.jsonl", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)  # a torn line would raise

    def test_spill_all_appends_to_prior_content(self, tmp_path):
        store = self._store(tmp_path, capacity=1)
        store.new_trace(index=0)
        store.new_trace(index=1)  # index=0 evicted and spilled
        assert store.spill_all() == 1  # spills resident index=1
        records = load_spilled(str(tmp_path / "traces.jsonl"))
        assert [r.baggage["index"] for r in records] == [0, 1]
        assert store.spilled == 2

    def test_unwritable_spill_path_raises_tracing_error(self, tmp_path):
        store = self._store(
            tmp_path, spill_path=str(tmp_path / "no-such-dir" / "t.jsonl")
        )
        store.new_trace(index=0)
        with pytest.raises(TracingError):
            store.spill_all()
