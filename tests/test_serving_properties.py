"""Property tests of the scheduler invariants (hypothesis-driven).

The invariants the serving layer's correctness rests on, pinned over
randomised submission traces rather than hand-picked examples:

- conservation: every admitted request is dispatched exactly once —
  none lost, none duplicated;
- dispatch is one request at a time: ``next_batch`` never returns more
  than one request;
- strict FIFO within a priority class per tenant, whatever the
  requests' workload or relax level;
- admission never over-admits: a class's queued depth never exceeds
  ``queue_capacity``.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionRejectedError
from repro.serving.scheduler import (
    BatchingScheduler,
    ServeRequest,
    ServingConfig,
)

# One submission: (workload index, relax bits, tenant index, priority).
submissions = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from([0, 8, 16]),
        st.integers(0, 2),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=60,
)

configs = st.builds(
    ServingConfig,
    queue_capacity=st.integers(1, 16),
    priorities=st.just(2),
    default_priority=st.just(0),
)

WORKLOADS = ["Sobel", "Robert", "FFT"]


def submit_all(scheduler, trace):
    """Submit a trace; returns (admitted ids in order, rejected count)."""
    admitted, rejected = [], 0
    for workload, relax, tenant, priority in trace:
        request = ServeRequest(
            id=scheduler.next_id(f"t{tenant}"),
            workload=WORKLOADS[workload],
            relax_bits=relax,
            tenant=f"t{tenant}",
            priority=priority,
        )
        try:
            scheduler.submit(request)
            admitted.append(request.id)
        except AdmissionRejectedError:
            rejected += 1
    return admitted, rejected


def drain(scheduler):
    """Pull until empty; returns the requests in dispatch order."""
    dispatched = []
    while batch := scheduler.next_batch(timeout=0.0):
        assert len(batch) == 1
        dispatched.append(batch[0])
    return dispatched


class TestSchedulerProperties:
    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_conservation_no_lost_no_duplicated(self, trace, config):
        scheduler = BatchingScheduler(config)
        admitted, rejected = submit_all(scheduler, trace)
        dispatched = [request.id for request in drain(scheduler)]
        assert sorted(dispatched) == sorted(admitted)
        assert len(admitted) + rejected == len(trace)

    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_fifo_within_priority_tenant_and_key(self, trace, config):
        """Strict FIFO per (priority, tenant): no request overtakes an
        earlier one of its tenant and class, whatever either's key."""
        scheduler = BatchingScheduler(config)
        submit_all(scheduler, trace)
        seen = defaultdict(list)
        for request in drain(scheduler):
            seen[(request.priority, request.tenant)].append(request.id)
        for ids in seen.values():
            # ids encode the admission sequence number, so FIFO within a
            # (priority, tenant) stream means sorted dispatch order.
            assert ids == sorted(ids)

    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_admission_never_exceeds_capacity(self, trace, config):
        scheduler = BatchingScheduler(config)
        for workload, relax, tenant, priority in trace:
            request = ServeRequest(
                id=scheduler.next_id(f"t{tenant}"),
                workload=WORKLOADS[workload],
                relax_bits=relax,
                tenant=f"t{tenant}",
                priority=priority,
            )
            try:
                scheduler.submit(request)
            except AdmissionRejectedError:
                # Rejection must mean that class genuinely is full.
                assert scheduler.depth(priority) == config.queue_capacity
            assert scheduler.depth(priority) <= config.queue_capacity

    @given(trace=submissions)
    @settings(max_examples=30, deadline=None)
    def test_priority_classes_drain_in_order(self, trace):
        """With both classes populated, no class-1 request is dispatched
        while class 0 still holds one (single consumer, no new arrivals)."""
        scheduler = BatchingScheduler(
            ServingConfig(
                priorities=2, default_priority=0, queue_capacity=128,
            )
        )
        submit_all(scheduler, trace)
        for request in drain(scheduler):
            if request.priority > 0:
                assert scheduler.depth(0) == 0
