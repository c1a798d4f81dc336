"""Per-batch serve bookkeeping: same instruments, fewer registry calls.

* ``Histogram.observe_many`` leaves an instrument exactly as repeated
  ``observe`` calls would (window, count, the bits of the sum, max).
* ``SchedulerCore`` driven through random submits, rejections, cuts and
  OK / ERROR / CRASH completions snapshots exactly like a per-ticket
  reference accountant kept in this file.
* Registry-call budget: no get-or-create per submit once a tenant has
  submitted, at most one per (batch, label) in ``complete``.
* ``ClusterService.submit`` walks ``RouterCore.dispatch`` only when the
  submit woke the scheduler (``real`` tests: actual worker processes).
"""

import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RejectedQuery
from repro.obs.metrics import MetricsRegistry
from repro.serve import ClusterService, CopseService
from repro.serve.scheduler import (
    LATENCY_WINDOW,
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    SchedulerCore,
)
from repro.serve.simclock import MS


class Payload:
    def __init__(self):
        self.future = Future()


# ---------------------------------------------------------------------------
# Histogram.observe_many
# ---------------------------------------------------------------------------


def histogram_state(h):
    return (h.window_values(), h.count, float.hex(h.sum), h.max)


class TestObserveMany:
    @settings(max_examples=200, deadline=None)
    @given(
        window=st.integers(1, 6),
        chunks=st.lists(
            st.lists(
                st.floats(-1e6, 1e9, allow_nan=False, allow_infinity=False),
                max_size=8,
            ),
            max_size=5,
        ),
    )
    def test_matches_repeated_observe(self, window, chunks):
        reg = MetricsRegistry()
        one = reg.histogram("one", window=window)
        many = reg.histogram("many", window=window)
        for chunk in chunks:
            for value in chunk:
                one.observe(value)
            many.observe_many(chunk)
            assert histogram_state(many) == histogram_state(one)

    def test_sum_is_left_to_right(self):
        # A compensated sum would give 2.0 here; per-value adds give 0.0.
        values = [1e16, 1.0, 1.0, -1e16]
        one = MetricsRegistry().histogram("h")
        for value in values:
            one.observe(value)
        many = MetricsRegistry().histogram("h")
        many.observe_many(values)
        assert float.hex(many.sum) == float.hex(one.sum) == float.hex(0.0)

    def test_empty_is_a_no_op(self):
        h = MetricsRegistry().histogram("h", window=2)
        h.observe(3.0)
        before = histogram_state(h)
        h.observe_many([])
        assert histogram_state(h) == before


# ---------------------------------------------------------------------------
# SchedulerCore vs a per-ticket reference accountant
# ---------------------------------------------------------------------------


class ReferenceAccountant:
    """The scheduler's metrics, booked one ticket at a time."""

    COUNTERS = (
        "sched_submitted", "sched_completed", "sched_rejected",
        "sched_failed", "sched_cancelled", "sched_retries",
        "sched_deadline_misses", "sched_worker_crashes",
        "sched_dead_lettered", "sched_batches",
    )

    def __init__(self, max_retries):
        self.max_retries = max_retries
        self.m = MetricsRegistry()
        for name in self.COUNTERS:
            self.m.counter(name)
        self.m.histogram("sched_latency_ms", window=LATENCY_WINDOW)

    def inc(self, name, labels=None):
        self.m.counter(name, labels).inc()

    def submitted(self, tenant, rejected):
        if rejected:
            self.inc("sched_rejected")
        self.inc("sched_submitted")
        self.inc("sched_tenant_submitted", {"tenant": tenant})

    def completed(self, assignment, now, outcome):
        """Book ``assignment`` *before* the core completes it."""
        tickets = assignment.tickets
        if outcome == OUTCOME_ERROR:
            for _ in tickets:
                self.inc("sched_failed")
            return
        if outcome == OUTCOME_CRASH:
            self.inc("sched_worker_crashes")
            for ticket in tickets:
                if ticket.retries < self.max_retries:
                    self.inc("sched_retries")
                else:
                    self.inc("sched_failed")
            return
        for ticket in tickets:
            latency_ms = (now - ticket.submit_time) / MS
            self.inc("sched_completed")
            self.m.histogram("sched_latency_ms").observe(latency_ms)
            if ticket.deadline is not None and now > ticket.deadline:
                self.inc("sched_deadline_misses")
            self.inc("sched_tenant_completed", {"tenant": ticket.tenant})
            self.inc("sched_queue_completed", {"queue": ticket.queue})
            self.m.histogram(
                "sched_tenant_latency_ms", {"tenant": ticket.tenant}
            ).observe(latency_ms)


def exact_state(registry):
    """Every instrument's exact value (histogram sums as float.hex)."""
    state = {}
    for name in registry.names():
        for key, instrument in sorted(registry.family(name).items()):
            if hasattr(instrument, "window_values"):
                state[(name, key)] = histogram_state(instrument)
            else:
                state[(name, key)] = float.hex(instrument.value)
    return state


STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(["a", "b"]),
            st.sampled_from(["acme", "globex", "initech"]),
            st.one_of(st.none(), st.sampled_from([0.01, 0.05, 0.2]),
                      st.floats(0.001, 0.3)),
            st.integers(0, 1),
        ),
        st.tuples(
            st.just("advance"),
            st.one_of(st.sampled_from([0.03, 0.1, 0.25]),
                      st.floats(0.0, 0.2)),
        ),
        st.tuples(st.just("assign")),
        st.tuples(st.just("flush")),
        st.tuples(
            st.just("complete"),
            st.integers(0, 3),
            st.sampled_from([OUTCOME_OK, OUTCOME_OK, OUTCOME_ERROR,
                             OUTCOME_CRASH]),
        ),
    ),
    min_size=20,
    max_size=80,
)


class TestCompletionAccounting:
    @settings(max_examples=150, deadline=None)
    @given(steps=STEPS)
    def test_snapshot_matches_per_ticket_reference(self, steps):
        core = SchedulerCore(workers=2, max_retries=1)
        core.add_queue("a", capacity=3, max_pending=5, service_ms=20.0)
        core.add_queue("b", capacity=2, max_pending=3, weight=2.0)
        ref = ReferenceAccountant(max_retries=1)
        running = []
        now = 0.0
        for step in steps:
            kind = step[0]
            if kind == "submit":
                _, queue, tenant, rel_deadline, priority = step
                deadline = None if rel_deadline is None else now + rel_deadline
                try:
                    core.submit(queue, Payload(), now, tenant=tenant,
                                deadline=deadline, priority=priority)
                    ref.submitted(tenant, rejected=False)
                except RejectedQuery:
                    ref.submitted(tenant, rejected=True)
            elif kind == "advance":
                now += step[1]
            elif kind == "assign":
                assignment = core.assign(now)
                if assignment is not None:
                    ref.inc("sched_batches")
                    running.append(assignment)
            elif kind == "flush":
                core.flush()
            elif running:
                _, index, outcome = step
                assignment = running.pop(index % len(running))
                ref.completed(assignment, now, outcome)
                core.complete(assignment, now, outcome)
                core.drain_failures()
            assert core.metrics.snapshot() == ref.m.snapshot()
            assert exact_state(core.metrics) == exact_state(ref.m)


# ---------------------------------------------------------------------------
# Registry-call budget
# ---------------------------------------------------------------------------


@pytest.fixture
def getter_calls(monkeypatch):
    """Every MetricsRegistry get-or-create call: (thread, kind, name)."""
    calls = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def counting(self, name, *args, _original=original, _kind=kind,
                     **kwargs):
            calls.append((threading.current_thread(), _kind, name))
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, kind, counting)
    return calls


class TestRegistryCallBudget:
    def test_no_getter_per_submit_after_first(self, getter_calls):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=64, max_pending=8)
        core.submit("m", Payload(), 0.0, tenant="acme")
        core.submit("m", Payload(), 0.0, tenant="globex", deadline=1.0)
        del getter_calls[:]
        for k in range(6):
            core.submit("m", Payload(), 0.0,
                        tenant=("acme", "globex")[k % 2],
                        deadline=None if k % 3 else 2.0)
        assert getter_calls == []
        # Rejected submits reuse the same cached counter.
        for _ in range(3):
            with pytest.raises(RejectedQuery):
                core.submit("m", Payload(), 0.0, tenant="acme")
        assert getter_calls == []
        # A new tenant pays exactly one lookup, then none.
        core.flush()
        core.complete(core.assign(0.1), 0.1)
        del getter_calls[:]
        core.submit("m", Payload(), 0.2, tenant="initech")
        core.submit("m", Payload(), 0.2, tenant="initech")
        assert [name for _, _, name in getter_calls] == [
            "sched_tenant_submitted"
        ]

    def test_complete_pays_per_batch_label(self, getter_calls):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=48)
        for _ in range(48):
            core.submit("m", Payload(), 0.0, tenant="acme", deadline=0.05)
        assignment = core.assign(0.0)
        del getter_calls[:]
        core.complete(assignment, 0.1)
        assert len(getter_calls) <= 3
        for k in range(48):
            core.submit("m", Payload(), 0.2,
                        tenant=("acme", "globex")[k % 2])
        assignment = core.assign(0.2)
        del getter_calls[:]
        core.complete(assignment, 0.3)
        assert len(getter_calls) == 5  # 2 per tenant, 1 for the queue

    def test_service_submit_pays_no_getter(self, getter_calls,
                                           example_forest):
        with CopseService(threads=1, backend="vector") as service:
            service.register_model("m", example_forest, max_batch_size=8)
            service.submit("m", [1, 2], tenant="acme")
            mine = threading.current_thread()
            del getter_calls[:]
            futures = [
                service.submit("m", [k, 255 - k], tenant="acme")
                for k in range(5)
            ]
            assert [c for c in getter_calls if c[0] is mine] == []
            service.flush("m")
            assert all(f.result(timeout=30).oracle_ok for f in futures)


# ---------------------------------------------------------------------------
# ClusterService: submit dispatches only on wake
# ---------------------------------------------------------------------------


def queries(count):
    return [[(37 * k) % 256, (101 * k + 7) % 256] for k in range(count)]


class TestClusterSubmitWake:
    def test_real_submit_dispatches_only_on_wake(self, example_forest):
        with ClusterService(workers=2, backend="vector") as service:
            registered = service.register_model(
                "w", example_forest, precision=8, max_batch_size=4
            )
            capacity = registered.layout.capacity
            service.preload("w")
            # Warm both workers (first evaluation per process).
            assert all(
                r.oracle_ok for r in service.classify_many(
                    "w", queries(2 * capacity)
                )
            )
            main = threading.current_thread()
            calls = []  # (from submit?, batch ids it assigned)
            dispatch = service.router.dispatch

            def recording(now):
                actions = dispatch(now)
                calls.append((
                    threading.current_thread() is main,
                    [a.assignment.batch_id for a in actions
                     if hasattr(a, "assignment")],
                ))
                return actions

            service.router.dispatch = recording
            futures = []
            wakes = []
            fill_latency = []
            for k, features in enumerate(queries(3 * capacity)):
                before = sum(from_submit for from_submit, _ in calls)
                start = time.monotonic()
                futures.append(
                    service.submit("w", features, deadline_ms=10_000.0)
                )
                wake = service.router.core.submit_wakes
                made = sum(from_submit for from_submit, _ in calls) - before
                assert made == (1 if wake else 0), k
                wakes.append(wake)
                if (k + 1) % capacity == 0:
                    # The filling submit dispatched its batch itself.
                    for future in futures[-capacity:]:
                        future.result(timeout=5)
                    fill_latency.append(time.monotonic() - start)
                time.sleep(0.02)
            assert True in wakes and False in wakes
            assert max(fill_latency) < 0.250
            assert all(f.result(timeout=5).oracle_ok for f in futures)

            # A lone query with a 50 ms deadline: once the service
            # estimate has settled below its slack, its submit cannot
            # cut it yet, so the receiver's timer does.
            for _ in range(50):
                if service.router.core.service_estimate_s("w") < 0.045:
                    break
                service.classify_many("w", queries(capacity))
            assert service.router.core.service_estimate_s("w") < 0.045
            start = time.monotonic()
            lone = service.submit("w", [5, 250], deadline_ms=50.0)
            result = lone.result(timeout=5)
            assert time.monotonic() - start < 1.0
            assert result.oracle_ok is True
            assert result.batch_fill == 1
            receiver_batches = {
                batch for from_submit, batches in calls if not from_submit
                for batch in batches
            }
            assert result.batch_id in receiver_batches
