"""Tests for the bounded-memory metrics registry."""

import json
import re
from concurrent.futures import Future

import pytest

from repro.errors import ValidationError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    percentile,
)


class _Payload:
    def __init__(self):
        self.future = Future()


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_is_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0

    def test_histogram_exact_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.max == 3.0

    def test_histogram_window_bounds_memory(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", window=4)
        for v in range(100):
            h.observe(float(v))
        # Exact aggregates cover the lifetime; the window keeps the tail.
        assert h.count == 100
        assert h.max == 99.0
        assert h.window_values() == [96.0, 97.0, 98.0, 99.0]
        assert h.percentile(0.5) == 97.0

    def test_histogram_rejects_empty_window(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.histogram("bad", window=0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")
        with pytest.raises(ValidationError):
            reg.histogram("x")


class TestPercentile:
    def test_nearest_rank(self):
        ranked = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ranked, 0.5) == 2.0
        assert percentile(ranked, 0.99) == 4.0
        assert percentile(ranked, 1.0) == 4.0

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_matches_scheduler_recipe(self):
        # The scheduler's latency percentiles predate the registry; the
        # re-backing must not move them: nearest rank = ceil(q * n).
        ranked = [float(v) for v in range(1, 101)]
        assert percentile(ranked, 0.5) == 50.0
        assert percentile(ranked, 0.99) == 99.0

    def test_quantiles_single_sort(self):
        h = Histogram(__import__("threading").Lock())
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.quantiles((0.5, 0.99)) == {0.5: 3.0, 0.99: 5.0}


class TestLabels:
    def test_labeled_children_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", {"op": "add"})
        b = reg.counter("ops", {"op": "mul"})
        assert a is not b
        a.inc(3)
        assert reg.counter_value("ops", {"op": "add"}) == 3.0
        assert reg.counter_value("ops", {"op": "mul"}) == 0.0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"b": "2", "a": "1"})
        b = reg.counter("x", {"a": "1", "b": "2"})
        assert a is b

    def test_labeled_values_readback(self):
        reg = MetricsRegistry()
        reg.counter("per_tenant", {"tenant": "b"}).inc(2)
        reg.counter("per_tenant", {"tenant": "a"}).inc(5)
        assert reg.labeled_values("per_tenant") == {"a": 5.0, "b": 2.0}
        assert list(reg.labeled_values("per_tenant")) == ["a", "b"]

    def test_counter_value_absent_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_family_lists_children(self):
        reg = MetricsRegistry()
        reg.counter("x")
        reg.counter("x", {"k": "v"})
        assert set(reg.family("x")) == {(), ("k=v",)}
        assert reg.names() == ["x"]


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("submitted").inc(7)
        reg.counter("ops", {"op": "add"}).inc(3)
        reg.gauge("inflight").set(2)
        h = reg.histogram("latency_ms")
        for v in (1.5, 2.5, 10.0):
            h.observe(v)
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["counters"] == {"submitted": 7.0, 'ops{op="add"}': 3.0}
        assert snap["gauges"] == {"inflight": 2.0}
        hist = snap["histograms"]["latency_ms"]
        assert hist["count"] == 3
        assert hist["sum"] == 14.0
        assert hist["max"] == 10.0
        assert hist["p50"] == 2.5
        assert hist["p99"] == 10.0

    def test_snapshot_is_json_able_and_deterministic(self):
        a = json.dumps(self._populated().snapshot(), sort_keys=True)
        b = json.dumps(self._populated().snapshot(), sort_keys=True)
        assert a == b

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc()
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("submitted").inc(7)
        reg.gauge("inflight").set(2)
        text = reg.render_prometheus()
        assert "# TYPE submitted counter" in text
        assert "submitted 7" in text
        assert "# TYPE inflight gauge" in text
        assert "inflight 2" in text
        assert text.endswith("\n")

    def test_labeled_counter_line(self):
        reg = MetricsRegistry()
        reg.counter("ops", {"op": "add"}).inc(3)
        assert 'ops{op="add"} 3' in reg.render_prometheus()

    def test_histogram_exports_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (1.0, 2.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert "# TYPE latency summary" in text
        assert 'latency{quantile="0.5"} 1' in text
        assert 'latency{quantile="0.99"} 2' in text
        assert "latency_sum 3" in text
        assert "latency_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_label_values_are_escaped(self):
        """A caller-supplied tenant cannot break the exposition."""
        from repro.serve.scheduler import SchedulerCore

        tenants = ['a"b', "back\\slash", "two\nlines", 'all\\"\n', "plain"]
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=len(tenants))
        for tenant in tenants:
            core.submit("m", _Payload(), 0.0, tenant=tenant)
        core.complete(core.assign(0.0), 0.01)
        core.stats()
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_]\w*="(?:[^"\\\n]|\\[\\"n])*"'
            r'(,[a-zA-Z_]\w*="(?:[^"\\\n]|\\[\\"n])*")*\})?'
            r' \S+$'
        )
        seen = set()
        for line in core.metrics.render_prometheus().splitlines():
            if line.startswith("# TYPE "):
                continue
            assert sample.match(line), line
            for raw in re.findall(r'tenant="((?:[^"\\]|\\.)*)"', line):
                seen.add(re.sub(
                    r"\\(.)",
                    lambda m: "\n" if m.group(1) == "n" else m.group(1),
                    raw,
                ))
        assert seen == set(tenants)
        assert set(core.metrics.labeled_values("sched_tenant_submitted")) \
            == set(tenants)
        snapshot = core.metrics.snapshot()["counters"]
        assert snapshot['sched_tenant_submitted{tenant="plain"}'] == 1
        assert snapshot['sched_tenant_submitted{tenant="a\\"b"}'] == 1
