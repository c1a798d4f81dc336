"""The benchmark's workloads, their inputs, and their measurements.

Both workloads offer one seeded open-loop stream: Poisson arrivals of
width78 queries at 600 q/s, one query per ``submit``, each with a 100 ms
deadline.  ``width78-deadline`` sends it to the in-process
``CopseService``; ``width78-cluster`` sends the same stream to
``ClusterService(workers=2)``, so the difference between the two is the
cost of the cluster, its transport and its workers.

Every service is built with ``engine="megakernel"``, ``backend="vector"``
and ``verify_oracle=True``, passed explicitly; every other argument keeps
the program's default except ``default_deadline_ms`` (and ``workers``
for the cluster).  The model is the text forest frozen under ``models/``
and the inputs come from ``--seed`` alone, so the load cannot drift when
the program's generators change.  Expected bitvectors are computed
before timing by this file's own parser and tree walker, not by the
program.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import resource
import statistics
import time
from collections import Counter
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import spans as sp

#: ``width78.forest`` was written once with ``dumps_forest`` from the
#: width78 microbenchmark (trees of 7 and 8 branches, depth 5) and is
#: read with ``loads_forest``; it is never regenerated.
MODELS = Path(__file__).resolve().parent / "models"
MODEL = "width78"
PRECISION = 8

#: Explicit service arguments shared by every workload.
SERVICE_ARGS = dict(engine="megakernel", backend="vector", verify_oracle=True)
DEADLINE_MS = 100.0
RATE_QPS = 600.0

#: A percentile is reported only with at least ten samples beyond it, so
#: the arrival schedule is never shorter than this many queries.
MIN_SAMPLES = 1010
#: Traced runs alternate untraced and traced segments of about this
#: length, drained in between, so both see the same host conditions.
#: Untraced runs cut the timed phase into one segment per set-up.
SEGMENT_S = 1.0
#: Largest share of request wall time the per-layer ledger may leave
#: unattributed (the reconciliation epsilon).
RECONCILE_EPSILON = 0.01
#: A generator whose p99 lateness exceeds half the deadline has fallen
#: behind its schedule; its latencies do not describe the offered load.
MAX_GEN_LAG_MS = DEADLINE_MS / 2

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_q_per_cpu_s", "q/cpu-s"),
    ("batch_service_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("deadline_met_share", "share"),
    ("success_share", "share"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("serve.submit_us", "us"),
    ("obs.metrics.calls_per_query", "count"),
    ("obs.metrics.busy_us_per_query", "us"),
    ("serve.scheduler.queue_wait_ms_p50", "ms"),
    ("serve.scheduler.queue_wait_ms_p99", "ms"),
    ("serve.scheduler.batch_fill", "share"),
    ("serve.batcher.evaluate_ms_per_batch", "ms"),
    ("serve.batched_runtime.encrypt_ms_per_batch", "ms"),
    ("fhe.decrypt_ms_per_batch", "ms"),
    ("serve.packing.demux_ms_per_batch", "ms"),
    ("forest.oracle_ms_per_batch", "ms"),
    ("serve.batched_runtime.execute_ms_per_batch", "ms"),
    ("serve.batched_runtime.execute_share", "share"),
    ("fhe.rotations_per_batch", "count"),
    ("fhe.multiplies_per_batch", "count"),
    ("fhe.ops_per_batch", "count"),
    ("ir.model_ms_per_query", "ms"),
    ("core.compiler.compile_s", "s"),
    ("serve.batched_runtime.model_encrypt_s", "s"),
    ("ir.plan.lower_s", "s"),
    ("ir.tape.compile_s", "s"),
    ("ir.megakernel.compile_s", "s"),
    ("serve.spawn_ship_s", "s"),
    ("serve.worker.evaluate_ms_per_batch", "ms"),
    ("serve.overhead_ms_per_batch", "ms"),
    ("serve.transport.request_bytes", "bytes"),
    ("serve.transport.result_bytes", "bytes"),
    ("serve.transport.ship_bytes", "bytes"),
    ("serve.transport.pickle_us_per_batch", "us"),
    ("serve.retries", "count"),
    ("serve.worker_crashes", "count"),
    ("serve.cpu_ms_per_query", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.reconcile_gap_share", "share"),
    ("bench.latency_samples", "count"),
]

#: Per-batch stage metrics and the span each one sums.
STAGES = [
    ("serve.batched_runtime.encrypt_ms_per_batch", sp.ENCRYPT),
    ("serve.batched_runtime.execute_ms_per_batch", sp.EXECUTE),
    ("fhe.decrypt_ms_per_batch", sp.DECRYPT),
    ("serve.packing.demux_ms_per_batch", sp.DEMUX),
    ("forest.oracle_ms_per_batch", sp.ORACLE),
]
#: Per-batch operation-count metrics and the ``OpKind`` value each counts.
OP_COUNTS = [
    ("fhe.rotations_per_batch", "rotate"),
    ("fhe.multiplies_per_batch", "multiply"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    cluster: bool
    #: Set-ups per run, spread over the timed phase; ``setup_s`` is their
    #: median.
    setup_reps: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "width78-deadline", False, 15,
            "open-loop Poisson arrivals at 600 q/s, 100 ms deadline, "
            "in-process: queues build, partial batches are cut, and every "
            "in-process layer runs",
        ),
        Workload(
            "width78-cluster", True, 7,
            "the same stream served by ClusterService(workers=2): the only "
            "load through cluster, transport and worker; the shared stream "
            "isolates their cost",
        ),
    )
}


# ---------------------------------------------------------------------------
# Frozen model and the independent oracle
# ---------------------------------------------------------------------------


def model_text() -> str:
    return (MODELS / f"{MODEL}.forest").read_text()


def parse_trees(text: str) -> Tuple[int, List[Tuple[tuple, int]]]:
    """``(n_features, [(root, leaf_count)])`` from the frozen text format.

    A branch is ``("b", feature, threshold, true, false)`` and a leaf
    ``("l", position)``, where position counts the tree's leaves in
    token order, which is the preorder the label bitvector uses.
    """
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n_features = int(lines[1][1])
    trees = []
    for tokens in lines[2:]:
        leaves = 0

        def node(pos):
            nonlocal leaves
            if tokens[pos] == "l":
                leaves += 1
                return ("l", leaves - 1), pos + 2
            feature, threshold = int(tokens[pos + 1]), int(tokens[pos + 2])
            true_child, pos = node(pos + 3)
            false_child, pos = node(pos)
            return ("b", feature, threshold, true_child, false_child), pos

        root, end = node(0)
        if end != len(tokens):
            raise ValueError("trailing tokens in a frozen tree")
        trees.append((root, leaves))
    return n_features, trees


def expected_bitvector(trees, features: Sequence[int]) -> List[int]:
    """One slot per leaf; 1 where ``feature < threshold`` walks end."""
    bits: List[int] = []
    for root, leaves in trees:
        node = root
        while node[0] == "b":
            node = node[3] if features[node[1]] < node[2] else node[4]
        row = [0] * leaves
        row[node[1]] = 1
        bits.extend(row)
    return bits


@dataclass
class Inputs:
    """Seeded queries, their expected bitvectors, and arrival offsets."""

    queries: List[List[int]]
    expected: List[List[int]]
    arrivals: List[float]


def make_inputs(seed: int, seconds: float, short: bool = False) -> Inputs:
    n_features, trees = parse_trees(model_text())
    rng = np.random.default_rng(seed)
    queries = rng.integers(0, 1 << PRECISION, (4096, n_features)).tolist()
    expected = [expected_bitvector(trees, q) for q in queries]
    horizon = seconds if short else max(seconds, 2.0 * MIN_SAMPLES / RATE_QPS)
    gaps = rng.exponential(1.0 / RATE_QPS, int(RATE_QPS * horizon * 2) + 64)
    offsets = np.cumsum(gaps)
    return Inputs(queries, expected, offsets[offsets < horizon].tolist())


def result_ok(result, expected: List[int]) -> bool:
    return result.oracle_ok is True and list(result.bitvector) == expected


# ---------------------------------------------------------------------------
# Services and process measurements
# ---------------------------------------------------------------------------


def load_forest():
    from repro.forest.serialize import loads_forest

    return loads_forest(model_text())


def build_service(workload: Workload):
    kwargs = dict(SERVICE_ARGS, default_deadline_ms=DEADLINE_MS)
    if workload.cluster:
        from repro.serve.cluster import ClusterService

        return ClusterService(workers=2, **kwargs)
    from repro.serve.service import CopseService

    return CopseService(**kwargs)


def worker_pids() -> List[int]:
    """Process ids of every live worker process."""
    return [child.pid for child in multiprocessing.active_children()]


def stop_children(timeout: float = 5.0) -> None:
    """End every process this run started and wait until each has ended.

    Closed services have already joined their workers; this reaps any
    that outlived that, then stops the resource tracker, the helper
    process the ``spawn`` start method launches on its first use, which
    would otherwise end only after this process does.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _proc_files(pids: Sequence[int], name: str) -> List[str]:
    """``/proc/<pid>/<name>`` of each of ``pids`` still running."""
    texts = []
    for pid in pids:
        try:
            texts.append(Path(f"/proc/{pid}/{name}").read_text())
        except OSError:
            continue  # the worker exited since it was listed
    return texts


def peak_rss_mb(cluster: bool) -> float:
    """Peak resident memory of this process plus its live workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cluster:
        for status in _proc_files(worker_pids(), "status"):
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU time of this process plus the workers ``pids``, in seconds."""
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for stat in _proc_files(pids, "stat"):
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    if not ranked:
        return 0.0
    rank = min(len(ranked), max(1, int(np.ceil(q * len(ranked)))))
    return ranked[rank - 1]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Run:
    """One workload, one seed: set up, measure, check, report."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, short: bool = False):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.short = short
        self.inputs = make_inputs(seed, seconds, short)
        self.forest = load_forest()
        self.recorder = sp.SpanRecorder() if trace else None
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.deadline_met = 0
        self.setup_walls: List[float] = []
        self.setup_spans: List[List[Tuple]] = []
        #: (traced?, wall seconds, answered, cpu seconds) per segment.
        self.segments: List[Tuple[bool, float, int, float]] = []
        self.latencies: Dict[bool, List[float]] = {False: [], True: []}
        #: Full batches' service walls: the submit that filled the batch
        #: started, to the batch's last answer.
        self.batch_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.gen_lag: List[float] = []
        self.batch_fill: Dict[int, float] = {}
        #: Traced requests as (query index, due, answered); features of
        #: each traced batch.
        self.request_windows: List[Tuple[int, float, float]] = []
        self.traced_batches: Dict[int, List[List[int]]] = {}
        #: Traced cluster batches: first and last answer.
        self.resolutions: Dict[int, Tuple[float, float]] = {}
        self.traced_spans: List[Tuple] = []
        self.metrics: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def check(self, result, expected: List[int]) -> bool:
        """An answered, oracle-verified result equal to the expected one."""
        if result is None:
            return False
        self.batch_fill[result.batch_id] = (
            result.batch_fill / result.batch_capacity
        )
        if result_ok(result, expected):
            return True
        self.mismatched += 1
        return False

    # -- setup --------------------------------------------------------------

    def setup(self):
        """Build the service once, from construction to the first answer.

        Returns the service; the wall time (and, traced, the spans, on a
        recorder of their own) are recorded.
        """
        first, want = self.inputs.queries[:1], self.inputs.expected[0]
        recorder = sp.SpanRecorder() if self.trace else None
        if recorder is not None:
            recorder.install()
        start = perf_counter()
        service = build_service(self.workload)
        try:
            service.register_model(MODEL, self.forest, precision=PRECISION)
            results = service.classify_many(MODEL, first)
        except BaseException:
            service.close()
            raise
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.setup_walls.append(perf_counter() - start)
        if recorder is not None:
            self.setup_spans.append(recorder.spans)
        self.check(results[0], want)
        return service

    # -- the open loop ------------------------------------------------------

    def measure(self, service) -> None:
        """Warm up, then offer the arrival schedule segment by segment.

        The remaining set-ups run between segments, spread over the
        timed phase, so ``setup_s`` samples the same host conditions as
        the serving figures.
        """
        pool, want = self.inputs.queries, self.inputs.expected
        for result, expected in zip(
            service.classify_many(MODEL, pool[1:97]), want[1:97]
        ):
            self.check(result, expected)  # warm-up
        capacity = service.registry.get(MODEL).layout.capacity
        pids = worker_pids() if self.workload.cluster else []
        offsets = self.inputs.arrivals
        horizon = offsets[-1] + 1e-9 if offsets else 1.0
        reps = self.workload.setup_reps
        extra = 1 if self.short else reps - 1
        if self.trace:
            count = 2 * max(1, round(horizon / (2 * SEGMENT_S)))
        else:
            count = 1 if self.short else reps
        segments: List[List[int]] = [[] for _ in range(count)]
        for i, offset in enumerate(offsets):
            segments[min(count - 1, int(offset / horizon * count))].append(i)
        setups_after = Counter(
            min(count - 1, (k + 1) * count // reps) for k in range(extra)
        )
        for n, members in enumerate(segments):
            self.segment(service, members, self.trace and n % 2 == 1,
                         pids, capacity)
            if setups_after[n] and "peak_rss_mb" not in self.metrics:
                # Serving's peak, before a second service shares the process.
                self.metrics["peak_rss_mb"] = \
                    peak_rss_mb(self.workload.cluster)
            for _ in range(setups_after[n]):
                gc.collect()
                self.setup().close()

    def segment(self, service, members: List[int], traced: bool,
                pids: List[int], capacity: int) -> None:
        """Offer ``members`` on schedule, drain, and check every answer."""
        from repro.errors import RejectedQuery

        pool, want = self.inputs.queries, self.inputs.expected
        offsets = self.inputs.arrivals
        if traced:
            self.recorder.install()
        cpu = cpu_seconds(pids)
        # Re-base the schedule so the segment's first arrival is due now.
        base = perf_counter() - (offsets[members[0]] if members else 0.0)
        due: Dict[int, float] = {}
        sent: Dict[int, float] = {}
        done: Dict[int, float] = {}
        futures = {}
        for i in members:
            due[i] = base + offsets[i]
            now = perf_counter()
            if due[i] > now:
                time.sleep(due[i] - now)
            sent[i] = perf_counter()
            self.gen_lag.append(max(0.0, sent[i] - due[i]))
            if traced:
                self.recorder.set_request(i)
            try:
                future = service.submit(MODEL, pool[i % len(pool)])
            except RejectedQuery:
                continue
            future.add_done_callback(
                lambda f, i=i: done.__setitem__(i, perf_counter())
            )
            futures[i] = future
        wait_futures(list(futures.values()), timeout=30.0)
        cpu = cpu_seconds(pids) - cpu
        if traced:
            self.recorder.uninstall()
        answered = 0
        batches: Dict[int, List[Tuple[float, float]]] = {}
        for i in members:
            self.attempted += 1
            future = futures.get(i)
            result = None
            if future is not None and future.done() and \
                    future.exception() is None:
                result = future.result()
            if not self.check(result, want[i % len(pool)]):
                self.failed += 1
                continue
            answered += 1
            latency = done[i] - due[i]
            self.latencies[traced].append(latency)
            if latency <= DEADLINE_MS / 1000.0:
                self.deadline_met += 1
            batches.setdefault(result.batch_id, []).append((sent[i], done[i]))
            if traced:
                self.request_windows.append((i, due[i], done[i]))
                self.traced_batches.setdefault(result.batch_id, []) \
                    .append(list(result.features))
        for batch_id, times in batches.items():
            if traced and self.workload.cluster:
                answers = [d for _, d in times]
                self.resolutions[batch_id] = (min(answers), max(answers))
            if len(times) == capacity:
                self.batch_walls[traced].append(
                    max(d for _, d in times) - max(s for s, _ in times)
                )
        first = min(due.values()) if due else 0.0
        last = max(done.values()) if done else first
        self.segments.append(
            (traced, max(last - first, 1e-9), answered, cpu)
        )

    # -- whole run ----------------------------------------------------------

    def run(self) -> None:
        """Set up, measure (with the other set-ups in between), report."""
        service = self.setup()
        try:
            self.measure(service)
            if self.recorder is not None:
                self.traced_spans = list(self.recorder.spans)
            self.metrics.setdefault(
                "peak_rss_mb", peak_rss_mb(self.workload.cluster)
            )
            if self.trace:
                self.layer_metrics(service)
        finally:
            service.close()
        if self.trace:
            self.setup_metrics()
        self.end_to_end()

    # -- metrics ------------------------------------------------------------

    def _totals(self, traced: bool) -> Tuple[float, int, float]:
        """Wall seconds, answered queries, CPU seconds of one kind."""
        chosen = [s for s in self.segments if s[0] == traced]
        return (sum(s[1] for s in chosen), sum(s[2] for s in chosen),
                sum(s[3] for s in chosen))

    def end_to_end(self) -> None:
        lat = self.latencies[False]
        _, answered, cpu = self._totals(False)
        walls = self.batch_walls[False]
        m = self.metrics
        m["setup_s"] = statistics.median(self.setup_walls)
        # Capacity, not the offered rate: queries answered per second of
        # CPU spent by this process and its workers while serving.
        m["throughput_q_per_cpu_s"] = answered / cpu if cpu > 0 else 0.0
        m["batch_service_ms"] = statistics.median(walls) * 1e3 if walls \
            else 0.0
        m["latency_p50_ms"] = percentile(lat, 0.50) * 1e3
        m["latency_p99_ms"] = percentile(lat, 0.99) * 1e3
        attempted = max(self.attempted, 1)
        m["deadline_met_share"] = self.deadline_met / attempted
        m["success_share"] = (self.attempted - self.failed) / attempted
        self.notes["latency_samples"] = len(lat)
        self.notes["latency_samples_beyond_p99"] = len(lat) - int(
            np.ceil(0.99 * len(lat))
        )
        self.notes["full_batches"] = len(walls)

    def layer_metrics(self, service) -> None:
        layer = {name: 0.0 for name, _ in PER_LAYER}
        spans = self.traced_spans
        by_name: Dict[str, List[Tuple]] = {}
        for span in spans:
            by_name.setdefault(span[1], []).append(span)
        selfs = sp.self_times(spans)
        queries = max(sum(len(f) for f in self.traced_batches.values()), 1)
        batches = max(len(self.traced_batches), 1)

        def per_batch_ms(name: str) -> float:
            return sum(selfs[s[0]] for s in by_name.get(name, ())) \
                / batches * 1e3

        def mean_us(name: str) -> float:
            items = by_name.get(name, ())
            if not items:
                return 0.0
            return sum(s[3] - s[2] for s in items) / len(items) * 1e6

        # The workload's front end: CopseService or ClusterService.
        layer["serve.submit_us"] = mean_us(
            sp.CLUSTER_SUBMIT if self.workload.cluster else sp.SUBMIT
        )
        gets = by_name.get(sp.METRICS_GET, ())
        layer["obs.metrics.calls_per_query"] = len(gets) / queries
        layer["obs.metrics.busy_us_per_query"] = (
            sum(s[3] - s[2] for s in gets) / queries * 1e6
        )
        fills = [self.batch_fill[b] for b in self.traced_batches]
        if fills:
            layer["serve.scheduler.batch_fill"] = statistics.fmean(fills)
        # Submit returned to the batch's start: evaluate (in process) or
        # dispatch (cluster).
        rec = self.recorder
        waits = [
            rec.batch_start[b] - end
            for b, queued in rec.batch_queries.items()
            for _, end in queued if end is not None
        ]
        if waits:
            layer["serve.scheduler.queue_wait_ms_p50"] = \
                percentile(waits, 0.5) * 1e3
            layer["serve.scheduler.queue_wait_ms_p99"] = \
                percentile(waits, 0.99) * 1e3

        walls = self.batch_walls[False]
        batch_wall = statistics.median(walls) if walls else 0.0
        if self.workload.cluster:
            # Stages run in the workers: take them from the in-process
            # re-run of the same batches.
            layer.update(self.worker_layers(service, layer))
            stats = service.stats()
        else:
            self.worker_layers(service, layer)
            layer["serve.batcher.evaluate_ms_per_batch"] = \
                per_batch_ms(sp.EVALUATE)
            for metric, name in STAGES:
                layer[metric] = per_batch_ms(name)
            service_stats = service.stats()
            if service_stats.batches:
                ops = service_stats.op_counts
                for metric, op in OP_COUNTS:
                    layer[metric] = ops.get(op, 0) / service_stats.batches
                layer["fhe.ops_per_batch"] = \
                    sum(ops.values()) / service_stats.batches
            layer["ir.model_ms_per_query"] = \
                service_stats.amortized_ms_per_query
            stats = service_stats.scheduler
        layer["serve.overhead_ms_per_batch"] = (
            batch_wall * 1e3 - layer["serve.worker.evaluate_ms_per_batch"]
        )
        if batch_wall:
            # Kernel time over a full batch's service wall (the same
            # quantity on both workloads; batch-fill waits excluded).
            layer["serve.batched_runtime.execute_share"] = (
                layer["serve.batched_runtime.execute_ms_per_batch"]
                / 1e3 / batch_wall
            )
        layer["bench.reconcile_gap_share"] = self.reconcile()
        layer["serve.retries"] = float(stats.retries)
        layer["serve.worker_crashes"] = float(stats.worker_crashes)

        _, plain_q, plain_cpu = self._totals(False)
        _, traced_q, traced_cpu = self._totals(True)
        if plain_q:
            layer["serve.cpu_ms_per_query"] = plain_cpu / plain_q * 1e3
        if plain_q and traced_q and traced_cpu:
            # Capacity is queries per CPU-second; tracing's share of it.
            layer["bench.trace_overhead_share"] = 1.0 - (
                (plain_cpu / plain_q) / (traced_cpu / traced_q)
            )
        layer["bench.gen_lag_p99_ms"] = percentile(self.gen_lag, 0.99) * 1e3
        layer["bench.latency_samples"] = float(len(self.latencies[False]))
        self.layer = layer

    def setup_metrics(self) -> None:
        """Registration steps and spawn, medians over the set-ups."""
        layer = self.layer
        steps = {
            "core.compiler.compile_s": sp.COMPILE,
            "serve.batched_runtime.model_encrypt_s": sp.MODEL_ENCRYPT,
            "ir.plan.lower_s": sp.LOWER,
            "ir.tape.compile_s": sp.TAPE_COMPILE,
            "ir.megakernel.compile_s": sp.MEGAKERNEL_COMPILE,
        }
        for metric, name in steps.items():
            layer[metric] = statistics.median(
                sum(s[3] - s[2] for s in rep if s[1] == name)
                for rep in self.setup_spans
            )
        steady = [
            s[3] - s[2] for s in self.traced_spans if s[1] == sp.EXECUTE
        ]
        firsts = [
            min((s for s in rep if s[1] == sp.EXECUTE), key=lambda s: s[2])
            for rep in self.setup_spans
            if any(s[1] == sp.EXECUTE for s in rep)
        ]
        if steady and firsts:
            # The megakernel compiles its gather program and captures its
            # bookkeeping on the first batch: charge the first batch's
            # excess over a steady-state batch to the compile.
            typical = statistics.median(steady)
            layer["ir.megakernel.compile_s"] += statistics.median(
                max(0.0, s[3] - s[2] - typical) for s in firsts
            )
        # Spawn and ship: the set-up time left after registration, the
        # first query's submit and one batch's work.  On the cluster that
        # is starting the workers and shipping the model to them; in
        # process it is starting the scheduler threads and dispatching.
        worker_s = layer["serve.worker.evaluate_ms_per_batch"] / 1e3
        layer["serve.spawn_ship_s"] = statistics.median(
            wall - worker_s - sum(
                s[3] - s[2] for s in rep
                if s[1] in (sp.REGISTER, sp.SUBMIT, sp.CLUSTER_SUBMIT)
                and s[4] is None
            )
            for wall, rep in zip(self.setup_walls, self.setup_spans)
        )

    def reconcile(self) -> float:
        """Unattributed share of traced request wall time (the gap).

        A request is one query, from when it was due to when its future
        resolved.  Its ledger holds the generator's lateness, its submit
        (client thread), its queue wait, and the spans of the batch that
        served it, clipped at its resolution: in process the worker
        thread's evaluation, on the cluster the batch's round trip to a
        worker process, the router's accounting of its completion and
        the fan-out of its answers.  Time between that accounting and
        the batch's first answer is left to the gap.
        """
        rec = self.recorder
        resolve = [
            (-2 * batch_id - 2, sp.RESOLVE, first, last, None, None, batch_id)
            for batch_id, (first, last) in self.resolutions.items()
        ]
        client: Dict[int, List[Tuple]] = {}
        worker: Dict[int, List[Tuple]] = {}
        for span in self.traced_spans + rec.round_trips() + resolve:
            if span[5] is not None:
                client.setdefault(span[5], []).append(span)
            elif span[6] is not None:
                worker.setdefault(span[6], []).append(span)
        served: Dict[int, Tuple[int, Optional[float]]] = {}
        for batch_id, members in rec.batch_queries.items():
            for request, end in members:
                if request is not None:
                    served[request] = (batch_id, end)
        gap_total = wall_total = 0.0
        totals: Dict[str, float] = {}
        for request, lo, hi in self.request_windows:
            mine = list(client.get(request, ()))
            waits = []
            if request in served:
                batch_id, end = served[request]
                mine.extend(worker.get(batch_id, ()))
                if end is not None:
                    waits.append((end, rec.batch_start[batch_id]))
            layers, gap = sp.ledger((lo, hi), mine, waits)
            sent = [s[2] for s in mine
                    if s[1] in (sp.SUBMIT, sp.CLUSTER_SUBMIT) and s[4] is None]
            if sent:
                # Before its submit began the query was not yet sent: that
                # is the generator's lateness, not a layer's time.
                layers["bench.gen_lag"] = min(sent) - lo
                gap -= min(sent) - lo
            for name, t in layers.items():
                totals[name] = totals.get(name, 0.0) + t
            gap_total += gap
            wall_total += hi - lo
        self.notes["ledger_s"] = dict(sorted(totals.items()))
        self.notes["ledger_gap_s"] = gap_total
        self.notes["ledger_wall_s"] = wall_total
        self.notes["reconcile_epsilon"] = RECONCILE_EPSILON
        share = gap_total / wall_total if wall_total else 1.0
        self.notes["reconciled"] = share <= RECONCILE_EPSILON
        return share

    def worker_layers(self, service, layer: Dict[str, float]
                      ) -> Dict[str, float]:
        """Re-run served batches through the cluster worker's evaluation.

        ``serve.worker.evaluate_batch`` is what a cluster worker runs per
        batch; re-running it in-process on the same batches times the
        worker side for both workloads, and pickling the envelopes the
        router and workers exchange gives what the pipes would carry.
        On the cluster, whose workers cannot be traced from here, a
        traced second pass also gives the worker's stage split and the
        exact op counts, which are returned (in-process runs measure
        them directly and get an empty dict).
        """
        from multiprocessing.reduction import ForkingPickler

        from repro.serve.transport import (
            MSG_EVAL, MSG_LOAD, MSG_RESULT, BatchRequest, BatchResult,
            ShippedModel,
        )
        from repro.serve.worker import evaluate_batch

        registered = service.registry.get(MODEL)
        batches = list(self.traced_batches.values())[:24]
        if not batches:
            return {}
        evaluate = []
        outputs = []
        for features in batches:
            t0 = perf_counter()
            outputs.append(
                evaluate_batch(registered, features, verify_oracle=True)
            )
            evaluate.append(perf_counter() - t0)
        layer["serve.worker.evaluate_ms_per_batch"] = \
            statistics.median(evaluate) * 1e3

        request_bytes, result_bytes, pickle_s = [], [], []
        for k, (features, out) in enumerate(zip(batches, outputs)):
            bitvectors, phase_ms, inference_ms, encrypt_ms, oracle_ok = out
            request = (MSG_EVAL, BatchRequest(
                batch_id=k, model=MODEL, epoch=0,
                features=tuple(tuple(f) for f in features),
                verify_oracle=True,
            ))
            result = (MSG_RESULT, BatchResult(
                batch_id=k, model=MODEL, worker=0, epoch=0,
                bitvectors=tuple(tuple(b) for b in bitvectors),
                phase_ms=phase_ms, inference_ms=inference_ms,
                data_encrypt_ms=encrypt_ms, oracle_ok=tuple(oracle_ok),
                oracle_failures=sum(1 for ok in oracle_ok if not ok),
            ))
            t0 = perf_counter()
            for _ in range(10):
                sent = ForkingPickler.dumps(request)
                back = ForkingPickler.dumps(result)
                pickle.loads(sent)
                pickle.loads(back)
            pickle_s.append((perf_counter() - t0) / 10)
            request_bytes.append(len(sent))
            result_bytes.append(len(back))
        layer["serve.transport.request_bytes"] = statistics.fmean(request_bytes)
        layer["serve.transport.result_bytes"] = statistics.fmean(result_bytes)
        layer["serve.transport.pickle_us_per_batch"] = \
            statistics.median(pickle_s) * 1e6
        layer["serve.transport.ship_bytes"] = float(len(ForkingPickler.dumps(
            (MSG_LOAD, ShippedModel.from_registered(registered))
        )))
        if not self.workload.cluster:
            return {}
        return self.traced_worker_pass(registered, batches, outputs)

    @staticmethod
    def traced_worker_pass(registered, batches, outputs) -> Dict[str, float]:
        """Stage split, self time and op counts of ``evaluate_batch``."""
        from repro.fhe.context import FheContext
        from repro.serve.worker import evaluate_batch

        counts: List[Dict[str, int]] = []
        original = FheContext.decrypt_bits

        def counting_decrypt(ctx, ct, secret):
            bits = original(ctx, ct, secret)
            total: Dict[str, int] = {}
            for phase in ctx.tracker.phases:
                for kind, n in ctx.tracker.phase_stats(phase).counts.items():
                    total[kind.value] = total.get(kind.value, 0) + n
            counts.append(total)
            return bits

        rec = sp.SpanRecorder()
        own = 0.0
        FheContext.decrypt_bits = counting_decrypt
        rec.install()
        try:
            for features in batches:
                first = len(rec.spans)
                t0 = perf_counter()
                evaluate_batch(registered, features, verify_oracle=True)
                own += perf_counter() - t0 - sum(
                    s[3] - s[2] for s in rec.spans[first:] if s[4] is None
                )
        finally:
            rec.uninstall()
            FheContext.decrypt_bits = original
        selfs = sp.self_times(rec.spans)
        worker = {
            metric: sum(selfs[s[0]] for s in rec.spans if s[1] == name)
            / len(batches) * 1e3
            for metric, name in STAGES
        }
        worker["serve.batcher.evaluate_ms_per_batch"] = \
            own / len(batches) * 1e3
        for metric, op in OP_COUNTS:
            worker[metric] = statistics.fmean(c.get(op, 0) for c in counts)
        worker["fhe.ops_per_batch"] = statistics.fmean(
            sum(c.values()) for c in counts)
        worker["ir.model_ms_per_query"] = (
            sum(out[2] for out in outputs) / sum(len(f) for f in batches)
        )
        return worker
