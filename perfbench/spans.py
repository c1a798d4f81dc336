"""Span recorders installed from outside the program, and the per-request ledger.

:class:`SpanRecorder` wraps public entry points of each serving layer
(module functions and class methods) with timing wrappers while it is
installed, and restores the originals on :meth:`SpanRecorder.uninstall`.
Nothing under ``src/`` knows it is being traced.

Each span is one tuple ``(id, name, start, end, parent, request, batch)``:
``parent`` is the enclosing span on the same thread, ``request`` the
client request the calling thread is serving (set by the load generator)
and ``batch`` the batch a scheduler worker thread is evaluating (set by
the ``QueryBatcher.evaluate`` wrapper and kept until the thread starts
its next batch, so the scheduler's post-batch bookkeeping is charged to
the batch that caused it) or whose completion the cluster's receiver
thread last accounted (``RouterCore.complete``, kept likewise).  Spans
live in memory until the run ends.

A batch starts when ``QueryBatcher.evaluate`` starts (in process) or
when ``RouterCore.dispatch`` returns it (cluster); on the cluster the
time from its dispatch to ``RouterCore.complete`` is its round trip
through the pipes and a worker process, and the time from its first
answer to its last (observed at the futures) its resolution.

:func:`ledger` turns the spans of one request into per-layer times that
add up to the request's wall time.  Concurrent spans (two batches on two
scheduler threads, or a batch running while the client still submits)
split each instant equally.  Time in which no span runs but a query of
the request is queued is charged to ``serve.scheduler.queue_wait``.
What is left, time covered by nothing, is the reconciliation gap.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Span layer names used by the benchmark's per-layer metrics.
SUBMIT = "serve.service.submit"
CLUSTER_SUBMIT = "serve.cluster.submit"
EVALUATE = "serve.batcher.evaluate"
ENCRYPT = "serve.batched_runtime.encrypt"
EXECUTE = "serve.batched_runtime.execute"
DECRYPT = "fhe.decrypt"
DEMUX = "serve.packing.demux"
ORACLE = "forest.oracle"
METRICS_GET = "obs.metrics.get"
REGISTER = "serve.registry.register"
COMPILE = "core.compiler.compile"
MODEL_ENCRYPT = "serve.batched_runtime.model_encrypt"
LOWER = "ir.plan.lower"
TAPE_COMPILE = "ir.tape.compile"
MEGAKERNEL_COMPILE = "ir.megakernel.compile"
DISPATCH = "serve.cluster.dispatch"
COMPLETE = "serve.cluster.complete"
ROUND_TRIP = "serve.cluster.round_trip"
RESOLVE = "serve.cluster.resolve"
QUEUE_WAIT = "serve.scheduler.queue_wait"


def _targets():
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Functions that a module imported by name are wrapped where they are
    looked up (``repro.serve.batcher.encrypt_batch``, not only
    ``repro.serve.batched_runtime.encrypt_batch``).
    """
    import repro.serve.batcher as batcher_mod
    import repro.serve.registry as registry_mod
    import repro.serve.worker as worker_mod
    from repro.core.compiler import CopseCompiler
    from repro.fhe.context import FheContext
    from repro.forest.forest import DecisionForest
    from repro.ir.plan import InferencePlan
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.batched_runtime import BatchedCopseServer
    from repro.serve.batcher import QueryBatcher
    from repro.serve.cluster import ClusterService, RouterCore
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import CopseService

    return [
        (CopseService, "submit", SUBMIT),
        (ClusterService, "submit", CLUSTER_SUBMIT),
        (RouterCore, "dispatch", DISPATCH),
        (RouterCore, "complete", COMPLETE),
        (QueryBatcher, "evaluate", EVALUATE),
        (batcher_mod, "encrypt_batch", ENCRYPT),
        (worker_mod, "encrypt_batch", ENCRYPT),
        (BatchedCopseServer, "classify_batch", EXECUTE),
        (FheContext, "decrypt_bits", DECRYPT),
        (batcher_mod, "demux_bitvectors", DEMUX),
        (worker_mod, "demux_bitvectors", DEMUX),
        (DecisionForest, "label_bitvector", ORACLE),
        (MetricsRegistry, "counter", METRICS_GET),
        (MetricsRegistry, "gauge", METRICS_GET),
        (MetricsRegistry, "histogram", METRICS_GET),
        (ModelRegistry, "register", REGISTER),
        (CopseCompiler, "compile", COMPILE),
        (registry_mod, "build_batched_model", MODEL_ENCRYPT),
        (registry_mod, "lower_batched_inference", LOWER),
        (InferencePlan, "compile_tape", TAPE_COMPILE),
        (registry_mod, "compile_megakernel", MEGAKERNEL_COMPILE),
    ]


class SpanRecorder:
    """Records spans around the serving stack's public entry points."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        #: id(future) -> (request id, submit end) for futures a submit
        #: wrapper returned; read by the evaluate wrapper.
        self._futures: Dict[int, Tuple[Optional[int], float]] = {}
        #: batch id -> start (evaluate start or dispatch end), -> queries
        #: it served as (request id, submit end) pairs, and (cluster only)
        #: -> when its completion reached the router.
        self.batch_start: Dict[int, float] = {}
        self.batch_queries: Dict[int, List[Tuple[Optional[int], float]]] = {}
        self.batch_done: Dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # -- client-side tagging ---------------------------------------------

    def set_request(self, request: Optional[int]) -> None:
        """Tag spans the calling thread records with ``request``."""
        self._local.request = request

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        # Futures of earlier installations are gone; their ids may recur.
        self._futures.clear()
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            if name in (SUBMIT, CLUSTER_SUBMIT):
                wrapped = self._wrap_submit(name, original)
            elif name == EVALUATE:
                wrapped = self._wrap_evaluate(original)
            elif name == DISPATCH:
                wrapped = self._wrap_dispatch(original)
            elif name == COMPLETE:
                wrapped = self._wrap_complete(original)
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> List[int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, on_exit=None):
        stack = self._stack()
        local = self._local
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((
                sid, name, start, end, parent,
                getattr(local, "request", None),
                getattr(local, "batch", None),
            ))
            if on_exit is not None:
                on_exit(result, end)

    def _wrap(self, name, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder._call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_submit(self, name, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            request = getattr(recorder._local, "request", None)

            def remember(future, end):
                if future is not None:
                    recorder._futures[id(future)] = (request, end)

            return recorder._call(name, fn, args, kwargs, remember)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_evaluate(self, fn):
        recorder = self

        def wrapper(batcher, batch, *args, **kwargs):
            batch_id = batch.batch_id
            recorder._local.batch = batch_id
            recorder.batch_start[batch_id] = perf_counter()
            recorder.batch_queries[batch_id] = [
                recorder._futures.get(id(entry.future), (None, None))
                for entry in batch.entries
            ]
            return recorder._call(
                EVALUATE, fn, (batcher, batch) + args, kwargs
            )

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_dispatch(self, fn):
        from repro.serve.cluster import AssignAction

        recorder = self

        def started(actions, end):
            # A query missing from the map is the one whose submit is
            # dispatching its batch right now: not queued at all.
            current = (getattr(recorder._local, "request", None), None)
            for action in actions or ():
                if not isinstance(action, AssignAction):
                    continue  # ships and hedges start no batch
                assignment = action.assignment
                recorder.batch_start[assignment.batch_id] = end
                recorder.batch_queries[assignment.batch_id] = [
                    recorder._futures.get(id(t.payload.future), current)
                    for t in assignment.tickets
                ]

        def wrapper(*args, **kwargs):
            return recorder._call(DISPATCH, fn, args, kwargs, started)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_complete(self, fn):
        recorder = self

        def wrapper(router, assignment, *args, **kwargs):
            batch_id = assignment.batch_id
            recorder.batch_done.setdefault(batch_id, perf_counter())
            recorder._local.batch = batch_id
            return recorder._call(
                COMPLETE, fn, (router, assignment) + args, kwargs
            )

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ------------------------------------------------------------

    def round_trips(self) -> List[Tuple]:
        """One synthetic span per cluster batch: dispatch to completion."""
        return [
            (-2 * batch_id - 1, ROUND_TRIP, self.batch_start[batch_id], done,
             None, None, batch_id)
            for batch_id, done in self.batch_done.items()
            if batch_id in self.batch_start
        ]

    def clear(self) -> None:
        self.spans = []
        self._futures.clear()
        self.batch_start.clear()
        self.batch_queries.clear()
        self.batch_done.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Tuple]) -> Dict[int, float]:
    """Span id -> duration minus the part its children's intervals cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out: Dict[int, float] = {}
    for sid, _, start, end, *_ in spans:
        covered = _union_length(
            [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        )
        out[sid] = (end - start) - covered
    return out


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def ledger(
    window: Tuple[float, float],
    spans: List[Tuple],
    waits: List[Tuple[float, float]],
) -> Tuple[Dict[str, float], float]:
    """Per-layer seconds of one request, and the uncovered gap.

    ``spans`` are the request's spans (client thread and the worker
    threads that evaluated its batches); ``waits`` are the intervals its
    queries spent queued (submit returned, batch not started).  Each
    instant of ``window`` goes to the innermost running spans, split
    equally between concurrent ones; else to the queue wait if a query
    is queued; else to the gap.  The layer times plus the gap equal the
    window, so a small gap means the layers account for the request.
    """
    lo, hi = window
    ids = {span[0] for span in spans}
    events = sorted(
        (max(s[2], lo), min(s[3], hi), s) for s in spans
        if min(s[3], hi) > max(s[2], lo)
    )
    queued = sorted(
        (max(a, lo), min(b, hi)) for a, b in waits if min(b, hi) > max(a, lo)
    )
    edges = {lo, hi}
    for a, b, _ in events:
        edges.update((a, b))
    for a, b in queued:
        edges.update((a, b))
    points = sorted(edges)
    out: Dict[str, float] = {}
    gap = 0.0
    # Every interval starts and ends on an edge, so one covers the step
    # [left, right) exactly when it started at or before ``left`` and
    # ends after it.
    active: List[Tuple] = []
    waiting: List[Tuple[float, float]] = []
    next_event = next_wait = 0
    for left, right in zip(points, points[1:]):
        while next_event < len(events) and events[next_event][0] <= left:
            active.append(events[next_event])
            next_event += 1
        while next_wait < len(queued) and queued[next_wait][0] <= left:
            waiting.append(queued[next_wait])
            next_wait += 1
        active = [e for e in active if e[1] > left]
        waiting = [w for w in waiting if w[1] > left]
        dt = right - left
        if active:
            parents = {e[2][4] for e in active if e[2][4] in ids}
            leaves = [e[2] for e in active if e[2][0] not in parents]
            for span in leaves:
                out[span[1]] = out.get(span[1], 0.0) + dt / len(leaves)
        elif waiting:
            out[QUEUE_WAIT] = out.get(QUEUE_WAIT, 0.0) + dt
        else:
            gap += dt
    return out, gap
