"""Query batching: validate submissions, evaluate batches, demultiplex.

A :class:`QueryBatcher` fronts one registered model.  Submissions are
validated eagerly (bad queries fail at ``prepare`` time, before they can
poison a batch); queueing and batch *cutting* belong to the
deadline-aware :class:`~repro.serve.scheduler.Scheduler`, which hands
cut batches back here for evaluation.  Evaluating a batch runs the whole
amortized pipeline:

1. pack the queries' replicated-and-padded bit planes into shared slots
   and encrypt them once per plane (``data_encrypt``),
2. run the batched Algorithm 1 against the model's cached, once-encrypted
   :class:`~repro.serve.batched_runtime.BatchedEncryptedModel` — through
   the registered model's cached compiled
   :class:`~repro.ir.tape.CompiledTape` (``engine="tape"``, the serve
   default), its graph-walking
   :class:`~repro.ir.plan.InferencePlan` (``engine="plan"``), or the
   hand-scheduled interpreter (``engine="eager"``),
3. decrypt the single result ciphertext and demultiplex the slot blocks
   back into per-query label bitvectors,
4. optionally verify every bitvector against the plaintext oracle
   (``forest.label_bitvector``), and
5. resolve each query's future with a :class:`ClassificationResult`.

Every batch evaluation uses a fresh :class:`~repro.fhe.context.FheContext`
built on the registered model's FHE backend (same parameters, private
tracker), so concurrent workers never share mutable tracker state; the
per-batch tracker travels in the :class:`BatchRecord` for thread-safe
aggregation by the service.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import ValidationError
from repro.core.runtime import (
    ENGINE_MEGAKERNEL,
    ENGINE_PLAN,
    ENGINE_TAPE,
    InferenceResult,
    PHASE_DATA_ENCRYPT,
    PHASE_MEGAKERNEL,
    PHASE_PLAN,
    PHASE_TAPE,
)
from repro.core.seccomp import VARIANT_ALOUFI
from repro.fhe.context import FheContext
from repro.fhe.tracker import OpTracker
from repro.serve.batched_runtime import (
    BATCH_INFERENCE_PHASES,
    BatchedCopseServer,
    encrypt_batch,
)
from repro.serve.packing import demux_bitvectors, validate_features
from repro.serve.registry import RegisteredModel


@dataclass(frozen=True)
class ClassificationResult:
    """One query's demultiplexed result, with batch provenance."""

    model: str
    features: List[int]
    result: InferenceResult
    batch_id: int
    batch_fill: int
    batch_capacity: int
    #: Simulated inference ms of the batch divided by its real queries.
    amortized_ms: float
    #: Oracle agreement (None when verification was disabled or no source
    #: forest is available).
    oracle_ok: Optional[bool] = None

    @property
    def bitvector(self) -> List[int]:
        return self.result.bitvector

    def plurality_name(self) -> str:
        return self.result.plurality_name()


def batch_results(
    registered: RegisteredModel,
    batch_id: int,
    features: Sequence[Sequence[int]],
    bitvectors: Sequence[Sequence[int]],
    inference_ms: float,
    oracle_ok: Optional[Iterable[bool]] = None,
) -> Iterator[ClassificationResult]:
    """Yield one :class:`ClassificationResult` per query of a batch.

    The one place both serving stacks build per-query results: the
    per-batch invariants (model name, capacity, amortized ms, label
    metadata) are computed once, while every result still gets its own
    fresh lists.  Results are built lazily, in batch order, so a caller
    resolving each future as it goes answers the first query without
    waiting for the rest.  ``oracle_ok`` (None when verification was
    off) is consumed in step, so it may be a lazy check too.
    """
    name = registered.name
    capacity = registered.layout.capacity
    spec = registered.spec
    codebook, label_names = spec.codebook, spec.label_names
    size = len(bitvectors)
    amortized_ms = inference_ms / size if size else 0.0
    checks = repeat(None) if oracle_ok is None else oracle_ok
    for query, bits, ok in zip(features, bitvectors, checks):
        yield ClassificationResult(
            model=name,
            features=list(query),
            result=InferenceResult(
                bitvector=list(bits),
                codebook=list(codebook),
                label_names=list(label_names),
            ),
            batch_id=batch_id,
            batch_fill=size,
            batch_capacity=capacity,
            amortized_ms=amortized_ms,
            oracle_ok=None if ok is None else bool(ok),
        )


@dataclass
class BatchRecord:
    """Measurements from one evaluated batch (for stats aggregation)."""

    model: str
    batch_id: int
    size: int
    capacity: int
    tracker: OpTracker
    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Number of queries whose bitvector disagreed with the plaintext
    #: oracle (None when verification was disabled).
    oracle_failures: Optional[int]

    @property
    def oracle_ok(self) -> Optional[bool]:
        if self.oracle_failures is None:
            return None
        return self.oracle_failures == 0

    @property
    def amortized_ms(self) -> float:
        return self.inference_ms / self.size if self.size else 0.0


@dataclass
class PendingQuery:
    """A validated submission waiting to be packed into a batch."""

    features: List[int]
    future: "Future[ClassificationResult]" = field(default_factory=Future)


@dataclass
class CutBatch:
    """A batch cut from the pending queue, ready for evaluation."""

    batch_id: int
    entries: List[PendingQuery]


class QueryBatcher:
    """Validates queries for one model and evaluates its cut batches."""

    def __init__(
        self,
        registered: RegisteredModel,
        seccomp_variant: str = VARIANT_ALOUFI,
        verify_oracle: bool = True,
        tracer=None,
        clock=None,
    ):
        self.registered = registered
        self.seccomp_variant = seccomp_variant
        self.verify_oracle = verify_oracle and registered.forest is not None
        #: Optional span tracer + clock: when both are set, evaluation
        #: emits pack / execute / demux / resolve stage spans parented
        #: on the scheduler's batch span (zero-cost when None).
        self.tracer = tracer
        self.clock = clock

    # ------------------------------------------------------------------
    # Submission-time validation
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.registered.layout.capacity

    def prepare(self, features) -> PendingQuery:
        """Validate one query and wrap it for scheduling.

        Fails here — before the query can occupy a queue slot or poison
        a batch — on arity/domain errors and on the pathological case of
        a layout whose per-query block is wider than the ciphertext
        itself (possible only with a hand-built layout, since
        :func:`~repro.serve.packing.plan_layout` rejects it at
        registration).
        """
        layout = self.registered.layout
        slots = self.registered.params.slot_count
        if layout.stride > slots:
            raise ValidationError(
                f"query width {layout.stride} exceeds the {slots} SIMD "
                f"slots of the registered parameters; this model cannot "
                f"pack even one query per ciphertext"
            )
        validated = validate_features(layout, features)
        return PendingQuery(features=validated)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        batch: CutBatch,
        parent_span: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> BatchRecord:
        """Run one batch end to end and resolve its futures.

        An evaluation failure is propagated through every future in the
        batch before being re-raised, so submitters always learn the
        outcome and the failure stays contained to those queries.

        ``parent_span``/``worker`` (from the scheduler's
        :class:`~repro.serve.scheduler.Assignment`) parent the stage
        spans a tracing-enabled batcher emits.
        """
        try:
            return self._evaluate(batch, parent_span, worker)
        except BaseException as exc:
            for entry in batch.entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            raise

    def _evaluate(
        self,
        batch: CutBatch,
        parent_span: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> BatchRecord:
        entries = batch.entries
        registered = self.registered
        layout = registered.layout
        tracer = self.tracer if self.clock is not None else None
        if tracer is not None:
            track = "batcher" if worker is None else f"worker:{worker}"

            def stage(name: str):
                return tracer.begin(
                    name, self.clock.now(), parent=parent_span,
                    track=track, batch_id=batch.batch_id,
                )

        # One consistent snapshot of the mutable registration fields:
        # the control plane may flip engine/backend between batches
        # (registry.set_engine / switch_backend), and a batch must run
        # entirely under one configuration.
        engine = registered.engine
        backend = registered.backend
        keys = registered.keys
        batched_model = registered.batched_model

        ctx = FheContext(registered.params, backend=backend)
        server = BatchedCopseServer(
            ctx,
            seccomp_variant=self.seccomp_variant,
            engine=engine,
            plan=registered.plan,
            tape=registered.tape,
            megakernel=registered.megakernel,
        )

        if tracer is not None:
            span = stage("pack")
        query = encrypt_batch(
            ctx, layout, [e.features for e in entries], keys
        )
        if tracer is not None:
            tracer.end(span, self.clock.now(), size=len(entries))
            span = stage("execute")
        encrypted = server.classify_batch(batched_model, query)
        if tracer is not None:
            tracer.end(
                span, self.clock.now(), engine=engine
            )
            span = stage("demux")
        bits = ctx.decrypt_bits(encrypted, keys.secret)
        bitvectors = demux_bitvectors(layout, bits, len(entries))
        if tracer is not None:
            tracer.end(span, self.clock.now())
            span = stage("resolve")

        cost = registered.cost_model
        if engine == ENGINE_TAPE:
            inference_phases = (PHASE_TAPE,)
        elif engine == ENGINE_MEGAKERNEL:
            inference_phases = (PHASE_MEGAKERNEL,)
        elif engine == ENGINE_PLAN:
            inference_phases = (PHASE_PLAN,)
        else:
            inference_phases = BATCH_INFERENCE_PHASES
        phase_ms = {
            phase: cost.phase_sequential_ms(ctx.tracker, phase)
            for phase in (PHASE_DATA_ENCRYPT,) + inference_phases
        }
        inference_ms = sum(phase_ms[p] for p in inference_phases)
        batch_id = batch.batch_id

        features = [e.features for e in entries]
        oracle_ok = None
        if self.verify_oracle:
            forest = registered.forest
            oracle_ok = (
                bits == forest.label_bitvector(query)
                for query, bits in zip(features, bitvectors)
            )
        failures = 0
        for entry, result in zip(entries, batch_results(
            registered, batch_id, features, bitvectors, inference_ms,
            oracle_ok,
        )):
            if result.oracle_ok is False:
                failures += 1
            entry.future.set_result(result)
        oracle_failures = failures if self.verify_oracle else None
        record = BatchRecord(
            model=registered.name,
            batch_id=batch_id,
            size=len(entries),
            capacity=layout.capacity,
            tracker=ctx.tracker,
            phase_ms=phase_ms,
            inference_ms=inference_ms,
            data_encrypt_ms=phase_ms[PHASE_DATA_ENCRYPT],
            oracle_failures=oracle_failures,
        )
        if tracer is not None:
            tracer.end(
                span, self.clock.now(),
                oracle_failures=oracle_failures or 0,
            )
        return record
