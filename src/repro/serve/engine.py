"""The layered serving engine: admission -> policy -> executors -> routing.

``ServeEngine`` decomposes what used to be one scheduler thread into four
explicit layers, each independently configurable:

1. **Admission** — a bounded request queue.  ``queue_limit`` caps the
   number of queued jobs; when full, :meth:`ServeEngine.submit` fast-fails
   with :class:`QueueFullError` instead of growing without bound.  Jobs may
   carry a deadline; a job still queued past its deadline fails with
   :class:`DeadlineExpiredError` rather than occupying a trajectory a
   caller has already given up on.
2. **Batching policy** — a pluggable :class:`BatchPolicy` decides which
   queued jobs form the next batch: ``greedy`` reproduces the classic
   gather-window FIFO behavior, ``shape_bucketed`` groups compatible jobs
   across the whole queue so one trajectory carries as many samples as
   possible, ``fair_share`` round-robins across request *sources* so a
   bulk client cannot starve interactive ones.
3. **Executor pool** — a pluggable :class:`ExecutorBackend`
   (:mod:`repro.serve.executors`): ``executor="thread"`` (default) runs
   ``engine_workers`` in-process threads, behavior-identical to the
   classic pool; ``executor="process"`` runs spawned worker processes
   that rehydrate their own fitted model from the disk registry and
   return batches through shared memory — true multi-core parallelism.
   Incompatible batches (different shapes, step schedules or models) no
   longer serialize behind each other.  ``stop`` drains gracefully,
   preserving the scheduler lifecycle guarantees (submit-after-stop
   raises, restart works, nothing ever hangs); a crashed process worker
   is respawned, its in-flight batch retried once, then failed with the
   terminal ``worker_crashed`` code.
4. **Routing** — the engine serves many models at once: :meth:`bind`
   resolves a :class:`~repro.serve.registry.ModelKey` through a
   :class:`~repro.serve.registry.ModelRegistry` (or accepts a pre-fitted
   model) and returns an :class:`EngineClient` whose jobs are tagged with
   their back-end.  A batch is always one trajectory of one model, but
   different models' batches execute concurrently on the pool.

:class:`~repro.serve.batching.MicroBatchScheduler` is now a thin
single-model facade over a private engine, so every existing caller gets
the new layers without an API change.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict, deque
from contextlib import contextmanager
from concurrent.futures import Future
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import faults
from repro.api.config import SERVE_POLICIES, TuneConfig
from repro.diffusion.model import SamplerSteps
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    bucket_percentile,
    default_metrics,
)
from repro.serve.stats import BatchRecord, EngineStats, SchedulerStats
from repro.tune.controller import AdaptiveController, EngineLoadSnapshot


class EngineError(RuntimeError):
    """Base class of the engine's typed failure modes.

    Every subclass carries a stable machine-readable ``code`` so wire
    protocols and clients key on the code, never the message text.
    """

    code = "internal"


class QueueFullError(EngineError):
    """Admission rejected a job: the bounded queue is at ``queue_limit``.

    The backpressure signal of the serving engine — callers should shed
    load or retry later instead of queueing unboundedly.
    """

    code = "queue_full"


class DeadlineExpiredError(EngineError):
    """A job's deadline passed while it was still queued."""

    code = "deadline_expired"


class WorkerCrashedError(EngineError):
    """An executor worker died executing this job's batch — twice.

    The process tier retries an in-flight batch once on a fresh worker;
    only a second crash surfaces this terminal error to the affected jobs
    (the engine itself keeps serving on its remaining/respawned workers).
    """

    code = "worker_crashed"


class UnknownPolicyError(ValueError):
    """A batch-policy name is not in the registry.

    Carries the registered names as ``known`` (and lists them in the
    message), so callers — CLI validation, config errors — can show what
    *would* have worked.
    """

    def __init__(self, policy, known: Sequence[str]):
        self.policy = policy
        self.known = tuple(sorted(known))
        super().__init__(
            f"unknown batch policy {policy!r}; known: {list(self.known)}"
        )


def model_supports_sampler_steps(model) -> bool:
    """Explicit backend-protocol check for the step-schedule capability.

    A sampling back-end that understands the ``sampler_steps`` kwarg of
    ``sample_batch`` declares it with a truthy ``supports_sampler_steps``
    attribute (:class:`~repro.diffusion.model.ConditionalDiffusionModel`
    sets it as a class attribute).  Legacy stand-ins that lack the
    attribute are never passed the kwarg — they sample their own way.
    """
    return bool(getattr(model, "supports_sampler_steps", False))


# ---------------------------------------------------------------------------
# Jobs


class EngineJob:
    """One sampling job inside the engine (the unit the policies see).

    ``repro.serve.batching.SampleJob`` aliases this class, so the public
    scheduler surface is unchanged; the engine adds the routing/admission
    fields (``model``, ``source``, ``deadline``).

    ``known``/``keep`` (``(count, H, W)`` stacks, or ``None``) make the
    job a masked repaint (Eq. 12): it rides the same trajectory as plain
    jobs of its key, its rows blended RePaint-style inside
    ``sample_batch``.  ``requester`` names the request that submitted it,
    for the gather window's early close (see
    :meth:`ServeEngine.request_scope`).
    """

    __slots__ = (
        "count",
        "condition",
        "shape",
        "seed",
        "sampler_steps",
        "source",
        "deadline",
        "model",
        "model_key",
        "model_label",
        "submitted_at",
        "future",
        "queue_wait",
        "batch_samples",
        "selected_at",
        "exec_started_at",
        "exec_ended_at",
        "requested_sampler_steps",
        "degrade_level",
        "known",
        "keep",
        "requester",
    )

    def __init__(
        self,
        count: int,
        condition: Optional[int],
        shape: Tuple[int, int],
        seed: int = 0,
        sampler_steps: SamplerSteps = None,
        source: str = "default",
        deadline: Optional[float] = None,
        model=None,
        model_label: str = "model",
        model_key=None,
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
        requester=None,
    ):
        self.count = int(count)
        self.condition = condition
        self.shape = tuple(shape)
        # Checked at admission: a malformed stack must fail its own
        # submit, not the shared trajectory of every other rider.
        if (known is None) != (keep is None):
            raise ValueError("known and keep must be given together")
        if known is not None:
            known = np.asarray(known, dtype=np.uint8)
            keep = np.asarray(keep, dtype=np.uint8)
            expected = (self.count, *self.shape)
            if known.shape != expected or keep.shape != expected:
                raise ValueError(
                    f"known {known.shape} / keep {keep.shape} must both "
                    f"be {expected}"
                )
        self.known = known
        self.keep = keep
        self.requester = requester
        self.seed = int(seed)
        self.sampler_steps = sampler_steps
        self.source = source
        #: absolute ``time.perf_counter`` instant after which the job is
        #: dead on arrival at a worker (``None`` = no deadline)
        self.deadline = deadline
        self.model = model
        #: the recipe (:class:`~repro.serve.registry.ModelKey`) behind
        #: ``model`` — required by process-tier executors, whose workers
        #: resolve the model by recipe_hash rather than by object.
        self.model_key = model_key
        self.model_label = model_label
        self.submitted_at = time.perf_counter()
        self.future: "Future[np.ndarray]" = Future()
        self.queue_wait = 0.0
        self.batch_samples = 0  # total samples of the batch this job rode in
        # Lifecycle timestamps (perf_counter) stamped by the engine, the
        # substrate per-request traces are built from: when the policy
        # selected this job, and when its trajectory started/finished.
        self.selected_at = 0.0
        self.exec_started_at = 0.0
        self.exec_ended_at = 0.0
        # Adaptive-policy provenance: when the policy degrades a job's
        # step schedule at selection time, the original ask and the
        # controller level land here so the response can report it.
        self.requested_sampler_steps: SamplerSteps = None
        self.degrade_level = 0

    @property
    def batch_key(self) -> Tuple:
        """Trajectory compatibility: jobs coalesce only within one key."""
        return (id(self.model), self.shape, self.sampler_steps)

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until a worker delivers this job's samples."""
        return self.future.result(timeout=timeout)


class TrajectoryPlan:
    """One fully-derived trajectory: the unit an executor backend runs.

    :meth:`ServeEngine._plan` turns a selected batch into plans — jobs
    grouped by trajectory key, re-sorted into arrival order, conditions
    stacked and seeds collected — so every backend executes *identical*
    trajectories: the thread tier calls ``model.sample_batch`` in-process,
    the process tier ships everything but the model object to a worker
    that rebuilds the same rng from the same seeds.  ``known``/``keep``
    stack the riders' repaint masks (zero rows for plain riders), or are
    ``None`` when no rider is masked.
    """

    __slots__ = (
        "jobs",
        "shape",
        "sampler_steps",
        "pass_sampler_steps",
        "model",
        "model_key",
        "model_label",
        "conditions",
        "seeds",
        "known",
        "keep",
    )

    def __init__(
        self,
        jobs: List["EngineJob"],
        shape: Tuple[int, int],
        sampler_steps: SamplerSteps,
        pass_sampler_steps: bool,
        model,
        model_key,
        model_label: str,
        conditions: List[Optional[int]],
        seeds: List[int],
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
    ):
        self.jobs = jobs
        self.shape = shape
        self.sampler_steps = sampler_steps
        #: whether the thread tier would pass the ``sampler_steps`` kwarg
        #: (capability-checked against the *parent's* model object, so
        #: process workers make the identical call).
        self.pass_sampler_steps = pass_sampler_steps
        self.model = model
        self.model_key = model_key
        self.model_label = model_label
        self.conditions = conditions
        self.seeds = seeds
        self.known = known
        self.keep = keep

    @property
    def samples(self) -> int:
        return len(self.conditions)

    def sample_kwargs(self) -> Dict:
        """Keyword arguments of this plan's ``sample_batch`` call.

        The step schedule is passed iff the parent's model declares the
        capability, the repaint stacks iff some rider is masked — every
        tier makes the identical call.
        """
        kwargs: Dict = {}
        if self.sampler_steps is not None and self.pass_sampler_steps:
            kwargs["sampler_steps"] = self.sampler_steps
        if self.known is not None:
            kwargs["known"] = self.known
            kwargs["keep"] = self.keep
        return kwargs


# ---------------------------------------------------------------------------
# Batching policies


class BatchPolicy:
    """Strategy deciding which queued jobs form the next batch.

    ``select`` is called under the admission queue's lock with the queued
    jobs in arrival order; it must return a non-empty subset (when given a
    non-empty queue), which the engine removes and executes.  A selection
    may mix trajectory keys — the executor splits it into one trajectory
    per key and re-sorts each trajectory's jobs into arrival order, so a
    request's samples are reproducible for a fixed batch composition
    regardless of the order a policy picked the jobs in.

    Policies may keep state (e.g. fair-share rotation); the engine only
    calls ``select`` under the queue lock, so no extra locking is needed.
    Selection should stay O(jobs): it runs with admission blocked.
    """

    name = "base"

    def select(
        self, jobs: Sequence[EngineJob], max_batch: int
    ) -> List[EngineJob]:
        raise NotImplementedError

    def attach(self, engine: "ServeEngine") -> None:
        """Adoption hook: called once from ``ServeEngine.__init__``.

        Stateless policies ignore it; the adaptive policy uses it to grab
        the engine's metrics instruments and baseline gather window.
        """

    def tick(self, engine: "ServeEngine", now: float) -> None:
        """Periodic load hook, called under the engine's queue lock.

        Fires both when a worker is about to select a batch *and* on the
        idle wait loop — so a policy reacting to load keeps reacting when
        the queue is empty (that is what lets the adaptive policy restore
        full quality after a spike drains, instead of freezing at its
        last degraded level).  Must be cheap: it runs with admission
        blocked.  The base hook is a no-op.
        """


class GreedyPolicy(BatchPolicy):
    """Classic gather-window behavior: FIFO prefix up to ``max_batch``.

    Exactly the pre-engine scheduler: take jobs in arrival order until the
    sample budget is reached (the last job may overshoot it, as before).
    """

    name = "greedy"

    def select(self, jobs, max_batch):
        picked: List[EngineJob] = []
        total = 0
        for job in jobs:
            picked.append(job)
            total += job.count
            if total >= max_batch:
                break
        return picked


class ShapeBucketedPolicy(BatchPolicy):
    """Group compatible jobs across the *whole* queue, not a FIFO window.

    All queued jobs are bucketed by trajectory key (model, shape, step
    schedule) and the bucket with the most samples wins (ties: the bucket
    whose first job arrived earliest).  Interleaved mixed-shape traffic
    that greedy would fragment into tiny per-shape trajectories coalesces
    into full batches — and with multiple workers, the next-biggest bucket
    executes concurrently instead of waiting its turn.

    Anti-starvation aging: a minority-shape job on a busy queue would
    otherwise never belong to the biggest bucket.  Once the oldest queued
    job has waited longer than ``max_wait`` seconds, its bucket is
    selected regardless of size, so every bucket makes progress even on a
    single-worker engine under sustained majority-shape load.
    """

    name = "shape_bucketed"

    def __init__(self, max_wait: float = 0.25) -> None:
        self.max_wait = float(max_wait)

    def select(self, jobs, max_batch):
        buckets: "OrderedDict[Tuple, List[EngineJob]]" = OrderedDict()
        for job in jobs:
            buckets.setdefault(job.batch_key, []).append(job)
        oldest = min(jobs, key=lambda job: job.submitted_at)
        if time.perf_counter() - oldest.submitted_at > self.max_wait:
            best = buckets[oldest.batch_key]
        else:
            # Insertion order IS first-arrival order, so the enumeration
            # position breaks ties without rescanning the queue.
            best = min(
                buckets.values(),
                key=lambda group: -sum(job.count for job in group),
            )
        picked: List[EngineJob] = []
        total = 0
        for job in best:
            picked.append(job)
            total += job.count
            if total >= max_batch:
                break
        return picked


class FairSharePolicy(BatchPolicy):
    """Round-robin across request sources so no client starves another.

    Jobs are grouped by their ``source`` tag; sources are visited in
    least-served-first order (by cumulative samples served) and the batch
    is filled one job per source per round.  A bulk client with a hundred
    queued jobs therefore shares every batch with the interactive client
    that submitted one — instead of monopolizing the pool until its
    backlog drains.
    """

    name = "fair_share"

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}

    def select(self, jobs, max_batch):
        by_source: "OrderedDict[str, deque]" = OrderedDict()
        for job in jobs:
            by_source.setdefault(job.source, deque()).append(job)
        # Least-served sources pick first; insertion (arrival) order breaks
        # ties so the rotation is deterministic.
        arrival = {source: i for i, source in enumerate(by_source)}
        ordered = sorted(
            by_source,
            key=lambda source: (self._served.get(source, 0), arrival[source]),
        )
        picked: List[EngineJob] = []
        total = 0
        while total < max_batch:
            progressed = False
            for source in ordered:
                queue = by_source[source]
                if not queue:
                    continue
                job = queue.popleft()
                picked.append(job)
                total += job.count
                progressed = True
                if total >= max_batch:
                    break
            if not progressed:
                break
        for job in picked:
            self._served[job.source] = (
                self._served.get(job.source, 0) + job.count
            )
        return picked


class AdaptivePolicy(BatchPolicy):
    """SLO-holding policy: greedy selection under a degrade controller.

    The online half of the ``repro.tune`` self-tuning subsystem.  Each
    tick (idle and pre-selection, under the queue lock) the policy feeds
    the engine's :class:`~repro.tune.controller.EngineLoadSnapshot` —
    queue depth, windowed queue-wait p95, worker busy fraction — to an
    :class:`~repro.tune.controller.AdaptiveController`.  Under sustained
    queue pressure the controller steps down a degrade ladder; while
    degraded, selected jobs' effective ``sampler_steps`` are rewritten
    toward ``"bucketed"`` (never below the configured floor, never above
    what the job asked for) and the engine's gather window is widened so
    batches coalesce harder.  When load calms, quality restores after the
    hysteresis window.  Every transition is counted
    (``repro_adaptive_degrade_total{direction}``), the current level is
    exported (``repro_adaptive_level``), and each degraded job carries
    its original ask in ``requested_sampler_steps``/``degrade_level`` so
    the response layer can stamp a ``degraded`` engine event.

    ``inner`` is the selection strategy being steered (greedy by default,
    matching the classic gather-window behavior when at full quality).
    """

    name = "adaptive"

    def __init__(
        self,
        controller: Optional[AdaptiveController] = None,
        config: Optional[TuneConfig] = None,
        inner: Optional[BatchPolicy] = None,
    ):
        if controller is not None and config is not None:
            raise ValueError("pass controller or config, not both")
        self.controller = (
            controller
            if controller is not None
            else AdaptiveController(config)
        )
        self.inner = inner if inner is not None else GreedyPolicy()
        self._base_gather: Optional[float] = None
        self._m_transitions = None
        self._m_level = None

    def attach(self, engine: "ServeEngine") -> None:
        self._base_gather = engine.gather_window
        self._m_transitions = engine._m_adaptive_transitions
        self._m_level = engine._m_adaptive_level

    def tick(self, engine: "ServeEngine", now: float) -> None:
        ctrl = self.controller
        if not ctrl.due(now):
            return
        before = ctrl.level
        level = ctrl.observe(engine._load_snapshot_locked(now))
        if level == before:
            return
        if self._m_transitions is not None:
            self._m_transitions.inc(
                direction="degrade" if level > before else "restore"
            )
            self._m_level.set(level)
        base = (
            self._base_gather
            if self._base_gather is not None
            else engine.gather_window
        )
        # Wider gathering while degraded, but never wide enough to spend
        # the SLO budget on waiting: cap at a quarter of the SLO.
        cap = max(base, 0.25 * ctrl.config.slo_p95)
        engine.gather_window = min(base * ctrl.gather_scale(), cap)

    def select(self, jobs, max_batch):
        picked = self.inner.select(jobs, max_batch)
        level = self.controller.level
        if level > 0:
            for job in picked:
                effective = self.controller.effective_steps(job.sampler_steps)
                if effective != job.sampler_steps:
                    job.requested_sampler_steps = job.sampler_steps
                    job.sampler_steps = effective
                    job.degrade_level = level
        return picked


_POLICY_CLASSES: Dict[str, Callable[[], BatchPolicy]] = {
    GreedyPolicy.name: GreedyPolicy,
    ShapeBucketedPolicy.name: ShapeBucketedPolicy,
    FairSharePolicy.name: FairSharePolicy,
    AdaptivePolicy.name: AdaptivePolicy,
}
assert set(_POLICY_CLASSES) == set(SERVE_POLICIES)


def resolve_batch_policy(policy: Union[str, BatchPolicy]) -> BatchPolicy:
    """Accept a policy instance or one of the registered policy names.

    Unknown names raise :class:`UnknownPolicyError` (a ``ValueError``)
    listing the registered names.
    """
    if isinstance(policy, BatchPolicy):
        return policy
    try:
        return _POLICY_CLASSES[policy]()
    except KeyError:
        raise UnknownPolicyError(policy, _POLICY_CLASSES) from None


# ---------------------------------------------------------------------------
# The engine


class ServeEngine:
    """Multi-worker, policy-driven, multi-model sampling engine.

    Args:
        registry: :class:`~repro.serve.registry.ModelRegistry` used by
            :meth:`bind` to resolve :class:`ModelKey` recipes.  Optional —
            an engine fed only pre-fitted models never needs one.
        policy: batching policy name (``"greedy"`` | ``"shape_bucketed"``
            | ``"fair_share"`` | ``"adaptive"``) or a :class:`BatchPolicy`
            instance (e.g. an :class:`AdaptivePolicy` built from a
            specific :class:`~repro.api.config.TuneConfig`).
        engine_workers: executor threads draining batches in parallel.
        queue_limit: max queued jobs before :meth:`submit` fast-fails with
            :class:`QueueFullError` (``None`` = unbounded, the legacy
            behavior).
        gather_window: seconds a worker keeps collecting after it sees the
            first queued job, giving concurrent submitters a chance to
            coalesce.  Skipped while draining, once a full batch is
            queued, or once every request running in a
            :meth:`request_scope` has a job queued.
        max_batch: sample budget per selected batch.
        deadline: default per-job deadline in seconds from submission
            (``None`` = jobs never expire).  Per-job deadlines override it.
        executor: executor backend name (``"thread"`` | ``"process"``) or
            an :class:`~repro.serve.executors.ExecutorBackend` instance.
            ``"process"`` requires a registry with a disk tier and jobs
            that carry a ``model_key`` (bind by recipe, or pass ``key=``
            to :meth:`bind`).
        metrics: :class:`~repro.obs.metrics.MetricsRegistry` the engine
            reports into (``None`` = the process-wide default registry;
            pass :data:`~repro.obs.metrics.NULL_METRICS` to disable).
    """

    def __init__(
        self,
        registry=None,
        policy: Union[str, BatchPolicy] = "greedy",
        engine_workers: int = 1,
        queue_limit: Optional[int] = None,
        gather_window: float = 0.02,
        max_batch: int = 64,
        deadline: Optional[float] = None,
        executor="thread",
        metrics=None,
    ):
        if gather_window < 0:
            raise ValueError("gather_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if engine_workers < 1:
            raise ValueError("engine_workers must be >= 1")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (or None)")
        self.registry = registry
        self.policy = resolve_batch_policy(policy)
        self.engine_workers = int(engine_workers)
        self.queue_limit = queue_limit
        self.gather_window = float(gather_window)
        self.max_batch = int(max_batch)
        self.deadline = deadline

        # -- admission queue (layer 1) --------------------------------
        self._jobs: List[EngineJob] = []
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        #: requester tokens of the requests currently running in a
        #: :meth:`request_scope` (guarded by the queue lock)
        self._running: set = set()

        # -- executor pool (layer 3) ----------------------------------
        # Lazy import: executors imports engine types, so the backend
        # registry resolves at construction, not at module load.
        from repro.serve.executors import resolve_executor

        self.executor = resolve_executor(executor)
        self._draining = threading.Event()  # graceful: finish the queue
        self._halt = threading.Event()  # hard: finish in-flight, fail rest
        self._stopped = False  # a stopped engine refuses new jobs
        # Serializes start/stop/submit: a submit cannot slip a job between
        # a stop()'s drain and its stopped-flag flip, and a stop()'s sweep
        # cannot steal jobs from a concurrently restarted engine.  Workers
        # never take this lock, so joins cannot deadlock.
        self._lifecycle_lock = threading.Lock()

        # -- routing (layer 4) ----------------------------------------
        # Weak values: a binding must not pin its model in memory for the
        # engine's lifetime — long-lived multi-tenant engines rely on the
        # registry's LRU to bound resident fitted models, and dropping the
        # last client reference releases the model as before the engine.
        self._bindings: "weakref.WeakValueDictionary[int, EngineClient]" = (
            weakref.WeakValueDictionary()
        )
        self._bind_count = 0
        self._bind_lock = threading.Lock()

        # -- observability --------------------------------------------
        self._records: List[BatchRecord] = []
        self._records_lock = threading.Lock()
        self._submitted = 0
        self._rejected = 0
        self._expired = 0
        self.metrics = metrics if metrics is not None else default_metrics()
        m = self.metrics
        self._m_queue_depth = m.gauge(
            "repro_queue_depth", "Jobs currently queued for batching"
        )
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "Jobs admitted into the engine"
        )
        self._m_rejected = m.counter(
            "repro_jobs_rejected_total",
            "Jobs fast-failed by admission backpressure",
        )
        self._m_expired = m.counter(
            "repro_jobs_expired_total",
            "Jobs whose deadline passed while still queued",
        )
        self._m_batch_size = m.histogram(
            "repro_batch_size_samples",
            "Samples per executed batch",
            buckets=DEFAULT_SIZE_BUCKETS,
            labels=("policy",),
        )
        self._m_gather_latency = m.histogram(
            "repro_gather_latency_seconds",
            "Worker wait from entering the gather loop to batch selection",
            labels=("policy",),
        )
        self._m_batch_latency = m.histogram(
            "repro_batch_latency_seconds",
            "Batched trajectory execution wall time",
            labels=("policy",),
        )
        self._m_queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Per-job time from submission to batch selection",
        )
        self._m_worker_busy = m.counter(
            "repro_worker_busy_seconds_total",
            "Summed trajectory execution time per executor worker",
            labels=("worker",),
        )
        # Process-tier supervision instruments (stay at zero for threads).
        self._m_worker_restarts = m.counter(
            "repro_engine_worker_restarts_total",
            "Executor worker processes respawned after a crash",
            labels=("worker",),
        )
        self._m_ipc_roundtrip = m.histogram(
            "repro_ipc_roundtrip_seconds",
            "Process-executor dispatch overhead: round trip minus the "
            "child's own execution time",
            labels=("worker",),
        )
        self._m_worker_active = m.gauge(
            "repro_engine_worker_busy",
            "1 while an executor worker slot is executing a batch",
            labels=("worker",),
        )
        # Self-tuning instruments (stay at zero for static policies).
        self._m_adaptive_transitions = m.counter(
            "repro_adaptive_degrade_total",
            "Adaptive-policy level transitions (quality degrade/restore)",
            labels=("direction",),
        )
        self._m_adaptive_level = m.gauge(
            "repro_adaptive_level",
            "Current adaptive-policy degrade level (0 = full quality)",
        )

        # -- load-snapshot window state (read by the adaptive policy) --
        # Trajectory execution time accumulates here (under
        # ``_records_lock``) in addition to the per-worker counter, so
        # snapshots derive a busy fraction without scanning records.
        self._busy_total = 0.0
        self._load_prev: Optional[Tuple] = None
        self.policy.attach(self)

    # -- routing -------------------------------------------------------

    def bind(
        self,
        model_or_key,
        sampler_steps: SamplerSteps = None,
        source: str = "default",
        label: Optional[str] = None,
        key=None,
    ) -> "EngineClient":
        """Resolve a back-end and return its submission handle.

        ``model_or_key`` is either a pre-fitted model object or a
        :class:`~repro.serve.registry.ModelKey` /
        :class:`~repro.api.config.TrainConfig` recipe resolved through the
        engine's registry (fitting on first use).  Binding the same model
        object twice shares one routing token, so jobs from different
        clients of one model still coalesce.

        ``key`` names the recipe behind a pre-fitted model: process-tier
        executors resolve models by recipe_hash in their workers, so jobs
        they execute must carry one (binding by recipe sets it
        automatically).
        """
        from repro.api.config import TrainConfig

        if isinstance(model_or_key, TrainConfig):
            if self.registry is None:
                raise ValueError(
                    "binding a ModelKey requires an engine registry"
                )
            from repro.serve.registry import ModelKey

            key = ModelKey.from_config(model_or_key)
            model = self.registry.get_or_fit(key)
            label = label or f"model-{key.recipe_hash()[:8]}"
        else:
            model = model_or_key
            if key is not None:
                from repro.serve.registry import ModelKey

                key = ModelKey.from_config(key)
        token = id(model)
        with self._bind_lock:
            existing = self._bindings.get(token)
            if label is None:
                label = (
                    existing.label
                    if existing is not None
                    else f"model-{self._bind_count}"
                )
            self._bind_count += 1
            client = EngineClient(
                self,
                model,
                label,
                sampler_steps=sampler_steps,
                source=source,
                model_key=key,
            )
            self._bindings[token] = client
        return client

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self.executor.running

    def start(self) -> "ServeEngine":
        with self._lifecycle_lock:
            if self.running:
                return self
            self._draining.clear()
            self._halt.clear()
            self._stopped = False
            self.executor.start(self)
            return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain queued jobs, then stop the worker pool.

        Graceful first: workers keep executing until the queue is empty
        (skipping gather windows), then exit.  If the drain exceeds
        ``timeout`` the pool is halted — workers finish their in-flight
        batch and every job still queued fails rather than hang its
        caller.  ``running`` only flips once every worker is actually
        dead, so a restart can never race a live pool.  Once the loops
        end, ``executor.shutdown()`` reaps backend resources (process
        workers, shared-memory segments) — no orphans survive.
        """
        with self._lifecycle_lock:
            if not self.running:
                # Idempotent resource sweep: loops may have exited on
                # their own (all-crashed slots), children could remain.
                self.executor.shutdown()
                return
            self._draining.set()
            with self._has_work:
                self._has_work.notify_all()
            deadline = time.perf_counter() + timeout
            self.executor.join(deadline)
            if self.executor.running:
                self._halt.set()
                with self._has_work:
                    self._has_work.notify_all()
                self.executor.join(time.perf_counter() + timeout)
            if not self.executor.running:
                self.executor.shutdown()
                self._stopped = True
                # Hard-halt case: sweep whatever the pool never drained.
                self._fail_pending("engine stopped before job ran")

    def __enter__(self) -> "ServeEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- admission (layer 1) -------------------------------------------

    @contextmanager
    def request_scope(self) -> Iterator[object]:
        """Count one request as running; yields its ``requester`` token.

        Jobs submitted with the token let the gather window close as soon
        as every running request has a job queued: nobody else could join
        the batch, so waiting out the window would only add latency (a
        lone request never pays it).  Jobs without a live token never
        shorten the window.
        """
        token = object()
        with self._has_work:
            self._running.add(token)
        try:
            yield token
        finally:
            with self._has_work:
                self._running.discard(token)
                self._has_work.notify_all()

    def _all_running_queued_locked(self) -> bool:
        """Whether every scoped running request has a job queued."""
        if not self._running:
            return False
        queued = {
            job.requester for job in self._jobs
            if job.requester in self._running
        }
        return len(queued) == len(self._running)

    def submit_job(self, job: EngineJob) -> EngineJob:
        """Admit a fully-formed job into the queue (or fast-fail)."""
        if job.count < 1:
            raise ValueError("count must be >= 1")
        if job.model is None:
            raise ValueError("job must carry a model (use EngineClient)")
        if self.executor.requires_model_key and job.model_key is None:
            raise ValueError(
                f'the {self.executor.name!r} executor resolves models by '
                "recipe in its workers: bind by ModelKey/TrainConfig, or "
                "pass key= to bind() for a pre-fitted model"
            )
        if job.deadline is None and self.deadline is not None:
            job.deadline = job.submitted_at + self.deadline
        with self._lifecycle_lock:
            if self._stopped and not self.running:
                raise RuntimeError(
                    "engine is stopped; call start() before submitting"
                )
            with self._has_work:
                if (
                    self.queue_limit is not None
                    and len(self._jobs) >= self.queue_limit
                ):
                    self._rejected += 1
                    self._m_rejected.inc()
                    raise QueueFullError(
                        f"admission queue is full ({len(self._jobs)} queued, "
                        f"queue_limit={self.queue_limit}); retry later"
                    )
                self._jobs.append(job)
                self._submitted += 1
                self._m_submitted.inc()
                self._m_queue_depth.set(len(self._jobs))
                self._has_work.notify()
        return job

    def _fail_pending(self, message: str) -> None:
        """Fail every queued job so no caller hangs on ``result()``."""
        with self._has_work:
            leftovers, self._jobs = self._jobs, []
            self._m_queue_depth.set(0)
        for job in leftovers:
            if not job.future.done():
                try:
                    job.future.set_exception(RuntimeError(message))
                except Exception:  # already resolved by a concurrent sweep
                    pass

    def _expire_locked(self, now: float) -> List[EngineJob]:
        """Partition out deadline-expired jobs (queue lock held)."""
        if not any(job.deadline is not None for job in self._jobs):
            return []
        expired = [
            job
            for job in self._jobs
            if job.deadline is not None and now > job.deadline
        ]
        if expired:
            self._jobs = [job for job in self._jobs if job not in expired]
            self._expired += len(expired)
            self._m_expired.inc(len(expired))
            self._m_queue_depth.set(len(self._jobs))
        return expired

    @staticmethod
    def _fail_expired(expired: Sequence[EngineJob]) -> None:
        for job in expired:
            if not job.future.done():
                try:
                    job.future.set_exception(
                        DeadlineExpiredError(
                            f"job deadline expired after "
                            f"{time.perf_counter() - job.submitted_at:.3f}s "
                            "in queue"
                        )
                    )
                except Exception:
                    pass

    # -- executor pool (layer 3) ---------------------------------------

    def _worker_loop(self, index: int) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                break
            self._execute(batch, worker=index)
        if self._halt.is_set():
            self._fail_pending("engine stopped before job ran")

    def _queued_samples_locked(self) -> int:
        return sum(job.count for job in self._jobs)

    def _next_batch(self) -> Optional[List[EngineJob]]:
        """Block for work, honor the gather window, apply the policy.

        Returns ``None`` when the worker should exit: the pool is halting,
        or it is draining and the queue is empty.  Multiple workers may
        gather concurrently — selection runs under the queue lock, so each
        job lands in exactly one batch.
        """
        while True:
            expired: List[EngineJob] = []
            selected: Optional[List[EngineJob]] = None
            with self._has_work:
                while not self._jobs:
                    if self._halt.is_set() or self._draining.is_set():
                        return None
                    # Idle tick: load-reactive policies must keep seeing
                    # the (calm) queue while nothing is arriving, or a
                    # degraded level would outlive the spike that caused
                    # it.  No-op for the static policies.
                    self.policy.tick(self, time.perf_counter())
                    self._has_work.wait(timeout=0.05)
                # Gather latency starts the instant this worker first sees
                # queued work, so idle blocking above never counts.
                saw_work = time.perf_counter()
                self.policy.tick(self, saw_work)
                expired.extend(self._expire_locked(time.perf_counter()))
                if self._jobs:
                    if (
                        self.gather_window > 0
                        and not self._draining.is_set()
                        and not self._halt.is_set()
                        and self._queued_samples_locked() < self.max_batch
                        and not self._all_running_queued_locked()
                    ):
                        gather_until = time.perf_counter() + self.gather_window
                        while (
                            self._queued_samples_locked() < self.max_batch
                            and not self._draining.is_set()
                            and not self._halt.is_set()
                            and not self._all_running_queued_locked()
                        ):
                            remaining = gather_until - time.perf_counter()
                            if remaining <= 0:
                                break
                            self._has_work.wait(timeout=remaining)
                        expired.extend(
                            self._expire_locked(time.perf_counter())
                        )
                    if self._jobs:
                        selected = self.policy.select(
                            list(self._jobs), self.max_batch
                        )
                        if selected:
                            chosen = set(id(job) for job in selected)
                            self._jobs = [
                                job
                                for job in self._jobs
                                if id(job) not in chosen
                            ]
                            self._m_queue_depth.set(len(self._jobs))
            # Futures resolve outside the queue lock: a caller woken by
            # set_exception must never contend with admission.
            self._fail_expired(expired)
            if selected:
                self._m_gather_latency.observe(
                    time.perf_counter() - saw_work, policy=self.policy.name
                )
                return selected
            # Everything expired or another worker selected first — loop.

    # -- execution (one trajectory per compatible group) ----------------

    def _plan(
        self, jobs: Sequence[EngineJob], worker: int = 0
    ) -> List[TrajectoryPlan]:
        """Turn a selected batch into executable trajectory plans.

        Stamps selection timestamps, groups jobs by trajectory key, and
        derives each group's stacked conditions + seed list.  Every
        executor backend runs the returned plans — the derivation happens
        exactly once, so tiers cannot drift apart.
        """
        now = time.perf_counter()
        for job in jobs:
            job.queue_wait = now - job.submitted_at
            job.selected_at = now
            self._m_queue_wait.observe(job.queue_wait)
        groups: "OrderedDict[Tuple, List[EngineJob]]" = OrderedDict()
        for job in jobs:
            groups.setdefault(job.batch_key, []).append(job)
        plans: List[TrajectoryPlan] = []
        for (_, shape, steps), group in groups.items():
            # A trajectory's riders always line up in arrival order, so the
            # stacked conditions and the derived seed sequence — and hence
            # each job's samples — do not depend on the order the policy
            # happened to pick the jobs in (fair-share interleaves sources).
            group.sort(key=lambda job: job.submitted_at)
            model = group[0].model
            conditions: List[Optional[int]] = []
            for job in group:
                conditions.extend([job.condition] * job.count)
            known = keep = None
            if any(job.known is not None for job in group):
                # Plain riders become all-zero keep rows of the same blend.
                blank = [
                    np.zeros((job.count, *shape), np.uint8) for job in group
                ]
                known = np.concatenate([
                    job.known if job.known is not None else zero
                    for job, zero in zip(group, blank)
                ])
                keep = np.concatenate([
                    job.keep if job.keep is not None else zero
                    for job, zero in zip(group, blank)
                ])
            plans.append(
                TrajectoryPlan(
                    jobs=group,
                    shape=shape,
                    sampler_steps=steps,
                    pass_sampler_steps=model_supports_sampler_steps(model),
                    model=model,
                    model_key=group[0].model_key,
                    model_label=group[0].model_label,
                    conditions=conditions,
                    seeds=[job.seed % (2**32) for job in group],
                    known=known,
                    keep=keep,
                )
            )
        return plans

    def _execute(self, jobs: Sequence[EngineJob], worker: int = 0) -> None:
        """In-process execution of a selected batch (the thread tier)."""
        for plan in self._plan(jobs, worker=worker):
            self._run_plan_local(plan, worker=worker)

    def _run_plan_local(self, plan: TrajectoryPlan, worker: int = 0) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(plan.seeds))
        started = time.perf_counter()
        try:
            faults.fire("engine.execute")
            samples = plan.model.sample_batch(
                plan.conditions, rng, shape=plan.shape, **plan.sample_kwargs()
            )
        except Exception as exc:  # propagate to every waiting caller
            self._fail_plan(plan, exc)
            return
        wall = time.perf_counter() - started
        self._finish_plan(plan, samples, started, wall, worker=worker)

    def _finish_plan(
        self,
        plan: TrajectoryPlan,
        samples: np.ndarray,
        started: float,
        wall: float,
        worker: int = 0,
    ) -> None:
        """Record a delivered trajectory and distribute its samples.

        Called by every executor backend once a plan's samples exist —
        in-process for threads, copied out of shared memory for process
        workers.  ``started``/``wall`` are parent-clock dispatch time and
        duration, so traces stay consistent across tiers.
        """
        with self._records_lock:
            self._records.append(
                BatchRecord(
                    jobs=len(plan.jobs),
                    samples=plan.samples,
                    shape=plan.shape,
                    wall_seconds=wall,
                    model=plan.model_label,
                    worker=worker,
                    policy=self.policy.name,
                    started_at=started,
                )
            )
            self._busy_total += wall
        self._m_batch_size.observe(plan.samples, policy=self.policy.name)
        self._m_batch_latency.observe(wall, policy=self.policy.name)
        self._m_worker_busy.inc(wall, worker=str(worker))
        offset = 0
        for job in plan.jobs:
            job.batch_samples = plan.samples
            job.exec_started_at = started
            job.exec_ended_at = started + wall
            job.future.set_result(samples[offset : offset + job.count])
            offset += job.count

    @staticmethod
    def _fail_plan(plan: TrajectoryPlan, exc: BaseException) -> None:
        """Fail every rider of a plan (execution error or worker crash)."""
        for job in plan.jobs:
            if not job.future.done():
                try:
                    job.future.set_exception(exc)
                except Exception:
                    pass

    # -- observability -------------------------------------------------

    def _load_snapshot_locked(
        self, now: Optional[float] = None
    ) -> EngineLoadSnapshot:
        """Build a load snapshot; the caller holds the queue lock.

        ``queue_wait_p95`` and ``busy_fraction`` are *windowed*: derived
        from the deltas of the cumulative ``repro_queue_wait_seconds``
        bucket counts and the busy-seconds total since the previous
        snapshot, so the signals decay as soon as pressure does (the
        cumulative histogram alone would stay high long after a spike).
        With metrics disabled the p95 reads 0.0 and the controller falls
        back to its queue-depth and oldest-wait signals.
        """
        if now is None:
            now = time.perf_counter()
        depth = len(self._jobs)
        queued_samples = self._queued_samples_locked()
        oldest_wait = (
            now - min(job.submitted_at for job in self._jobs)
            if self._jobs
            else 0.0
        )
        counts = self._m_queue_wait.raw_counts()
        with self._records_lock:
            busy_total = self._busy_total
        p95 = 0.0
        busy_fraction = 0.0
        if self._load_prev is not None:
            prev_at, prev_counts, prev_busy = self._load_prev
            window = now - prev_at
            if window > 0:
                busy_fraction = min(
                    1.0,
                    max(0.0, busy_total - prev_busy)
                    / (window * self.engine_workers),
                )
            if counts is not None and prev_counts is not None:
                delta = [c - p for c, p in zip(counts, prev_counts)]
                if sum(delta) > 0:
                    p95 = bucket_percentile(
                        self._m_queue_wait.bounds, delta, 95.0
                    )
        self._load_prev = (now, counts, busy_total)
        return EngineLoadSnapshot(
            at=now,
            queue_depth=depth,
            queued_samples=queued_samples,
            oldest_wait=oldest_wait,
            queue_wait_p95=p95,
            busy_fraction=busy_fraction,
            workers=self.engine_workers,
        )

    def load_snapshot(self) -> EngineLoadSnapshot:
        """A thread-consistent view of current engine load.

        Note: windowed fields share their delta baseline with the
        adaptive policy's ticks — external polling therefore narrows the
        windows the policy sees (harmless, but worth knowing when reading
        ``queue_wait_p95`` next to controller decisions).
        """
        with self._has_work:
            return self._load_snapshot_locked()

    @property
    def batch_records(self) -> List[BatchRecord]:
        with self._records_lock:
            return list(self._records)

    def records_for(self, label: str) -> List[BatchRecord]:
        """Batch records of one bound model (routing-aware stats)."""
        return [r for r in self.batch_records if r.model == label]

    def stats(self) -> EngineStats:
        with self._has_work:
            queued = len(self._jobs)
            submitted = self._submitted
            rejected = self._rejected
            expired = self._expired
        return EngineStats(
            scheduler=SchedulerStats.from_records(self.batch_records),
            policy=self.policy.name,
            executor=self.executor.name,
            engine_workers=self.engine_workers,
            queue_limit=self.queue_limit,
            queued=queued,
            submitted=submitted,
            rejected=rejected,
            expired=expired,
            models=len(self._bindings),
        )


class EngineClient:
    """A model-bound submission handle: the routing layer's front door.

    Owns no threads — it tags jobs with its resolved back-end (and default
    step schedule / source) and forwards them to the shared engine.  Its
    surface mirrors the classic ``MicroBatchScheduler`` (``submit`` /
    ``stats`` / ``running`` / ``model``), so
    :class:`~repro.serve.batching.BatchedSamplingModel` and
    :class:`~repro.serve.service.PatternService` ride either transparently.
    """

    def __init__(
        self,
        engine: ServeEngine,
        model,
        label: str,
        sampler_steps: SamplerSteps = None,
        source: str = "default",
        model_key=None,
    ):
        self.engine = engine
        self.model = model
        self.label = label
        self.sampler_steps = sampler_steps
        self.source = source
        self.model_key = model_key

    @property
    def running(self) -> bool:
        return self.engine.running

    def start(self) -> "EngineClient":
        self.engine.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self.engine.stop(timeout=timeout)

    def submit(
        self,
        count: int,
        condition: Optional[int],
        shape: Optional[Tuple[int, int]] = None,
        seed: int = 0,
        sampler_steps: SamplerSteps = None,
        source: Optional[str] = None,
        deadline: Optional[float] = None,
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
        requester=None,
    ) -> EngineJob:
        """Queue a sampling job for this client's model; returns its handle.

        ``deadline`` is relative seconds from now; jobs still queued past
        it fail with :class:`DeadlineExpiredError`.  A full admission
        queue raises :class:`QueueFullError` immediately.  ``known`` /
        ``keep`` make it a masked repaint job, ``requester`` tags it with
        a :meth:`ServeEngine.request_scope` token.
        """
        job = EngineJob(
            count=count,
            condition=condition,
            shape=tuple(shape) if shape else (self.model.window,) * 2,
            seed=seed,
            sampler_steps=(
                sampler_steps
                if sampler_steps is not None
                else self.sampler_steps
            ),
            source=source if source is not None else self.source,
            model=self.model,
            model_label=self.label,
            model_key=self.model_key,
            known=known,
            keep=keep,
            requester=requester,
        )
        if deadline is not None:
            if deadline <= 0:
                raise ValueError("deadline must be > 0 seconds")
            job.deadline = job.submitted_at + deadline
        return self.engine.submit_job(job)

    # -- observability (scoped to this model) --------------------------

    @property
    def batch_records(self) -> List[BatchRecord]:
        return self.engine.records_for(self.label)

    def stats(self) -> SchedulerStats:
        return SchedulerStats.from_records(self.batch_records)
