"""The multi-request pattern-generation service front-end.

``PatternService`` turns the one-request-at-a-time ``ChatPattern`` facade
into a batched service: requests are handled concurrently on a worker pool,
each one running the ordinary agent pipeline (auto-format, plan, execute)
against a :class:`~repro.serve.batching.BatchedSamplingModel` client whose
sampling rides the shared :class:`~repro.serve.engine.ServeEngine` — the
layered execution engine providing admission control (``queue_limit``
backpressure, per-job deadlines), pluggable batching policies and a
multi-worker executor pool.  The fitted back-end comes from a
:class:`~repro.serve.registry.ModelRegistry`, so repeated services (or
repeated keys) skip retraining, and produced patterns are persisted through
the shared :class:`~repro.api.pipeline.PatternPipeline` primitives into an
indexed :class:`~repro.serve.store.LibraryStore`.

Several services may share one engine (pass ``engine=``): each routes its
own :class:`ModelKey` through it, so a single executor pool serves many
models/tenants, with the fair-share policy keeping any one of them from
starving the rest.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.agent.backend import LLMBackend, SimulatedLLM
from repro.api.config import PipelineConfig
from repro.faults import FaultPlan
from repro.api.pipeline import PatternPipeline, PipelineResult
from repro.core.chatpattern import ChatPattern, ChatResult
from repro.diffusion.model import ConditionalDiffusionModel
from repro.drc.rules import DesignRules
from repro.legalize.legalizer import (
    collect_legalize_timing,
    reset_legalize_timing,
)
from repro.metrics.legality import LegalityResult, default_legalize_workers
from repro.obs.export import SnapshotWriter
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.batching import BatchedSamplingModel
from repro.serve.engine import (
    AdaptivePolicy,
    EngineClient,
    QueueFullError,
    ServeEngine,
)
from repro.serve.jobs import (
    CODE_SHUTDOWN,
    PERSISTING,
    QUEUED,
    RUNNING,
    Job,
    JobTable,
    error_code_for,
)
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.stats import LegalizeStageRecord, RequestStats, SchedulerStats
from repro.serve.store import LibraryStore

#: Parameters a ``kind="pipeline"`` request may carry.
_PIPELINE_PARAMS = frozenset({"count", "style", "size", "seed"})


@dataclass
class ServeRequest:
    """One generation request entering the service.

    ``source`` tags the request's sampling jobs for the engine's
    fair-share policy (e.g. ``"bulk"`` vs ``"interactive"``); ``deadline``
    bounds, in seconds, how long its jobs may sit queued before failing
    with a typed error (``None`` defers to the engine default).

    ``kind`` selects the execution path: ``"chat"`` (default) runs the
    full natural-language agent pipeline on ``text``; ``"pipeline"`` runs
    the typed stage chain (sample -> legalize -> score -> persist)
    directly with ``params`` (``count`` / ``style`` / ``size`` / ``seed``)
    — the path whose :class:`~repro.api.pipeline.PipelineResult.timings`
    mirror the job's per-stage progress one to one.

    ``client_job_id`` is an optional client-supplied idempotency key:
    resubmitting with the same key returns the *existing* job instead of
    running the work twice — the safe-retry contract the client SDK's
    backoff relies on.
    """

    text: str
    objective: str = "legality"
    request_id: int = 0
    source: str = "default"
    deadline: Optional[float] = None
    kind: str = "chat"
    params: Optional[Dict] = None
    client_job_id: Optional[str] = None


@dataclass
class ServeResponse:
    """One request's full outcome: agent result plus service metrics.

    A request that raised is fault-isolated: ``result`` is ``None``,
    ``error`` carries the message and ``error_code`` the stable
    machine-readable code (``queue_full`` | ``deadline_expired`` |
    ``cancelled`` | ``invalid_request`` | ``legalize_failed`` |
    ``shutdown`` | ``worker_crashed`` | ``internal``) wire protocols and
    clients key on —
    while every other request in the same ``serve`` call completes
    normally.  ``job_id`` names the lifecycle job that tracked this
    request (``None`` for pre-job code paths).
    """

    request: ServeRequest
    result: Optional[Union[ChatResult, PipelineResult]]
    stats: RequestStats
    error: Optional[str] = None
    error_code: Optional[str] = None
    job_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def produced(self) -> int:
        return self.result.produced if self.result is not None else 0

    @property
    def dropped(self) -> int:
        return self.result.dropped if self.result is not None else 0

    def summary(self) -> str:
        if self.result is None:
            return f"{self.stats.summary()}\nFAILED: {self.error}"
        return f"{self.stats.summary()}\n{self.result.summary()}"


@dataclass
class ServiceStats:
    """Service-level aggregate over one lifetime."""

    requests: int
    produced: int
    dropped: int
    scheduler: SchedulerStats
    registry: Dict = field(default_factory=dict)
    store: Optional[Dict] = None
    legalize_calls: int = 0
    legalize_seconds: float = 0.0
    legalize_stages: List[LegalizeStageRecord] = field(default_factory=list)
    engine: Optional[Dict] = None
    jobs: Optional[Dict] = None

    def as_dict(self) -> Dict:
        payload = {
            "requests": self.requests,
            "produced": self.produced,
            "dropped": self.dropped,
            "scheduler": self.scheduler.as_dict(),
            "registry": dict(self.registry),
            "legalize_calls": self.legalize_calls,
            "legalize_seconds": round(self.legalize_seconds, 4),
            "legalize_stages": [s.as_dict() for s in self.legalize_stages],
        }
        if self.store is not None:
            payload["store"] = self.store
        if self.engine is not None:
            payload["engine"] = dict(self.engine)
        if self.jobs is not None:
            payload["jobs"] = dict(self.jobs)
        return payload


class PatternService:
    """Batched, engine-backed, registry- and store-integrated service.

    Args:
        model: a pre-fitted back-end; bypasses the registry when given
            (benchmark/test convenience).
        model_key: recipe of the back-end to request from the registry
            (default :class:`ModelKey` defaults).
        registry: shared :class:`ModelRegistry`; a private one is created
            when omitted.
        store: optional :class:`LibraryStore`.  Every request's legal
            output is persisted into it (deduplicated), and the agent's
            ``Save_Library`` tool targets it.
        backend_factory: per-request LLM backend factory; each request gets
            its own instance so transcripts never interleave across threads.
        gather_window / max_batch: engine batching knobs (see
            :class:`ServeEngine`).
        max_workers: concurrent request executors (the agent-side pool;
            the sampling-side pool is ``engine_workers``).
        base_seed: per-request seeds derive from this, so a served workload
            is reproducible for a fixed batch composition.
        max_retries: per-pattern legalization recovery budget.
        config: the :class:`PipelineConfig` backing the per-request
            pipelines (sampling/legalization knobs); scheduler/worker
            arguments above still win, keeping the old constructor a thin
            facade.  Use :meth:`from_config` to derive everything from one
            config object.
        policy / executor / engine_workers / queue_limit / deadline:
            engine layers (batching policy, execution tier, executor pool
            size, admission bound, default job deadline); ``None`` defers
            to ``config.serve``.  ``executor="process"`` requires a
            registry with a disk tier (``config.model_cache``) so worker
            processes can load the fitted model by recipe hash.
        engine: a pre-built (possibly shared) :class:`ServeEngine`.  The
            service then only *binds* its model to it — ``stop`` leaves a
            shared engine running for its other tenants.
        metrics / tracer: explicit observability sinks.  When omitted and
            ``config.obs.enabled``, the service builds a *private*
            :class:`~repro.obs.metrics.MetricsRegistry` (with the
            configured latency buckets) and
            :class:`~repro.obs.trace.Tracer` and threads them through
            every component it constructs; disabled configs get the
            shared no-op instances.
    """

    def __init__(
        self,
        model: Optional[ConditionalDiffusionModel] = None,
        model_key: Optional[ModelKey] = None,
        registry: Optional[ModelRegistry] = None,
        store: Optional[LibraryStore] = None,
        backend_factory: Optional[Callable[[], LLMBackend]] = None,
        gather_window: float = 0.02,
        max_batch: int = 64,
        max_workers: int = 8,
        base_seed: int = 0,
        max_retries: int = 2,
        config: Optional[PipelineConfig] = None,
        policy: Optional[str] = None,
        executor: Optional[str] = None,
        engine_workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        engine: Optional[ServeEngine] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.config = config or PipelineConfig()
        serve_cfg = self.config.serve
        obs_cfg = self.config.obs
        faults_cfg = getattr(self.config, "faults", None)
        # A private registry/tracer per service (unless injected): its
        # snapshots then describe exactly this service's traffic, and two
        # services in one process never mix series.
        if metrics is not None:
            self.metrics = metrics
        elif obs_cfg.enabled:
            self.metrics = MetricsRegistry(
                latency_buckets=obs_cfg.latency_buckets
            )
        else:
            self.metrics = NULL_METRICS
        if tracer is not None:
            self.tracer = tracer
        elif obs_cfg.enabled:
            self.tracer = Tracer(max_spans=obs_cfg.max_spans)
        else:
            self.tracer = NULL_TRACER
        self._m_requests = self.metrics.counter(
            "repro_requests_total",
            "Requests served, by outcome",
            labels=("status",),
        )
        self._m_request_latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end request wall time",
        )
        self._m_job_states = self.metrics.counter(
            "repro_job_terminal_total",
            "Lifecycle jobs reaching a terminal state",
            labels=("state",),
        )
        self._m_jobs_active = self.metrics.gauge(
            "repro_jobs_active",
            "Lifecycle jobs admitted but not yet terminal",
        )
        # An enabled FaultConfig installs the process-wide plan here —
        # before any component below can hit a seam — so a configured
        # server boots faulty end to end (the chaos-smoke contract).
        # Disabled configs leave whatever plan is active (usually the
        # null plan) untouched.
        if faults_cfg is not None and faults_cfg.enabled:
            faults.install(FaultPlan.from_config(faults_cfg, metrics=self.metrics))
        self._snapshot_writer: Optional[SnapshotWriter] = None
        self._model = model
        self.model_key = model_key or ModelKey.from_config(self.config.train)
        self.registry = registry or ModelRegistry(
            save_dir=self.config.model_cache, metrics=self.metrics
        )
        if store is None and self.config.store.store_dir:
            store = LibraryStore(
                self.config.store.store_dir, metrics=self.metrics
            )
        self.store = store
        self._backend_factory = backend_factory or SimulatedLLM
        self._gather_window = gather_window
        self._max_batch = max_batch
        self.max_workers = int(max_workers)
        self.base_seed = int(base_seed)
        self.max_retries = int(max_retries)
        self.policy = policy if policy is not None else serve_cfg.policy
        self.executor = (
            executor if executor is not None else serve_cfg.executor
        )
        if (
            engine is None
            and self.executor == "process"
            and self.registry.save_dir is None
        ):
            raise ValueError(
                "executor='process' requires a disk model cache so worker "
                "processes can load fitted models by recipe hash; set "
                "model_cache (or pass a registry with save_dir)"
            )
        self.engine_workers = int(
            engine_workers
            if engine_workers is not None
            else serve_cfg.engine_workers
        )
        self.queue_limit = (
            queue_limit if queue_limit is not None else serve_cfg.queue_limit
        )
        self.deadline = deadline if deadline is not None else serve_cfg.deadline
        self._engine = engine
        self._owns_engine = engine is None
        self._client: Optional[EngineClient] = None
        #: lifecycle registry behind submit/cancel/status and the HTTP API
        #: (``serve.state_dir`` makes it journal + rehydrate across restarts)
        self.jobs = JobTable(
            ttl=serve_cfg.job_ttl,
            state_dir=serve_cfg.state_dir,
            metrics=self.metrics,
        )
        self._pool: Optional[ThreadPoolExecutor] = None
        self._responses: List[ServeResponse] = []
        self._legalize_stages: List[LegalizeStageRecord] = []
        # Aggregation must stay consistent while many request threads (and
        # overlapping serve() calls) finish concurrently.
        self._stats_lock = threading.Lock()
        # Overlapping serve() calls may both find the service cold; the
        # lock makes engine construction + model binding happen once.
        self._start_lock = threading.Lock()
        # Request ids must be unique across overlapping serve() calls: they
        # seed per-request RNG streams, so a collision would make two live
        # requests sample identically.
        self._id_lock = threading.Lock()
        self._last_request_id = 0

    @classmethod
    def from_config(
        cls,
        config: PipelineConfig,
        model: Optional[ConditionalDiffusionModel] = None,
        registry: Optional[ModelRegistry] = None,
        store: Optional[LibraryStore] = None,
        backend_factory: Optional[Callable[[], LLMBackend]] = None,
        engine: Optional[ServeEngine] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> "PatternService":
        """Build a service entirely from one :class:`PipelineConfig`.

        The model recipe comes from ``config.train`` (resolved through the
        registry, including the ``config.model_cache`` disk tier), every
        engine/scheduler/worker knob from ``config.serve``, the store
        from ``config.store.store_dir`` and the observability layer from
        ``config.obs`` (the store itself is opened by the constructor, so
        its counters land in the service's registry).
        """
        serve = config.serve
        return cls(
            model=model,
            registry=registry,
            store=store,
            backend_factory=backend_factory,
            gather_window=serve.gather_window,
            max_batch=serve.max_batch,
            max_workers=serve.max_workers,
            base_seed=serve.base_seed,
            max_retries=serve.max_retries,
            policy=serve.policy,
            executor=serve.executor,
            engine_workers=serve.engine_workers,
            queue_limit=serve.queue_limit,
            deadline=serve.deadline,
            engine=engine,
            config=config,
            metrics=metrics,
            tracer=tracer,
        )

    def _next_request_id(self) -> int:
        with self._id_lock:
            self._last_request_id += 1
            return self._last_request_id

    def _reserve_request_ids(self, ids: Sequence[int]) -> None:
        """Advance the counter past caller-supplied ids so autos can't collide."""
        with self._id_lock:
            self._last_request_id = max(self._last_request_id, *ids)

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._engine is not None and self._engine.running

    @property
    def accepting(self) -> bool:
        """Whether new submissions would be executed (False mid-drain)."""
        return self._pool is not None

    @property
    def model(self) -> Optional[ConditionalDiffusionModel]:
        return self._model

    @property
    def engine(self) -> Optional[ServeEngine]:
        return self._engine

    @property
    def scheduler(self) -> Optional[EngineClient]:
        """This service's model-bound submission handle on the engine."""
        return self._client

    def start(self) -> "PatternService":
        """Resolve the model (registry hit or fit), bind it to the engine
        and bring the executor pool up."""
        with self._start_lock:
            if self.running and self._client is not None:
                return self
            if self._engine is None:
                # The adaptive policy is configured, not just named: its
                # hysteresis controller reads ``config.tune`` (SLO, degrade
                # ladder, thresholds), which the bare registry name can't
                # carry.
                policy = (
                    AdaptivePolicy(config=self.config.tune)
                    if self.policy == "adaptive"
                    else self.policy
                )
                self._engine = ServeEngine(
                    registry=self.registry,
                    policy=policy,
                    executor=self.executor,
                    engine_workers=self.engine_workers,
                    queue_limit=self.queue_limit,
                    gather_window=self._gather_window,
                    max_batch=self._max_batch,
                    deadline=self.deadline,
                    metrics=self.metrics,
                )
            obs_cfg = self.config.obs
            if (
                obs_cfg.enabled
                and obs_cfg.snapshot_path
                and self._snapshot_writer is None
            ):
                self._snapshot_writer = SnapshotWriter(
                    self.metrics,
                    obs_cfg.snapshot_path,
                    interval=obs_cfg.snapshot_interval,
                ).start()
            if self._model is None:
                self._model = self.registry.get_or_fit(self.model_key)
            if self._client is None or self._client.model is not self._model:
                self._client = self._engine.bind(
                    self._model,
                    # The serving default rides the config's step schedule;
                    # per-job overrides still win inside the engine.
                    sampler_steps=self.config.sample.sampler_steps,
                    label=f"model-{self.model_key.recipe_hash()[:8]}",
                    # The recipe identity rides every job so process
                    # workers can resolve the same fitted model from the
                    # shared disk cache.
                    key=self.model_key,
                )
            if self._pool is None:
                # Persistent request pool: submitted jobs outlive any one
                # serve() call (the HTTP path submits and returns).
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-serve-request",
                )
            self._engine.start()
            return self

    def drain(self) -> None:
        """Graceful drain: finish every admitted job, stop the pool.

        Jobs already queued or running complete normally (honoring any
        cancel requests at their checkpoints); new submissions fail with
        the ``shutdown`` code.  :meth:`start` builds a fresh pool, so a
        drained service can serve again.
        """
        with self._start_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def stop(self) -> None:
        """Drain requests, then stop an owned engine.

        A *shared* engine (passed in via ``engine=``) keeps running — its
        other tenants still depend on it; only the owner stops it.  The
        service's own telemetry outputs always close: the snapshot writer
        performs a final dump and the configured ``trace_path`` receives
        the collected spans as JSON lines.
        """
        self.drain()
        if self._engine is not None and self._owns_engine:
            self._engine.stop()
        self.jobs.close()
        if self.store is not None:
            self.store.close()
        if self._snapshot_writer is not None:
            self._snapshot_writer.stop(write_final=True)
            self._snapshot_writer = None
        trace_path = self.config.obs.trace_path
        if trace_path and self.tracer.enabled:
            self.tracer.export_jsonl(trace_path)

    def __enter__(self) -> "PatternService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -------------------------------------------------------

    def serve(
        self, requests: Sequence[Union[str, ServeRequest]]
    ) -> List[ServeResponse]:
        """Handle many requests concurrently; returns responses in order.

        This is the batched counterpart of calling
        ``ChatPattern.handle_request`` in a loop: all requests run at once
        (up to ``max_workers``) and their sampling work coalesces in the
        engine.
        """
        if not requests:
            return []
        resolved = [
            request
            if isinstance(request, ServeRequest)
            else ServeRequest(text=request)
            for request in requests
        ]
        explicit_ids = [r.request_id for r in resolved if r.request_id != 0]
        if explicit_ids:
            self._reserve_request_ids(explicit_ids)
        jobs = [self.submit_job(request) for request in resolved]
        responses = []
        for job in jobs:
            job.wait()
            responses.append(job.response)
        return responses

    def handle(
        self, text: str, objective: str = "legality"
    ) -> ServeResponse:
        """Serve a single request (still through the engine)."""
        return self.serve([ServeRequest(text=text, objective=objective)])[0]

    # -- job lifecycle --------------------------------------------------

    def submit_job(
        self,
        request: Union[str, ServeRequest],
        enforce_queue_limit: bool = False,
    ) -> Job:
        """Admit a request as a lifecycle job; returns immediately.

        The job lands QUEUED on the persistent request pool; poll it with
        :meth:`job_status`, block with ``job.wait()``, stop it with
        :meth:`cancel_job`.  With ``enforce_queue_limit`` (the HTTP
        path), admission fails with the engine's typed
        :class:`~repro.serve.engine.QueueFullError` once ``queue_limit``
        jobs are already waiting — the blocking :meth:`serve` path keeps
        its engine-level-only backpressure, unchanged.
        """
        self.start()
        if not isinstance(request, ServeRequest):
            request = ServeRequest(text=request)
        if request.client_job_id:
            # Idempotent resubmission: the same client key returns the
            # job already created for it (whatever state it is in) —
            # a retried POST after a lost response runs the work once.
            existing = self.jobs.find_client(request.client_job_id)
            if existing is not None:
                return existing
        if request.request_id == 0:
            request.request_id = self._next_request_id()
        else:
            self._reserve_request_ids([request.request_id])
        if (
            enforce_queue_limit
            and self.queue_limit is not None
            and self.jobs.queued_count() >= self.queue_limit
        ):
            raise QueueFullError(
                f"admission queue is full ({self.jobs.queued_count()} "
                f"jobs waiting, queue_limit={self.queue_limit}); retry later"
            )
        deadline = (
            request.deadline if request.deadline is not None else self.deadline
        )
        job = self.jobs.create(
            request=request,
            deadline=deadline,
            client_id=request.client_job_id,
        )
        job.transition(QUEUED)
        self._m_jobs_active.inc()
        pool = self._pool
        try:
            if pool is None:
                raise RuntimeError("service request pool is not running")
            pool.submit(self._run_job, job)
        except RuntimeError:
            # The pool shut down between start() and here (service is
            # draining): fail the job instead of hanging its waiters.
            self._finish_job(
                job,
                ServeResponse(
                    request=request,
                    result=None,
                    stats=RequestStats(request_id=request.request_id),
                    error="service is draining; job was not executed",
                    error_code=CODE_SHUTDOWN,
                    job_id=job.job_id,
                ),
            )
        return job

    def cancel_job(self, job_id: str) -> Tuple[Optional[Job], bool]:
        """Request cancellation of a job by id.

        Returns ``(job, effective)``: ``job`` is ``None`` for unknown ids;
        ``effective`` is ``True`` when the cancel took (queued jobs are
        cancelled outright and never execute; running jobs stop at their
        next checkpoint; an already-CANCELLED job reports ``True``
        idempotently) and ``False`` when the job already finished in
        another terminal state.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None, False
        was_terminal = job.is_terminal
        effective = job.request_cancel()
        if effective and not was_terminal and job.is_terminal:
            # Cancelled straight out of the queue: no worker will ever
            # touch it, so account for the terminal state here.
            self._account_terminal(job)
        return job, effective

    def job_status(self, job_id: str) -> Optional[Dict]:
        """The full progress view of a job (``None`` for unknown ids)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        job.maybe_expire()
        return job.as_dict()

    def _account_terminal(self, job: Job) -> None:
        self._m_job_states.inc(state=job.state)
        self._m_jobs_active.dec()

    def _finish_job(self, job: Job, response: ServeResponse) -> None:
        """Stamp the terminal state + response onto a job, record stats."""
        job.response = response
        if job.is_terminal:
            # Cancelled-while-queued or expired: the terminal state (and
            # its accounting) is already on the job.
            pass
        elif response.error is None:
            job.succeed(produced=response.produced)
            self._account_terminal(job)
        else:
            job.fail(response.error, code=response.error_code or "internal")
            self._account_terminal(job)
        # Re-journal with the response attached so a restored record
        # carries the produced count (the transition hook ran earlier,
        # before the response existed; last record wins at replay).
        self.jobs.persist(job)
        with self._stats_lock:
            self._responses.append(response)

    def _run_job(self, job: Job) -> None:
        """Request-pool entry: execute one admitted job to a terminal state.

        Never raises — a failure here would vanish into the pool.
        """
        request: ServeRequest = job.request
        try:
            if job.is_terminal:
                # Cancelled while queued: DELETE prevented its execution.
                if job.response is None:
                    job.response = ServeResponse(
                        request=request,
                        result=None,
                        stats=RequestStats(request_id=request.request_id),
                        error=job.error,
                        error_code=job.error_code,
                        job_id=job.job_id,
                    )
                    with self._stats_lock:
                        self._responses.append(job.response)
                return
            if job.maybe_expire():
                self._account_terminal(job)
                job.response = ServeResponse(
                    request=request,
                    result=None,
                    stats=RequestStats(request_id=request.request_id),
                    error=job.error,
                    error_code=job.error_code,
                    job_id=job.job_id,
                )
                with self._stats_lock:
                    self._responses.append(job.response)
                return
            response = self._handle_one(request, job=job)
            self._finish_job(job, response)
        except Exception as exc:  # pragma: no cover - defensive
            self._finish_job(
                job,
                ServeResponse(
                    request=request,
                    result=None,
                    stats=RequestStats(request_id=request.request_id),
                    error=f"{type(exc).__name__}: {exc}",
                    error_code=error_code_for(exc, state=job.state),
                    job_id=job.job_id,
                ),
            )

    def _run_pipeline_request(
        self, pipeline: PatternPipeline, request: ServeRequest
    ) -> PipelineResult:
        """Execute a ``kind="pipeline"`` request: the typed stage chain."""
        params = dict(request.params or {})
        unknown = set(params) - _PIPELINE_PARAMS
        if unknown:
            raise ValueError(
                f"unknown pipeline params {sorted(unknown)}; "
                f"allowed: {sorted(_PIPELINE_PARAMS)}"
            )
        result = pipeline.sample(
            count=params.get("count"),
            style=params.get("style"),
            size=params.get("size"),
            seed=params.get("seed"),
        )
        return pipeline.persist(pipeline.score(pipeline.legalize(result)))

    def _handle_one(
        self, request: ServeRequest, job: Optional[Job] = None
    ) -> ServeResponse:
        # The request counts as running on the engine for its whole life,
        # so a gather window closes once every running request has a job
        # queued instead of waiting for submitters that cannot come.
        with self._client.engine.request_scope() as requester:
            return self._serve_request(request, job, requester)

    def _serve_request(
        self, request: ServeRequest, job: Optional[Job], requester
    ) -> ServeResponse:
        started = time.perf_counter()
        if job is not None:
            job.transition(RUNNING, stage=request.kind)
        client = BatchedSamplingModel(
            self._client,
            source=request.source,
            deadline=request.deadline,
            tracer=self.tracer,
            job=job,
            requester=requester,
        )
        result: Optional[Union[ChatResult, PipelineResult]] = None
        error: Optional[str] = None
        error_code: Optional[str] = None
        # One pipeline per request, bound to the batched client: the agent
        # tools, the persistence below and the CLI all share these stage
        # primitives.  The job rides the pipeline, so each stage entry is
        # a cancel checkpoint + state transition and each StageTiming is
        # mirrored into the job's stage_events.
        pipeline = PatternPipeline(
            self.config,
            model=client,
            store=self.store,
            metrics=self.metrics,
            tracer=self.tracer,
            job=job,
        )
        # The whole agent pipeline for this request runs on this thread, so
        # the thread-local legalization counters isolate its legalize cost
        # — and the root span opened here parents every stage span and
        # every engine-side hop the batched client records.
        reset_legalize_timing()
        with self.tracer.trace(
            "request",
            request_id=request.request_id,
            source=request.source,
            objective=request.objective,
        ):
            try:  # fault isolation: one bad request must not sink the
                # batch, and that covers per-request setup too
                if request.kind == "pipeline":
                    result = self._run_pipeline_request(pipeline, request)
                elif request.kind == "chat":
                    chat = ChatPattern(
                        model=client,
                        backend=self._backend_factory(),
                        max_retries=self.max_retries,
                        base_seed=self.base_seed + 7919 * request.request_id,
                        store=self.store,
                        pipeline=pipeline,
                    )
                    result = chat.handle_request(
                        request.text, objective=request.objective
                    )
                else:
                    raise ValueError(
                        f"unknown request kind {request.kind!r}; "
                        "known: chat, pipeline"
                    )
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                # Classify while the job still shows the failing stage
                # (LEGALIZING at this point means legalization raised).
                error_code = error_code_for(
                    exc, state=job.state if job is not None else None
                )
            legalize_calls, legalize_seconds = collect_legalize_timing()
            stats = RequestStats(
                request_id=request.request_id,
                wall_seconds=time.perf_counter() - started,
                queue_wait_seconds=client.queue_wait_seconds,
                sample_jobs=client.sample_jobs,
                samples=client.samples,
                degraded_jobs=client.degraded_jobs,
                batch_sizes=list(client.batch_sizes),
                produced=result.produced if result is not None else 0,
                dropped=result.dropped if result is not None else 0,
                legalize_calls=legalize_calls,
                legalize_seconds=legalize_seconds,
            )
            if isinstance(result, PipelineResult):
                # The pipeline chain already ran its persist stage; just
                # surface its store accounting.
                stats.store_added = result.store_added
                stats.store_deduplicated = result.store_deduplicated
            elif result is not None and len(result.library):
                # Unconditional persistence through the pipeline primitive:
                # the add is idempotent (content-hash dedup), so patterns
                # the agent already saved via Save_Library simply show up
                # in `store_deduplicated` here.  No-op without a store.
                if job is not None:
                    # Direct transition (no cancel checkpoint): the result
                    # already exists, cancelling now would only lose it.
                    job.transition(PERSISTING, stage="persist")
                with self.tracer.span(
                    "store_persist", patterns=len(result.library)
                ):
                    report = pipeline.persist_library(result.library)
                if report is not None:
                    stats.store_added = report.added
                    stats.store_deduplicated = report.deduplicated
        self._m_requests.inc(status="error" if error else "ok")
        self._m_request_latency.observe(time.perf_counter() - started)
        return ServeResponse(
            request=request,
            result=result,
            stats=stats,
            error=error,
            error_code=error_code,
            job_id=job.job_id if job is not None else None,
        )

    # -- batch legalization stage --------------------------------------

    def legalize_and_store(
        self,
        topologies: Sequence[np.ndarray],
        style: str,
        rules: Optional[DesignRules] = None,
        physical_size: Optional[Tuple[int, int]] = None,
        max_workers: Optional[int] = None,
    ) -> LegalityResult:
        """Post-sampling pipeline stage: batch-legalize, persist the legal.

        Raw topologies (e.g. a batched sampling trajectory the caller pulled
        straight off the engine) run through the shared
        :class:`PatternPipeline` legalize/persist primitives: they fan out
        over :func:`legalize_many`'s worker pool and DRC-clean results are
        persisted into the attached store (content-hash deduplicated).  Each
        invocation is recorded as a :class:`LegalizeStageRecord` in
        :meth:`stats`.
        """
        items = list(topologies)
        if max_workers is None:
            max_workers = self.config.legalize.max_workers
        workers = (
            max_workers if max_workers is not None else default_legalize_workers()
        )
        # Mirror legalize_many's clamp so the record shows the pool actually
        # used, not the requested ceiling.
        workers = max(1, min(int(workers), len(items) or 1))
        pipeline = PatternPipeline(
            self.config,
            model=self._model,
            store=self.store,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        result = pipeline.legalize_topologies(
            items,
            style,
            rules=rules,
            physical_size=physical_size,
            max_workers=workers,
        )
        record = LegalizeStageRecord(
            topologies=result.total,
            legal=len(result.legal),
            wall_seconds=result.wall_seconds,
            workers=workers,
        )
        report = pipeline.persist_library(result.legal)
        if report is not None:
            record.store_added = report.added
            record.store_deduplicated = report.deduplicated
        with self._stats_lock:
            self._legalize_stages.append(record)
        return result

    # -- observability -------------------------------------------------

    def retry_after_hint(self) -> int:
        """Seconds a backpressured (429) client should wait before retrying.

        Derived from live service latency — the gather window plus the
        mean wall time of the most recent batches — so the hint tracks how
        fast the engine is actually draining the queue rather than being a
        fixed constant.  Clamped to [1, 60] whole seconds (the HTTP
        ``Retry-After`` grammar wants a non-negative integer).
        """
        estimate = self._gather_window
        engine = self._engine
        if engine is not None:
            recent = engine.batch_records[-8:]
            if recent:
                estimate += sum(r.wall_seconds for r in recent) / len(recent)
        return max(1, min(60, int(estimate + 0.999)))

    @property
    def responses(self) -> List[ServeResponse]:
        with self._stats_lock:
            return list(self._responses)

    def stats(self) -> ServiceStats:
        scheduler_stats = (
            self._client.stats()
            if self._client is not None
            else SchedulerStats.from_records([])
        )
        with self._stats_lock:
            responses = list(self._responses)
            legalize_stages = list(self._legalize_stages)
        return ServiceStats(
            requests=len(responses),
            produced=sum(r.produced for r in responses),
            dropped=sum(r.dropped for r in responses),
            scheduler=scheduler_stats,
            registry=self.registry.stats(),
            store=self.store.stats() if self.store is not None else None,
            legalize_calls=sum(r.stats.legalize_calls for r in responses),
            legalize_seconds=sum(
                r.stats.legalize_seconds for r in responses
            ),
            legalize_stages=legalize_stages,
            engine=(
                self._engine.stats().as_dict()
                if self._engine is not None
                else None
            ),
            jobs=self.jobs.counts(),
        )
