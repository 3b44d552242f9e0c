"""Single-model micro-batching facade over the serving engine.

The throughput lever of the serving subsystem: many concurrent requests
each ask for a handful of samples, and sampling cost is dominated by the
per-step walk of the reverse chain — which is almost as cheap for a
``(N, H, W)`` stack as for a single topology.  Compatible sampling jobs
(same topology shape; style conditions may differ freely, they chunk
inside the batched step) therefore coalesce into single calls of
:meth:`~repro.diffusion.model.ConditionalDiffusionModel.sample_batch`, so
N requests cost ~1 batched denoise trajectory instead of N.

Since the engine refactor the heavy lifting — admission, batching policy,
the executor pool — lives in :class:`~repro.serve.engine.ServeEngine`;
``MicroBatchScheduler`` is the classic one-model front door over a private
engine, with every engine knob (``policy``, ``engine_workers``,
``queue_limit``, ``deadline``) exposed as an optional argument.  Existing
callers keep the exact pre-engine behavior (one worker, greedy policy,
unbounded queue).

``BatchedSamplingModel`` is the client half: a stand-in for the fitted
model whose ``sample`` — plain or masked repaint — rides the shared
scheduler.  It exposes only read-only model metadata besides; there is no
denoise primitive to reach around the engine, so modification and
extension work is admitted, batched and timed like any other job.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.diffusion.model import ConditionalDiffusionModel, SamplerSteps
from repro.obs.trace import NULL_TRACER
from repro.serve.engine import (
    BatchPolicy,
    EngineJob,
    ServeEngine,
    model_supports_sampler_steps,
)
from repro.serve.stats import BatchRecord, EngineStats, SchedulerStats

#: The scheduler's job type IS the engine's — one queue vocabulary.
SampleJob = EngineJob


class MicroBatchScheduler:
    """Gathers sampling jobs into batched denoise trajectories.

    A single-model facade over a private :class:`ServeEngine`: the classic
    constructor keeps its exact pre-engine semantics (one worker thread,
    greedy gather-window batching, unbounded queue), while the engine
    layers are a keyword away.

    Args:
        model: fitted diffusion back-end (must expose ``sample_batch``).
        gather_window: seconds the worker keeps collecting after the first
            job of a batch arrives.  Larger windows mean bigger batches and
            higher latency; jobs already queued are always drained.
        max_batch: cap on total *samples* per batched trajectory.
        sampler_steps: default reverse-step schedule for batched
            trajectories (``"full"`` | ``"bucketed"`` | int; ``None`` keeps
            the model's own default).  Individual jobs may override it.
        policy: batching policy name or :class:`BatchPolicy` instance
            (``"greedy"`` | ``"shape_bucketed"`` | ``"fair_share"`` |
            ``"adaptive"``).
        executor: execution tier (``"thread"`` | ``"process"``, or an
            :class:`~repro.serve.executors.ExecutorBackend` instance).
            The process tier needs an engine registry with a disk cache —
            prefer :class:`~repro.serve.engine.ServeEngine` directly there.
        engine_workers: executor threads draining batches in parallel.
        queue_limit: bound on queued jobs; beyond it ``submit`` raises
            :class:`~repro.serve.engine.QueueFullError` (``None`` =
            unbounded).
        deadline: default per-job deadline in seconds; expired queued jobs
            fail with :class:`~repro.serve.engine.DeadlineExpiredError`.

    Note on reproducibility: a batch's random stream is derived from the
    seeds of the jobs riding it, so results are reproducible for a fixed
    batch composition but — as with any micro-batching server — depend on
    which requests happen to coalesce.
    """

    def __init__(
        self,
        model: ConditionalDiffusionModel,
        gather_window: float = 0.02,
        max_batch: int = 64,
        sampler_steps: SamplerSteps = None,
        policy: Union[str, BatchPolicy] = "greedy",
        executor: str = "thread",
        engine_workers: int = 1,
        queue_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        self._engine = ServeEngine(
            policy=policy,
            executor=executor,
            engine_workers=engine_workers,
            queue_limit=queue_limit,
            gather_window=gather_window,
            max_batch=max_batch,
            deadline=deadline,
        )
        self._client = self._engine.bind(
            model, sampler_steps=sampler_steps, label="scheduler"
        )
        self.model = model

    # -- knobs (mirrored onto the engine) ------------------------------

    @property
    def gather_window(self) -> float:
        return self._engine.gather_window

    @property
    def max_batch(self) -> int:
        return self._engine.max_batch

    @property
    def sampler_steps(self) -> SamplerSteps:
        return self._client.sampler_steps

    @property
    def engine(self) -> ServeEngine:
        """The underlying engine (policy, pool and admission layers)."""
        return self._engine

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._engine.running

    def start(self) -> "MicroBatchScheduler":
        self._engine.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain queued jobs, then stop the executor pool (see
        :meth:`ServeEngine.stop`)."""
        self._engine.stop(timeout=timeout)

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission ----------------------------------------------------

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
    ) -> SampleJob:
        """Queue a sampling job; returns immediately with its handle.

        Jobs may be submitted before :meth:`start` — they sit in the queue
        and form the first batch when the pool comes up.  Submitting to a
        *stopped* scheduler raises instead: no worker will ever drain the
        queue again, so the job's ``result()`` would hang forever.
        """
        return self._client.submit(
            count,
            condition,
            shape=shape,
            seed=seed,
            sampler_steps=sampler_steps,
            source=source,
            deadline=deadline,
            known=known,
            keep=keep,
            requester=requester,
        )

    # -- observability -------------------------------------------------

    @property
    def batch_records(self) -> List[BatchRecord]:
        return self._engine.batch_records

    def stats(self) -> SchedulerStats:
        return SchedulerStats.from_records(self.batch_records)

    def engine_stats(self) -> EngineStats:
        """The full engine view: scheduling plus admission counters."""
        return self._engine.stats()


class BatchedSamplingModel:
    """Per-request model client that routes ``sample`` through a scheduler.

    Quacks like the wrapped :class:`ConditionalDiffusionModel` where the
    agent's tools and the modification/extension operators need it: the
    read-only metadata (``window``, ``n_classes``, ``fitted``,
    ``schedule``, ``denoise_evals``) and ``sample``, which submits every
    trajectory — plain, or a masked repaint via ``known``/``keep`` — as one
    engine job.  Denoise primitives (``denoise_step`` ...) are deliberately
    absent: all work goes through admission, batching and the job timeline.

    One client is created per request so its counters double as the
    request's sampling statistics.  ``source`` tags this client's jobs for
    the fair-share policy (e.g. one tag per tenant), and ``deadline``
    bounds how long its jobs may sit queued.  ``tracer`` attaches each
    sampling call's lifecycle (admission → queue wait → batch gather →
    execute) as spans under the caller's current trace, using the
    timestamps the engine stamped on the job — so the trace follows the
    work across the executor threads without the engine knowing about
    tracing at all.  Default: no tracing.

    ``job`` optionally attaches a lifecycle :class:`~repro.serve.jobs.Job`:
    each sampling call then starts with a cancel checkpoint (so a
    cancelled request stops before queueing more engine work) and the same
    engine-stamped hops recorded as tracer spans are mirrored into the
    job's ``engine_events`` — one record, two views.  ``requester`` is the
    request's :meth:`~repro.serve.engine.ServeEngine.request_scope` token,
    stamped on every job so the engine can close its gather window early.
    """

    def __init__(
        self,
        scheduler,
        source: Optional[str] = None,
        deadline: Optional[float] = None,
        tracer=None,
        job=None,
        requester=None,
    ):
        self._scheduler = scheduler
        self._model = scheduler.model
        self._source = source
        self._deadline = deadline
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._job = job
        self._requester = requester
        # One client is usually driven by one request thread, but nothing
        # enforces that — operator code shares a client across the
        # engine's worker threads (and the hammer test does, on purpose).
        # ``+=`` on these counters is not atomic under free-threading, so
        # accumulation takes this lock.
        self._stats_lock = threading.Lock()
        self.queue_wait_seconds = 0.0
        self.sample_jobs = 0
        self.samples = 0
        self.degraded_jobs = 0
        self.batch_sizes: List[int] = []

    # -- read-only model metadata ---------------------------------------

    @property
    def window(self) -> int:
        return self._model.window

    @property
    def n_classes(self) -> int:
        return self._model.n_classes

    @property
    def fitted(self) -> bool:
        return self._model.fitted

    @property
    def schedule(self):
        return self._model.schedule

    @property
    def supports_sampler_steps(self) -> bool:
        return model_supports_sampler_steps(self._model)

    def denoise_evals(self, sampler_steps: SamplerSteps = None) -> int:
        return self._model.denoise_evals(sampler_steps)

    # -- sampling ------------------------------------------------------

    def sample(
        self,
        count: int,
        condition: Optional[int],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched stand-in for ``ConditionalDiffusionModel.sample``.

        One call is one engine job; ``known``/``keep`` stacks make it a
        masked repaint that rides the same trajectories as plain jobs.
        """
        if self._job is not None:
            # Cancel checkpoint: a cancelled request must not queue more
            # engine work (raises JobCancelled).
            self._job.check_cancelled()
        with self._tracer.span(
            "sample", count=int(count), masked=known is not None
        ):
            submit_started = time.perf_counter()
            job = self._scheduler.submit(
                count,
                condition,
                shape=shape,
                # The job seed is drawn from the caller's stream, so a
                # request with a fixed base seed submits a reproducible
                # seed sequence.
                seed=int(rng.integers(0, 2**31 - 1)),
                sampler_steps=sampler_steps,
                source=self._source,
                deadline=self._deadline,
                known=known,
                keep=keep,
                requester=self._requester,
            )
            admitted_at = time.perf_counter()
            self._tracer.record("admission", submit_started, admitted_at)
            if self._job is not None:
                self._job.record_engine(
                    "admission", submit_started, admitted_at,
                    count=int(count), masked=known is not None,
                )
            result = job.result()
            # Attach the engine-side hops from the timestamps the workers
            # stamped on the job (they ran on other threads).
            if job.selected_at > 0:
                self._tracer.record(
                    "queue_wait", job.submitted_at, job.selected_at
                )
                if self._job is not None:
                    self._job.record_engine(
                        "queue_wait", job.submitted_at, job.selected_at
                    )
            if job.exec_started_at > 0:
                self._tracer.record(
                    "batch_gather", job.selected_at, job.exec_started_at,
                    batch_samples=job.batch_samples,
                )
                self._tracer.record(
                    "execute", job.exec_started_at, job.exec_ended_at,
                )
                if self._job is not None:
                    self._job.record_engine(
                        "batch_gather", job.selected_at, job.exec_started_at,
                        batch_samples=job.batch_samples,
                    )
                    self._job.record_engine(
                        "execute", job.exec_started_at, job.exec_ended_at
                    )
            if job.degrade_level > 0:
                # The adaptive policy traded this job's sampler quality
                # for latency; surface that in the trace and the
                # lifecycle record so the response can report it.
                self._tracer.record(
                    "degraded", job.selected_at, job.exec_ended_at,
                    level=job.degrade_level,
                    sampler_steps=str(job.sampler_steps),
                    requested=str(job.requested_sampler_steps),
                )
                if self._job is not None:
                    self._job.record_engine(
                        "degraded", job.selected_at, job.exec_ended_at,
                        level=job.degrade_level,
                        sampler_steps=str(job.sampler_steps),
                        requested=str(job.requested_sampler_steps),
                    )
        with self._stats_lock:
            self.queue_wait_seconds += job.queue_wait
            self.sample_jobs += 1
            self.samples += int(count)
            if job.degrade_level > 0:
                self.degraded_jobs += 1
            self.batch_sizes.append(job.batch_samples)
        return result


__all__ = [
    "BatchedSamplingModel",
    "MicroBatchScheduler",
    "SampleJob",
    "model_supports_sampler_steps",
]
