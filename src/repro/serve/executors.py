"""Executor backends: layer 3 of the serving engine, behind a protocol.

The :class:`~repro.serve.engine.ServeEngine` used to hard-code a thread
pool as its executor layer.  This module extracts that layer behind
:class:`ExecutorBackend`, with two implementations:

- :class:`ThreadExecutor` (``executor="thread"``, the default) — the
  classic in-process pool, behavior-identical to the pre-refactor engine:
  ``engine_workers`` threads gather batches and run trajectories through
  the bound model object directly.  True parallelism is whatever numpy
  releases the GIL for.
- :class:`ProcessExecutor` (``executor="process"``) — ``engine_workers``
  **spawned worker processes**, each holding its *own* fitted model
  rehydrated from the disk :class:`~repro.serve.registry.ModelRegistry`
  by ``recipe_hash`` (spawn cost is a cache read, never a retrain), so the
  denoise hot path runs N interpreters wide.  Sampled batches return
  through :mod:`repro.serve.shm` as shared-memory descriptors — no array
  pickling on the hot path.

Supervision (process tier): each worker slot is driven by a parent-side
supervisor thread that runs the engine's gather loop, dispatches one
trajectory plan at a time over a pipe, and watches the child.  Children
heartbeat while executing; a crash (pipe EOF, nonzero exitcode, lost
heartbeat) triggers a bounded respawn and **one retry** of the in-flight
batch — a second crash fails the batch's jobs with the terminal
``worker_crashed`` error code while the engine keeps serving.  Consecutive
crashes beyond ``respawn_limit`` stop the respawning: the slot fails fast
instead of burning CPU on a poisoned worker.

Reproducibility: the child rebuilds *exactly* the parent's trajectory RNG
(``SeedSequence`` over the batch's job seeds) and ``sample_batch`` kwargs
(step schedule, repaint stacks), so thread and process tiers produce
byte-identical samples for the same batch composition — property-tested
in ``tests/serve/test_executors.py``.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import faults
from repro.faults import FaultError, FaultPlan
from repro.serve import shm as shm_transport
from repro.serve.shm import ArrayRef, ShmArena

logger = logging.getLogger("repro.serve.executors")

#: Registered executor backends (mirrored in config validation).
EXECUTOR_NAMES = ("thread", "process")


class ExecutorError(RuntimeError):
    """An executor backend could not start or supervise its workers."""


class _WorkerCrash(Exception):
    """Internal supervisor signal: the child died (retry/respawn path)."""


class _RemoteError(Exception):
    """Internal supervisor signal: the child executed and raised."""


class ExecutorBackend:
    """Protocol of the engine's executor layer.

    The engine owns admission, batching policy and routing; a backend owns
    only *where trajectories run*: it brings workers up against an engine,
    drives them through ``engine._next_batch()`` / ``engine._plan()`` /
    ``engine._finish_plan()``, and tears them down.  A backend instance
    belongs to one engine and is restartable (stop then start again).
    """

    name = "base"
    #: process-tier backends execute by recipe, not by object: every job
    #: must carry a ``model_key`` so workers can resolve the model.
    requires_model_key = False

    def start(self, engine) -> None:
        raise NotImplementedError

    @property
    def running(self) -> bool:
        raise NotImplementedError

    def join(self, deadline: float) -> None:
        """Wait (until ``deadline``, perf_counter clock) for workers to
        finish their loops.  Does not interrupt them — the engine flips
        its drain/halt events first."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources after the loops ended (reap children,
        unlink shared memory).  Must be idempotent."""

    def worker_info(self) -> List[Dict]:
        """Introspection for tests/diagnostics (empty for thread tiers)."""
        return []


class ThreadExecutor(ExecutorBackend):
    """The classic in-process pool: ``engine_workers`` gather threads."""

    name = "thread"

    def __init__(self) -> None:
        self._threads: List[threading.Thread] = []

    def start(self, engine) -> None:
        self._threads = [
            threading.Thread(
                target=engine._worker_loop,
                args=(index,),
                name=f"repro-serve-engine-{index}",
                daemon=True,
            )
            for index in range(engine.engine_workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, deadline: float) -> None:
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))

    def shutdown(self) -> None:
        self._threads = []


# ---------------------------------------------------------------------------
# Process tier


class _WorkerSlot:
    """Parent-side state of one worker process (owned by one supervisor)."""

    __slots__ = ("index", "proc", "conn", "crashes", "spawns", "last_beat",
                 "busy", "task_ids", "dispatches")

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.crashes = 0  # consecutive; reset on every delivered batch
        self.spawns = 0
        self.last_beat = 0.0
        self.busy = False
        self.task_ids = itertools.count(1)
        #: batches shipped to this slot's children over all their lives —
        #: primes a respawned child's ``worker.execute`` fault counter so
        #: nth-based rules track the global dispatch index, not the life's.
        self.dispatches = 0


class ProcessExecutor(ExecutorBackend):
    """Spawned worker processes with shared-memory batch transport.

    Args:
        heartbeat_interval: seconds between child heartbeats while a batch
            executes (children are silent while idle — liveness is checked
            via ``Process.is_alive`` at dispatch).
        heartbeat_timeout: seconds without a heartbeat mid-batch before
            the child is declared hung and killed.
        respawn_limit: consecutive crashes per slot before the supervisor
            stops respawning and fails batches fast (a delivered batch
            resets the count).
        start_timeout: seconds to wait for a freshly spawned child's
            ready handshake.
        use_shm: transport sampled batches via :mod:`repro.serve.shm`
            descriptors (default).  ``False`` falls back to pickling the
            arrays through the pipe (debugging aid).
    """

    name = "process"
    requires_model_key = True

    def __init__(
        self,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 30.0,
        respawn_limit: int = 5,
        start_timeout: float = 120.0,
        use_shm: bool = True,
    ):
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._respawn_limit = int(respawn_limit)
        self._start_timeout = float(start_timeout)
        self._use_shm = bool(use_shm)
        self._ctx = multiprocessing.get_context("spawn")
        self._threads: List[threading.Thread] = []
        self._slots: List[_WorkerSlot] = []
        self._arena: Optional[ShmArena] = None
        self._save_dir: Optional[str] = None
        self._published: set = set()
        self._publish_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self, engine) -> None:
        registry = engine.registry
        if registry is None or registry.save_dir is None:
            raise ExecutorError(
                'executor="process" requires an engine registry with a '
                "disk tier (model_cache): workers rehydrate fitted models "
                "from disk by recipe_hash"
            )
        self._save_dir = str(registry.save_dir)
        self._published = set()
        # Boot-time hygiene: a previous serve process SIGKILLed before its
        # arena closed leaves repro_shm_* files in /dev/shm forever.  The
        # sweep unlinks only segments whose owner pid is dead, so live
        # engines on the same machine are untouched.
        stale = shm_transport.sweep_stale_segments()
        swept = engine.metrics.counter(
            "repro_shm_stale_cleaned_total",
            "Stale shared-memory segments of dead owners removed at startup",
        )
        if stale:
            swept.inc(len(stale))
            logger.warning(
                "swept %d stale shared-memory segment(s) left by dead "
                "processes: %s", len(stale), ", ".join(stale),
            )
        if self._arena is None:
            self._arena = ShmArena()
        self._slots = [
            _WorkerSlot(index) for index in range(engine.engine_workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._supervise,
                args=(engine, slot),
                name=f"repro-serve-supervisor-{slot.index}",
                daemon=True,
            )
            for slot in self._slots
        ]
        for thread in self._threads:
            thread.start()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, deadline: float) -> None:
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))

    def shutdown(self) -> None:
        """Reap every child (stop -> join -> terminate -> kill) and unlink
        any shared-memory segments still live.  No orphans survive."""
        self._threads = []
        slots, self._slots = self._slots, []
        for slot in slots:
            self._reap_slot(slot, polite=True)
        if self._arena is not None:
            self._arena.close()

    def worker_info(self) -> List[Dict]:
        return [
            {
                "index": slot.index,
                "pid": (
                    slot.proc.pid
                    if slot.proc is not None and slot.proc.is_alive()
                    else None
                ),
                "busy": slot.busy,
                "crashes": slot.crashes,
                "spawns": slot.spawns,
            }
            for slot in self._slots
        ]

    @property
    def arena(self) -> Optional[ShmArena]:
        return self._arena

    # -- supervision ---------------------------------------------------

    def _supervise(self, engine, slot: _WorkerSlot) -> None:
        """One slot's driver: gather -> plan -> dispatch -> deliver."""
        while True:
            batch = engine._next_batch()
            if batch is None:
                break
            for plan in engine._plan(batch, worker=slot.index):
                self._run_plan(engine, slot, plan)
        if engine._halt.is_set():
            engine._fail_pending("engine stopped before job ran")

    def _run_plan(self, engine, slot: _WorkerSlot, plan) -> None:
        from repro.serve.engine import WorkerCrashedError

        worker_label = str(slot.index)
        engine._m_worker_active.set(1, worker=worker_label)
        try:
            for attempt in range(2):  # the in-flight batch retries once
                try:
                    self._ensure_worker(engine, slot)
                    self._publish_model(engine, plan)
                except ExecutorError as exc:
                    engine._fail_plan(
                        plan,
                        WorkerCrashedError(
                            f"worker {slot.index} unavailable: {exc}"
                        ),
                    )
                    return
                dispatched = time.perf_counter()
                try:
                    samples, child_wall = self._roundtrip(slot, plan)
                except _WorkerCrash as crash:
                    slot.crashes += 1
                    logger.warning(
                        "worker %d crashed (attempt %d/2): %s",
                        slot.index, attempt + 1, crash,
                    )
                    self._reap_slot(slot, polite=False)
                    continue
                except _RemoteError as exc:
                    # The model itself raised in the child: a normal
                    # execution failure, not a crash — no retry.
                    engine._fail_plan(plan, RuntimeError(str(exc)))
                    return
                wall = time.perf_counter() - dispatched
                slot.crashes = 0
                engine._m_ipc_roundtrip.observe(
                    max(0.0, wall - child_wall), worker=worker_label
                )
                engine._finish_plan(
                    plan, samples, dispatched, wall, worker=slot.index
                )
                return
            engine._fail_plan(
                plan,
                WorkerCrashedError(
                    f"worker {slot.index} crashed twice while executing "
                    f"this batch ({plan.samples} samples); giving up after "
                    "one retry"
                ),
            )
        finally:
            engine._m_worker_active.set(0, worker=worker_label)

    def _ensure_worker(self, engine, slot: _WorkerSlot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            return
        if slot.crashes >= self._respawn_limit:
            raise ExecutorError(
                f"respawn budget exhausted ({slot.crashes} consecutive "
                f"crashes >= respawn_limit={self._respawn_limit})"
            )
        self._reap_slot(slot, polite=False)
        if slot.spawns > 0:
            engine._m_worker_restarts.inc(worker=str(slot.index))
        self._spawn(slot)

    def _spawn(self, slot: _WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Ship the active fault plan (if any) to the child, with the
        # worker.execute counter primed to this slot's global dispatch
        # tally — an nth-based kill rule fires at the same call index
        # across respawns instead of re-firing every new life.
        plan = faults.active_plan()
        faults_spec = None
        if getattr(plan, "enabled", False) and hasattr(plan, "as_spec"):
            faults_spec = dict(plan.as_spec())
            faults_spec["counts"] = {"worker.execute": slot.dispatches}
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, self._save_dir, self._heartbeat_interval,
                faults_spec,
            ),
            name=f"repro-exec-worker-{slot.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.spawns += 1
        deadline = time.monotonic() + self._start_timeout
        while True:
            try:
                if parent_conn.poll(0.1):
                    reply = parent_conn.recv()
                    if reply[0] == "ready":
                        break
            except (EOFError, OSError):
                pass
            if not proc.is_alive():
                parent_conn.close()
                raise ExecutorError(
                    f"worker {slot.index} died during startup "
                    f"(exitcode={proc.exitcode})"
                )
            if time.monotonic() > deadline:
                proc.terminate()
                proc.join(timeout=5.0)
                parent_conn.close()
                raise ExecutorError(
                    f"worker {slot.index} missed its ready handshake "
                    f"within {self._start_timeout:.0f}s"
                )
        slot.proc = proc
        slot.conn = parent_conn
        slot.last_beat = time.monotonic()

    def _reap_slot(self, slot: _WorkerSlot, polite: bool) -> None:
        """Tear one child down for good: stop -> join -> terminate -> kill."""
        proc, slot.proc = slot.proc, None
        conn, slot.conn = slot.conn, None
        if conn is not None:
            if polite and proc is not None and proc.is_alive():
                try:
                    conn.send(("stop",))
                except Exception:
                    pass
            try:
                conn.close()
            except Exception:
                pass
        if proc is None:
            return
        proc.join(timeout=5.0 if polite else 0.5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        try:
            proc.close()
        except Exception:
            pass

    def _publish_model(self, engine, plan) -> None:
        """Guarantee the plan's recipe is readable from the disk registry.

        The parent may hold a model it fitted purely in memory (or was
        handed pre-fitted); the child resolves by recipe_hash from disk,
        so the parent writes the cache entry before first dispatch."""
        key = plan.model_key
        recipe = key.recipe_hash()
        with self._publish_lock:
            if recipe in self._published:
                return
            path = engine.registry.ensure_on_disk(key, plan.model)
            if path is None:
                raise ExecutorError(
                    f"could not publish model {recipe[:8]} to the disk "
                    "registry for worker processes"
                )
            self._published.add(recipe)

    # -- the wire ------------------------------------------------------

    def _roundtrip(self, slot: _WorkerSlot, plan):
        """Dispatch one plan to the slot's child; returns (samples, wall).

        Raises :class:`_WorkerCrash` on child death / lost heartbeat and
        :class:`_RemoteError` when the child executed and raised."""
        try:
            # A dispatch-side fault is indistinguishable from a child that
            # died as the batch went out: route it through the crash path
            # so the retry-once machinery is what gets exercised.
            faults.fire("engine.dispatch")
        except FaultError as exc:
            raise _WorkerCrash(f"injected dispatch fault: {exc}") from None
        ref: Optional[ArrayRef] = None
        if self._use_shm:
            ref = self._arena.allocate(
                (plan.samples, *plan.shape), dtype="uint8"
            )
        task_id = next(slot.task_ids)
        message = (
            "exec",
            task_id,
            plan.model_key.as_dict(),
            list(plan.conditions),
            list(plan.seeds),
            tuple(plan.shape),
            plan.sample_kwargs(),
            ref.as_tuple() if ref is not None else None,
        )
        slot.busy = True
        try:
            try:
                slot.conn.send(message)
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise _WorkerCrash(f"dispatch failed: {exc}") from None
            slot.dispatches += 1
            slot.last_beat = time.monotonic()
            while True:
                try:
                    has_reply = slot.conn.poll(0.2)
                except (OSError, EOFError):
                    raise _WorkerCrash("pipe broke while waiting") from None
                if has_reply:
                    try:
                        reply = slot.conn.recv()
                    except (EOFError, OSError):
                        raise _WorkerCrash(
                            "pipe EOF: worker died mid-batch "
                            f"(exitcode={slot.proc.exitcode})"
                        ) from None
                    kind = reply[0]
                    if kind == "heartbeat":
                        slot.last_beat = time.monotonic()
                        continue
                    if kind == "ok":
                        _, reply_id, child_wall, inline = reply
                        if reply_id != task_id:
                            continue  # stale reply from a previous life
                        if ref is not None:
                            samples = self._arena.take(ref)
                            ref = None
                        else:
                            samples = inline
                        return samples, float(child_wall)
                    if kind == "err":
                        _, reply_id, error_text, child_tb = reply
                        logger.debug(
                            "worker %d remote failure:\n%s",
                            slot.index, child_tb,
                        )
                        raise _RemoteError(error_text)
                    continue  # unknown message kind: ignore
                if slot.proc is None or not slot.proc.is_alive():
                    exitcode = (
                        slot.proc.exitcode if slot.proc is not None else None
                    )
                    raise _WorkerCrash(
                        f"worker exited mid-batch (exitcode={exitcode})"
                    )
                if (
                    time.monotonic() - slot.last_beat
                    > self._heartbeat_timeout
                ):
                    raise _WorkerCrash(
                        "worker heartbeat lost "
                        f"(> {self._heartbeat_timeout:.0f}s silent)"
                    )
        finally:
            slot.busy = False
            if ref is not None:  # crash/error path: reclaim the segment
                self._arena.release(ref)


def _worker_main(
    conn, save_dir: str, heartbeat_interval: float, faults_spec=None
) -> None:
    """Entry point of a spawned worker process.

    Protocol (tuples over the pipe): receives ``("exec", task_id, recipe,
    conditions, seeds, shape, sample_kwargs, ref_tuple)`` or
    ``("stop",)``; replies ``("ready", pid)`` once at startup, then
    ``("heartbeat", t)`` while executing and ``("ok", task_id, wall,
    inline)`` / ``("err", task_id, message, traceback)`` per batch.

    Models resolve through a private :class:`ModelRegistry` over the
    shared ``save_dir`` — a pure cache read for published recipes; the
    registry's single-flight refit is the safety net if the file vanishes.

    ``faults_spec`` (the parent's active plan + primed counters) installs
    the same fault plan in this process, so chaos rules reach the
    ``worker.execute`` seam and the child-side shm/registry seams.
    """
    from repro.serve.registry import ModelKey, ModelRegistry

    if faults_spec:
        faults.install(FaultPlan.from_spec(faults_spec))
    registry = ModelRegistry(save_dir=save_dir)
    send_lock = threading.Lock()
    executing = threading.Event()

    def _beat() -> None:
        # Heartbeats only while a batch executes: the parent drains the
        # pipe then.  An idle child stays silent so unread heartbeats can
        # never fill the pipe buffer and deadlock the result send.
        while True:
            executing.wait()
            with send_lock:
                try:
                    conn.send(("heartbeat", time.monotonic()))
                except Exception:
                    return
            time.sleep(heartbeat_interval)

    threading.Thread(target=_beat, daemon=True).start()
    with send_lock:
        conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if not message or message[0] == "stop":
            return
        (_, task_id, recipe, conditions, seeds, shape,
         kwargs, ref_tuple) = message
        executing.set()
        try:
            # The canonical worker-crash seam: a kill-mode rule hard-exits
            # right here, reproducing a child SIGKILLed mid-batch; an
            # error-mode rule surfaces as a remote execution failure.
            faults.fire("worker.execute")
            model = registry.get_or_fit(ModelKey.from_dict(recipe))
            # Exactly the engine's trajectory derivation: the rng comes
            # from the riders' seeds and the kwargs are the plan's own
            # (TrajectoryPlan.sample_kwargs) — byte-identical samples.
            rng = np.random.default_rng(
                np.random.SeedSequence(list(seeds))
            )
            started = time.perf_counter()
            samples = model.sample_batch(
                list(conditions), rng, shape=tuple(shape), **kwargs
            )
            wall = time.perf_counter() - started
            inline = None
            if ref_tuple is not None:
                shm_transport.write_into(
                    ArrayRef.from_tuple(ref_tuple),
                    np.ascontiguousarray(samples),
                )
            else:
                inline = samples
            reply = ("ok", task_id, wall, inline)
        except Exception as exc:
            reply = (
                "err",
                task_id,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        finally:
            executing.clear()
        with send_lock:
            try:
                conn.send(reply)
            except Exception:
                return


def resolve_executor(
    executor: Union[str, ExecutorBackend],
) -> ExecutorBackend:
    """Accept a backend instance or one of the registered names."""
    if isinstance(executor, ExecutorBackend):
        return executor
    if executor == "thread":
        return ThreadExecutor()
    if executor == "process":
        return ProcessExecutor()
    raise ValueError(
        f"unknown executor {executor!r}; known: {sorted(EXECUTOR_NAMES)}"
    )


__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorBackend",
    "ExecutorError",
    "ProcessExecutor",
    "ThreadExecutor",
    "resolve_executor",
]
