"""Executor-tier tests: thread/process parity, supervision, crash recovery.

The process tests use a real (tiny) fitted model resolved through a disk
registry, because worker processes genuinely reload it by recipe hash —
a stub would not survive the spawn boundary.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    ModelKey,
    ModelRegistry,
    ProcessExecutor,
    ServeEngine,
    ThreadExecutor,
    WorkerCrashedError,
    leaked_segments,
    resolve_executor,
)
from repro.serve.executors import ExecutorError

#: The smallest recipe the dataset builder can extract tiles for.
TINY_KEY = ModelKey(window=64, train_count=4)


@pytest.fixture(scope="module")
def disk_registry(tmp_path_factory):
    """A disk-backed registry with the tiny model already fitted."""
    cache = tmp_path_factory.mktemp("model-cache")
    registry = ModelRegistry(save_dir=cache)
    registry.get_or_fit(TINY_KEY)
    return registry


def _run_engine(registry, executor, seeds, workers=2, count=3, masks=None):
    """Run one job per seed; ``masks[i]`` optionally makes job i a masked
    repaint with ``(known, keep)`` stacks."""
    engine = ServeEngine(
        registry=registry,
        executor=executor,
        engine_workers=workers,
        gather_window=0.01,
    )
    model = registry.get_or_fit(TINY_KEY)
    client = engine.bind(model, label="tiny", key=TINY_KEY)
    masks = masks or [None] * len(seeds)
    engine.start()
    try:
        futures = []
        for i, (seed, mask) in enumerate(zip(seeds, masks)):
            stacks = {} if mask is None else dict(zip(("known", "keep"), mask))
            futures.append(
                client.submit(
                    count=count, condition=i % 2, seed=seed, **stacks
                )
            )
        return [f.result(timeout=240) for f in futures]
    finally:
        engine.stop()


class TestResolveExecutor:
    def test_names(self):
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_instance_passthrough(self):
        backend = ThreadExecutor()
        assert resolve_executor(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_executor("carrier_pigeon")


class TestProcessRequirements:
    def test_requires_disk_registry(self):
        engine = ServeEngine(executor="process", engine_workers=1)
        model = ModelRegistry().get_or_fit(TINY_KEY)
        engine.bind(model, label="tiny", key=TINY_KEY)
        with pytest.raises(ExecutorError, match="disk tier"):
            engine.start()

    def test_jobs_must_carry_model_key(self, disk_registry):
        engine = ServeEngine(
            registry=disk_registry, executor="process", engine_workers=1
        )
        model = disk_registry.get_or_fit(TINY_KEY)
        client = engine.bind(model, label="tiny")  # no key
        engine.start()
        try:
            with pytest.raises(ValueError, match="ModelKey"):
                client.submit(count=1, condition=0, seed=1)
        finally:
            engine.stop()


class TestDeterminismAcrossTiers:
    def test_thread_and_process_results_byte_identical(self, disk_registry):
        seeds = [101, 202, 303, 404]
        thread_out = _run_engine(disk_registry, "thread", seeds)
        process_out = _run_engine(disk_registry, "process", seeds)
        assert len(thread_out) == len(process_out) == len(seeds)
        for a, b in zip(thread_out, process_out):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        # clean shutdown left no shared-memory segments behind
        assert leaked_segments() == []

    def test_thread_and_process_masked_results_byte_identical(
        self, disk_registry
    ):
        """Masked repaint plans (mixed with plain riders) ship their
        stacks to process workers and run the identical call."""
        rng = np.random.default_rng(7)
        seeds = [11, 22, 33, 44]
        masks = []
        for i in range(len(seeds)):
            if i == 1:
                masks.append(None)  # a plain rider in the masked plan
                continue
            known = (rng.random((3, 64, 64)) < 0.4).astype(np.uint8)
            keep = (rng.random((3, 64, 64)) < 0.5).astype(np.uint8)
            masks.append((known, keep))
        thread_out = _run_engine(disk_registry, "thread", seeds, masks=masks)
        process_out = _run_engine(
            disk_registry, "process", seeds, masks=masks
        )
        for out_t, out_p, mask in zip(thread_out, process_out, masks):
            assert np.array_equal(out_t, out_p)
            if mask is not None:
                kept = mask[1] == 1
                assert np.array_equal(out_t[kept], mask[0][kept])
        assert leaked_segments() == []

    def test_engine_stats_report_executor(self, disk_registry):
        engine = ServeEngine(
            registry=disk_registry, executor="process", engine_workers=1
        )
        model = disk_registry.get_or_fit(TINY_KEY)
        engine.bind(model, label="tiny", key=TINY_KEY)
        engine.start()
        try:
            assert engine.stats().executor == "process"
            assert engine.stats().as_dict()["executor"] == "process"
        finally:
            engine.stop()
        thread_engine = ServeEngine()
        assert thread_engine.stats().executor == "thread"


class TestCrashRecovery:
    def _kill_busy_workers(self, backend, kills):
        """Kill ``kills`` busy worker processes, one at a time."""
        killed = 0
        deadline = time.monotonic() + 120
        while killed < kills and time.monotonic() < deadline:
            for info in backend.worker_info():
                if info.get("busy") and info.get("pid"):
                    try:
                        os.kill(info["pid"], signal.SIGKILL)
                    except ProcessLookupError:
                        continue
                    killed += 1
                    time.sleep(0.3)
                    break
            time.sleep(0.02)

    def test_single_crash_retries_then_succeeds(self, disk_registry):
        engine = ServeEngine(
            registry=disk_registry, executor="process", engine_workers=1
        )
        model = disk_registry.get_or_fit(TINY_KEY)
        client = engine.bind(model, label="tiny", key=TINY_KEY)
        engine.start()
        try:
            # warm: worker up + model published before the crash run
            client.submit(count=2, condition=0, seed=1).result(timeout=240)
            backend = engine.executor
            killer = threading.Thread(
                target=self._kill_busy_workers, args=(backend, 1)
            )
            killer.start()
            result = client.submit(count=8, condition=0, seed=2).result(
                timeout=240
            )
            killer.join()
            assert result.shape == (8, 64, 64)
            # the respawn was counted
            assert engine._m_worker_restarts.value(worker="0") >= 1
        finally:
            engine.stop()
        assert leaked_segments() == []

    def test_double_crash_is_terminal_and_service_continues(
        self, disk_registry
    ):
        engine = ServeEngine(
            registry=disk_registry, executor="process", engine_workers=1
        )
        model = disk_registry.get_or_fit(TINY_KEY)
        client = engine.bind(model, label="tiny", key=TINY_KEY)
        engine.start()
        try:
            client.submit(count=2, condition=0, seed=1).result(timeout=240)
            backend = engine.executor
            killer = threading.Thread(
                target=self._kill_busy_workers, args=(backend, 2)
            )
            killer.start()
            future = client.submit(count=8, condition=0, seed=2)
            with pytest.raises(WorkerCrashedError) as excinfo:
                future.result(timeout=240)
            killer.join()
            assert excinfo.value.code == "worker_crashed"
            # the engine keeps serving on a fresh worker afterwards
            result = client.submit(count=2, condition=1, seed=3).result(
                timeout=240
            )
            assert result.shape == (2, 64, 64)
        finally:
            engine.stop()
        assert leaked_segments() == []
