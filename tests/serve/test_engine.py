"""Unit tests for the layered serving engine.

Covers the four layers in isolation from the diffusion back-end (stub
models keep these tests fast): admission control (backpressure at
``queue_limit``, typed deadline expiry), the batching policies, the
multi-worker executor pool's lifecycle under concurrent submit/stop, and
multi-model routing through a registry.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExpiredError,
    ModelKey,
    ModelRegistry,
    QueueFullError,
    ServeEngine,
    resolve_batch_policy,
)


class StubModel:
    """A sampling back-end that records every trajectory it runs."""

    def __init__(self, window=16, delay=0.0, supports_steps=True):
        self.window = window
        self.fitted = True
        self.delay = delay
        self.calls = []
        self._calls_lock = threading.Lock()
        if supports_steps:
            self.supports_sampler_steps = True

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        shape = shape or (self.window, self.window)
        with self._calls_lock:
            self.calls.append(
                {"conditions": list(conditions), "shape": tuple(shape), **kwargs}
            )
        if self.delay:
            time.sleep(self.delay)
        return np.zeros((len(conditions), *shape), dtype=np.uint8)


class TestAdmission:
    def test_queue_limit_fast_fails_with_backpressure(self):
        engine = ServeEngine(queue_limit=2, gather_window=0.0)
        client = engine.bind(StubModel())
        jobs = [client.submit(1, 0, seed=i) for i in range(2)]
        with pytest.raises(QueueFullError, match="queue_limit=2"):
            client.submit(1, 0, seed=9)
        stats = engine.stats()
        assert stats.rejected == 1
        assert stats.submitted == 2
        assert stats.queued == 2
        # The accepted jobs still run once the pool comes up.
        with engine:
            for job in jobs:
                assert job.result(timeout=30).shape == (1, 16, 16)
        assert engine.stats().queued == 0

    def test_expired_job_fails_with_typed_error(self):
        engine = ServeEngine(gather_window=0.0)
        client = engine.bind(StubModel())
        doomed = client.submit(1, 0, seed=1, deadline=0.01)
        time.sleep(0.05)  # expires while the pool is still down
        alive = client.submit(1, 0, seed=2)
        with engine:
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=30)
            assert alive.result(timeout=30).shape == (1, 16, 16)
        assert engine.stats().expired == 1

    def test_engine_default_deadline_applies_to_every_job(self):
        engine = ServeEngine(gather_window=0.0, deadline=0.01)
        client = engine.bind(StubModel())
        job = client.submit(1, 0, seed=1)
        assert job.deadline is not None
        time.sleep(0.05)
        with engine:
            with pytest.raises(DeadlineExpiredError):
                job.result(timeout=30)

    def test_bad_submit_arguments_rejected(self):
        engine = ServeEngine()
        client = engine.bind(StubModel())
        with pytest.raises(ValueError):
            client.submit(0, 0)
        with pytest.raises(ValueError):
            client.submit(1, 0, deadline=-1.0)
        with pytest.raises(ValueError):
            ServeEngine(engine_workers=0)
        with pytest.raises(ValueError):
            ServeEngine(queue_limit=0)
        with pytest.raises(ValueError):
            ServeEngine(deadline=0.0)


class TestBatchPolicies:
    def test_resolve_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown batch policy"):
            resolve_batch_policy("fifo")

    def test_greedy_keeps_fifo_window_semantics(self):
        model = StubModel()
        engine = ServeEngine(policy="greedy", gather_window=0.0, max_batch=4)
        client = engine.bind(model)
        # Interleaved shapes: greedy takes a FIFO prefix of 4, which
        # fragments into two 2-sample trajectories per selection.
        jobs = [
            client.submit(1, 0, shape=(16, 16) if i % 2 == 0 else (8, 8), seed=i)
            for i in range(8)
        ]
        with engine:
            for job in jobs:
                job.result(timeout=30)
        stats = engine.stats().scheduler
        assert stats.batches == 4
        assert stats.max_batch_size == 2

    def test_shape_bucketed_coalesces_across_the_whole_queue(self):
        model = StubModel()
        engine = ServeEngine(
            policy="shape_bucketed", gather_window=0.0, max_batch=4
        )
        client = engine.bind(model)
        jobs = [
            client.submit(1, 0, shape=(16, 16) if i % 2 == 0 else (8, 8), seed=i)
            for i in range(8)
        ]
        with engine:
            for job in jobs:
                job.result(timeout=30)
        stats = engine.stats().scheduler
        # The same interleaved workload now forms two full same-shape
        # batches instead of four fragmented ones.
        assert stats.batches == 2
        assert stats.max_batch_size == 4
        for record in engine.batch_records:
            assert record.policy == "shape_bucketed"

    def test_fair_share_prevents_bulk_starvation(self):
        model = StubModel()
        engine = ServeEngine(policy="fair_share", gather_window=0.0, max_batch=4)
        client = engine.bind(model)
        bulk = [
            client.submit(1, 0, seed=i, source="bulk") for i in range(8)
        ]
        live = client.submit(1, 1, seed=99, source="interactive")
        with engine:
            for job in bulk + [live]:
                job.result(timeout=30)
        # The interactive job (submitted LAST, behind 8 bulk jobs) must
        # ride the very first batch instead of waiting out the backlog.
        assert 1 in model.calls[0]["conditions"]

    def test_greedy_would_starve_the_interactive_source(self):
        """The control experiment for the fair-share test above."""
        model = StubModel()
        engine = ServeEngine(policy="greedy", gather_window=0.0, max_batch=4)
        client = engine.bind(model)
        bulk = [client.submit(1, 0, seed=i, source="bulk") for i in range(8)]
        live = client.submit(1, 1, seed=99, source="interactive")
        with engine:
            for job in bulk + [live]:
                job.result(timeout=30)
        assert 1 not in model.calls[0]["conditions"]


class TestExecutorPool:
    def test_multiple_workers_drain_incompatible_batches_in_parallel(self):
        model = StubModel(delay=0.05)
        engine = ServeEngine(
            policy="shape_bucketed", engine_workers=2, gather_window=0.02
        )
        client = engine.bind(model)
        with engine:
            jobs = [
                client.submit(
                    2, 0, shape=(16, 16) if i % 2 == 0 else (8, 8), seed=i
                )
                for i in range(8)
            ]
            for job in jobs:
                job.result(timeout=30)
        workers = {record.worker for record in engine.batch_records}
        assert len(workers) == 2  # both executors actually ran batches

    def test_concurrent_submit_and_stop_never_hang(self):
        model = StubModel(delay=0.002)
        engine = ServeEngine(engine_workers=2, gather_window=0.001)
        engine.start()
        client = engine.bind(model)
        accepted = []
        accepted_lock = threading.Lock()

        def submitter(offset):
            for i in range(20):
                try:
                    job = client.submit(1, 0, seed=offset * 100 + i)
                except RuntimeError:
                    return  # engine stopped underneath us: acceptable
                with accepted_lock:
                    accepted.append(job)
                time.sleep(0.001)

        threads = [
            threading.Thread(target=submitter, args=(t,)) for t in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        engine.stop(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        assert not engine.running
        # Every accepted job resolves: samples from the graceful drain, or
        # a typed failure from the shutdown sweep — never a hang.
        for job in accepted:
            try:
                result = job.result(timeout=10)
            except RuntimeError:
                continue
            assert result.shape == (1, 16, 16)

    def test_graceful_stop_drains_the_queue(self):
        model = StubModel(delay=0.01)
        engine = ServeEngine(engine_workers=2, gather_window=0.2)
        client = engine.bind(model)
        jobs = [client.submit(1, 0, seed=i) for i in range(6)]
        engine.start()
        engine.stop(timeout=30)  # must not wait out the gather window 6x
        for job in jobs:
            assert job.result(timeout=1).shape == (1, 16, 16)

    def test_restart_after_stop(self):
        engine = ServeEngine(gather_window=0.0)
        client = engine.bind(StubModel())
        with engine:
            client.submit(1, 0, seed=1).result(timeout=30)
        with pytest.raises(RuntimeError, match="stopped"):
            client.submit(1, 0, seed=2)
        with engine:
            assert client.submit(1, 0, seed=3).result(timeout=30).shape == (
                1, 16, 16,
            )


class TestRouting:
    def _registry(self):
        return ModelRegistry(
            builder=lambda key: StubModel(window=key.window)
        )

    def test_one_engine_serves_two_model_keys_concurrently(self):
        registry = self._registry()
        engine = ServeEngine(
            registry=registry,
            policy="fair_share",
            engine_workers=2,
            gather_window=0.02,
        )
        tenant_a = engine.bind(ModelKey(window=16), source="tenant-a")
        tenant_b = engine.bind(ModelKey(window=24), source="tenant-b")
        assert tenant_a.model is not tenant_b.model
        results = {}

        def run(name, client, count):
            results[name] = [
                client.submit(1, i % 2, seed=i).result(timeout=30)
                for i in range(count)
            ]

        with engine:
            threads = [
                threading.Thread(target=run, args=("a", tenant_a, 4)),
                threading.Thread(target=run, args=("b", tenant_b, 4)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert all(r.shape == (1, 16, 16) for r in results["a"])
        assert all(r.shape == (1, 24, 24) for r in results["b"])
        stats = engine.stats()
        assert stats.models == 2
        assert stats.policy == "fair_share"
        # Per-binding stats are scoped to each tenant's model.
        assert tenant_a.stats().samples == 4
        assert tenant_b.stats().samples == 4
        labels = {record.model for record in engine.batch_records}
        assert labels == {tenant_a.label, tenant_b.label}

    def test_binding_same_model_twice_shares_batches(self):
        model = StubModel()
        engine = ServeEngine(gather_window=0.05)
        first = engine.bind(model)
        second = engine.bind(model)
        a = first.submit(1, 0, seed=1)
        b = second.submit(1, 1, seed=2)
        with engine:
            a.result(timeout=30)
            b.result(timeout=30)
        # Same back-end => same trajectory, even across bindings.
        stats = engine.stats().scheduler
        assert stats.batches == 1
        assert stats.max_batch_size == 2

    def test_binding_a_key_requires_a_registry(self):
        engine = ServeEngine()
        with pytest.raises(ValueError, match="registry"):
            engine.bind(ModelKey(window=16))

    def test_trajectories_never_mix_models(self):
        registry = self._registry()
        engine = ServeEngine(
            registry=registry, policy="greedy", gather_window=0.05
        )
        # Same shape, different back-ends: must still be two trajectories.
        a = engine.bind(ModelKey(window=16), source="a")
        b = engine.bind(ModelKey(window=16, seed=1), source="b")
        assert a.model is not b.model
        ja = a.submit(1, 0, seed=1)
        jb = b.submit(1, 0, seed=2)
        with engine:
            ja.result(timeout=30)
            jb.result(timeout=30)
        assert engine.stats().scheduler.batches == 2


class TestDeliveryIdentity:
    """Each job must receive ITS samples, however the policy reordered."""

    class MarkerModel:
        """Returns each sample filled with its condition value."""

        window = 16
        fitted = True
        supports_sampler_steps = True

        def sample_batch(self, conditions, rng, shape=None, **kwargs):
            out = np.empty((len(conditions), *shape), dtype=np.uint8)
            for i, condition in enumerate(conditions):
                out[i] = condition
            return out

    @pytest.mark.parametrize(
        "policy", ["greedy", "shape_bucketed", "fair_share"]
    )
    def test_every_job_gets_its_own_samples(self, policy):
        engine = ServeEngine(policy=policy, gather_window=0.0, max_batch=64)
        client = engine.bind(self.MarkerModel())
        jobs = []
        for i in range(12):
            jobs.append(
                client.submit(
                    1 + i % 3,
                    condition=i,  # the per-job payload marker
                    seed=i,
                    source=f"src-{i % 3}",
                )
            )
        with engine:
            for i, job in enumerate(jobs):
                result = job.result(timeout=30)
                assert result.shape[0] == 1 + i % 3
                # Every row of this job's slice carries its own marker —
                # a mis-sliced or reordered batch would leak a neighbor's.
                assert set(np.unique(result)) == {i}

    def test_fair_share_batch_composition_is_arrival_ordered(self):
        """Riders line up by arrival inside a trajectory even when the
        fair-share rotation picked them in interleaved source order, so a
        fixed batch composition reproduces identical sample streams."""
        recorded = []

        class Recorder:
            window = 16
            fitted = True

            def sample_batch(self, conditions, rng, shape=None):
                recorded.append(list(conditions))
                return np.zeros((len(conditions), *shape), dtype=np.uint8)

        engine = ServeEngine(policy="fair_share", gather_window=0.0)
        client = engine.bind(Recorder())
        for i, source in enumerate(["bulk", "bulk", "bulk", "live"]):
            client.submit(1, condition=i, seed=i, source=source)
        with engine:
            pass  # drain on exit
        assert recorded == [[0, 1, 2, 3]]


class TestMaskedJobs:
    def test_masked_and_plain_jobs_share_one_trajectory(self):
        model = StubModel()
        engine = ServeEngine(gather_window=0.0)
        client = engine.bind(model)
        known = np.ones((2, 16, 16), dtype=np.uint8)
        keep = np.zeros((2, 16, 16), dtype=np.uint8)
        keep[:, :4] = 1
        plain = client.submit(1, 0, seed=1)
        masked = client.submit(2, 1, seed=2, known=known, keep=keep)
        with engine:
            plain.result(timeout=30)
            masked.result(timeout=30)
        assert len(model.calls) == 1
        call = model.calls[0]
        assert call["conditions"] == [0, 1, 1]
        # The plain rider is an all-zero keep row of the same blend.
        assert call["keep"][0].sum() == 0
        assert np.array_equal(call["keep"][1:], keep)
        assert np.array_equal(call["known"][1:], known)

    def test_plain_plans_pass_no_stacks(self):
        model = StubModel()
        engine = ServeEngine(gather_window=0.0)
        client = engine.bind(model)
        job = client.submit(2, 0, seed=1)
        with engine:
            job.result(timeout=30)
        assert "known" not in model.calls[0] and "keep" not in model.calls[0]

    def test_bad_stacks_rejected_at_submit(self):
        client = ServeEngine().bind(StubModel())
        stack = np.zeros((1, 16, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="together"):
            client.submit(1, 0, known=stack)
        with pytest.raises(ValueError, match="must both be"):
            client.submit(2, 0, known=stack, keep=stack)


class TestGatherEarlyClose:
    """The gather window closes once every running request has queued."""

    def test_lone_request_skips_the_gather_floor(self):
        engine = ServeEngine(gather_window=0.5)
        client = engine.bind(StubModel())
        with engine, engine.request_scope() as requester:
            job = client.submit(1, 0, seed=1, requester=requester)
            job.result(timeout=30)
        assert job.queue_wait < 0.1

    def test_unscoped_jobs_keep_the_full_window(self):
        engine = ServeEngine(gather_window=0.2)
        client = engine.bind(StubModel())
        with engine:
            job = client.submit(1, 0, seed=1)
            job.result(timeout=30)
        assert job.queue_wait >= 0.15

    def test_concurrent_requests_still_share_one_trajectory(self):
        model = StubModel()
        engine = ServeEngine(gather_window=0.5)
        client = engine.bind(model)
        jobs = []
        with engine, engine.request_scope() as first:
            with engine.request_scope() as second:
                jobs.append(client.submit(1, 0, seed=1, requester=first))
                time.sleep(0.05)  # the second request is still running
                jobs.append(client.submit(1, 1, seed=2, requester=second))
                for job in jobs:
                    job.result(timeout=30)
        assert len(model.calls) == 1
        assert model.calls[0]["conditions"] == [0, 1]
        # Closed when the second request queued, well before the window.
        assert jobs[0].queue_wait < 0.4
        assert jobs[1].queue_wait < 0.1

    def test_finished_request_releases_a_waiting_gather(self):
        engine = ServeEngine(gather_window=1.0)
        client = engine.bind(StubModel())
        with engine, engine.request_scope() as requester:
            idle = engine.request_scope()
            idle.__enter__()
            job = client.submit(1, 0, seed=1, requester=requester)
            time.sleep(0.05)
            idle.__exit__(None, None, None)  # nobody else can join now
            job.result(timeout=30)
        assert job.queue_wait < 0.5

    def test_adaptive_widened_window_applies_while_requests_are_missing(
        self,
    ):
        from repro.api.config import TuneConfig
        from repro.serve import AdaptivePolicy

        policy = AdaptivePolicy(
            config=TuneConfig(
                slo_p95=0.8, degrade_ladder=(32, "bucketed"),
                degrade_after=1, restore_after=10 ** 6, queue_high=3,
                queue_low=1, tick_interval=0.0,
            )
        )
        model = StubModel(delay=0.05)
        engine = ServeEngine(policy=policy, gather_window=0.01)
        client = engine.bind(model)
        spike = [client.submit(1, 0, seed=i) for i in range(12)]
        with engine:
            for job in spike:
                job.result(timeout=60)
            assert policy.controller.level > 0
            widened = engine.gather_window
            assert widened > 0.01
            with engine.request_scope() as running:
                with engine.request_scope():  # running, nothing queued
                    job = client.submit(1, 0, seed=99, requester=running)
                    job.result(timeout=30)
        assert job.queue_wait >= widened - 0.005
