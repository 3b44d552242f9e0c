"""The chat path through the engine: batched generation, repairs and
extensions as engine jobs, and the client's closed model surface."""

import threading

import numpy as np
import pytest

from repro.agent import (
    AgentTools,
    RequirementList,
    SimulatedLLM,
    TaskExecutor,
)
from repro.metrics import physical_size_for
from repro.serve import (
    BatchedSamplingModel,
    MicroBatchScheduler,
    PatternService,
    ServeRequest,
)
from repro.serve.jobs import CANCELLED, CODE_CANCELLED, SUCCEEDED

CHAT = (
    "Generate {count} legal patterns, {size}*{size} topology, physical "
    "size {nm}nm * {nm}nm, style Layer-10001{extra}."
)


OUT_PAINTING = ", using Out-Painting"


def _service(model):
    return PatternService(model=model, max_workers=1, gather_window=0.0)


def chat(count, size=16, extra=""):
    nm = size * 64
    return CHAT.format(count=count, size=size, nm=nm, extra=extra)


class StubModel:
    """Instant window-16 back-end recording each trajectory.

    Plain rows are a legal square.  With ``corner_touch`` they hold a
    corner-touching pair instead, which legalization reports as a
    localized failure; masked rows (repairs) always come back legal.
    """

    def __init__(self, corner_touch=False):
        self.window = 16
        self.fitted = True
        self.n_classes = 2
        self.supports_sampler_steps = True
        self.corner_touch = corner_touch
        self.calls = []
        self._lock = threading.Lock()

    def sample_batch(self, conditions, rng, shape=None, known=None,
                     keep=None, **kwargs):
        shape = shape or (self.window, self.window)
        with self._lock:
            self.calls.append((len(conditions), keep is not None))
        out = np.zeros((len(conditions), *shape), dtype=np.uint8)
        if self.corner_touch:
            out[:, 2:7, 2:7] = 1
            out[:, 7:12, 7:12] = 1
        else:
            out[:, 4:12, 4:12] = 1
        if keep is not None:
            repaired = keep.reshape(len(keep), -1).any(axis=1)
            out[repaired] = 0
            out[repaired, 4:12, 4:12] = 1
        return out


class BlockingExtensionModel(StubModel):
    """Blocks inside the first masked trajectory until released."""

    def __init__(self):
        super().__init__()
        self.masked_started = threading.Event()
        self.release = threading.Event()

    def sample_batch(self, conditions, rng, shape=None, known=None,
                     keep=None, **kwargs):
        if keep is not None and not self.masked_started.is_set():
            self.masked_started.set()
            if not self.release.wait(timeout=30.0):
                raise RuntimeError("BlockingExtensionModel never released")
        return super().sample_batch(
            conditions, rng, shape=shape, known=known, keep=keep, **kwargs
        )


class TestRepairThroughEngine:
    def test_modification_is_an_admitted_masked_engine_job(self):
        model = StubModel(corner_touch=True)
        service = _service(model)
        try:
            job = service.submit_job(ServeRequest(text=chat(1)))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            response = job.response
            report = response.result.reports[0]
            assert report.modifications == 1 and report.produced == 1
            # Generation, then the repair: two engine jobs, the second
            # one masked, each with the full engine timeline.
            assert model.calls == [(1, False), (1, True)]
            assert response.stats.sample_jobs == 2
            admissions = [
                i for i, e in enumerate(job.engine_events)
                if e.kind == "admission"
            ]
            assert len(admissions) == 2
            repair = job.engine_events[admissions[1]:]
            assert repair[0].detail == {"count": 1, "masked": True}
            kinds = [e.kind for e in repair]
            assert "queue_wait" in kinds and "execute" in kinds
        finally:
            service.stop()


class TestExtensionThroughEngine:
    def test_delete_stops_before_the_next_wave(self):
        model = BlockingExtensionModel()
        service = _service(model)
        try:
            job = service.submit_job(
                ServeRequest(text=chat(1, size=32, extra=OUT_PAINTING))
            )
            assert model.masked_started.wait(timeout=30.0)
            _, effective = service.cancel_job(job.job_id)
            assert effective
            model.release.set()
            assert job.wait(timeout=30.0)
            assert job.state == CANCELLED
            assert job.error_code == CODE_CANCELLED
            # Seed tile, then exactly one out-painting wave: the DELETE
            # landed before the second wave was queued.
            assert model.calls == [(1, False), (1, True)]
        finally:
            model.release.set()
            service.stop()

    def test_extension_waves_are_engine_jobs(self):
        model = StubModel()
        service = _service(model)
        try:
            job = service.submit_job(
                ServeRequest(text=chat(1, size=32, extra=OUT_PAINTING))
            )
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            # 8 out-painting windows in 6 waves, after the seed tile.
            assert [n for n, _ in model.calls] == [1, 1, 2, 1, 2, 1, 1]
            assert job.response.stats.sample_jobs == 7
        finally:
            service.stop()


class TestBatchedGeneration:
    def test_count_n_is_one_engine_job_with_one_event_per_pattern(self):
        model = StubModel()
        service = _service(model)
        try:
            job = service.submit_job(ServeRequest(text=chat(4)))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            response = job.response
            assert response.produced == 4
            assert model.calls == [(4, False)]
            assert response.stats.sample_jobs == 1
            assert response.stats.samples == 4
            assert response.result.history.counts()["generated"] == 4
        finally:
            service.stop()

    def test_time_limit_stops_before_any_engine_work(self):
        model = StubModel()
        scheduler = MicroBatchScheduler(model, gather_window=0.0)
        client = BatchedSamplingModel(scheduler)
        executor = TaskExecutor(AgentTools(client), SimulatedLLM())
        requirement = RequirementList(
            topology_size=(16, 16),
            physical_size=physical_size_for((16, 16)),
            style="Layer-10001",
            count=3,
            time_limit=0.0,
        )
        with scheduler:
            report = executor.execute(requirement)
        assert report.timed_out and report.produced == 0
        assert model.calls == [] and client.sample_jobs == 0


class TestClosedClientSurface:
    def test_denoise_primitives_are_not_reachable(self, small_model):
        client = BatchedSamplingModel(MicroBatchScheduler(small_model))
        for name in ("denoise_step", "polish", "noise_to", "prior_sample"):
            with pytest.raises(AttributeError):
                getattr(client, name)
        assert client.denoise_evals("bucketed") == small_model.denoise_evals(
            "bucketed"
        )
