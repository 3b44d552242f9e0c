"""Unit tests for the conditional diffusion model facade."""

import numpy as np
import pytest

from repro.diffusion import (
    ConditionalDiffusionModel,
    DiffusionSchedule,
    MarginalDenoiser,
)
from repro.diffusion.denoisers.base import clipped_logit
from repro.diffusion.model import _calibrate_density
from repro.geometry import diagonal_touch_pairs


class TestLifecycle:
    def test_sample_before_fit_raises(self):
        model = ConditionalDiffusionModel(window=16, n_classes=0)
        with pytest.raises(RuntimeError):
            model.sample(1, None, np.random.default_rng(0))

    def test_bad_sampler_rejected(self):
        with pytest.raises(ValueError):
            ConditionalDiffusionModel(sampler="nonsense")

    def test_prior_is_fair_coin(self):
        model = ConditionalDiffusionModel(window=16, n_classes=0)
        x = model.prior_sample((64, 64), np.random.default_rng(0))
        assert x.mean() == pytest.approx(0.5, abs=0.05)


class TestSampling:
    @pytest.fixture(scope="class")
    def stripe_model(self):
        rng = np.random.default_rng(0)
        base = np.zeros((24, 24), dtype=np.uint8)
        base[:, 2::6] = 1
        base[:, 3::6] = 1
        topos = np.stack([np.roll(base, int(s), axis=1) for s in range(16)])
        model = ConditionalDiffusionModel(
            schedule=DiffusionSchedule.linear(48, 0.003, 0.08),
            window=24,
            n_classes=0,
        )
        model.fit(topos, None, rng)
        return model

    def test_sample_shape_dtype(self, stripe_model):
        s = stripe_model.sample(3, None, np.random.default_rng(1))
        assert s.shape == (3, 24, 24)
        assert s.dtype == np.uint8
        assert set(np.unique(s)) <= {0, 1}

    def test_sample_density_near_target(self, stripe_model):
        s = stripe_model.sample(4, None, np.random.default_rng(2))
        target = stripe_model.denoiser.target_fill()
        assert abs(s.mean() - target) < 0.12

    def test_samples_have_no_corner_touches(self, stripe_model):
        s = stripe_model.sample(4, None, np.random.default_rng(3))
        for x in s:
            assert diagonal_touch_pairs(x) == []

    def test_custom_shape(self, stripe_model):
        s = stripe_model.sample(1, None, np.random.default_rng(4), shape=(16, 32))
        assert s.shape == (1, 16, 32)

    def test_reproducible_given_seed(self, stripe_model):
        a = stripe_model.sample(2, None, np.random.default_rng(7))
        b = stripe_model.sample(2, None, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_posterior_sampler_runs(self):
        rng = np.random.default_rng(0)
        topos = (rng.random((8, 16, 16)) < 0.3).astype(np.uint8)
        model = ConditionalDiffusionModel(
            denoiser=MarginalDenoiser(n_classes=0),
            schedule=DiffusionSchedule.linear(16),
            window=16,
            n_classes=0,
            sampler="posterior",
            density_guidance=False,
            sharpen=0.0,
        )
        model.fit(topos, None, rng)
        s = model.sample(2, None, rng)
        assert s.shape == (2, 16, 16)


class TestNoiseTo:
    def test_k0_is_identity(self):
        model = ConditionalDiffusionModel(window=8, n_classes=0)
        x0 = np.eye(8, dtype=np.uint8)
        assert np.array_equal(model.noise_to(x0, 0, np.random.default_rng(0)), x0)

    def test_k_positive_flips(self):
        model = ConditionalDiffusionModel(window=8, n_classes=0)
        x0 = np.zeros((64, 64), dtype=np.uint8)
        xk = model.noise_to(x0, model.schedule.steps, np.random.default_rng(0))
        assert xk.mean() == pytest.approx(0.5, abs=0.05)


class TestDensityCalibration:
    def test_pins_mean(self):
        rng = np.random.default_rng(0)
        p = rng.random((64, 64)) * 0.2  # mean ~0.1
        calibrated = _calibrate_density(clipped_logit(p), 0.35)
        assert calibrated.mean() == pytest.approx(0.35, abs=0.01)

    def test_preserves_ordering(self):
        p = np.array([[0.1, 0.4, 0.8]])
        c = _calibrate_density(clipped_logit(p), 0.6)
        assert c[0, 0] < c[0, 1] < c[0, 2]

    def test_noop_when_matching(self):
        p = np.full((8, 8), 0.3)
        c = _calibrate_density(clipped_logit(p), 0.3)
        assert np.allclose(c, 0.3, atol=1e-3)
