"""Unit tests for the batched mixed-condition sampling path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import ConditionalDiffusionModel
from repro.diffusion.denoisers.base import MarginalDenoiser
from repro.diffusion.model import (
    _calibrate_density_batch,
    _density_offsets,
)


def _reference_calibrate(p, targets, bins=512):
    """Probability-space per-item density calibration: clip, log, a
    512-bin histogram per item and 40 bisection halvings on it."""
    clipped = np.clip(p, 1e-9, 1.0 - 1e-9)
    means = clipped.mean(axis=(1, 2))
    out = clipped.copy()
    for row in np.flatnonzero(np.abs(means - targets) >= 1e-4):
        logits = np.log(clipped[row] / (1.0 - clipped[row]))
        flat = logits.ravel()
        span = flat.max() - flat.min()
        idx = np.floor(
            (flat - flat.min()) / (span if span > 0 else 1.0) * bins
        ).astype(np.intp)
        idx = np.clip(idx, 0, bins - 1)
        counts = np.bincount(idx, minlength=bins)
        reps = np.bincount(idx, weights=flat, minlength=bins) / np.maximum(
            counts, 1
        )
        weights = counts / flat.size
        lo, hi = -30.0, 30.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            mean = (weights / (1.0 + np.exp(-(reps + mid)))).sum()
            if mean < targets[row]:
                lo = mid
            else:
                hi = mid
        out[row] = 1.0 / (1.0 + np.exp(-(logits + 0.5 * (lo + hi))))
    return out


def _reference_p_x0(model, xk, k, conditions):
    """The x0 posterior of a batched step, computed in probability space."""
    level = model.schedule.beta_bar(k)
    p = model.denoiser.predict_x0_many(xk, level, conditions)
    gamma = 1.0 + model.sharpen * (1.0 - level / 0.5)
    p = p ** gamma / (p ** gamma + (1.0 - p) ** gamma)
    targets = np.array([model.denoiser.target_fill(c) for c in conditions])
    return _reference_calibrate(p, targets)


def _reference_step(model):
    """``denoise_step_batch`` built on :func:`_reference_p_x0`."""

    def step(xk, k, conditions, rng, deterministic=False, k_next=None):
        k_next = k - 1 if k_next is None else k_next
        p_x0 = _reference_p_x0(model, xk, k, conditions)
        if deterministic:
            x0_hat = (p_x0 > 0.5).astype(np.uint8)
        else:
            x0_hat = (rng.random(xk.shape) < p_x0).astype(np.uint8)
        if k_next == 0:
            return x0_hat
        flip = rng.random(x0_hat.shape) < model.schedule.beta_bar(k_next)
        return np.where(flip, 1 - x0_hat, x0_hat).astype(np.uint8)

    return step


class TestPredictX0Many:
    def test_matches_per_item_predict(self, small_model):
        rng = np.random.default_rng(3)
        xk = (rng.random((6, 64, 64)) < 0.5).astype(np.uint8)
        conditions = [0, 1, 0, 1, 1, 0]
        level = small_model.schedule.beta_bar(10)
        many = small_model.denoiser.predict_x0_many(xk, level, conditions)
        per_item = np.stack(
            [
                small_model.denoiser.predict_x0(xk[i], level, conditions[i])
                for i in range(len(conditions))
            ]
        )
        assert np.array_equal(many, per_item)

    def test_base_class_fallback_matches(self):
        denoiser = MarginalDenoiser(n_classes=2)
        denoiser.fit(
            np.stack(
                [np.zeros((8, 8), np.uint8), np.ones((8, 8), np.uint8)]
            ),
            np.array([0, 1]),
            schedule=None,
            rng=np.random.default_rng(0),
        )
        xk = np.zeros((3, 8, 8), dtype=np.uint8)
        out = denoiser.predict_x0_many(xk, 0.3, [0, 1, 0])
        assert np.allclose(out[0], denoiser.predict_x0(xk[0], 0.3, 0))
        assert np.allclose(out[1], denoiser.predict_x0(xk[1], 0.3, 1))

    def test_rejects_bad_input(self, small_model):
        level = small_model.schedule.beta_bar(5)
        with pytest.raises(ValueError):
            small_model.denoiser.predict_x0_many(
                np.zeros((8, 8), np.uint8), level, [0]
            )
        with pytest.raises(ValueError):
            small_model.denoiser.predict_x0_many(
                np.zeros((2, 8, 8), np.uint8), level, [0]
            )


class TestSampleBatch:
    def test_shapes_dtype_and_values(self, small_model):
        out = small_model.sample_batch([0, 1, 0], np.random.default_rng(5))
        assert out.shape == (3, 64, 64)
        assert out.dtype == np.uint8
        assert set(np.unique(out)) <= {0, 1}

    def test_empty_batch(self, small_model):
        out = small_model.sample_batch([], np.random.default_rng(0))
        assert out.shape == (0, 64, 64)

    def test_custom_shape(self, small_model):
        out = small_model.sample_batch(
            [0, 1], np.random.default_rng(1), shape=(32, 48)
        )
        assert out.shape == (2, 32, 48)

    def test_deterministic_for_fixed_rng(self, small_model):
        a = small_model.sample_batch([0, 1], np.random.default_rng(7))
        b = small_model.sample_batch([0, 1], np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_items_track_their_class_density(self, small_model):
        conditions = [0, 1, 0, 1]
        out = small_model.sample_batch(conditions, np.random.default_rng(11))
        for topology, condition in zip(out, conditions):
            target = small_model.denoiser.target_fill(condition)
            assert abs(float(topology.mean()) - target) < 0.2

    def test_mismatched_conditions_raise(self, small_model):
        xk = np.zeros((2, 64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            small_model.denoise_step_batch(
                xk, 3, [0], np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            small_model.denoise_step_batch(
                xk[0], 3, [0], np.random.default_rng(0)
            )

    def test_unfitted_model_raises(self):
        model = ConditionalDiffusionModel(window=16, n_classes=2)
        with pytest.raises(RuntimeError):
            model.sample_batch([0], np.random.default_rng(0))

    def test_posterior_sampler_supported(self, small_dataset):
        from repro.diffusion import DiffusionSchedule

        topologies, conditions = small_dataset
        model = ConditionalDiffusionModel(
            schedule=DiffusionSchedule.linear(16, 0.003, 0.08),
            window=64,
            n_classes=2,
            sampler="posterior",
        )
        model.fit(topologies, conditions, np.random.default_rng(0))
        out = model.sample_batch([0, 1], np.random.default_rng(2))
        assert out.shape == (2, 64, 64)


class TestMaskedRows:
    """RePaint rows inside the batched trajectory (Eq. 12)."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        masked=st.lists(st.booleans(), min_size=1, max_size=4),
    )
    def test_kept_cells_byte_identical_across_stacked_rows(
        self, small_model, seed, masked
    ):
        """Random masks on a stack mixing masked and plain rows: every
        kept cell comes back untouched and every row stays binary."""
        rng = np.random.default_rng(seed)
        rows, shape = len(masked), (24, 24)
        known = (rng.random((rows, *shape)) < 0.4).astype(np.uint8)
        keep = (rng.random((rows, *shape)) < 0.6).astype(np.uint8)
        keep[~np.asarray(masked)] = 0  # plain rows ride along
        conditions = [int(c) for c in rng.integers(0, 2, rows)]
        out = small_model.sample_batch(
            conditions, rng, shape=shape, sampler_steps="bucketed",
            known=known, keep=keep,
        )
        assert out.shape == (rows, *shape)
        assert set(np.unique(out)) <= {0, 1}
        kept = keep == 1
        assert np.array_equal(out[kept], known[kept])

    def test_plain_row_is_a_row_with_keep_zero(self, small_model):
        """All-zero keep stacks leave the trajectory byte-identical to a
        plain call: no blend, no extra rng draws."""
        shape = (24, 24)
        plain = small_model.sample_batch(
            [0, 1], np.random.default_rng(4), shape=shape,
            sampler_steps="bucketed",
        )
        zeros = np.zeros((2, *shape), dtype=np.uint8)
        masked = small_model.sample_batch(
            [0, 1], np.random.default_rng(4), shape=shape,
            sampler_steps="bucketed", known=zeros + 1, keep=zeros,
        )
        assert np.array_equal(plain, masked)

    def test_masked_rows_avoid_corner_touches_they_create(self, small_model):
        from repro.geometry import diagonal_touch_pairs

        rng = np.random.default_rng(9)
        known = small_model.sample(1, 0, rng)
        keep = np.ones_like(known)
        keep[0, 16:48, 16:48] = 0
        out = small_model.sample_batch(
            [0], rng, known=known, keep=keep, sampler_steps="bucketed"
        )
        for row, col in diagonal_touch_pairs(out[0]):
            # Any remaining touch is made of kept cells only.
            filled = out[0, row : row + 2, col : col + 2] == 1
            assert keep[0, row : row + 2, col : col + 2][filled].all()

    def test_known_and_keep_go_together(self, small_model):
        stack = np.zeros((1, 8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="together"):
            small_model.sample_batch(
                [0], np.random.default_rng(0), shape=(8, 8), known=stack
            )
        with pytest.raises(ValueError, match="must both be"):
            small_model.sample_batch(
                [0], np.random.default_rng(0), shape=(8, 8),
                known=stack, keep=np.zeros((1, 4, 4), dtype=np.uint8),
            )

    def test_masked_sample_is_a_batched_call(self, small_model):
        """The fitted model's ``sample`` with stacks IS ``sample_batch``."""
        known = small_model.sample(2, 0, np.random.default_rng(1))
        keep = np.ones_like(known)
        keep[:, :20, :20] = 0
        via_sample = small_model.sample(
            2, 0, np.random.default_rng(2), known=known, keep=keep
        )
        via_batch = small_model.sample_batch(
            [0, 0], np.random.default_rng(2), known=known, keep=keep
        )
        assert np.array_equal(via_sample, via_batch)


class TestLogitStep:
    """The logit-space step against a probability-space reference."""

    @pytest.mark.parametrize("k", [1, 2, 17, 40, 64])
    def test_p_x0_matches_probability_space_reference(self, small_model, k):
        rng = np.random.default_rng(k)
        conditions = [0, 1, 1, 0, 1]
        xk = (rng.random((5, 64, 64)) < 0.5).astype(np.uint8)
        xk[3] = 0  # a degenerate row
        level = small_model.schedule.beta_bar(k)
        new = small_model._p_x0_batch(xk, level, conditions)
        reference = _reference_p_x0(small_model, xk, k, conditions)
        assert np.abs(new - reference).max() <= 1e-9

    @pytest.mark.parametrize("steps", ["full", "bucketed", 9])
    @pytest.mark.parametrize("conditions", [[1], [0, 1, 1]])
    def test_sample_batch_byte_identical_to_reference_chain(
        self, small_model, monkeypatch, steps, conditions
    ):
        shape = (32, 32)
        rows = len(conditions)
        known = np.random.default_rng(0).random((rows, *shape)) < 0.4
        keep = np.zeros((rows, *shape), dtype=np.uint8)
        keep[0, :, :12] = 1  # the first row is a masked repaint
        masked = {"known": known.astype(np.uint8), "keep": keep}
        for seed in (0, 1):
            for stacks in ({}, masked):
                new = small_model.sample_batch(
                    conditions, np.random.default_rng(seed), shape=shape,
                    sampler_steps=steps, **stacks,
                )
                with monkeypatch.context() as patch:
                    patch.setattr(
                        small_model, "denoise_step_batch",
                        _reference_step(small_model),
                    )
                    reference = small_model.sample_batch(
                        conditions, np.random.default_rng(seed), shape=shape,
                        sampler_steps=steps, **stacks,
                    )
                assert np.array_equal(new, reference)

    def test_marginal_denoiser_runs_through_the_same_step(self):
        denoiser = MarginalDenoiser(n_classes=2)
        denoiser.fit(
            np.stack([np.zeros((8, 8), np.uint8), np.ones((8, 8), np.uint8)]),
            np.array([0, 1]),
            schedule=None,
            rng=np.random.default_rng(0),
        )
        logits = denoiser.predict_logits_many(
            np.zeros((2, 8, 8), np.uint8), 0.3, [0, 1]
        )
        # Marginals of exactly 0 and 1 stay finite at the clip.
        assert np.isfinite(logits).all()
        assert (logits[0] < -20).all() and (logits[1] > 20).all()
        model = ConditionalDiffusionModel(
            denoiser=denoiser, window=8, n_classes=2
        )
        model.fitted = True
        out = model.sample_batch([0, 1], np.random.default_rng(0))
        assert (out[0] == 0).all() and (out[1] == 1).all()


class TestDensitySolve:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        size=st.integers(1, 600),
        constant=st.booleans(),
        spread=st.floats(0.0, 20.0),
        target=st.one_of(
            st.floats(1e-4, 1e-2),
            st.floats(1e-2, 0.99),
            st.floats(0.99, 1.0 - 1e-4),
        ),
    )
    def test_newton_solve_hits_the_histogram_target(
        self, seed, rows, size, constant, spread, target
    ):
        rng = np.random.default_rng(seed)
        reps = rng.normal(rng.uniform(-10, 10), spread, size=(rows, size))
        if constant:
            reps[0] = reps[0, 0]
        reps = np.clip(reps, -20.72, 20.72)
        weights = rng.random((rows, size))
        weights[:, rng.random(size) < 0.3] = 0.0  # empty bins
        weights[:, 0] += 1e-3
        weights /= weights.sum(axis=1, keepdims=True)
        targets = np.full(rows, target)
        means = (weights / (1.0 + np.exp(-reps))).sum(axis=1)
        offsets = _density_offsets(reps, weights, targets, means)
        reached = (
            weights / (1.0 + np.exp(-(reps + offsets[:, None])))
        ).sum(axis=1)
        assert np.abs(reached - targets).max() <= 1e-6

    def test_rows_solve_independently(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 4.0, size=(3, 32, 32))
        targets = np.array([0.2, 0.5, 0.8])
        together = _calibrate_density_batch(z, targets)
        for i in range(3):
            alone = _calibrate_density_batch(z[i : i + 1], targets[i : i + 1])
            assert np.array_equal(together[i], alone[0])
