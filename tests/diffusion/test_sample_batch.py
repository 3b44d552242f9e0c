"""Unit tests for the batched mixed-condition sampling path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import ConditionalDiffusionModel
from repro.diffusion.denoisers.base import MarginalDenoiser


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
