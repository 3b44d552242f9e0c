"""Unit tests for denoiser backends."""

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionSchedule,
    MarginalDenoiser,
    NeighborhoodDenoiser,
    UNetLite,
    neighborhood_codes,
)
from repro.diffusion.denoisers.neighborhood import (
    MAX_OFFSETS,
    downsample_binary,
    multiscale_codes,
    upsample_to,
    window_offsets,
)


def _reference_codes(x, offsets):
    """Per-offset int64 hashing over an ``np.pad``-ed copy."""
    arr = x if x.ndim == 3 else x[None]
    max_r = max(abs(dr) for dr, _ in offsets)
    max_c = max(abs(dc) for _, dc in offsets)
    pad = np.pad(arr, ((0, 0), (max_r, max_r), (max_c, max_c)))
    h, w = arr.shape[1:]
    codes = np.zeros(arr.shape, dtype=np.int64)
    for bit, (dr, dc) in enumerate(offsets):
        view = pad[:, max_r + dr : max_r + dr + h, max_c + dc : max_c + dc + w]
        codes |= view.astype(np.int64) << bit
    return codes if x.ndim == 3 else codes[0]


def _reference_downsample(x, scale):
    """Float mean over zero-padded blocks, thresholded at one half."""
    h, w = x.shape[-2:]
    pad = [(0, 0)] * (x.ndim - 2) + [(0, (-h) % scale), (0, (-w) % scale)]
    padded = np.pad(x, pad)
    hh, ww = padded.shape[-2:]
    blocks = padded.reshape(
        x.shape[:-2] + (hh // scale, scale, ww // scale, scale)
    )
    return (blocks.mean(axis=(-3, -1)) >= 0.5).astype(np.uint8)


class TestWindowOffsets:
    def test_rect(self):
        offsets = window_offsets((3, 3))
        assert len(offsets) == 9
        assert (0, 0) in offsets

    def test_diamond(self):
        offsets = window_offsets("diamond2")
        assert len(offsets) == 13
        assert all(abs(r) + abs(c) <= 2 for r, c in offsets)

    def test_plus(self):
        offsets = window_offsets("plus3")
        assert len(offsets) == 13
        assert (3, 0) in offsets and (0, -3) in offsets

    def test_even_rect_rejected(self):
        with pytest.raises(ValueError):
            window_offsets((2, 3))

    def test_explicit_offsets(self):
        offsets = window_offsets([(0, 0), (1, 1)])
        assert offsets == [(0, 0), (1, 1)]


class TestNeighborhoodCodes:
    def test_zero_padding(self):
        x = np.ones((2, 2), dtype=np.uint8)
        codes = neighborhood_codes(x, window_offsets((3, 3)))
        # Corner cell sees 4 ones and 5 padded zeros -> code < full 511.
        assert codes[0, 0] != codes.max() or codes.max() < 511

    def test_distinct_neighbourhoods_distinct_codes(self):
        offsets = window_offsets((3, 3))
        a = np.zeros((3, 3), dtype=np.uint8)
        b = np.zeros((3, 3), dtype=np.uint8)
        b[0, 1] = 1
        assert neighborhood_codes(a, offsets)[1, 1] != neighborhood_codes(b, offsets)[1, 1]

    def test_batch_matches_single(self):
        offsets = window_offsets("diamond2")
        rng = np.random.default_rng(0)
        x = (rng.random((2, 8, 8)) < 0.5).astype(np.uint8)
        batch = neighborhood_codes(x, offsets)
        assert np.array_equal(batch[0], neighborhood_codes(x[0], offsets))

    @pytest.mark.parametrize(
        "window",
        ["diamond2", (3, 3), "plus3", (3, 5), [(0, 0), (3, -1), (-2, 4)]],
    )
    @pytest.mark.parametrize("shape", [(2, 8, 8), (13, 21), (1, 5, 3)])
    def test_uint16_codes_match_int64_reference(self, window, shape):
        offsets = window_offsets(window)
        rng = np.random.default_rng(len(offsets))
        x = (rng.random(shape) < 0.5).astype(np.uint8)
        codes = neighborhood_codes(x, offsets)
        assert codes.dtype == np.uint16
        assert np.array_equal(codes, _reference_codes(x, offsets))

    def test_sixteen_offsets_use_every_code_bit(self):
        offsets = [(dr, dc) for dr in range(-2, 2) for dc in range(-2, 2)]
        assert len(offsets) == MAX_OFFSETS
        codes = neighborhood_codes(np.ones((7, 7), dtype=np.uint8), offsets)
        assert codes[3, 3] == 0xFFFF
        assert np.array_equal(
            codes, _reference_codes(np.ones((7, 7), np.uint8), offsets)
        )

    def test_too_many_offsets_rejected(self):
        offsets = window_offsets("diamond3")
        assert len(offsets) > MAX_OFFSETS
        with pytest.raises(ValueError, match="code width"):
            neighborhood_codes(np.zeros((4, 4), dtype=np.uint8), offsets)

    @pytest.mark.parametrize("shape", [(2, 64, 64), (13, 21), (2, 16, 32)])
    @pytest.mark.parametrize("scales", [(1, 2, 4, 8), (1,), (3, 2, 6)])
    def test_multiscale_codes_match_per_scale(self, shape, scales):
        offsets = window_offsets("diamond2")
        rng = np.random.default_rng(1)
        x = (rng.random(shape) < 0.5).astype(np.uint8)
        stack = x if x.ndim == 3 else x[None]
        packed = multiscale_codes(stack, scales, offsets, (2, 2))
        for s, codes in zip(scales, packed):
            expected = _reference_codes(
                _reference_downsample(stack, s), offsets
            )
            assert np.array_equal(codes, expected), s


class TestScaling:
    def test_downsample_majority(self):
        x = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
        d = downsample_binary(x, 2)
        assert d.shape == (1, 2)
        assert d[0, 0] == 1 and d[0, 1] == 0

    def test_downsample_identity_at_scale_1(self):
        x = np.eye(3, dtype=np.uint8)
        assert np.array_equal(downsample_binary(x, 1), x)

    def test_downsample_pads(self):
        x = np.ones((3, 3), dtype=np.uint8)
        d = downsample_binary(x, 2)
        assert d.shape == (2, 2)

    @pytest.mark.parametrize("scale", [2, 3, 4, 8])
    def test_downsample_ties_go_to_one(self, scale):
        half = scale * scale // 2
        x = np.zeros((2, scale, scale), dtype=np.uint8)
        x[0].reshape(-1)[:half] = 1  # exactly half filled (even blocks)
        x[1].reshape(-1)[: max(half - 1, 0)] = 1
        d = downsample_binary(x, scale)
        assert d.shape == (2, 1, 1)
        assert d[0, 0, 0] == int(2 * half >= scale * scale)
        assert d[1, 0, 0] == 0

    @pytest.mark.parametrize("shape", [(13, 21), (3, 7, 9), (16, 32), (1, 1)])
    @pytest.mark.parametrize("scale", [1, 2, 3, 4, 8])
    def test_downsample_matches_float_mean(self, shape, scale):
        rng = np.random.default_rng(scale)
        for density in (0.3, 0.5, 0.7):
            x = (rng.random(shape) < density).astype(np.uint8)
            d = downsample_binary(x, scale)
            assert d.dtype == np.uint8
            assert np.array_equal(d, _reference_downsample(x, scale))

    def test_upsample_crops(self):
        x = np.array([[1, 0]], dtype=np.uint8)
        up = upsample_to(x, 2, (2, 3))
        assert up.shape == (2, 3)
        assert up[0, 0] == 1 and up[1, 2] == 0


class TestMarginalDenoiser:
    def test_unconditional(self):
        d = MarginalDenoiser(n_classes=0)
        sch = DiffusionSchedule.linear(8)
        rng = np.random.default_rng(0)
        topos = np.zeros((4, 8, 8), dtype=np.uint8)
        topos[:, :2] = 1
        d.fit(topos, None, sch, rng)
        p = d.predict_x0(np.zeros((8, 8), dtype=np.uint8), 0.3)
        assert np.allclose(p, 0.25)

    def test_conditional(self):
        d = MarginalDenoiser(n_classes=2)
        sch = DiffusionSchedule.linear(8)
        rng = np.random.default_rng(0)
        topos = np.concatenate(
            [np.zeros((3, 4, 4), dtype=np.uint8), np.ones((3, 4, 4), dtype=np.uint8)]
        )
        conds = np.array([0, 0, 0, 1, 1, 1])
        d.fit(topos, conds, sch, rng)
        assert d.predict_x0(topos[0], 0.2, 0).mean() == pytest.approx(0.0)
        assert d.predict_x0(topos[0], 0.2, 1).mean() == pytest.approx(1.0)

    def test_condition_required_when_conditional(self):
        d = MarginalDenoiser(n_classes=2)
        with pytest.raises(ValueError):
            d.predict_x0(np.zeros((2, 2), dtype=np.uint8), 0.2, None)
        with pytest.raises(ValueError):
            d.predict_x0(np.zeros((2, 2), dtype=np.uint8), 0.2, 5)


class TestNeighborhoodDenoiser:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        # Vertical stripe world: column parity decides the value.
        base = np.zeros((16, 16), dtype=np.uint8)
        base[:, ::4] = 1
        base[:, 1::4] = 1
        topos = np.stack([base] * 12)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=8)
        info = d.fit(topos, None, DiffusionSchedule.linear(16), rng)
        return d, info, base

    def test_fit_reports(self, fitted):
        _, info, _ = fitted
        assert info["patterns"] == 12
        assert info["observations"] > 0

    def test_predict_probability_range(self, fitted):
        d, _, base = fitted
        rng = np.random.default_rng(1)
        noisy = np.where(rng.random(base.shape) < 0.2, 1 - base, base).astype(np.uint8)
        p = d.predict_x0(noisy, 0.2)
        assert ((p >= 0) & (p <= 1)).all()

    def test_denoises_toward_clean(self, fitted):
        d, _, base = fitted
        rng = np.random.default_rng(2)
        noisy = np.where(rng.random(base.shape) < 0.15, 1 - base, base).astype(np.uint8)
        p = d.predict_x0(noisy, 0.15)
        recovered = (p > 0.5).astype(np.uint8)
        # Interior cells should mostly be recovered.
        assert (recovered == base).mean() > 0.85

    def test_target_fill_recorded(self, fitted):
        d, _, base = fitted
        assert d.target_fill() == pytest.approx(base.mean())

    def test_unfitted_raises(self):
        d = NeighborhoodDenoiser(n_classes=0)
        with pytest.raises(RuntimeError):
            d.predict_x0(np.zeros((4, 4), dtype=np.uint8), 0.2)

    def test_oversized_window_rejected_before_allocation(self, monkeypatch):
        """``diamond3`` (25 cells) would ask for ~17 GB of count tables."""
        real_zeros = np.zeros

        def guarded(shape, *args, **kwargs):
            assert np.prod(shape) < 1 << 24, f"allocating {shape}"
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", guarded)
        with pytest.raises(ValueError, match="at most 16"):
            NeighborhoodDenoiser(n_classes=2, window="diamond3")

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            NeighborhoodDenoiser(window=[(0, 0), (0, 1), (0, 1)])

    def test_bucket_bounds(self, fitted):
        d, _, _ = fitted
        assert d.bucket_of(0.5) == d.n_buckets - 1
        assert d.bucket_of(1e-6) == 0
        with pytest.raises(ValueError):
            d.bucket_of(0.0)
        with pytest.raises(ValueError):
            d.bucket_of(0.6)


class TestCoarseGather:
    """Per-scale table gathers at coarse resolution, broadcast to pixels."""

    @staticmethod
    def _reference_logits(d, xk, level, conditions):
        bucket = d.bucket_of(level)
        codes = 1 << len(d.offsets)
        base = ((np.asarray(conditions) * d.n_buckets + bucket) * codes)[
            :, None, None
        ]
        logit = np.zeros(xk.shape, dtype=np.float32)
        for s in d.scales:
            codes = _reference_codes(_reference_downsample(xk, s), d.offsets)
            pixel_codes = upsample_to(codes, s, xk.shape[1:])
            logit += d._logit_tables[s].reshape(-1)[base + pixel_codes]
        return logit

    @pytest.mark.parametrize(
        "shape",
        [(2, 64, 64), (1, 24, 40), (3, 12, 20), (2, 13, 21), (2, 16, 32),
         (1, 7, 5)],
    )
    def test_matches_gather_after_upsample(self, small_model, shape):
        d = small_model.denoiser
        assert d.scales == (1, 2, 4, 8)
        rng = np.random.default_rng(shape[1] * shape[2])
        xk = (rng.random(shape) < 0.5).astype(np.uint8)
        conditions = [i % 2 for i in range(shape[0])]
        for k in (1, 20, 64):
            level = small_model.schedule.beta_bar(k)
            logits = d.predict_logits_many(xk, level, conditions)
            assert logits.dtype == np.float32
            expected = self._reference_logits(d, xk, level, conditions)
            assert np.array_equal(logits, expected)

    def test_probabilities_are_the_sigmoid_of_the_logits(self, small_model):
        d = small_model.denoiser
        rng = np.random.default_rng(4)
        xk = (rng.random((3, 16, 32)) < 0.5).astype(np.uint8)
        level = small_model.schedule.beta_bar(9)
        logits = d.predict_logits_many(xk, level, [1, 0, 1])
        p = d.predict_x0_many(xk, level, [1, 0, 1])
        assert np.array_equal(
            p, 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
        )

    def test_reference_path_returns_clipped_logits(self, small_model):
        d = small_model.denoiser
        rng = np.random.default_rng(5)
        xk = (rng.random((2, 16, 16)) < 0.5).astype(np.uint8)
        level = small_model.schedule.beta_bar(30)
        compiled = d.predict_logits_many(xk, level, [0, 1])
        d.use_compiled = False
        try:
            reference = d.predict_logits_many(xk, level, [0, 1])
        finally:
            d.use_compiled = True
        assert reference.dtype == np.float64
        # The compiled tables round each scale's logit (|z| <= 14) to float32.
        assert np.allclose(reference, compiled, atol=1e-4)


class TestUNetLite:
    def test_output_shape_and_range(self):
        net = UNetLite(n_classes=2, base_channels=4, seed=0)
        x = np.zeros((2, 16, 16), dtype=np.uint8)
        p = net.predict_x0(x, 0.3, 1)
        assert p.shape == (2, 16, 16)
        assert ((p >= 0) & (p <= 1)).all()

    def test_single_image(self):
        net = UNetLite(n_classes=0, base_channels=4, seed=0)
        p = net.predict_x0(np.zeros((16, 16), dtype=np.uint8), 0.3)
        assert p.shape == (16, 16)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        base = np.zeros((16, 16), dtype=np.uint8)
        base[:, ::2] = 1
        topos = np.stack([base] * 16)
        net = UNetLite(n_classes=0, base_channels=4, seed=1)
        info = net.fit(
            topos, None, DiffusionSchedule.linear(16), rng,
            iterations=60, batch_size=4, lr=3e-3,
        )
        losses = info["loss_history"]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
