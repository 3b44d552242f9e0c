"""Unit tests for free-size extension (Fig. 7) and the sampling formulas."""

import numpy as np
import pytest

from repro.ops import (
    concat_samplings,
    extend,
    in_paint,
    n_in_samplings,
    n_out_samplings,
    naive_concat,
    out_paint,
)


class TestSamplingFormulas:
    def test_n_in_matches_paper(self):
        # N_in = (2*ceil(W/L)-1)(2*ceil(H/L)-1)
        assert n_in_samplings(256, 256, 128) == 9
        assert n_in_samplings(512, 512, 128) == 49
        assert n_in_samplings(128, 128, 128) == 1
        assert n_in_samplings(200, 300, 128) == 3 * 5

    def test_n_out_matches_paper(self):
        # N_out = (ceil((W-L)/S)+1)(ceil((H-L)/S)+1)
        assert n_out_samplings(256, 256, 128, 64) == 9
        assert n_out_samplings(128, 128, 128, 64) == 1
        assert n_out_samplings(512, 256, 128, 128) == 4 * 2

    def test_concat_samplings(self):
        assert concat_samplings(256, 256, 128) == 4
        assert concat_samplings(300, 300, 128) == 9


class TestOutPaint:
    def test_shape_and_seed_preserved(self, small_model):
        rng = np.random.default_rng(0)
        seed = small_model.sample(1, 0, rng)[0]
        result = out_paint(small_model, seed, (128, 128), 0, rng)
        assert result.topology.shape == (128, 128)
        assert result.method == "out"
        assert np.array_equal(result.topology[:64, :64], seed)

    def test_sampling_count_positive(self, small_model):
        rng = np.random.default_rng(1)
        seed = small_model.sample(1, 0, rng)[0]
        result = out_paint(small_model, seed, (128, 128), 0, rng)
        assert result.samplings == len(result.windows)
        assert result.samplings >= 3

    def test_seed_larger_than_target_rejected(self, small_model):
        with pytest.raises(ValueError):
            out_paint(
                small_model,
                np.zeros((256, 256), dtype=np.uint8),
                (128, 128),
                0,
                np.random.default_rng(0),
            )

    def test_bad_stride_rejected(self, small_model):
        seed = np.zeros((64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            out_paint(small_model, seed, (128, 128), 0, np.random.default_rng(0), stride=0)


class TestInPaint:
    def test_shape(self, small_model):
        rng = np.random.default_rng(2)
        result = in_paint(small_model, (128, 128), 0, rng)
        assert result.topology.shape == (128, 128)
        assert result.method == "in"

    def test_sampling_count_matches_formula(self, small_model):
        rng = np.random.default_rng(3)
        result = in_paint(small_model, (128, 128), 0, rng)
        # 2x2 tiles -> (2*2-1)^2 = 9 samplings total
        assert result.samplings == n_in_samplings(128, 128, 64)

    def test_seed_used_as_first_tile(self, small_model):
        rng = np.random.default_rng(4)
        seed = small_model.sample(1, 0, rng)[0]
        result = in_paint(small_model, (128, 128), 0, rng, seed_topology=seed)
        # Top-left quadrant interior (outside seam bands) must match seed.
        assert np.array_equal(result.topology[:32, :32], seed[:32, :32])

    def test_bad_seed_shape(self, small_model):
        with pytest.raises(ValueError):
            in_paint(
                small_model, (128, 128), 0, np.random.default_rng(0),
                seed_topology=np.zeros((8, 8), dtype=np.uint8),
            )

    def test_crop_to_non_multiple(self, small_model):
        rng = np.random.default_rng(5)
        result = in_paint(small_model, (100, 90), 0, rng)
        assert result.topology.shape == (100, 90)


class TestExtendDispatch:
    def test_out_method(self, small_model):
        result = extend(small_model, (128, 128), 0, np.random.default_rng(6), method="out")
        assert result.method == "out"
        assert result.topology.shape == (128, 128)

    def test_in_method(self, small_model):
        result = extend(small_model, (128, 128), 1, np.random.default_rng(7), method="in")
        assert result.method == "in"

    def test_unknown_method(self, small_model):
        with pytest.raises(ValueError):
            extend(small_model, (128, 128), 0, np.random.default_rng(8), method="diagonal")

    def test_auto_seed_counted(self, small_model):
        result = extend(small_model, (128, 128), 0, np.random.default_rng(9), method="out")
        # One extra sampling for the automatically drawn seed.
        assert result.samplings >= 4


class TestNaiveConcat:
    def test_shape(self, small_model):
        out = naive_concat(small_model, (128, 128), 0, np.random.default_rng(10))
        assert out.shape == (128, 128)

    def test_tiles_are_independent_samples(self, small_model):
        out = naive_concat(small_model, (128, 128), 0, np.random.default_rng(11))
        w = small_model.window
        assert not np.array_equal(out[:w, :w], out[:w, w:])

    def test_crop(self, small_model):
        out = naive_concat(small_model, (100, 70), 0, np.random.default_rng(12))
        assert out.shape == (100, 70)


class RecordingModel:
    """Window-8 stand-in recording every ``sample`` call's stacks.

    Masked rows come back with their kept cells and ones elsewhere, so a
    canvas cell shows whether any window regenerated it.
    """

    window = 8

    def __init__(self):
        self.calls = []

    def sample(self, count, condition, rng, shape=None, sampler_steps=None,
               known=None, keep=None):
        shape = shape or (self.window, self.window)
        self.calls.append(
            (count, None if keep is None else keep.copy())
        )
        if known is None:
            return np.zeros((count, *shape), dtype=np.uint8)
        return np.where(keep == 1, known, 1).astype(np.uint8)


def serial_known_masks(target, window, stride, seed_shape):
    """The raster scan's known mask at each painted window, in order."""
    from repro.ops.extend import _window_starts

    known = np.zeros(target, dtype=np.uint8)
    known[: seed_shape[0], : seed_shape[1]] = 1
    masks = {}
    for r0 in _window_starts(target[0], window, stride):
        for c0 in _window_starts(target[1], window, stride):
            sub = known[r0 : r0 + window, c0 : c0 + window]
            if sub.min() == 1:
                continue
            masks[(r0, c0)] = sub.copy()
            known[r0 : r0 + window, c0 : c0 + window] = 1
    return masks


class TestBatchedSchedules:
    @pytest.mark.parametrize(
        "target,stride,seed_shape",
        [((16, 16), 4, (8, 8)), ((24, 40), 4, (8, 8)),
         ((20, 28), 6, (8, 5)), ((32, 32), 8, (8, 8))],
    )
    def test_wave_windows_see_the_serial_known_mask(
        self, target, stride, seed_shape
    ):
        from repro.ops.extend import out_paint_waves

        model = RecordingModel()
        seed = np.zeros(seed_shape, dtype=np.uint8)
        result = out_paint(
            model, seed, target, 0, np.random.default_rng(0), stride=stride
        )
        waves = out_paint_waves(target, 8, stride, seed_shape)
        serial = serial_known_masks(target, 8, stride, seed_shape)
        assert sorted(serial) == result.windows
        assert [count for count, _ in model.calls] == [len(w) for w in waves]
        for wave, (_, keeps) in zip(waves, model.calls):
            for origin, keep in zip(wave, keeps):
                assert np.array_equal(keep, serial[origin]), origin
            # Windows of one wave never overlap.
            for i, (r1, c1) in enumerate(wave):
                for r2, c2 in wave[i + 1 :]:
                    assert abs(r1 - r2) >= 8 or abs(c1 - c2) >= 8

    def test_out_paint_counts_at_two_windows(self):
        model = RecordingModel()
        result = out_paint(
            model, np.zeros((8, 8), np.uint8), (16, 16), 0,
            np.random.default_rng(0),
        )
        # N_out windows minus the seed's, in 6 waves instead of 8.
        assert result.samplings == n_out_samplings(16, 16, 8, 4) - 1 == 8
        assert result.trajectories == len(model.calls) == 6

    def test_in_paint_phases_share_trajectories(self):
        model = RecordingModel()
        result = in_paint(
            model, (16, 16), 0, np.random.default_rng(0),
            seed_topology=np.zeros((8, 8), np.uint8),
        )
        # 3 drawn tiles + 2 vertical + 2 horizontal + 1 corner windows in
        # 4 trajectories: tiles, then one per seam phase.
        assert result.samplings == n_in_samplings(16, 16, 8) - 1 == 8
        assert result.trajectories == 4
        assert [count for count, _ in model.calls] == [3, 2, 2, 1]
        assert model.calls[0][1] is None  # tiles are plain samples

    def test_extend_counts_the_seed(self):
        out = extend(RecordingModel(), (16, 16), 0, np.random.default_rng(0),
                     method="out")
        assert (out.samplings, out.trajectories) == (9, 7)
        inp = extend(RecordingModel(), (16, 16), 0, np.random.default_rng(0),
                     method="in")
        # The seed is tile (0, 0) of the one tile trajectory.
        assert (inp.samplings, inp.trajectories) == (9, 4)

    def test_in_paint_phases_match_real_model(self, small_model):
        rng = np.random.default_rng(13)
        seed = small_model.sample(1, 0, rng)[0]
        result = in_paint(small_model, (128, 128), 0, rng, seed_topology=seed)
        assert result.trajectories == 4
        assert result.samplings == n_in_samplings(128, 128, 64) - 1


class TestSeamBand:
    @pytest.mark.parametrize("band", [0, -2, 8, 9])
    def test_out_of_range_band_raises(self, band):
        with pytest.raises(ValueError, match="seam_band"):
            in_paint(
                RecordingModel(), (16, 16), 0, np.random.default_rng(0),
                seam_band=band,
            )

    def test_default_band_is_half_the_window(self):
        model = RecordingModel()
        in_paint(model, (16, 16), 0, np.random.default_rng(0))
        vertical = model.calls[1][1][0]
        # band 4 -> the middle 4 columns regenerate.
        assert (vertical == 0).sum(axis=1).tolist() == [4] * 8
