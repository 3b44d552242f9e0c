"""E6 — Figure 9: 512x512 topology matrices generated by Out-Painting.

Reproduces the figure's progression: a 128^2 window sample (what previous
work can produce) grown to 256^2 and then 512^2 by Out-Painting, per style.
Renders each stage as ASCII art and saves PGM images.
"""

import os

import numpy as np

from repro.data import STYLES
from repro.io import ascii_art, write_pgm
from repro.ops import out_paint

STAGES = (128, 256, 512)


def _generate(chatpattern_model, output_dir):
    rng = np.random.default_rng(9)
    outputs = {}
    for idx, style in enumerate(STYLES):
        seed = chatpattern_model.sample(1, idx, rng)[0]
        stages = {128: seed}
        counts = {128: "1 sampling, 1 trajectory"}
        current = seed
        for size in STAGES[1:]:
            result = out_paint(chatpattern_model, current, (size, size), idx, rng)
            current = result.topology
            stages[size] = current
            counts[size] = (
                f"{result.samplings} samplings in "
                f"{result.trajectories} trajectories"
            )
        print(f"\n=== Figure 9 ({style}, Out-Painting progression) ===")
        for size in STAGES:
            print(f"-- {size}x{size} ({counts[size]}) --")
            print(ascii_art(stages[size], max_size=48))
            write_pgm(
                stages[size],
                os.path.join(output_dir, f"fig9_outpaint_{style}_{size}.pgm"),
            )
        outputs[style] = stages
    return outputs


def test_fig9_outpaint_samples(benchmark, chatpattern_model, output_dir):
    outputs = benchmark.pedantic(
        _generate, args=(chatpattern_model, output_dir), rounds=1, iterations=1
    )
    for style, stages in outputs.items():
        # Out-painting preserves the already-generated region at each stage.
        assert np.array_equal(stages[512][:128, :128], stages[128])
        assert np.array_equal(stages[512][:256, :256], stages[256])
