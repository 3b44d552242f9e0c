"""E5 — Figure 8: 256x256 topology matrices generated by In-Painting.

Renders one In-Painted 256^2 topology per style (before legalization, as in
the figure) as ASCII art on stdout and as PGM images under
``benchmarks/out/``.
"""

import os

import numpy as np

from repro.data import STYLES
from repro.io import ascii_art, write_pgm
from repro.metrics import complexity_of
from repro.ops import in_paint, n_in_samplings

SIZE = 256


def _generate(chatpattern_model, output_dir):
    rng = np.random.default_rng(8)
    outputs = {}
    for idx, style in enumerate(STYLES):
        result = in_paint(chatpattern_model, (SIZE, SIZE), idx, rng)
        assert result.topology.shape == (SIZE, SIZE)
        expected = n_in_samplings(SIZE, SIZE, chatpattern_model.window)
        print(f"\n=== Figure 8 ({style}, In-Painting, "
              f"{result.samplings}/{expected} samplings in "
              f"{result.trajectories} trajectories) ===")
        print(ascii_art(result.topology, max_size=64))
        path = write_pgm(
            result.topology,
            os.path.join(output_dir, f"fig8_inpaint_{style}.pgm"),
        )
        print(f"[saved {path}]  complexity={complexity_of(result.topology)}")
        outputs[style] = result
    return outputs


def test_fig8_inpaint_samples(benchmark, chatpattern_model, output_dir):
    outputs = benchmark.pedantic(
        _generate, args=(chatpattern_model, output_dir), rounds=1, iterations=1
    )
    for style, result in outputs.items():
        assert result.samplings == n_in_samplings(SIZE, SIZE, 128)
        assert 0.05 < result.topology.mean() < 0.7
