"""Free-size pattern extension via In-Painting and Out-Painting (Fig. 7).

Both methods synthesise a ``target_shape`` topology from a window-sized
model, touching only one model window at a time (the paper's
memory-friendly "working space"):

- **Out-Painting** grows an existing pattern outward: windows slide with a
  stride and each new window is re-painted conditioned on its already-known
  overlap.  ``N_out = (ceil((W-L)/S)+1) * (ceil((H-L)/S)+1)`` samplings.
- **In-Painting** first lays independent tiles on a grid, then re-paints the
  seams (vertical, horizontal, then the corner crossings) so adjacent tiles
  merge.  ``N_in = (2*ceil(W/L)-1) * (2*ceil(H/L)-1)`` samplings.

Windows that cannot see each other's output share one batched reverse
trajectory (RePaint rows of one ``sample`` call): In-Painting draws all its
tiles in one trajectory and repaints each seam phase in one more, because
the windows of a phase never overlap; Out-Painting visits its windows in
*waves*, a window's wave being one past the highest wave of any
earlier-in-raster window overlapping it.  Every window therefore sees
exactly the known region the serial raster scan gave it.
``ExtensionResult.samplings`` keeps the paper's window count;
``ExtensionResult.trajectories`` counts the batched trajectories run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.model import ConditionalDiffusionModel


def n_in_samplings(width: int, height: int, window: int) -> int:
    """Paper formula: samplings used by In-Painting extension."""
    gx = math.ceil(width / window)
    gy = math.ceil(height / window)
    return (2 * gx - 1) * (2 * gy - 1)


def n_out_samplings(width: int, height: int, window: int, stride: int) -> int:
    """Paper formula: samplings used by Out-Painting extension."""
    nx = math.ceil(max(0, width - window) / stride) + 1
    ny = math.ceil(max(0, height - window) / stride) + 1
    return nx * ny


@dataclass
class ExtensionResult:
    """Extended topology plus bookkeeping for the agent's documents.

    ``samplings`` is the paper's window count (N_in / N_out);
    ``trajectories`` is how many batched reverse trajectories produced
    those windows.
    """

    topology: np.ndarray
    method: str
    samplings: int
    windows: List[Tuple[int, int]] = field(default_factory=list)
    trajectories: int = 0


def _window_starts(extent: int, window: int, stride: int) -> List[int]:
    """Window start offsets covering ``[0, extent)`` with a final flush fit."""
    if extent <= window:
        return [0]
    starts = list(range(0, extent - window, stride))
    starts.append(extent - window)
    return starts


def _repaint_windows(
    model: ConditionalDiffusionModel,
    canvas: np.ndarray,
    windows: Sequence[Tuple[int, int]],
    keeps: Sequence[np.ndarray],
    condition: Optional[int],
    rng: np.random.Generator,
    sampler_steps,
) -> None:
    """Repaint non-overlapping ``canvas`` windows in one trajectory."""
    window = model.window
    known = np.stack(
        [canvas[r0 : r0 + window, c0 : c0 + window] for r0, c0 in windows]
    )
    painted = model.sample(
        len(windows), condition, rng, shape=(window, window),
        sampler_steps=sampler_steps, known=known, keep=np.stack(keeps),
    )
    for (r0, c0), tile in zip(windows, painted):
        canvas[r0 : r0 + window, c0 : c0 + window] = tile


def out_paint_waves(
    target_shape: Tuple[int, int],
    window: int,
    stride: int,
    seed_shape: Tuple[int, int],
) -> List[List[Tuple[int, int]]]:
    """Out-Painting's window schedule: the raster scan grouped into waves.

    A raster window is painted when the known region (seed plus every
    earlier painted window) does not already cover it.  Its wave is 1 + the
    highest wave of any earlier-in-raster painted window it overlaps, so
    overlapping windows keep their raster order and windows within one
    wave never overlap.  Returns the waves in order, each listing its
    windows' ``(row, col)`` origins in raster order.
    """
    height, width = target_shape
    known = np.zeros((height, width), dtype=bool)
    known[: seed_shape[0], : seed_shape[1]] = True
    painted: List[Tuple[int, int, int]] = []
    for r0 in _window_starts(height, window, stride):
        for c0 in _window_starts(width, window, stride):
            if known[r0 : r0 + window, c0 : c0 + window].all():
                continue  # fully known, nothing to generate
            wave = 1 + max(
                (
                    w
                    for r, c, w in painted
                    if abs(r - r0) < window and abs(c - c0) < window
                ),
                default=0,
            )
            painted.append((r0, c0, wave))
            known[r0 : r0 + window, c0 : c0 + window] = True
    waves: List[List[Tuple[int, int]]] = [
        [] for _ in range(max((w for _, _, w in painted), default=0))
    ]
    for r0, c0, wave in painted:
        waves[wave - 1].append((r0, c0))
    return waves


def out_paint(
    model: ConditionalDiffusionModel,
    seed_topology: np.ndarray,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    stride: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Extend ``seed_topology`` to ``target_shape`` by Out-Painting.

    The seed is placed at the origin; windows are visited in raster order
    (batched by :func:`out_paint_waves`) so every new window overlaps
    already-known cells on its top/left border.
    """
    seed = np.asarray(seed_topology, dtype=np.uint8)
    window = model.window
    stride = window // 2 if stride is None else stride
    if not 0 < stride <= window:
        raise ValueError("stride must be in (0, window]")
    height, width = target_shape
    if seed.shape[0] > height or seed.shape[1] > width:
        raise ValueError("seed larger than target shape")

    canvas = np.zeros((height, width), dtype=np.uint8)
    known = np.zeros((height, width), dtype=np.uint8)
    canvas[: seed.shape[0], : seed.shape[1]] = seed
    known[: seed.shape[0], : seed.shape[1]] = 1

    waves = out_paint_waves(target_shape, window, stride, seed.shape)
    for wave in waves:
        keeps = [
            known[r0 : r0 + window, c0 : c0 + window].copy()
            for r0, c0 in wave
        ]
        _repaint_windows(
            model, canvas, wave, keeps, condition, rng, sampler_steps
        )
        for r0, c0 in wave:
            known[r0 : r0 + window, c0 : c0 + window] = 1
    visited = sorted(origin for wave in waves for origin in wave)
    return ExtensionResult(
        topology=canvas,
        method="out",
        samplings=len(visited),
        windows=visited,
        trajectories=len(waves),
    )


def in_paint(
    model: ConditionalDiffusionModel,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    seed_topology: Optional[np.ndarray] = None,
    seam_band: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Synthesise a ``target_shape`` topology by In-Painting.

    Independent window tiles are laid on a grid (the optional seed becomes
    tile (0, 0)); the adjacency borders and corners of the concatenated
    matrix are then re-painted (Fig. 7).  The canvas is generated at the
    tile-aligned size and cropped to ``target_shape``.  All drawn tiles
    share one trajectory, and each seam phase shares one more.
    """
    window = model.window
    band = window // 2 if seam_band is None else seam_band
    if not 0 < band < window:
        raise ValueError("seam_band must be in (0, window)")
    height, width = target_shape
    gy = math.ceil(height / window)
    gx = math.ceil(width / window)
    full_h, full_w = gy * window, gx * window

    seed = None
    if seed_topology is not None:
        seed = np.asarray(seed_topology, dtype=np.uint8)
        if seed.shape != (window, window):
            raise ValueError("seed must match the model window")
    tiles = [(j * window, i * window) for j in range(gy) for i in range(gx)]
    drawn = tiles[1:] if seed is not None else tiles
    canvas = np.zeros((full_h, full_w), dtype=np.uint8)
    if seed is not None:
        canvas[:window, :window] = seed
    trajectories = 0
    if drawn:
        samples = model.sample(
            len(drawn), condition, rng, sampler_steps=sampler_steps
        )
        for (r0, c0), tile in zip(drawn, samples):
            canvas[r0 : r0 + window, c0 : c0 + window] = tile
        trajectories += 1
    samplings = len(drawn)
    visited: List[Tuple[int, int]] = list(tiles)

    half = band // 2
    mid = window // 2
    band_cells = slice(mid - half, mid + half)
    vertical = np.ones((window, window), dtype=np.uint8)
    vertical[:, band_cells] = 0
    horizontal = np.ones((window, window), dtype=np.uint8)
    horizontal[band_cells, :] = 0
    corner = np.ones((window, window), dtype=np.uint8)
    corner[band_cells, band_cells] = 0
    phases = (
        # Vertical seams: windows centred on each internal tile boundary.
        (
            [(j * window, i * window - mid)
             for i in range(1, gx) for j in range(gy)],
            vertical,
        ),
        # Horizontal seams.
        (
            [(j * window - mid, i * window)
             for j in range(1, gy) for i in range(gx)],
            horizontal,
        ),
        # Corner crossings.
        (
            [(j * window - mid, i * window - mid)
             for j in range(1, gy) for i in range(1, gx)],
            corner,
        ),
    )
    for windows, keep in phases:
        if not windows:
            continue
        _repaint_windows(
            model, canvas, windows, [keep] * len(windows), condition, rng,
            sampler_steps,
        )
        samplings += len(windows)
        trajectories += 1
        visited.extend(windows)

    return ExtensionResult(
        topology=canvas[:height, :width],
        method="in",
        samplings=samplings,
        windows=visited,
        trajectories=trajectories,
    )


def extend(
    model: ConditionalDiffusionModel,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    method: str = "out",
    seed_topology: Optional[np.ndarray] = None,
    stride: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Dispatch to In-Painting or Out-Painting extension.

    Without a seed, Out-Painting first draws one window-sized sample
    (counted in ``samplings`` and ``trajectories``), matching the agent's
    standard pipeline (Fig. 4); In-Painting draws it as tile (0, 0) in the
    same trajectory as the other tiles.
    """
    if method not in ("in", "out"):
        raise ValueError(f"unknown extension method {method!r}")
    if method == "in":
        return in_paint(
            model, target_shape, condition, rng, seed_topology=seed_topology,
            sampler_steps=sampler_steps,
        )
    extra = 0
    if seed_topology is None:
        seed_topology = model.sample(
            1, condition, rng, sampler_steps=sampler_steps
        )[0]
        extra = 1
    result = out_paint(
        model, seed_topology, target_shape, condition, rng, stride=stride,
        sampler_steps=sampler_steps,
    )
    result.samplings += extra
    result.trajectories += extra
    return result
