"""Pattern modification via masked reverse diffusion (Eq. 12, Fig. 6).

RePaint-style: at every reverse step the *kept* region is replaced by a
forward-noised copy of the existing topology while the masked region is
generated by the model (inside the batched trajectory, so several repaints
share one), conditioned (through the denoiser's receptive field)
on the kept context.  The class condition must match the style of the kept
topology — mismatched conditions mix rule decks, the failure mode the
paper's conditional design exists to avoid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.diffusion.model import ConditionalDiffusionModel
from repro.drc.violations import GridRegion


def region_mask(shape: tuple, region: GridRegion) -> np.ndarray:
    """Keep-mask that regenerates ``region`` and keeps everything else.

    Returns uint8 with 1 = keep (the paper's ``M``), 0 = regenerate.
    """
    mask = np.ones(shape, dtype=np.uint8)
    mask[region.upper : region.bottom + 1, region.left : region.right + 1] = 0
    return mask


def modify(
    model: ConditionalDiffusionModel,
    topology: np.ndarray,
    keep_mask: np.ndarray,
    condition: Optional[int],
    rng: np.random.Generator,
    sampler_steps=None,
) -> np.ndarray:
    """Regenerate the masked-out cells of ``topology``.

    A count-1 masked ``sample`` call: the RePaint blend runs inside the
    batched trajectory (:meth:`ConditionalDiffusionModel.sample_batch`),
    in-process for a fitted model and as an engine job for a serving
    client.

    Args:
        topology: existing clean topology ``T_0^known`` (H, W) in {0,1}.
        keep_mask: 1 = keep the existing cell, 0 = regenerate (``M``).
        condition: class condition matching the topology's style.
        rng: random generator.
        sampler_steps: reverse-step schedule override (see
            :meth:`~repro.diffusion.model.ConditionalDiffusionModel.reverse_step_plan`);
            ``None`` keeps the model default.

    Returns:
        A new (H, W) uint8 topology equal to the input on the kept cells.
    """
    known = np.asarray(topology, dtype=np.uint8)
    mask = np.asarray(keep_mask, dtype=np.uint8)
    if known.shape != mask.shape:
        raise ValueError(
            f"mask shape {mask.shape} != topology shape {known.shape}"
        )
    if mask.min() == 1:
        return known.copy()
    return model.sample(
        1, condition, rng, shape=known.shape, sampler_steps=sampler_steps,
        known=known[None], keep=mask[None],
    )[0]


def modify_region(
    model: ConditionalDiffusionModel,
    topology: np.ndarray,
    region: GridRegion,
    condition: Optional[int],
    rng: np.random.Generator,
    margin: int = 1,
    sampler_steps=None,
) -> np.ndarray:
    """Regenerate one rectangular grid region (+ a context margin).

    This is the agent-facing repair primitive: legalization failures hand
    back a :class:`GridRegion` and the agent re-paints exactly that area.
    """
    shape = np.asarray(topology).shape
    expanded = region.expanded(margin, shape)
    return modify(
        model, topology, region_mask(shape, expanded), condition, rng,
        sampler_steps=sampler_steps,
    )
