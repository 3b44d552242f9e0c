"""The conditional discrete diffusion generator (back-end of ChatPattern).

Bundles a noise schedule with a pluggable denoiser and exposes the three
primitives every higher-level tool builds on: batch sampling (Eq. 11), a
single reverse step (Eq. 9) and forward noising (Eq. 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.denoisers.base import (
    P_CLIP,
    Denoiser,
    clipped_logit,
    logistic,
)
from repro.diffusion.denoisers.neighborhood import NeighborhoodDenoiser
from repro.diffusion.schedule import (
    DiffusionSchedule,
    SamplerSteps,
    validate_sampler_steps,
)

#: Step logits are clipped to ``+-logit(1 - P_CLIP)``.
_Z_MAX = float(np.log((1.0 - P_CLIP) / P_CLIP))
#: Density calibration is skipped when the mean is already this close.
_DENSITY_TOL = 1e-4
#: The density offset is searched in ``[-_OFFSET_REACH, _OFFSET_REACH]``.
_OFFSET_REACH = 30.0


class ConditionalDiffusionModel:
    """Class-conditional 2-state discrete diffusion over topology matrices.

    Args:
        denoiser: the learned ``p_theta(x0 | x_k, c)`` backend.
        schedule: noise schedule; linear ramp as in the paper (Eq. 4).  The
            default is K=128 with a gentler ramp (0.003 -> 0.08) than the
            paper's K=1000 / 0.01 -> 0.5: with the paper's parameters the
            cumulative flip probability saturates at 0.5 within a small
            fraction of the chain, so only the final ~60 steps carry
            information — the shorter ramp keeps the same number of
            *informative* steps at an eighth of the CPU cost.  The denoisers
            are noise-level- (not step-) indexed, so any schedule can be
            swapped in at sampling time.
        window: the model's native output size (the paper's 128).
    """

    #: Backend-protocol declaration: ``sample_batch`` accepts the
    #: ``sampler_steps`` kwarg.  The serving engine checks this attribute
    #: (not the call signature) before forwarding step schedules, so
    #: legacy stand-in back-ends that lack it are simply never passed the
    #: kwarg.  Keep it in sync with the ``sample_batch`` signature.
    supports_sampler_steps = True

    def __init__(
        self,
        denoiser: Optional[Denoiser] = None,
        schedule: Optional[DiffusionSchedule] = None,
        window: int = 128,
        n_classes: int = 2,
        sampler: str = "x0",
        density_guidance: bool = True,
        sharpen: float = 2.0,
        polish_sweeps: int = 4,
        sampler_steps: SamplerSteps = "full",
    ):
        if sampler not in ("x0", "posterior"):
            raise ValueError("sampler must be 'x0' or 'posterior'")
        self.denoiser = denoiser or NeighborhoodDenoiser(n_classes=n_classes)
        self.schedule = schedule or DiffusionSchedule.linear(128, 0.003, 0.08)
        self.window = window
        self.sampler = sampler
        self.density_guidance = density_guidance
        self.sharpen = float(sharpen)
        self.polish_sweeps = int(polish_sweeps)
        #: default reverse-step schedule ("full" | "bucketed" | int); every
        #: sampling entry point accepts a per-call override.
        self.sampler_steps = validate_sampler_steps(sampler_steps)
        self.fitted = False

    @property
    def n_classes(self) -> int:
        return self.denoiser.n_classes

    def fit(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        rng: np.random.Generator,
        **fit_kwargs,
    ) -> dict:
        """Train the denoiser on clean topologies (+ class conditions)."""
        info = self.denoiser.fit(
            np.asarray(topologies, dtype=np.uint8),
            conditions,
            self.schedule,
            rng,
            **fit_kwargs,
        )
        self.fitted = True
        return info

    def prior_sample(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """``T_K``: the fully-noised stationary distribution (fair coin)."""
        return (rng.random(shape) < 0.5).astype(np.uint8)

    def reverse_step_plan(
        self, sampler_steps: SamplerSteps = None
    ) -> List[Tuple[int, int]]:
        """The ``(k, k_next)`` pairs a reverse chain visits, in order.

        ``sampler_steps`` overrides the model default (``None`` keeps it).
        Under ``"full"`` the plan is the exact original chain
        (``(K, K-1) .. (2, 1), (1, 0)``); ``"bucketed"`` collapses steps
        sharing a denoiser noise bucket to one representative, so a K-step
        schedule costs ~``n_buckets`` denoiser evaluations; an int picks
        that many evenly spaced steps.  ``k_next == 0`` marks the
        deterministic final step.
        """
        value = self.sampler_steps if sampler_steps is None else sampler_steps
        ks = self.schedule.reverse_steps(
            value, n_buckets=getattr(self.denoiser, "n_buckets", None)
        )
        return list(zip(ks, ks[1:] + [0]))

    def denoise_evals(self, sampler_steps: SamplerSteps = None) -> int:
        """Denoiser evaluations one trajectory costs under a step spec."""
        return len(self.reverse_step_plan(sampler_steps))

    def denoise_step(
        self,
        xk: np.ndarray,
        k: int,
        condition: Optional[int],
        rng: np.random.Generator,
        deterministic: bool = False,
        k_next: Optional[int] = None,
    ) -> np.ndarray:
        """One reverse step ``x_k -> x_{k_next}`` (Eq. 9; default ``k - 1``).

        Two samplers implement the step:

        - ``"posterior"`` — the exact Eq. (5)/(9) ancestral step, summing the
          closed-form posterior over the predicted ``x_0``.
        - ``"x0"`` (default) — x0-resampling: draw ``x0_hat ~ p_theta(x0|x_k,c)``
          and re-noise it to level ``k_next`` via the forward process.  Both
          target the same learned posterior; x0-resampling applies the
          denoiser at full strength every step, which anneals global
          structure far more effectively for local (tabular) denoisers and
          is a standard sampler choice in D3PM implementations.

        ``k_next`` is the step the state is re-noised to — ``k - 1`` for the
        classic chain, further for the strided step schedules of
        :meth:`reverse_step_plan` (x0-resampling re-noises to any level in
        closed form, so a stride costs nothing extra; the adjacent-step
        posterior sampler falls back to the same jump).  ``k_next == 0``
        returns the clean prediction.  ``deterministic`` takes the mode
        instead of sampling — used for the final step, the discrete
        analogue of dropping the noise term at k=1.
        """
        if k_next is None:
            k_next = k - 1
        if not 0 <= k_next < k:
            raise ValueError(f"k_next {k_next} must be in [0, {k})")
        level = self.schedule.beta_bar(k)
        xk = np.asarray(xk, dtype=np.uint8)
        stack = xk if xk.ndim == 3 else xk[None]
        z = self._sharpened_logits(
            self.denoiser.predict_logits_many(
                stack, level, [condition] * stack.shape[0]
            ),
            level,
        )
        if self.density_guidance:
            p_x0 = _calibrate_density(z, self.denoiser.target_fill(condition))
        else:
            p_x0 = logistic(z)
        return self._sample_from_x0(
            xk, p_x0.reshape(xk.shape), k, k_next, rng, deterministic
        )

    def _sharpened_logits(self, z: np.ndarray, level: float) -> np.ndarray:
        """The front half of a reverse step, in logit space (float64 copy).

        Progressive sharpening: as the noise anneals away, raise the inverse
        temperature of the x0 posterior.  Wobbling edges (one cell in/out
        per row) are the costliest artefact for legalization — they chain
        interval constraints across rows — and near-deterministic late
        steps straighten them out.  Tempering ``p`` by ``gamma`` is scaling
        its logit, ``p^g / (p^g + (1-p)^g) = sigmoid(g * logit(p))``; the
        result is clipped to the logit of ``[P_CLIP, 1 - P_CLIP]``.
        """
        gamma = 1.0
        if self.sharpen > 0:
            gamma += self.sharpen * (1.0 - level / 0.5)
        z = np.multiply(z, gamma, dtype=np.float64)
        return np.clip(z, -_Z_MAX, _Z_MAX, out=z)

    def _sample_from_x0(
        self,
        xk: np.ndarray,
        p_x0: np.ndarray,
        k: int,
        k_next: int,
        rng: np.random.Generator,
        deterministic: bool,
    ) -> np.ndarray:
        """The back half of a reverse step: draw ``x_{k_next}`` by ``p_x0``."""
        if self.sampler == "posterior" and k_next == k - 1:
            p_prev = self.schedule.posterior_mix(xk, p_x0, k)
            if deterministic:
                return (p_prev > 0.5).astype(np.uint8)
            return (rng.random(xk.shape) < p_prev).astype(np.uint8)
        if deterministic:
            x0_hat = (p_x0 > 0.5).astype(np.uint8)
        else:
            x0_hat = (rng.random(xk.shape) < p_x0).astype(np.uint8)
        if k_next == 0:
            return x0_hat
        return self.schedule.forward_sample(x0_hat, k_next, rng)

    def polish(
        self,
        x0: np.ndarray,
        condition: Optional[int],
        sweeps: Optional[int] = None,
    ) -> np.ndarray:
        """Deterministic low-noise denoiser sweeps (speckle removal).

        Re-applies the k=1 denoiser in mode-taking form until fixpoint or
        ``sweeps`` iterations; equivalent to appending extra deterministic
        final steps to the reverse chain.
        """
        if sweeps is None:
            sweeps = self.polish_sweeps
        level = self.schedule.beta_bar(1)
        x = np.asarray(x0, dtype=np.uint8)
        for _ in range(sweeps):
            p = self.denoiser.predict_x0(x, level, condition)
            if self.density_guidance:
                # Guided mode-taking: threshold at the quantile that keeps
                # the class fill rate.  A fixed 0.5 threshold would erase
                # (or flood) the pattern whenever under-trained tables sit
                # uniformly below (above) one half.
                target = self.denoiser.target_fill(condition)
                threshold = float(np.quantile(p, 1.0 - target))
                threshold = min(max(threshold, 1e-9), 1.0 - 1e-9)
            else:
                threshold = 0.5
            nxt = (p > threshold).astype(np.uint8)
            if np.array_equal(nxt, x):
                break
            x = nxt
        return self._resolve_corner_touches(x, condition)

    def _resolve_corner_touches(
        self, x: np.ndarray, condition: Optional[int], max_rounds: int = 8
    ) -> np.ndarray:
        """Clear corner-touching polygon pairs from a clean sample.

        Training data contains no corner touches (they are zero-space DRC
        defects), so they are off-manifold artefacts of the sampler; of each
        touching diagonal pair the cell with the lower k=1 posterior is
        cleared.  Only *model output* passes through here — seams created by
        naive concatenation never do, matching the paper's dynamics.
        """
        from repro.geometry.grid import diagonal_touch_pairs

        if x.ndim == 3:
            return self._resolve_corner_touches_batch(
                x, [condition] * x.shape[0], max_rounds
            )
        level = self.schedule.beta_bar(1)
        out = x.copy()
        for _ in range(max_rounds):
            touches = diagonal_touch_pairs(out)
            if not touches:
                break
            p = self.denoiser.predict_x0(out, level, condition)
            _clear_weakest_touch_cells(out, p, touches)
        return out

    def _resolve_corner_touches_batch(
        self,
        x: np.ndarray,
        conditions: Sequence[Optional[int]],
        max_rounds: int = 8,
    ) -> np.ndarray:
        """Batched corner resolution over a ``(B, H, W)`` stack.

        Each round evaluates the k=1 posterior ONCE for every item that
        still holds a corner touch (one ``predict_x0_many`` on the active
        sub-stack) instead of running B independent per-item chains — the
        per-item outcome is identical, only the denoiser amortisation
        changes.
        """
        from repro.geometry.grid import diagonal_touch_pairs

        out = np.asarray(x, dtype=np.uint8).copy()
        conditions = list(conditions)
        level = self.schedule.beta_bar(1)
        active = list(range(out.shape[0]))
        for _ in range(max_rounds):
            touches_by_item = {}
            for i in active:
                touches = diagonal_touch_pairs(out[i])
                if touches:
                    touches_by_item[i] = touches
            active = list(touches_by_item)
            if not active:
                break
            p = self.denoiser.predict_x0_many(
                out[active], level, [conditions[i] for i in active]
            )
            for j, i in enumerate(active):
                _clear_weakest_touch_cells(out[i], p[j], touches_by_item[i])
        return out

    def sample(
        self,
        count: int,
        condition: Optional[int],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample ``count`` topologies via the reverse chain (Eq. 11).

        Returns a ``(count, H, W)`` uint8 array.  ``shape`` defaults to the
        model window; larger shapes should go through
        :mod:`repro.ops.extend` instead, matching the paper's free-size
        pipeline.  ``sampler_steps`` overrides the model's step schedule for
        this trajectory (see :meth:`reverse_step_plan`).

        ``known``/``keep`` stacks make the call a masked repaint; it then
        runs as one :meth:`sample_batch` trajectory — the same call the
        serving engine makes — so modification has a single implementation.
        """
        if not self.fitted:
            raise RuntimeError("model not fitted; call fit() first")
        h, w = shape or (self.window, self.window)
        if known is not None or keep is not None:
            return self.sample_batch(
                [condition] * count, rng, shape=(h, w),
                sampler_steps=sampler_steps, known=known, keep=keep,
            )
        xk = self.prior_sample((count, h, w), rng)
        for k, k_next in self.reverse_step_plan(sampler_steps):
            xk = self.denoise_step(
                xk, k, condition, rng,
                deterministic=(k_next == 0), k_next=k_next,
            )
        return self.polish(xk, condition)

    def noise_to(
        self, x0: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Forward-noise clean pixels to step ``k`` (Eq. 2)."""
        if k == 0:
            return np.asarray(x0, dtype=np.uint8).copy()
        return self.schedule.forward_sample(np.asarray(x0, dtype=np.uint8), k, rng)

    # -- batched mixed-condition sampling (the serving path) ------------

    def denoise_step_batch(
        self,
        xk: np.ndarray,
        k: int,
        conditions: Sequence[Optional[int]],
        rng: np.random.Generator,
        deterministic: bool = False,
        k_next: Optional[int] = None,
    ) -> np.ndarray:
        """One reverse step over a stacked batch with per-item conditions.

        The CFG-batching idiom adapted to class tables: the whole stack
        shares one trajectory, the denoiser is evaluated once per *distinct*
        condition on the matching sub-stack (at most ``n_classes`` chunks),
        and the results are scattered back into place.  Density guidance is
        calibrated per item (each item pins its own class fill rate), which
        the sequential :meth:`denoise_step` approximates jointly over its
        single-condition batch.  ``k_next`` strides exactly as in
        :meth:`denoise_step`.
        """
        xk = np.asarray(xk, dtype=np.uint8)
        if xk.ndim != 3:
            raise ValueError("denoise_step_batch expects a (B, H, W) stack")
        if len(conditions) != xk.shape[0]:
            raise ValueError(
                f"{len(conditions)} condition(s) for batch of {xk.shape[0]}"
            )
        if k_next is None:
            k_next = k - 1
        if not 0 <= k_next < k:
            raise ValueError(f"k_next {k_next} must be in [0, {k})")
        level = self.schedule.beta_bar(k)
        p_x0 = self._p_x0_batch(xk, level, conditions)
        return self._sample_from_x0(xk, p_x0, k, k_next, rng, deterministic)

    def _p_x0_batch(
        self,
        xk: np.ndarray,
        level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """The x0 posterior one batched step samples from.

        Table logits -> sharpening -> per-item density calibration, all in
        logit space, with one sigmoid at the end.
        """
        z = self._sharpened_logits(
            self.denoiser.predict_logits_many(xk, level, conditions), level
        )
        if not self.density_guidance:
            return logistic(z)
        targets = np.asarray(
            [self.denoiser.target_fill(c) for c in conditions], dtype=np.float64
        )
        return _calibrate_density_batch(z, targets)

    def polish_batch(
        self,
        x0: np.ndarray,
        conditions: Sequence[Optional[int]],
        sweeps: Optional[int] = None,
    ) -> np.ndarray:
        """Batched :meth:`polish` with per-item conditions and thresholds.

        The per-item guided thresholds come from one vectorized per-row
        quantile over the stacked probability map (one sort instead of B
        ``np.quantile`` calls), and corner resolution runs batched — one
        ``predict_x0_many`` per round over the items that still touch.
        """
        if sweeps is None:
            sweeps = self.polish_sweeps
        level = self.schedule.beta_bar(1)
        x = np.asarray(x0, dtype=np.uint8).copy()
        conditions = list(conditions)
        if not conditions:
            return x
        targets = np.asarray(
            [self.denoiser.target_fill(c) for c in conditions],
            dtype=np.float64,
        )
        for _ in range(sweeps):
            p = self.denoiser.predict_x0_many(x, level, conditions)
            if self.density_guidance:
                thresholds = np.clip(
                    _row_quantiles(p, 1.0 - targets), 1e-9, 1.0 - 1e-9
                )
            else:
                thresholds = np.full(x.shape[0], 0.5)
            nxt = (p > thresholds[:, None, None]).astype(np.uint8)
            if np.array_equal(nxt, x):
                break
            x = nxt
        return self._resolve_corner_touches_batch(x, conditions)

    def sample_batch(
        self,
        conditions: Sequence[Optional[int]],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
        known: Optional[np.ndarray] = None,
        keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample ``len(conditions)`` topologies in ONE reverse trajectory.

        The batched serving path: N requests' worth of sampling work —
        possibly with *different* style conditions — costs a single batched
        denoise trajectory instead of N (Eq. 11 over a stacked batch).
        Returns a ``(len(conditions), H, W)`` uint8 array whose i-th item is
        conditioned on ``conditions[i]``.  ``sampler_steps`` overrides the
        model's step schedule for this trajectory.

        ``known``/``keep`` (``(B, H, W)`` stacks, given together) make rows
        masked repaints (Eq. 12, RePaint): at every step a row with any
        kept cell is blended as ``keep * noise_to(known, k_next) +
        (1 - keep) * step``, and after the batched polish its kept cells
        are restored byte-for-byte and corner touches straddling the keep
        boundary are cleared on the regenerated side.  A row whose ``keep``
        is all zero is a plain sample, so masked and plain work share one
        trajectory.
        """
        if not self.fitted:
            raise RuntimeError("model not fitted; call fit() first")
        conditions = list(conditions)
        h, w = shape or (self.window, self.window)
        if not conditions:
            return np.zeros((0, h, w), dtype=np.uint8)
        known, keep, masked = _masked_rows(
            known, keep, (len(conditions), h, w)
        )
        xk = self.prior_sample((len(conditions), h, w), rng)
        for k, k_next in self.reverse_step_plan(sampler_steps):
            xk = self.denoise_step_batch(
                xk, k, conditions, rng,
                deterministic=(k_next == 0), k_next=k_next,
            )
            if len(masked):
                # T_{k_next}^known ~ q(. | T_0^known), blended over the step.
                noised = self.noise_to(known[masked], k_next, rng)
                xk[masked] = np.where(keep[masked] == 1, noised, xk[masked])
        out = self.polish_batch(xk, conditions)
        for i in masked:
            combined = np.where(keep[i] == 1, known[i], out[i])
            out[i] = _resolve_masked_corners(combined, keep[i])
        return out


def _masked_rows(
    known: Optional[np.ndarray],
    keep: Optional[np.ndarray],
    shape: Tuple[int, int, int],
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    """Validate repaint stacks; returns ``(known, keep, masked_rows)``.

    ``masked_rows`` indexes the rows holding at least one kept cell — the
    only rows the RePaint blend touches.
    """
    if known is None and keep is None:
        return None, None, np.zeros(0, dtype=np.intp)
    if known is None or keep is None:
        raise ValueError("known and keep must be given together")
    known = np.asarray(known, dtype=np.uint8)
    keep = np.asarray(keep, dtype=np.uint8)
    if known.shape != shape or keep.shape != shape:
        raise ValueError(
            f"known {known.shape} / keep {keep.shape} must both be {shape}"
        )
    return known, keep, np.flatnonzero(keep.reshape(shape[0], -1).any(axis=1))


def _resolve_masked_corners(
    topology: np.ndarray, keep_mask: np.ndarray
) -> np.ndarray:
    """Clear corner touches that straddle the keep boundary.

    The polish resolves corner defects on the full window, but cells in the
    kept region are restored afterwards, which can re-introduce a
    corner-touching pair across the mask boundary.  Here the *regenerated*
    cell of each offending pair is cleared; kept cells are never altered
    (the existing pattern must survive modification byte-for-byte).
    """
    from repro.geometry.grid import diagonal_touch_pairs

    out = topology.copy()
    for _ in range(8):
        touches = diagonal_touch_pairs(out)
        if not touches:
            break
        changed = False
        for row, col in touches:
            cells = [
                (r, c)
                for r, c in (
                    (row, col), (row + 1, col + 1),
                    (row, col + 1), (row + 1, col),
                )
                if out[r, c]
            ]
            editable = [rc for rc in cells if keep_mask[rc] == 0]
            if editable:
                out[editable[0]] = 0
                changed = True
        if not changed:
            break
    return out


def _clear_weakest_touch_cells(
    x: np.ndarray, p: np.ndarray, touches: Sequence[Tuple[int, int]]
) -> None:
    """Clear the lower-posterior filled cell of each corner-touching pair.

    ``touches`` holds the top-left coordinates of 2x2 windows containing a
    filled diagonal pair; ``x`` is edited in place.
    """
    for row, col in touches:
        cells = [
            (r, c)
            for r, c in (
                (row, col), (row + 1, col + 1),
                (row, col + 1), (row + 1, col),
            )
            if x[r, c]
        ]
        if not cells:
            continue
        weakest = min(cells, key=lambda rc: p[rc])
        x[weakest] = 0


def _row_quantiles(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Per-row quantiles of a ``(B, ...)`` stack, one level per row.

    One sort over the flattened trailing axes replaces B separate
    ``np.quantile`` calls; the interpolation matches ``np.quantile``'s
    default ``"linear"`` method exactly.
    """
    flat = np.sort(p.reshape(p.shape[0], -1), axis=1)
    pos = np.clip(np.asarray(qs, dtype=np.float64), 0.0, 1.0) * (
        flat.shape[1] - 1
    )
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, flat.shape[1] - 1)
    rows = np.arange(flat.shape[0])
    lower = flat[rows, lo]
    return lower + (pos - lo) * (flat[rows, hi] - lower)


def _calibrate_density_batch(
    z: np.ndarray, targets: np.ndarray, bins: int = 512
) -> np.ndarray:
    """Per-item :func:`_calibrate_density` over a ``(B, H, W)`` logit stack.

    Returns the calibrated probabilities.  Same moment-matching objective,
    solved on a per-item *histogram* of the logits (with bin-mean
    representatives): the Newton solve for the shared logit offset touches
    ``bins`` values per item instead of the full pixel map.  ``exp(-z)`` is
    taken once over the stack; the fast-path mean check and the calibrated
    result ``1 / (1 + exp(-z) * exp(-t))`` both reuse it.  The density
    error is second-order in the bin width — empirically ~1e-5, inside the
    exact solver's 1e-4 fast-path tolerance.

    Every stage is vectorized across the stack (the per-row histograms are
    two ``bincount`` calls over row-offset bin indices, the solve runs on
    ``(B, bins)`` arrays): a serving batch costs a handful of large array
    operations instead of thousands of tiny per-row ones, which both speeds
    the step up and keeps the engine's executor pool out of the interpreter
    lock for most of it.
    """
    expz = np.negative(z)
    np.exp(expz, out=expz)
    p = expz + 1.0
    np.divide(1.0, p, out=p)
    means = p.mean(axis=(1, 2))
    targets = np.asarray(targets, dtype=np.float64)
    rows = np.flatnonzero(np.abs(means - targets) >= _DENSITY_TOL)
    if not len(rows):
        return p
    every = len(rows) == len(z)
    flat = (z if every else z[rows]).reshape(len(rows), -1)
    lo_edge = flat.min(axis=1, keepdims=True)
    span = flat.max(axis=1, keepdims=True) - lo_edge
    # Degenerate rows (constant logits) all land in bin 0, whose
    # representative is then the exact value — same result as the exact
    # solver on the full map.  Bin positions are non-negative, so the cast
    # floors them.
    position = flat - lo_edge
    position /= np.where(span > 0, span, 1.0)
    position *= bins
    bin_idx = position.astype(np.intp)
    np.minimum(bin_idx, bins - 1, out=bin_idx)
    if len(rows) > 1:
        bin_idx += np.arange(len(rows), dtype=np.intp)[:, None] * bins
    counts = np.bincount(
        bin_idx.ravel(), minlength=len(rows) * bins
    ).reshape(len(rows), bins)
    sums = np.bincount(
        bin_idx.ravel(), weights=flat.ravel(), minlength=len(rows) * bins
    ).reshape(len(rows), bins)
    # Empty bins get zero weight, so their representative value is moot.
    reps = sums / np.maximum(counts, 1)
    scales = np.exp(-_density_offsets(
        reps, counts / flat.shape[1], targets[rows], means[rows]
    ))[:, None, None]
    if every:
        expz *= scales
        expz += 1.0
        return np.divide(1.0, expz, out=expz)
    p[rows] = 1.0 / (1.0 + expz[rows] * scales)
    return p


def _calibrate_density(z: np.ndarray, target: float) -> np.ndarray:
    """Moment-matching density guidance on a logit map; returns probabilities.

    Shifts the map in logit space so the mean probability equals the
    class's clean-data fill rate.  Local structure (the *relative* ordering
    of pixels) is untouched; only the global density is pinned, which
    prevents the density drift local denoisers exhibit over long reverse
    chains.  The offset is solved jointly and exactly over every pixel of
    the map.
    """
    p = logistic(z)
    mean = float(p.mean())
    if abs(mean - target) < _DENSITY_TOL:
        return p
    flat = z.reshape(1, -1)
    offset = _density_offsets(
        flat,
        np.full(flat.shape, 1.0 / flat.shape[1]),
        np.array([target], dtype=np.float64),
        np.array([mean]),
    )
    return logistic(z + offset[0])


def _density_offsets(
    reps: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    means: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Per-row offsets ``t`` with ``sum(w * sigmoid(reps + t)) == target``.

    Each root is searched in ``[-30, 30]`` by a bracketed Newton solve: a
    row keeps a bracket around its root, proposes a Newton step from the
    current point (a bisection when the step leaves the bracket), and stops
    once the bracket is under ``tol``; the answer is the bracket midpoint.
    Each Newton proposal is pushed ``tol / 4`` further along its direction,
    so once the iteration has converged the next point lands just past the
    root and closes the bracket from the far side.  ``means`` (the weighted
    mean at ``t = 0``) seed the start ``logit(target) - logit(mean)``, exact
    for constant rows.
    """
    n = len(targets)
    out = np.empty(n)
    lo = np.full(n, -_OFFSET_REACH)
    hi = np.full(n, _OFFSET_REACH)
    t = np.clip(
        clipped_logit(targets) - clipped_logit(means),
        -_OFFSET_REACH + 1.0, _OFFSET_REACH - 1.0,
    )
    active = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            s = logistic(reps + t[:, None])
            ws = weights * s
            gap = ws.sum(axis=1) - targets
            below = gap < 0
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            done = hi - lo < tol
            if done.any():
                out[active[done]] = 0.5 * (lo[done] + hi[done])
                if done.all():
                    return out
                keep = ~done
                active, reps, weights, targets, ws, s = (
                    active[keep], reps[keep], weights[keep], targets[keep],
                    ws[keep], s[keep],
                )
                t, lo, hi, gap = t[keep], lo[keep], hi[keep], gap[keep]
            slope = (ws - ws * s).sum(axis=1)
            proposal = t - gap / slope - np.sign(gap) * (0.25 * tol)
            t = np.where(
                (proposal > lo) & (proposal < hi), proposal, 0.5 * (lo + hi)
            )
    out[active] = 0.5 * (lo + hi)
    return out
