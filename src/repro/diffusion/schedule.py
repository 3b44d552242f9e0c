"""Noise schedule and transition algebra of the 2-state discrete diffusion.

Implements Eqs. (1)-(4) of the paper for the binary topology alphabet
{0, 1}.  The per-step transition matrix is symmetric,

    Q_k = [[1 - beta_k, beta_k], [beta_k, 1 - beta_k]],

so the cumulative product stays in the same family with an effective flip
probability ``beta_bar_k`` obeying ``1 - 2*beta_bar_k = prod(1 - 2*beta_i)``,
which gives closed-form forward sampling at any step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np


SamplerSteps = Union[str, int, None]


def validate_sampler_steps(value: SamplerSteps) -> SamplerSteps:
    """Check a ``sampler_steps`` spec: ``"full"`` | ``"bucketed"`` | int.

    The single validation every path funnels through — config, CLI and
    per-call overrides alike (``reverse_steps`` applies it itself).
    """
    if value is None or value in ("full", "bucketed"):
        return value
    if isinstance(value, bool):
        raise ValueError("sampler_steps must be 'full', 'bucketed' or an int")
    if isinstance(value, (int, np.integer)):
        if value < 1:
            raise ValueError(f"sampler_steps must be >= 1, got {value}")
        return int(value)
    raise ValueError(
        f"sampler_steps must be 'full', 'bucketed' or an int, got {value!r}"
    )


def linear_beta_schedule(steps: int, beta_1: float = 0.01, beta_k: float = 0.5) -> np.ndarray:
    """Eq. (4): linearly increasing flip probabilities ``beta_1 .. beta_K``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (0.0 < beta_1 <= beta_k <= 0.5):
        raise ValueError("need 0 < beta_1 <= beta_K <= 0.5")
    if steps == 1:
        return np.array([beta_1])
    k = np.arange(1, steps + 1, dtype=np.float64)
    return (k - 1.0) * (beta_k - beta_1) / (steps - 1.0) + beta_1


@dataclass
class DiffusionSchedule:
    """Precomputed schedule over ``K`` forward steps.

    ``betas[i]`` is the flip probability of step ``k = i + 1`` and
    ``beta_bars[i]`` the cumulative flip probability of ``q(x_k | x_0)``.
    """

    betas: np.ndarray
    beta_bars: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.betas.ndim != 1 or self.betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D array")
        if ((self.betas <= 0) | (self.betas > 0.5)).any():
            raise ValueError("betas must lie in (0, 0.5]")
        self.beta_bars = 0.5 * (1.0 - np.cumprod(1.0 - 2.0 * self.betas))

    @classmethod
    def linear(cls, steps: int, beta_1: float = 0.01, beta_k: float = 0.5) -> "DiffusionSchedule":
        """Schedule with the paper's linear beta ramp (default 0.01 -> 0.5)."""
        return cls(betas=linear_beta_schedule(steps, beta_1, beta_k))

    def respaced(self, steps: int) -> "DiffusionSchedule":
        """DDIM-style respacing: a shorter schedule visiting the same
        terminal noise level.

        Selects ``steps`` cumulative noise levels evenly spaced over this
        schedule's ``beta_bar`` trajectory and derives the per-step betas
        that realise them, so a denoiser trained against this schedule can
        sample in fewer reverse steps without re-training.
        """
        if not 1 <= steps <= self.steps:
            raise ValueError(f"respaced steps must be in [1, {self.steps}]")
        indices = np.linspace(0, self.steps - 1, steps).round().astype(int)
        bars = self.beta_bars[indices]
        # Invert the cumulative recursion: 1-2*bar_k = prod(1-2*beta_i).
        survival = 1.0 - 2.0 * bars
        prev = np.concatenate(([1.0], survival[:-1]))
        ratio = np.clip(survival / prev, 1e-12, 1.0)
        betas = np.clip((1.0 - ratio) / 2.0, 1e-9, 0.5)
        return DiffusionSchedule(betas=betas)

    @property
    def steps(self) -> int:
        """K, the diffusion length."""
        return int(self.betas.shape[0])

    def reverse_steps(
        self,
        sampler_steps: Union[str, int, None] = "full",
        n_buckets: Optional[int] = None,
    ) -> List[int]:
        """The descending step indices a reverse chain visits.

        The step-schedule abstraction behind the fast samplers: the reverse
        chain walks the returned ``k`` values in order (always ending at 1,
        the deterministic final step) and re-noises each prediction to the
        *next visited* step instead of ``k - 1``, a DDIM-style stride.

        Modes:

        - ``"full"`` (or ``None``) — every step ``K .. 1``, the exact
          original chain.
        - ``"bucketed"`` — one representative step per *noise bucket* of a
          bucketed denoiser (``n_buckets`` required): consecutive steps
          whose ``beta_bar`` falls in the same bucket read identical tables,
          so only the lowest-noise step of each occupied bucket is kept —
          cutting denoiser evaluations from ``K`` to at most ``n_buckets``.
          Falls back to ``"full"`` when ``n_buckets`` is ``None`` (the
          denoiser is not bucketed, so there is nothing to collapse).
        - an ``int`` ``n`` — ``n`` steps evenly spaced over the step range
          (endpoints included); ``n >= K`` clamps to the full chain, so one
          configured count works across schedules of any length.
        """
        sampler_steps = validate_sampler_steps(sampler_steps)
        if sampler_steps is None or sampler_steps == "full":
            return list(range(self.steps, 0, -1))
        if sampler_steps == "bucketed":
            if n_buckets is None:
                return list(range(self.steps, 0, -1))
            # beta_bar is strictly increasing in k, so walking k upward
            # visits buckets in order; keep the first (lowest-noise) k of
            # each occupied bucket.  k=1 is always kept: it is the first k
            # of the lowest occupied bucket.
            buckets = np.minimum(
                n_buckets - 1, (self.beta_bars / 0.5 * n_buckets).astype(int)
            )
            _, first_of_bucket = np.unique(buckets, return_index=True)
            return sorted((int(i) + 1 for i in first_of_bucket), reverse=True)
        ks = np.linspace(self.steps, 1, min(sampler_steps, self.steps))
        return sorted({int(round(k)) for k in ks}, reverse=True)

    def beta(self, k: int) -> float:
        """Flip probability of forward step ``k`` (1-based)."""
        self._check_k(k)
        return float(self.betas[k - 1])

    def beta_bar(self, k: int) -> float:
        """Cumulative flip probability of ``q(x_k | x_0)`` (1-based)."""
        self._check_k(k)
        return float(self.beta_bars[k - 1])

    def forward_sample(
        self, x0: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``x_k ~ q(x_k | x_0)`` (Eq. 2) by independent pixel flips."""
        flip = rng.random(x0.shape) < self.beta_bar(k)
        return np.asarray(x0, dtype=np.uint8) ^ flip

    def posterior_probability(
        self, xk: np.ndarray, x0: np.ndarray, k: int
    ) -> np.ndarray:
        """``P(x_{k-1} = 1 | x_k, x_0)`` elementwise.

        ``q(x_{k-1}|x_k, x_0) \\propto q(x_k|x_{k-1}) q(x_{k-1}|x_0)``; for
        ``k = 1`` the posterior is the delta at ``x_0``.
        """
        self._check_k(k)
        xk_f = xk.astype(np.float64)
        x0_f = x0.astype(np.float64)
        if k == 1:
            return x0_f
        beta = self.beta(k)
        bar_prev = self.beta_bar(k - 1)
        # Likelihood of observing x_k from hypothetical x_{k-1} = 1 / 0.
        like_1 = np.where(xk_f == 1.0, 1.0 - beta, beta)
        like_0 = np.where(xk_f == 0.0, 1.0 - beta, beta)
        # Prior of x_{k-1} given x_0.
        prior_1 = np.where(x0_f == 1.0, 1.0 - bar_prev, bar_prev)
        prior_0 = 1.0 - prior_1
        numer = like_1 * prior_1
        denom = numer + like_0 * prior_0
        return numer / denom

    def posterior_mix(
        self, xk: np.ndarray, p_x0: np.ndarray, k: int
    ) -> np.ndarray:
        """Eq. (5)/(9): ``P(x_{k-1}=1 | x_k)`` marginalised over predicted x0.

        ``p_x0`` holds the model's ``P(x_0 = 1 | x_k, c)`` per pixel; the sum
        over the two possible ``x_0`` states is carried out in closed form.
        """
        ones = np.ones_like(xk)
        zeros = np.zeros_like(xk)
        post_if_1 = self.posterior_probability(xk, ones, k)
        post_if_0 = self.posterior_probability(xk, zeros, k)
        return p_x0 * post_if_1 + (1.0 - p_x0) * post_if_0

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.steps:
            raise ValueError(f"step k={k} outside [1, {self.steps}]")
