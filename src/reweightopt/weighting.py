"""Per-sample importance weights computed from loss values.

Each weighting rule maps a per-sample loss u to a multiplicative weight
g(u) > 0 that emphasizes hard (high-loss) samples.  The loss fed into
g is always clamped to [0, tau], which bounds the weights and protects
the update from outliers.  Three variants are provided:

    kl          g(u) = exp(clip(u, 0, tau) / (tau + 1))       in [1, e^(tau/(tau+1))]
    chi2        g(u) = clip(u, 0, tau) + tau                  in [tau, 2 tau]
    reverse_kl  g(u) = (1 - clip(u, 0, tau) / (tau + 1))**-1  in [1, tau + 1]

plus ``none`` (all weights exactly 1, plain averaging).  The scale
1/(tau+1) inside the kl and reverse_kl forms is tied to the clip level.

All functions are pure and operate in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import clip

__all__ = [
    "Divergence",
    "WeightingRule",
    "as_loss_vector",
    "batch_weights",
    "weighted_objective",
]


class Divergence(str, Enum):
    KL = "kl"
    CHI2 = "chi2"
    REVERSE_KL = "reverse_kl"
    NONE = "none"


@dataclass(frozen=True)
class WeightingRule:
    """Divergence variant plus clip level; fully determines g."""

    divergence: Divergence = Divergence.NONE
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "divergence", Divergence(self.divergence))
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a positive finite real, got {self.tau}")

    @property
    def gamma(self) -> float:
        """Exponent scale 1/(tau+1) of the kl weight."""
        return 1.0 / (self.tau + 1.0)

    # the weighter protocol of ``optim``; a rule is its own next weighter
    def step_weights(self, losses, t: int):
        # rgd_step has checked the losses: no as_loss_vector scan
        return _apply(losses, self), self

    def report(self, losses):
        return self._report(as_loss_vector(losses))

    def _report(self, ell: np.ndarray):
        """``report`` of a float64 vector of finite losses, unchecked."""
        w = _apply(ell, self)
        # the fraction of samples whose loss hit the upper clip (u >= tau): np.mean's bits
        sat = 0.0
        if self.divergence is not Divergence.NONE:
            sat = float(np.count_nonzero(ell >= self.tau) / ell.size)
        return _objective(ell, w), w, sat


def as_loss_vector(values) -> np.ndarray:
    """Validate and convert per-sample losses to a float64 array.

    Rejects empty input and any NaN/Inf entry.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("loss vector must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        bad = np.flatnonzero(~np.isfinite(arr))
        raise ValueError(f"non-finite loss values at indices {bad.tolist()}")
    return arr


def batch_weights(losses, rule: WeightingRule) -> np.ndarray:
    """Apply a weighting rule element-wise to a vector of losses."""
    return _apply(as_loss_vector(losses), rule)


def _apply(arr: np.ndarray, rule: WeightingRule) -> np.ndarray:
    if rule.divergence is Divergence.NONE:
        return np.ones_like(arr)
    clipped = clip(arr, 0.0, rule.tau)  # a fresh array, which the forms below overwrite
    if rule.divergence is Divergence.KL:
        # divide rather than multiply by a precomputed 1/(tau+1): saturation
        # at u >= tau must equal exp(tau/(tau+1)) bit-for-bit
        clipped /= rule.tau + 1.0
        return np.exp(clipped, out=clipped)
    if rule.divergence is Divergence.CHI2:
        clipped += rule.tau
        return clipped
    # reverse_kl, the last of the four: minimum() repairs the 1-ulp overshoot
    # of 1/(1 - tau/(tau+1)) at saturation; the exact value there is tau+1
    return np.minimum(1.0 / (1.0 - clipped / (rule.tau + 1.0)), rule.tau + 1.0)


def weighted_objective(losses, weights) -> float:
    """Mean of weight*loss with the weights held constant.

    This is the reported training objective; its gradient with frozen
    weights equals the weighted mean of per-sample gradients.  Losses and
    weights must be finite and of one length.  When finite losses overflow
    the plain sum, the mean is taken of the losses scaled by max |loss|; it
    stays finite unless the mean itself overflows.
    """
    ell = as_loss_vector(losses)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != ell.shape:
        raise ValueError(f"length mismatch: {ell.size} losses vs {w.size} weights")
    if not np.all(np.isfinite(w)):
        bad = np.flatnonzero(~np.isfinite(w))
        raise ValueError(f"non-finite weight values at indices {bad.tolist()}")
    return _objective(ell, w)


def _weighted_mean(ell: np.ndarray, w: np.ndarray) -> float:
    """``_objective`` for a caller that has entered np.errstate(over="ignore")
    itself, once for many calls."""
    # float(a.sum()) / a.size is np.mean(a) of a float64 vector bit for bit: the
    # same sum, divided by the count, without np.mean's Python wrapper
    mean = float((w * ell).sum()) / ell.size
    if not math.isfinite(mean):
        scale = float(np.max(np.abs(ell)))
        mean = float((w * (ell / scale)).sum()) / ell.size * scale
    return mean


# errstate's decorator form: cheaper than a with block built per call
_objective = np.errstate(over="ignore")(_weighted_mean)
