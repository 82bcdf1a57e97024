"""Optimizers: plain SGD/Adam and the one reweighted step.

The reweighted step computes per-sample losses, asks a *weighter* for
weights, forms the direction

    v = (1/B) * sum_i w_i * grad(loss_i)

and feeds v to the base optimizer in place of the gradient.  A weighter
is the method's parameter object: ``step_weights(losses, t)`` returns
the weights of step t and the weighter for the next step, and
``report(losses)`` returns (objective, weights, saturated fraction) for
a trace row.  The weighters are a :class:`~reweightopt.weighting.WeightingRule`
(with the ``none`` rule the step is bit-identical to plain SGD/Adam),
:class:`Tilt` (the batch tilted objective) and :class:`BaselineState`
(moving-average exponential weighting, unclipped weights normalized by
a running estimate of their mean); ``term_step`` and ``ma_exp_step`` are
``rgd_step`` with the last two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .models import Batch, ModelState, backward_weighted, forward_losses
from .numerics import logsumexp
# batch_weights is bound here only for the benchmark's layer_targets()
from .weighting import WeightingRule, batch_weights  # noqa: F401

__all__ = [
    "Schedule",
    "TrainConfig",
    "OptimizerState",
    "BaselineState",
    "StepInfo",
    "Tilt",
    "TrainingDivergenceError",
    "lr_at",
    "init_state",
    "sgd_step",
    "adam_step",
    "rgd_step",
    "term_objective",
    "term_weights",
    "term_step",
    "ma_exp_step",
]


class Schedule(str, Enum):
    CONSTANT = "constant"
    INV_SQRT_STEP = "inv_sqrt_step"
    INV_SQRT_HORIZON = "inv_sqrt_horizon"


class TrainingDivergenceError(RuntimeError):
    """Non-finite loss or direction encountered during training."""

    def __init__(self, step: int, detail: str, sample_indices=None):
        self.step = step
        self.sample_indices = [] if sample_indices is None else [int(i) for i in sample_indices]
        suffix = f" (samples {self.sample_indices})" if self.sample_indices else ""
        super().__init__(f"training diverged at step {step}: {detail}{suffix}")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "sgd"
    rule: WeightingRule = field(default_factory=WeightingRule)
    lr_base: float = 0.1
    schedule: Schedule = Schedule.CONSTANT
    steps: int = 100
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    box: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "schedule", Schedule(self.schedule))
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.lr_base) and self.lr_base > 0):
            raise ValueError("lr_base must be positive")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("adam eps must be positive")
        if self.box is not None:
            lo, hi = self.box
            if not (lo < hi):
                raise ValueError("projection box must satisfy lo < hi")
            object.__setattr__(self, "box", (float(lo), float(hi)))


@dataclass(frozen=True)
class OptimizerState:
    """Model plus step counter and Adam moments (zeros when unused)."""

    model: ModelState
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("step counter must be >= 0")
        for name in ("m", "v"):
            vec = getattr(self, name)
            if vec is not None:
                vec = np.asarray(vec, dtype=np.float64).reshape(-1)
                if vec.size != self.model.theta.size:
                    raise ValueError(f"{name} length does not match theta")
                vec.setflags(write=False)
                object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class BaselineState:
    """Weighter of the moving-average exponential-weighting baseline.

    ``z`` is the running mean of exp(lam * loss); None until the first
    batch initializes it.  Trace rows divide by the z the last step left.
    """

    lam: float = 1.0
    beta_ma: float = 0.5
    z: float | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not (0.0 < self.beta_ma < 1.0):
            raise ValueError("beta_ma must lie in (0, 1)")
        if self.z is not None and self.z <= 0:
            raise ValueError("running normalizer must be positive")

    def step_weights(self, losses: np.ndarray, t: int):
        """z <- beta * z + (1 - beta) * mean(exp(lam * loss)); w = exp(lam * loss) / z."""
        with np.errstate(over="ignore"):
            e = np.exp(self.lam * losses)
        if not np.all(np.isfinite(e)):
            bad = np.flatnonzero(~np.isfinite(e))
            raise TrainingDivergenceError(t, "exponential weight overflow", bad)
        batch_mean = float(np.mean(e))
        if self.z is None:
            z = batch_mean
        else:
            z = self.beta_ma * self.z + (1.0 - self.beta_ma) * batch_mean
        if z <= 0:
            raise TrainingDivergenceError(t, f"non-positive normalizer z={z}")
        return e / z, replace(self, z=z)

    def report(self, losses):
        with np.errstate(over="ignore"):
            e = np.exp(self.lam * np.asarray(losses))
        z = self.z if self.z is not None else float(np.mean(e))
        return float(np.mean(losses)), e / z, 0.0


@dataclass(frozen=True)
class Tilt:
    """Weighter of the batch tilted objective: the step applies B * p for the
    softmax p of t * loss (the backward divides by B); rows record p."""

    t_tilt: float

    def __post_init__(self):
        if self.t_tilt <= 0:
            raise ValueError("t_tilt must be positive")

    def step_weights(self, losses: np.ndarray, t: int):
        return losses.size * term_weights(losses, self.t_tilt), self

    def report(self, losses):
        return term_objective(losses, self.t_tilt), term_weights(losses, self.t_tilt), 0.0


@dataclass(frozen=True)
class StepInfo:
    """Per-step diagnostics: losses, weights applied, direction, next weighter."""

    losses: np.ndarray
    weights: np.ndarray
    direction: np.ndarray
    weighter: object


def lr_at(schedule: Schedule, lr_base: float, t: int, total_steps: int) -> float:
    """Learning rate at 1-based step t of a run with the given horizon."""
    schedule = Schedule(schedule)
    if not 1 <= t <= total_steps:
        raise ValueError(f"step {t} outside [1, {total_steps}]")
    if schedule is Schedule.CONSTANT:
        return lr_base
    if schedule is Schedule.INV_SQRT_STEP:
        return lr_base / math.sqrt(t)
    return lr_base / math.sqrt(total_steps)


def init_state(model: ModelState, optimizer: str = "sgd") -> OptimizerState:
    if optimizer == "adam":
        zeros = np.zeros_like(model.theta)
        return OptimizerState(model, 0, zeros, zeros.copy())
    return OptimizerState(model, 0)


def _project(theta: np.ndarray, box) -> np.ndarray:
    if box is None:
        return theta
    return np.clip(theta, box[0], box[1])


def _updated(state: OptimizerState, theta, box, t: int, m, v) -> OptimizerState:
    """Project and store theta; a non-finite gradient or update diverges here."""
    if not np.all(np.isfinite(theta)):
        raise TrainingDivergenceError(t, "non-finite parameter update")
    return OptimizerState(state.model.with_theta(_project(theta, box)), t, m, v)


def sgd_step(state: OptimizerState, gradient, lr: float, box=None) -> OptimizerState:
    """theta <- project(theta - lr * gradient)."""
    g = np.asarray(gradient, dtype=np.float64).reshape(-1)
    return _updated(state, state.model.theta - lr * g, box, state.t + 1, state.m, state.v)


def adam_step(
    state: OptimizerState,
    gradient,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    box=None,
) -> OptimizerState:
    """Standard bias-corrected Adam update."""
    g = np.asarray(gradient, dtype=np.float64).reshape(-1)
    if state.m is None or state.v is None:
        raise ValueError("adam moments not initialized; use init_state(model, 'adam')")
    t = state.t + 1
    # inf/nan from a non-finite gradient reach theta, where _updated reports them
    with np.errstate(over="ignore", invalid="ignore"):
        m = beta1 * state.m + (1.0 - beta1) * g
        v = beta2 * state.v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = state.model.theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return _updated(state, theta, box, t, m, v)


def _base_step(state, direction, config: TrainConfig) -> OptimizerState:
    lr = lr_at(config.schedule, config.lr_base, state.t + 1, config.steps)
    if config.optimizer == "adam":
        return adam_step(
            state, direction, lr, config.beta1, config.beta2, config.eps, config.box
        )
    return sgd_step(state, direction, lr, config.box)


def rgd_step(state: OptimizerState, batch: Batch, weighter, config: TrainConfig):
    """One reweighted step; returns (new_state, StepInfo).

    With the ``none`` rule as weighter the applied direction is the plain
    mean gradient, making the trajectory identical to SGD/Adam.
    """
    # overflow here is not an accident: it is the divergence signal
    with np.errstate(over="ignore", invalid="ignore"):
        losses, ctx = forward_losses(state.model, batch)
    if not np.all(np.isfinite(losses)):
        bad = np.flatnonzero(~np.isfinite(losses))
        raise TrainingDivergenceError(state.t + 1, "non-finite loss", bad)
    weights, weighter = weighter.step_weights(losses, state.t + 1)
    direction = backward_weighted(state.model, batch, ctx, weights)
    # sgd_step/adam_step reject a non-finite direction or update
    return _base_step(state, direction, config), StepInfo(losses, weights, direction, weighter)


def term_objective(losses, t_tilt: float) -> float:
    """Tilted batch objective (1/t) * log mean exp(t * loss)."""
    if t_tilt <= 0:
        raise ValueError("t_tilt must be positive")
    ell = np.asarray(losses, dtype=np.float64).reshape(-1)
    return float((logsumexp(t_tilt * ell) - math.log(ell.size)) / t_tilt)


def term_weights(losses, t_tilt: float) -> np.ndarray:
    """Softmax weights p_i = exp(t*l_i) / sum_j exp(t*l_j); sums to 1."""
    if t_tilt <= 0:
        raise ValueError("t_tilt must be positive")
    ell = np.asarray(losses, dtype=np.float64).reshape(-1)
    shifted = t_tilt * ell - t_tilt * ell.max()
    e = np.exp(shifted)
    return e / e.sum()


def term_step(state: OptimizerState, batch: Batch, t_tilt: float, config: TrainConfig):
    """Baseline step along the tilted-objective gradient."""
    return rgd_step(state, batch, Tilt(t_tilt), config)


def ma_exp_step(
    state: OptimizerState,
    baseline: BaselineState,
    batch: Batch,
    config: TrainConfig,
):
    """Moving-average exponential weighting step; returns (state, baseline, info)."""
    state, info = rgd_step(state, batch, baseline, config)
    return state, info.weighter, info
