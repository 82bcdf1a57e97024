"""Optimizers: plain SGD/Adam and the one reweighted step.

The reweighted step computes per-sample losses, asks a *weighter* for
weights, forms the direction

    v = (1/B) * sum_i w_i * grad(loss_i)

and feeds v to the base optimizer in place of the gradient.  A weighter
is the method's parameter object: ``step_weights(losses, t)`` returns
the weights of step t and the weighter for the next step, and
``report(losses)`` returns (objective, weights, saturated fraction) for
a trace row; ``_report`` is ``report`` without its check of the losses,
for rows whose losses the caller has checked.  The weighters are a
:class:`~reweightopt.weighting.WeightingRule`
(with the ``none`` rule the step is bit-identical to plain SGD/Adam),
:class:`Tilt` (the batch tilted objective) and :class:`BaselineState`
(moving-average exponential weighting, unclipped weights normalized by
a running estimate of their mean); ``term_step`` and ``ma_exp_step`` are
``rgd_step`` with the last two.

Each check runs once, where its value enters.  The constructors check
their own values (``ModelState``, ``Batch``, which also records its
label range, ``TrainConfig``, the weighters); the entry points check how
they fit together: ``forward_losses`` the batch against the model,
``backward_weighted`` and ``sgd_step``/``adam_step`` the length of the
weights and the gradient (converting all but a 1-D float64 array),
``lr_at`` the step against the horizon, the Adam core ``_adam`` the
moments.
Values a step makes itself are stored unchecked.  Its divergence
signals, the losses and the new theta, are scanned once each, exactly
and quietly (``numerics._all_finite``).  Only a scan that finds a
non-finite entry lists them, for the step, message and sample indices of
:class:`TrainingDivergenceError`.

The fixed cost of a call is kept small: ``rgd_step``, ``sgd_step`` and
``adam_step`` enter numpy's quiet error state through ``np.errstate``'s
decorator form (cheaper than a ``with`` block built per call, and it
restores the caller's state however the call ends); the weights' clip
and the box call the clip ufunc ``numerics.clip`` (``ndarray.clip``
without its Python wrapper, the same bits); and the step writes its own
temporaries in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .models import (
    Batch, ModelState, _flat, _rebound, _unchecked, backward_weighted, forward_losses,
)
from .numerics import _all_finite, clip, logsumexp
# batch_weights is bound here only for the benchmark's layer_targets()
from .weighting import WeightingRule, as_loss_vector, batch_weights  # noqa: F401

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


_SHOWN_SAMPLES = 32  # sample indices a divergence message lists; the exception keeps all


class TrainingDivergenceError(RuntimeError):
    """Non-finite loss or direction encountered during training."""

    def __init__(self, step: int, detail: str, sample_indices=None):
        self.step = step
        self.sample_indices = [] if sample_indices is None else [int(i) for i in sample_indices]
        suffix = ""
        if len(self.sample_indices) > _SHOWN_SAMPLES:
            shown = ", ".join(map(str, self.sample_indices[:_SHOWN_SAMPLES]))
            suffix = f" (samples [{shown}, ...], {len(self.sample_indices)} in all)"
        elif self.sample_indices:
            suffix = f" (samples {self.sample_indices})"
        super().__init__(f"training diverged at step {step}: {detail}{suffix}")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "sgd"
    # unread (rgd_step takes the weighter); kept for positional TrainConfig("sgd", rule, ...)
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
        if not (self.steps >= 0 and self.batch_size >= 1):  # written so that nan fails it
            raise ValueError("steps must be >= 0 and batch_size >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("adam eps must be finite and positive")
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
        if not self.t >= 0:  # written so that nan fails it
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
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and positive")
        if not (0.0 < self.beta_ma < 1.0):
            raise ValueError("beta_ma must lie in (0, 1)")
        if self.z is not None and not (math.isfinite(self.z) and self.z > 0):
            raise ValueError("running normalizer must be finite and positive")

    def step_weights(self, losses: np.ndarray, t: int):
        """z <- beta * z + (1 - beta) * mean(exp(lam * loss)); w = exp(lam * loss) / z."""
        e = self.lam * losses
        np.exp(e, out=e)  # rgd_step's errstate keeps an overflow quiet
        batch_mean = float(e.sum()) / e.size  # np.mean's sum and divide, without its wrapper
        if not math.isfinite(batch_mean):  # an entry overflowed, or only their sum
            bad = np.flatnonzero(~np.isfinite(e))
            if bad.size:
                raise TrainingDivergenceError(t, "exponential weight overflow", bad)
        if self.z is None:
            z = batch_mean
        else:
            z = self.beta_ma * self.z + (1.0 - self.beta_ma) * batch_mean
        if z <= 0:
            raise TrainingDivergenceError(t, f"non-positive normalizer z={z}")
        e /= z
        return e, _unchecked(BaselineState, lam=self.lam, beta_ma=self.beta_ma, z=z)

    def report(self, losses):
        return self._report(as_loss_vector(losses))

    def _report(self, losses: np.ndarray):
        """``report`` of a float64 vector of finite losses, unchecked."""
        # each mean is np.mean's: the same sum over the size, bit for bit
        with np.errstate(over="ignore"):
            e = np.exp(self.lam * losses)
            z = self.z if self.z is not None else float(e.sum()) / e.size
        if not np.isfinite(z):  # the batch mean overflowed: the same ratios e / z, shifted
            e = np.exp(self.lam * (losses - np.max(losses)))
            z = float(e.sum()) / e.size
        w = e / z
        over = np.isinf(e)  # exp(lam * loss) overflowed, the running z did not
        with np.errstate(over="ignore"):
            w[over] = np.exp(self.lam * losses[over] - math.log(z))
        return float(losses.sum()) / losses.size, w, 0.0


@dataclass(frozen=True)
class Tilt:
    """Weighter of the batch tilted objective: the step applies B * p for the
    softmax p of t * loss (the backward divides by B); rows record p."""

    t_tilt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_tilt) and self.t_tilt > 0):
            raise ValueError("t_tilt must be finite and positive")

    def step_weights(self, losses: np.ndarray, t: int):
        p = self._probs(losses)
        p *= losses.size
        return p, self

    def report(self, losses):
        return self._report(as_loss_vector(losses))

    def _report(self, ell: np.ndarray):
        """``report`` of a float64 vector of finite losses, unchecked."""
        return self._objective(ell), self._probs(ell), 0.0

    def _objective(self, ell: np.ndarray) -> float:
        """``term_objective`` of the float64 vector ``ell`` at this tilt."""
        return float((logsumexp(self.t_tilt * ell) - math.log(ell.size)) / self.t_tilt)

    def _probs(self, ell: np.ndarray) -> np.ndarray:
        """``term_weights`` of the float64 vector ``ell`` at this tilt."""
        e = self.t_tilt * ell
        e -= self.t_tilt * ell.max()
        np.exp(e, out=e)
        e /= e.sum()
        return e


@dataclass(frozen=True)
class StepInfo:
    """Per-step diagnostics: losses, weights applied, direction, next weighter."""

    losses: np.ndarray
    weights: np.ndarray
    direction: np.ndarray
    weighter: object


def lr_at(schedule: Schedule, lr_base: float, t: int, total_steps: int) -> float:
    """Learning rate at 1-based step t of a run with the given horizon."""
    schedule = schedule if isinstance(schedule, Schedule) else Schedule(schedule)
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


def _gradient(state: OptimizerState, gradient) -> np.ndarray:
    g = _flat(gradient)
    if g.size != state.model.theta.size:
        raise ValueError(f"gradient has {g.size} entries, theta {state.model.theta.size}")
    return g


def _updated(state: OptimizerState, theta, box, t: int, m, v) -> OptimizerState:
    """Project and store theta; a non-finite gradient or update diverges here.

    This is the step's one scan of theta.  theta is a fresh float64 array
    of theta's length, and m, v are read-only: stored unchecked.
    """
    if not _all_finite(theta):
        raise TrainingDivergenceError(t, "non-finite parameter update")
    if box is not None:
        clip(theta, box[0], box[1], out=theta)
    return _unchecked(OptimizerState, model=_rebound(state.model, theta), t=t, m=m, v=v)


# an update that overflows reaches theta, where _updated reports it
@np.errstate(over="ignore", invalid="ignore")
def sgd_step(state: OptimizerState, gradient, lr: float, box=None) -> OptimizerState:
    """theta <- project(theta - lr * gradient)."""
    return _sgd(state, _gradient(state, gradient), lr, box)


def _sgd(state: OptimizerState, g: np.ndarray, lr: float, box) -> OptimizerState:
    """``sgd_step`` of a checked gradient, under the caller's errstate."""
    update = np.multiply(lr, g)
    theta = np.subtract(state.model.theta, update, out=update)
    return _updated(state, theta, box, state.t + 1, state.m, state.v)


# inf/nan from a non-finite gradient reach theta, where _updated reports them
@np.errstate(over="ignore", invalid="ignore")
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
    return _adam(state, _gradient(state, gradient), lr, beta1, beta2, eps, box)


def _adam(state: OptimizerState, g: np.ndarray, lr: float, beta1, beta2, eps, box):
    """``adam_step`` of a checked gradient, under the caller's errstate.

    m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and theta -
    lr m_hat / (sqrt(v_hat) + eps), with the operations in that order and
    one scratch array for the temporaries.
    """
    if state.m is None or state.v is None:
        raise ValueError("adam moments not initialized; use init_state(model, 'adam')")
    t = state.t + 1
    m = beta1 * state.m
    scratch = (1.0 - beta1) * g
    m += scratch
    v = beta2 * state.v
    np.multiply(1.0 - beta2, g, out=scratch)
    scratch *= g
    v += scratch
    den = v / (1.0 - beta2**t)
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, 1.0 - beta1**t, out=scratch)
    scratch *= lr
    scratch /= den
    theta = np.subtract(state.model.theta, scratch, out=scratch)
    m.setflags(write=False)
    v.setflags(write=False)
    return _updated(state, theta, box, t, m, v)


# overflow in a step is not an accident: it is the divergence signal, which
# the loss scan and _updated report as TrainingDivergenceError
@np.errstate(over="ignore", invalid="ignore")
def rgd_step(state: OptimizerState, batch: Batch, weighter, config: TrainConfig):
    """One reweighted step; returns (new_state, StepInfo).

    With the ``none`` rule as weighter the applied direction is the plain
    mean gradient, making the trajectory identical to SGD/Adam.

    Its arguments were checked when they were built: the step checks only
    how they fit together and scans its losses and its new theta once each
    (see the module docstring), raising :class:`TrainingDivergenceError`
    at step ``state.t + 1``; an overflow on the way there stays quiet.
    """
    t = state.t + 1
    losses, ctx = forward_losses(state.model, batch)
    if not _all_finite(losses):
        bad = np.flatnonzero(~np.isfinite(losses))
        raise TrainingDivergenceError(t, "non-finite loss", bad)
    weights, weighter = weighter.step_weights(losses, t)
    direction = backward_weighted(state.model, batch, ctx, weights)
    lr = lr_at(config.schedule, config.lr_base, t, config.steps)
    # the base update through the cores: the direction is checked and the errstate entered
    if config.optimizer == "adam":
        state = _adam(state, direction, lr, config.beta1, config.beta2, config.eps, config.box)
    else:
        state = _sgd(state, direction, lr, config.box)
    return state, _unchecked(
        StepInfo, losses=losses, weights=weights, direction=direction, weighter=weighter
    )


def term_objective(losses, t_tilt: float) -> float:
    """Tilted batch objective (1/t) * log mean exp(t * loss); ``Tilt`` checks t,
    ``as_loss_vector`` the losses."""
    return Tilt(t_tilt)._objective(as_loss_vector(losses))


def term_weights(losses, t_tilt: float) -> np.ndarray:
    """Softmax weights p_i = exp(t*l_i) / sum_j exp(t*l_j), summing to 1; ``Tilt``
    checks t, ``as_loss_vector`` the losses."""
    return Tilt(t_tilt)._probs(as_loss_vector(losses))


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
