"""Differentiable predictors with per-sample losses and analytic gradients.

Three model kinds share a flat-parameter representation:

    linear   squared error (x.theta - y)^2, theta of length d
    mlp      tanh network with one or two hidden layers, cross entropy
    softmax  the mlp with no hidden layer, params [W (C,d), b (C,)]

Softmax runs the mlp's forward and backward code, so it takes no hidden
widths: ``ModelState`` rejects them rather than building an mlp.

Gradients are hand-derived (no autodiff).  ``weighted_grad`` computes the
weighted mean of per-sample gradients in a single forward/backward pass;
the weights are plain constants, so the result is exactly
(1/B) * sum_i w_i * grad(loss_i), never the gradient of w(loss)*loss.

``finite_diff_grad`` is the independent central-difference oracle used to
certify the analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import logsumexp_shifted

__all__ = [
    "ModelKind",
    "ModelState",
    "Batch",
    "param_count",
    "zero_state",
    "random_state",
    "per_sample_loss",
    "forward_losses",
    "backward_weighted",
    "weighted_grad",
    "logits",
    "predict",
    "finite_diff_grad",
]


class ModelKind(str, Enum):
    LINEAR = "linear"
    SOFTMAX = "softmax"
    MLP = "mlp"


def param_count(kind: ModelKind, input_dim: int, num_classes: int, hidden: tuple[int, ...]) -> int:
    kind = ModelKind(kind)
    if kind is ModelKind.LINEAR:
        return input_dim
    total = 0
    prev = input_dim
    for h in hidden:
        total += h * prev + h
        prev = h
    total += num_classes * prev + num_classes
    return total


@dataclass(frozen=True)
class ModelState:
    """Immutable flat parameter vector plus shape metadata."""

    kind: ModelKind
    theta: np.ndarray
    input_dim: int
    num_classes: int = 1
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        theta = np.array(self.theta, dtype=np.float64).reshape(-1)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind is not ModelKind.LINEAR and self.num_classes < 2:
            raise ValueError("classifiers need num_classes >= 2")
        if self.kind is ModelKind.MLP and not 1 <= len(self.hidden) <= 2:
            raise ValueError("mlp supports one or two hidden layers")
        if self.kind is not ModelKind.MLP and self.hidden:
            raise ValueError(f"a {self.kind.value} model has no hidden layers")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        expected = param_count(self.kind, self.input_dim, self.num_classes, self.hidden)
        if theta.size != expected:
            raise ValueError(f"theta has {theta.size} entries, expected {expected}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")

    def with_theta(self, theta: np.ndarray) -> "ModelState":
        return ModelState(self.kind, theta, self.input_dim, self.num_classes, self.hidden)


@dataclass(frozen=True)
class Batch:
    """Inputs (B, d) with regression targets or integer class labels."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        y = np.asarray(self.targets)
        if np.issubdtype(y.dtype, np.integer):
            y = y.astype(np.int64).reshape(-1)
        else:
            y = y.astype(np.float64).reshape(-1)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        if x.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} inputs vs {y.shape[0]} targets")
        if not np.all(np.isfinite(x)):
            raise ValueError("batch inputs contain non-finite entries")
        if y.dtype == np.float64 and not np.all(np.isfinite(y)):
            raise ValueError("batch targets contain non-finite entries")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def is_classification(self) -> bool:
        return self.targets.dtype == np.int64


def _check_batch(model: ModelState, batch: Batch) -> None:
    if batch.inputs.shape[1] != model.input_dim:
        raise ValueError(
            f"batch dim {batch.inputs.shape[1]} does not match model dim {model.input_dim}"
        )
    if model.kind is ModelKind.LINEAR:
        if batch.is_classification:
            raise ValueError("linear regression expects real-valued targets")
    else:
        if not batch.is_classification:
            raise ValueError("classifier expects integer class labels")
        if batch.targets.min() < 0 or batch.targets.max() >= model.num_classes:
            raise ValueError("class label out of range")


def _unpack_mlp(model: ModelState):
    """Split the flat vector into (W, b) pairs, hidden layers then output."""
    layers = []
    offset = 0
    prev = model.input_dim
    theta = model.theta
    for h in model.hidden + (model.num_classes,):
        w = theta[offset : offset + h * prev].reshape(h, prev)
        offset += h * prev
        b = theta[offset : offset + h]
        offset += h
        layers.append((w, b))
        prev = h
    return layers


def _forward(model: ModelState, x: np.ndarray):
    """Return (logits_or_preds, activations, layers) for gradient reuse;
    ``layers`` is the (W, b) views of theta, None for linear models."""
    if model.kind is ModelKind.LINEAR:
        return x @ model.theta, [x], None
    layers = _unpack_mlp(model)
    acts = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.tanh(a @ w.T + b)
        acts.append(a)
    w, b = layers[-1]
    return a @ w.T + b, acts, layers


def logits(model: ModelState, inputs: np.ndarray) -> np.ndarray:
    """Class scores (B, C) for classifiers, predictions (B,) for linear."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    return _forward(model, x)[0]


def predict(model: ModelState, inputs: np.ndarray) -> np.ndarray:
    """Predicted values (linear) or argmax class labels (classifiers)."""
    out = logits(model, inputs)
    if model.kind is ModelKind.LINEAR:
        return out
    return np.argmax(out, axis=1)


def _ce_per_sample(z: np.ndarray, y: np.ndarray):
    """Cross entropy per row and the shifted exponentials exp(z - max z).

    The exponentials are the softmax numerators the backward pass needs.
    """
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    return logsumexp_shifted(z, zmax, e, 1) - z[np.arange(z.shape[0]), y], e


def forward_losses(model: ModelState, batch: Batch):
    """Forward pass returning (losses, ctx).

    ``ctx`` carries the network outputs (for classifiers the shifted
    exponentials exp(z - max z)), activations and (W, b) layer views so
    a subsequent ``backward_weighted`` call reuses them instead of
    recomputing the forward pass or re-slicing theta.
    """
    _check_batch(model, batch)
    out, acts, layers = _forward(model, batch.inputs)
    if model.kind is ModelKind.LINEAR:
        return (out - batch.targets) ** 2, (out, acts, layers)
    losses, e = _ce_per_sample(out, batch.targets)
    return losses, (e, acts, layers)


def backward_weighted(model: ModelState, batch: Batch, ctx, weights) -> np.ndarray:
    """Backward pass: (1/B) * sum_i w_i * grad(loss_i), weights constant."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != batch.size:
        raise ValueError(f"{w.shape[0]} weights for batch of {batch.size}")
    scale = w / batch.size
    out, acts, layers = ctx  # for classifiers out is exp(z - max z)
    x = batch.inputs

    if model.kind is ModelKind.LINEAR:
        return x.T @ (2.0 * scale * (out - batch.targets))

    delta = out / out.sum(axis=1, keepdims=True)
    delta[np.arange(batch.size), batch.targets] -= 1.0
    delta *= scale[:, None]

    grads: list[np.ndarray] = []
    dz = delta
    # walk output layer back to the first layer, collecting (b, W) pieces in
    # reverse; one concatenate at the end keeps softmax as cheap as the mlp
    for li in range(len(layers) - 1, -1, -1):
        grads += [dz.sum(axis=0), (dz.T @ acts[li]).ravel()]
        if li > 0:
            dz = (dz @ layers[li][0]) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads[::-1])


def per_sample_loss(model: ModelState, batch: Batch) -> np.ndarray:
    """Vector of nonnegative per-sample losses."""
    return forward_losses(model, batch)[0]


def weighted_grad(model: ModelState, batch: Batch, weights) -> np.ndarray:
    """Weighted mean of per-sample gradients, (1/B) * sum_i w_i grad_i."""
    _, ctx = forward_losses(model, batch)
    return backward_weighted(model, batch, ctx, weights)


def finite_diff_grad(objective, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, (f(t+h e_j) - f(t-h e_j)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = h
        f_plus = objective(theta + bump)
        f_minus = objective(theta - bump)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"objective non-finite at coordinate {j}")
        grad[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def zero_state(
    kind: ModelKind, input_dim: int, num_classes: int = 1, hidden: tuple[int, ...] = ()
) -> ModelState:
    """All-zero initialization (the default for linear and softmax)."""
    n = param_count(kind, input_dim, num_classes, hidden)
    return ModelState(kind, np.zeros(n), input_dim, num_classes, hidden)


def random_state(
    kind: ModelKind,
    input_dim: int,
    num_classes: int = 1,
    hidden: tuple[int, ...] = (),
    seed: int = 0,
    scale: float | None = None,
) -> ModelState:
    """Seeded Gaussian initialization; default scale 1/sqrt(input_dim).

    Used for the mlp, whose all-zero point is a saddle.
    """
    rng = np.random.default_rng(seed)
    n = param_count(kind, input_dim, num_classes, hidden)
    if scale is None:
        scale = 1.0 / np.sqrt(input_dim)
    return ModelState(kind, scale * rng.standard_normal(n), input_dim, num_classes, hidden)
