"""Differentiable predictors with per-sample losses and analytic gradients.

Three model kinds share a flat-parameter representation:

    linear   squared error (x.theta - y)^2, theta of length d
    mlp      tanh network with one or two hidden layers, cross entropy
    softmax  the mlp with no hidden layer, params [W (C,d), b (C,)]

Softmax runs the mlp's forward and backward code, so it takes no hidden
widths: ``ModelState`` rejects them rather than building an mlp.

The classifiers' cross entropy runs class-major: ``_cross_entropy``
transposes the (N, C) logits once to (C, N), so that the max, the
maximal mask, the log-sum-exp, the picked logit and the argmax take a few
operations over all N rows instead of numpy's per-row loop over C
entries.  Its class sums add in the order of numpy's row-major
``sum(axis=1)`` (``numerics.class_sum``), so losses, predictions, traces
and theta are bit-identical to the row-major computation.  A batch whose
rows each have one maximal logit takes the log-sum-exp's short form
log1p(s) + max z, equal bit for bit to the general form, which runs on
the same sum s when some row has a tie or a non-finite result
(``numerics.logsumexp_classes``).  The backward pass gets exp(z - max z)
row-major, so its sums keep their order.

Every matrix product is ``ndarray.dot``: the same BLAS call as the ``@``
operator, with the same bits, without the matmul ufunc's dispatch, which
costs more than the product itself at a step's sizes.

Gradients are hand-derived (no autodiff).  ``weighted_grad`` computes the
weighted mean of per-sample gradients in a single forward/backward pass;
the weights are plain constants, so the result is exactly
(1/B) * sum_i w_i * grad(loss_i), never the gradient of w(loss)*loss.

``finite_diff_grad`` is the independent central-difference oracle used to
certify the analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import logsumexp_classes

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
        """This model with new parameters, checked like a new ``ModelState``.

        Optimizer steps and the gradient oracle rebind theta they have
        made and scanned themselves unchecked instead (``_rebound``).
        """
        return ModelState(self.kind, theta, self.input_dim, self.num_classes, self.hidden)


@dataclass(frozen=True)
class Batch:
    """Inputs (B, d) with regression targets or integer class labels.

    Construction is the one check of a batch's rows: finite inputs, finite
    float64 or int64 targets, one per row, stored read-only (copies of
    arrays the caller can still write).  Integer labels also record their
    (min, max) in ``label_range`` (None for real targets), which a step
    compares with the model's classes in place of a pass over the labels.
    Rows taken from checked rows are stored unchecked with a range that
    bounds theirs: ``_rows``'s minibatches, ``datagen``'s derived datasets.
    """

    inputs: np.ndarray
    targets: np.ndarray
    label_range: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        y = np.asarray(self.targets).reshape(-1)
        y = y.astype(np.int64 if np.issubdtype(y.dtype, np.integer) else np.float64, copy=False)
        x, y = _read_only(self.inputs, x), _read_only(self.targets, y)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        if not 1 <= x.shape[0] == y.shape[0]:
            raise ValueError(f"{x.shape[0]} inputs vs {y.shape[0]} targets: need n >= 1 of each")
        if not np.all(np.isfinite(x)):
            raise ValueError("inputs contain non-finite entries")
        if y.dtype == np.int64:
            object.__setattr__(self, "label_range", (int(y.min()), int(y.max())))
        elif not np.all(np.isfinite(y)):
            raise ValueError("targets contain non-finite entries")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def _read_only(given, converted: np.ndarray) -> np.ndarray:
    """``converted``, made of ``given``, read-only: a copy if the caller can still write it."""
    if isinstance(given, np.ndarray) and np.may_share_memory(converted, given):
        base = converted
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if isinstance(base, np.ndarray):
            converted = converted.copy(order="K")
    converted.setflags(write=False)
    return converted


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as they
    are, without ``__post_init__``: for values already converted and checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _rebound(model: ModelState, theta: np.ndarray) -> ModelState:
    """``model.with_theta(theta)`` without its checks, for a fresh float64
    theta of the model's length that the caller has found finite; theta
    is made read-only and stored as it is."""
    theta.setflags(write=False)
    rebound = object.__new__(ModelState)
    rebound.__dict__.update(model.__dict__, theta=theta)
    return rebound


def _rows(batch: Batch, idx) -> Batch:
    """``Batch(batch.inputs[idx], batch.targets[idx])`` without re-scanning
    rows that were checked as part of ``batch``; the subset keeps the
    parent's ``label_range``, which bounds its labels."""
    # take copies the same rows as inputs[idx], without fancy indexing's set-up
    x, y = batch.inputs.take(idx, axis=0), batch.targets[idx]
    x.setflags(write=False)
    y.setflags(write=False)
    return _unchecked(Batch, inputs=x, targets=y, label_range=batch.label_range)


_FLOAT64 = np.dtype(np.float64)


def _flat(values) -> np.ndarray:
    """``np.asarray(values, dtype=np.float64).reshape(-1)``; a 1-D float64
    ndarray, which the step's own vectors are, is returned as it is."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64 and values.ndim == 1:
        return values
    return np.asarray(values, dtype=np.float64).reshape(-1)


def _check_batch(model: ModelState, batch: Batch) -> None:
    """The batch's fit to the model: dim, target type and label range."""
    if batch.inputs.shape[1] != model.input_dim:
        raise ValueError(
            f"batch dim {batch.inputs.shape[1]} does not match model dim {model.input_dim}"
        )
    labels = batch.label_range
    if model.kind is ModelKind.LINEAR:
        if labels is not None:
            raise ValueError("linear regression expects real-valued targets")
    elif labels is None:
        raise ValueError("classifier expects integer class labels")
    elif labels[0] < 0 or labels[1] >= model.num_classes:
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
        return x.dot(model.theta), [x], None
    layers = _unpack_mlp(model)
    acts = [x]
    a = x
    for w, b in layers[:-1]:
        a = a.dot(w.T)
        a += b
        np.tanh(a, out=a)
        acts.append(a)
    w, b = layers[-1]
    z = a.dot(w.T)
    z += b
    return z, acts, layers


def predict(model: ModelState, inputs: np.ndarray) -> np.ndarray:
    """Predicted values (linear) or argmax class labels (classifiers)."""
    out = _forward(model, np.atleast_2d(np.asarray(inputs, dtype=np.float64)))[0]
    return out if model.kind is ModelKind.LINEAR else np.argmax(out, axis=1)


def _cross_entropy(z: np.ndarray, y: np.ndarray):
    """Cross entropy per row of the logits ``z`` (N, C) against the labels
    ``y``, with exp(z - max z) (written over ``z``), the logits and the
    mask of each row's maximal logits, all three class-major (C, N), and
    the flat index of each row's label in ``z``, i * C + y_i.

    The picked logits are one gather through the flat index, before ``z``
    is overwritten.  After one transposed copy of ``z``, the max, the
    maximal mask and the log-sum-exp are each a few vector operations over
    all N rows, instead of numpy's per-row loop over C entries.  The
    losses equal the row-major reductions bit for bit (see ``numerics``).
    """
    n, c = z.shape
    label = np.arange(0, n * c, c)
    label += y
    picked = z.take(label)
    zt = z.T.copy()
    zmax = zt.max(axis=0)
    is_max = zt == zmax
    e = np.subtract(zt, zmax, out=z.reshape(zt.shape))
    np.exp(e, out=e)
    losses = logsumexp_classes(zt, zmax, is_max, e)
    losses -= picked
    return losses, e, zt, is_max, label


def forward_losses(model: ModelState, batch: Batch):
    """Forward pass returning (losses, ctx).

    ``ctx`` carries what a subsequent ``backward_weighted`` call reuses
    instead of recomputing the forward pass or re-slicing theta: for a
    linear model the residual x.theta - y, for classifiers the shifted
    exponentials exp(z - max z) (row-major), the activations, the (W, b)
    layer views and the flat label index.
    """
    _check_batch(model, batch)
    if model.kind is ModelKind.LINEAR:
        r = batch.inputs.dot(model.theta)
        r -= batch.targets
        return r * r, (r, None, None, None)
    out, acts, layers = _forward(model, batch.inputs)
    losses, e, _, _, label = _cross_entropy(out, batch.targets)
    # row-major again, so that the backward pass sums over classes in numpy's order
    return losses, (e.T.copy(), acts, layers, label)


@np.errstate(over="ignore", invalid="ignore")
def _eval_pass(model: ModelState, batch: Batch):
    """``per_sample_loss`` and ``predict`` of a batch from one forward pass,
    quiet on overflow as the step is: the caller checks the losses."""
    _check_batch(model, batch)
    out = _forward(model, batch.inputs)[0]
    if model.kind is ModelKind.LINEAR:
        return (out - batch.targets) ** 2, out
    losses, _, zt, is_max, _ = _cross_entropy(out, batch.targets)
    # np.argmax(z, axis=1), the first maximal logit: the top rank among the maximal
    # classes, each class ranked C - class, in a vector max over N instead of
    # np.argmax's per-row loop over C entries
    c = zt.shape[0]
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c))
    predicted = (c - (is_max * rank[:, None]).max(axis=0)).astype(np.intp)
    bad = ~np.isfinite(losses)  # among them every row with a nan logit, which has no maximal one
    if bad.any():
        predicted[bad] = np.argmax(zt[:, bad], axis=0)
    return losses, predicted


def backward_weighted(model: ModelState, batch: Batch, ctx, weights) -> np.ndarray:
    """Backward pass: (1/B) * sum_i w_i * grad(loss_i), weights constant;
    ``ctx`` is what ``forward_losses`` returned for this model and batch."""
    x = batch.inputs
    w = _flat(weights)
    if w.shape[0] != x.shape[0]:
        raise ValueError(f"{w.shape[0]} weights for batch of {x.shape[0]}")
    scale = w / float(x.shape[0])  # the same bits as an int divisor, in less time
    out, acts, layers, label = ctx  # out: the residual (linear) or exp(z - max z)

    if model.kind is ModelKind.LINEAR:
        scale *= 2.0
        scale *= out
        return x.T.dot(scale)

    delta = out / out.sum(axis=1, keepdims=True)
    # delta[i, y_i] -= 1 through the forward pass's flat label index
    delta.reshape(-1)[label] -= 1.0
    delta *= scale[:, None]

    grads: list[np.ndarray] = []
    dz = delta
    # walk output layer back to the first layer, collecting (b, W) pieces in
    # reverse; one concatenate at the end keeps softmax as cheap as the mlp
    for li in range(len(layers) - 1, -1, -1):
        grads += [dz.sum(axis=0), dz.T.dot(acts[li]).ravel()]
        if li > 0:
            dz = dz.dot(layers[li][0]) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads[::-1])


def per_sample_loss(model: ModelState, batch: Batch) -> np.ndarray:
    """Vector of nonnegative per-sample losses."""
    return forward_losses(model, batch)[0]


def weighted_grad(model: ModelState, batch: Batch, weights) -> np.ndarray:
    """Weighted mean of per-sample gradients, (1/B) * sum_i w_i grad_i."""
    _, ctx = forward_losses(model, batch)
    return backward_weighted(model, batch, ctx, weights)


def finite_diff_grad(objective, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, (f(t+h e_j) - f(t-h e_j)) / 2h,
    for a finite step h > 0."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be a positive finite real, got {h}")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    grad = np.empty_like(theta)
    bump = np.zeros_like(theta)  # h e_j, one coordinate at a time
    for j in range(theta.size):
        bump[j] = h
        f_plus = objective(theta + bump)
        f_minus = objective(theta - bump)
        bump[j] = 0.0
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
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

    Used for the mlp, whose all-zero point is a saddle.  A scale so large
    that some entry overflows is refused by ``ModelState`` as a theta with
    non-finite entries, without a RuntimeWarning on the way.
    """
    rng = np.random.default_rng(seed)
    n = param_count(kind, input_dim, num_classes, hidden)
    if scale is None:
        scale = 1.0 / np.sqrt(input_dim)
    with np.errstate(over="ignore"):
        theta = scale * rng.standard_normal(n)
    return ModelState(kind, theta, input_dim, num_classes, hidden)
