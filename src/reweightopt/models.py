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
certify the analytic gradients.  Once per call it checks h and theta;
per evaluation, the one coordinate it moves in its work copy of theta.
``_trial_losses`` is ``per_sample_loss`` for its evaluations: the batch's
fit, the label index and the (W, b) views are made once per call, so an
evaluation runs the forward arithmetic alone.
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
    """The length of theta for a model of this shape; refuses a shape that
    no model has, naming what is wrong: the one check of a model's shape,
    made by ``ModelState`` and, before they draw, ``zero_state`` and
    ``random_state``."""
    kind = ModelKind(kind)
    if not input_dim >= 1:  # each check written so that nan fails it
        raise ValueError("input_dim must be >= 1")
    if kind is not ModelKind.LINEAR and not num_classes >= 2:
        raise ValueError("classifiers need num_classes >= 2")
    if kind is ModelKind.MLP and not 1 <= len(hidden) <= 2:
        raise ValueError("mlp supports one or two hidden layers")
    if kind is not ModelKind.MLP and hidden:
        raise ValueError(f"a {kind.value} model has no hidden layers")
    if not all(h >= 1 for h in hidden):
        raise ValueError("hidden widths must be >= 1")
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
        expected = param_count(self.kind, self.input_dim, self.num_classes, self.hidden)
        if theta.size != expected:
            raise ValueError(f"theta has {theta.size} entries, expected {expected}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")

    def with_theta(self, theta: np.ndarray) -> "ModelState":
        """This model with new parameters, checked like a new ``ModelState``.

        Optimizer steps rebind theta they have made and scanned
        themselves unchecked instead (``_rebound``).
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


def _unpack_mlp(model: ModelState, theta: np.ndarray):
    """Split ``theta``, a flat vector of the model's length, into (W, b)
    views, hidden layers then output."""
    layers = []
    offset = 0
    prev = model.input_dim
    for h in model.hidden + (model.num_classes,):
        w = theta[offset : offset + h * prev].reshape(h, prev)
        offset += h * prev
        b = theta[offset : offset + h]
        offset += h
        layers.append((w, b))
        prev = h
    return layers


def _forward(layers, x: np.ndarray):
    """The classifier's forward pass through the (W, b) views ``layers``:
    (logits, activations), the activations kept for the backward pass."""
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
    return z, acts


def predict(model: ModelState, inputs: np.ndarray) -> np.ndarray:
    """Predicted values (linear) or argmax class labels (classifiers)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if model.kind is ModelKind.LINEAR:
        return x.dot(model.theta)
    return np.argmax(_forward(_unpack_mlp(model, model.theta), x)[0], axis=1)


def _label_index(y: np.ndarray, c: int) -> np.ndarray:
    """The flat index i * C + y_i of each row's label in (N, C) logits."""
    label = np.arange(0, y.size * c, c)
    label += y
    return label


def _cross_entropy(z: np.ndarray, label: np.ndarray):
    """Cross entropy per row of the logits ``z`` (N, C) against the labels
    at the flat indices ``label`` (``_label_index``), with exp(z - max z)
    (written over ``z``), the logits and the mask of each row's maximal
    logits, all three class-major (C, N).

    The picked logits are one gather through the flat index, before ``z``
    is overwritten.  After one transposed copy of ``z``, the max, the
    maximal mask and the log-sum-exp are each a few vector operations over
    all N rows, instead of numpy's per-row loop over C entries.  The
    losses equal the row-major reductions bit for bit (see ``numerics``).
    """
    picked = z.take(label)
    zt = z.T.copy()
    zmax = zt.max(axis=0)
    is_max = zt == zmax
    e = np.subtract(zt, zmax, out=z.reshape(zt.shape))
    np.exp(e, out=e)
    losses = logsumexp_classes(zt, zmax, is_max, e)
    losses -= picked
    return losses, e, zt, is_max


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
    layers = _unpack_mlp(model, model.theta)
    out, acts = _forward(layers, batch.inputs)
    label = _label_index(batch.targets, model.num_classes)
    losses, e, _, _ = _cross_entropy(out, label)
    # row-major again, so that the backward pass sums over classes in numpy's order
    return losses, (e.T.copy(), acts, layers, label)


@np.errstate(over="ignore", invalid="ignore")
def _eval_pass(model: ModelState, batch: Batch):
    """``per_sample_loss`` and ``predict`` of a batch from one forward pass,
    quiet on overflow as the step is: the caller checks the losses."""
    _check_batch(model, batch)
    if model.kind is ModelKind.LINEAR:
        out = batch.inputs.dot(model.theta)
        return (out - batch.targets) ** 2, out
    out = _forward(_unpack_mlp(model, model.theta), batch.inputs)[0]
    losses, _, zt, is_max = _cross_entropy(
        out, _label_index(batch.targets, model.num_classes)
    )
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


def _trial_losses(model: ModelState, batch: Batch):
    """``per_sample_loss`` of ``batch`` as a function of theta, bit for bit,
    for the many thetas of one ``finite_diff_grad`` call.

    The batch's fit to the model and the flat label index are made here,
    once; the (W, b) views once per theta array, at its first call, so a
    caller that moves entries of one work vector in place pays per call
    for the forward arithmetic alone.  Each theta must be a finite
    float64 vector of the model's length: the caller scans it.
    """
    _check_batch(model, batch)
    x, y = batch.inputs, batch.targets
    if model.kind is ModelKind.LINEAR:
        return lambda theta: np.square(x.dot(theta) - y)
    label = _label_index(y, model.num_classes)
    over, layers = None, None  # the array the views are over, and the views

    def losses(theta):
        nonlocal over, layers
        if theta is not over:
            over, layers = theta, _unpack_mlp(model, theta)
        return _cross_entropy(_forward(layers, x)[0], label)[0]

    return losses


def finite_diff_grad(objective, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, (f(t+h e_j) - f(t-h e_j)) / 2h,
    for a finite step h > 0 and a finite theta.

    ``objective`` gets one work copy of theta each time, its entry j moved
    in place to t_j + h, then to t_j - h, and restored after: it may read
    its argument during the call but not keep or write it.  The caller's
    theta is left as it was.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be a positive finite real, got {h}")
    work = np.array(theta, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(work)):
        raise ValueError("theta contains non-finite entries")
    grad = np.empty_like(work)
    for j in range(work.size):
        t = work.item(j)
        plus, minus = t + h, t - h
        if not (math.isfinite(plus) and math.isfinite(minus)):
            raise ValueError("theta contains non-finite entries")
        work[j] = plus
        f_plus = objective(work)
        work[j] = minus
        f_minus = objective(work)
        work[j] = t
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
    n = param_count(kind, input_dim, num_classes, hidden)
    rng = np.random.default_rng(seed)
    if scale is None:
        scale = 1.0 / np.sqrt(input_dim)
    with np.errstate(over="ignore"):
        theta = scale * rng.standard_normal(n)
    return ModelState(kind, theta, input_dim, num_classes, hidden)
