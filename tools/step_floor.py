"""Time the library's step against the same step inlined in numpy.

Prints microseconds per step for three forms of the step of each model
kind, every step on the same batch of n = 64 rows:

- ``linear``: the c07 / linear-ref step (d = 5, SGD projected on the box
  [-2, 2], constant lr 0.05, kl weights with a clip level above every
  loss reachable inside the box);
- ``softmax``: the noisy-softmax step (20 inputs, 10 classes, SGD at
  lr 0.2 from zero, kl weights at tau = 1);
- ``mlp``: the mlp-sweep step (20-32-10 tanh network, Adam at lr 0.01
  from a seeded start, kl weights at tau = 1).

The three forms of a kind are:

- ``library``: ``optim.rgd_step``, which also builds the new
  ``OptimizerState`` and a ``StepInfo`` on every step;
- ``checked``: the same arithmetic inlined in numpy with every check that
  ``rgd_step`` makes: the batch's fit to the model, the scan of the
  losses, the length of the weights, the step against the horizon and the
  scan of the new theta, under the same quiet error state;
- ``unchecked``: the arithmetic alone.

The three run the same numpy operations in the same order, so the script
asserts that they end on the same theta bytes before it prints.  The
ratio of ``library`` to ``checked`` is what the library's call layers
cost; ``checked`` to ``unchecked`` is what its checks cost.

    PYTHONPATH=src python tools/step_floor.py [--steps 1000] [--repeat 20]

Each form's time is the best of ``--repeat`` runs of ``--steps`` steps,
the forms of a kind taking turns.  Pin BLAS to one thread (for instance
``OPENBLAS_NUM_THREADS=1``) for stable numbers.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from reweightopt.models import Batch, random_state, zero_state
from reweightopt.numerics import clip, logsumexp_classes
from reweightopt.optim import TrainConfig, init_state, rgd_step
from reweightopt.weighting import WeightingRule

N, SEED = 64, 7
D, LR, BOX = 5, 0.05, (-2.0, 2.0)  # linear
C, DIM, HIDDEN = 10, 20, 32  # softmax and mlp


def setup_linear(steps: int):
    """The c07 problem: (model, batch, kl rule, TrainConfig of ``steps`` steps)."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((N, D)) / np.sqrt(D)
    y = x @ rng.standard_normal(D) + 0.5 * rng.standard_normal(N)
    bound = float(np.max((np.abs(x).sum(axis=1) * BOX[1] + np.abs(y)) ** 2))
    rule = WeightingRule("kl", float(np.ceil(bound) + 1.0))
    config = TrainConfig(lr_base=LR, steps=steps, batch_size=N, box=BOX)
    return zero_state("linear", D), Batch(x, y), rule, config


def _mixture(rng):
    """N rows of a 10-class Gaussian mixture in 20 dimensions."""
    y = rng.integers(0, C, N)
    return Batch(rng.standard_normal((C, DIM))[y] + rng.standard_normal((N, DIM)), y)


def setup_softmax(steps: int):
    """The noisy-softmax step: (model, batch, kl rule, TrainConfig)."""
    batch = _mixture(np.random.default_rng(SEED))
    config = TrainConfig(lr_base=0.2, steps=steps, batch_size=N)
    return zero_state("softmax", DIM, C), batch, WeightingRule("kl", 1.0), config


def setup_mlp(steps: int):
    """The mlp-sweep step: (model, batch, kl rule, TrainConfig)."""
    batch = _mixture(np.random.default_rng(SEED))
    model = random_state("mlp", DIM, C, (HIDDEN,), seed=SEED)
    config = TrainConfig("adam", lr_base=0.01, steps=steps, batch_size=N)
    return model, batch, WeightingRule("kl", 1.0), config


def library(model, batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    state = init_state(model, config.optimizer)
    for _ in range(config.steps):
        state, _ = rgd_step(state, batch, rule, config)
    return state.model.theta


def _all_finite(vec: np.ndarray) -> bool:
    return math.isfinite(vec.dot(vec)) or np.count_nonzero(np.isfinite(vec)) == vec.size


def _kl(losses: np.ndarray, tau: float) -> np.ndarray:
    w = clip(losses, 0.0, tau)
    w /= tau + 1.0
    return np.exp(w, out=w)


@np.errstate(over="ignore", invalid="ignore")
def linear_checked(model, batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, y = batch.inputs, batch.targets
    tau, (lo, hi), lr = rule.tau, config.box, config.lr_base
    theta = model.theta.copy()
    for t in range(1, config.steps + 1):
        if x.shape[1] != theta.size or batch.label_range is not None:
            raise ValueError("the batch does not fit the linear model")
        r = x.dot(theta)
        r -= y
        losses = r * r
        if not _all_finite(losses):
            raise FloatingPointError(f"non-finite loss at step {t}")
        w = _kl(losses, tau)
        if w.shape[0] != x.shape[0]:
            raise ValueError("one weight per row expected")
        if not 1 <= t <= config.steps:
            raise ValueError(f"step {t} outside [1, {config.steps}]")
        scale = w / float(x.shape[0])
        scale *= 2.0
        scale *= r
        g = x.T.dot(scale)
        update = np.multiply(lr, g)
        theta = np.subtract(theta, update, out=update)
        if not _all_finite(theta):
            raise FloatingPointError(f"non-finite parameter update at step {t}")
        clip(theta, lo, hi, out=theta)
    return theta


def linear_unchecked(model, batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, y = batch.inputs, batch.targets
    tau, (lo, hi), lr, n = rule.tau, config.box, config.lr_base, float(x.shape[0])
    theta = model.theta.copy()
    for _ in range(config.steps):
        r = x.dot(theta)
        r -= y
        scale = _kl(r * r, tau)
        scale /= n
        scale *= 2.0
        scale *= r
        update = np.multiply(lr, x.T.dot(scale))
        theta = clip(np.subtract(theta, update, out=update), lo, hi, out=update)
    return theta


def _layers(theta: np.ndarray, widths) -> list:
    """The (W, b) views of a classifier's flat theta, input layer first."""
    layers, offset = [], 0
    for prev, h in zip(widths, widths[1:]):
        w = theta[offset : offset + h * prev].reshape(h, prev)
        offset += h * prev
        layers.append((w, theta[offset : offset + h]))
        offset += h
    return layers


def _classifier_losses(layers, x: np.ndarray, label: np.ndarray):
    """(losses, exp(z - max z) row-major, activations): the class-major
    cross entropy of ``models`` with its flat label index."""
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
    picked = z.take(label)
    zt = z.T.copy()
    zmax = zt.max(axis=0)
    is_max = zt == zmax
    e = np.subtract(zt, zmax, out=z.reshape(zt.shape))
    np.exp(e, out=e)
    losses = logsumexp_classes(zt, zmax, is_max, e)
    losses -= picked
    return losses, e.T.copy(), acts


def _classifier_grad(layers, e: np.ndarray, acts, label: np.ndarray, w: np.ndarray):
    """(1/n) sum_i w_i grad(loss_i) from ``_classifier_losses``'s results."""
    delta = e / e.sum(axis=1, keepdims=True)
    delta.reshape(-1)[label] -= 1.0
    delta *= (w / float(e.shape[0]))[:, None]
    grads, dz = [], delta
    for li in range(len(layers) - 1, -1, -1):
        grads += [dz.sum(axis=0), dz.T.dot(acts[li]).ravel()]
        if li > 0:
            dz = dz.dot(layers[li][0]) * (1.0 - acts[li] ** 2)
    return np.concatenate(grads[::-1])


def _adam(theta, m, v, g, t: int, config: TrainConfig):
    """One bias-corrected Adam update in ``optim._adam``'s operation order."""
    beta1, beta2 = config.beta1, config.beta2
    m = beta1 * m
    scratch = (1.0 - beta1) * g
    m += scratch
    v = beta2 * v
    np.multiply(1.0 - beta2, g, out=scratch)
    scratch *= g
    v += scratch
    den = v / (1.0 - beta2**t)
    np.sqrt(den, out=den)
    den += config.eps
    np.divide(m, 1.0 - beta1**t, out=scratch)
    scratch *= config.lr_base
    scratch /= den
    return np.subtract(theta, scratch, out=scratch), m, v


def _update(theta, m, v, g, t: int, config: TrainConfig):
    if config.optimizer == "adam":
        return _adam(theta, m, v, g, t, config)
    update = np.multiply(config.lr_base, g)
    return np.subtract(theta, update, out=update), m, v


@np.errstate(over="ignore", invalid="ignore")
def classifier_checked(model, batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, y = batch.inputs, batch.targets
    n, c = x.shape[0], model.num_classes
    widths = (model.input_dim, *model.hidden, c)
    theta = model.theta.copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, config.steps + 1):
        low, high = batch.label_range
        if x.shape[1] != model.input_dim or low < 0 or high >= c:
            raise ValueError("the batch does not fit the classifier")
        layers = _layers(theta, widths)
        label = np.arange(0, n * c, c)
        label += y
        losses, e, acts = _classifier_losses(layers, x, label)
        if not _all_finite(losses):
            raise FloatingPointError(f"non-finite loss at step {t}")
        w = _kl(losses, rule.tau)
        if w.shape[0] != n:
            raise ValueError("one weight per row expected")
        if not 1 <= t <= config.steps:
            raise ValueError(f"step {t} outside [1, {config.steps}]")
        g = _classifier_grad(layers, e, acts, label, w)
        theta, m, v = _update(theta, m, v, g, t, config)
        if not _all_finite(theta):
            raise FloatingPointError(f"non-finite parameter update at step {t}")
    return theta


def classifier_unchecked(model, batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, c = batch.inputs, model.num_classes
    widths = (model.input_dim, *model.hidden, c)
    label = np.arange(0, x.shape[0] * c, c)
    label += batch.targets
    theta = model.theta.copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, config.steps + 1):
        layers = _layers(theta, widths)
        losses, e, acts = _classifier_losses(layers, x, label)
        g = _classifier_grad(layers, e, acts, label, _kl(losses, rule.tau))
        theta, m, v = _update(theta, m, v, g, t, config)
    return theta


# kind: (setup, {form: function of setup's result})
KINDS = {
    "linear": (setup_linear, {
        "library": library, "checked": linear_checked, "unchecked": linear_unchecked,
    }),
    "softmax": (setup_softmax, {
        "library": library, "checked": classifier_checked, "unchecked": classifier_unchecked,
    }),
    "mlp": (setup_mlp, {
        "library": library, "checked": classifier_checked, "unchecked": classifier_unchecked,
    }),
}


def measure(kind: str, steps: int, repeat: int) -> dict:
    """Microseconds per step of each form of ``kind``, the best of ``repeat``
    runs; raises AssertionError if the forms end on different theta bytes."""
    setup, forms = KINDS[kind]
    inputs = setup(steps)
    thetas = {name: form(*inputs).tobytes() for name, form in forms.items()}
    differ = [name for name, theta in thetas.items() if theta != thetas["library"]]
    assert not differ, f"{kind}: theta of {differ} differs from the library's"
    best = dict.fromkeys(forms, math.inf)
    for _ in range(repeat):
        for name, form in forms.items():
            t0 = time.perf_counter()
            form(*inputs)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e6 * seconds / steps for name, seconds in best.items()}


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=_at_least_one, default=1000)
    parser.add_argument("--repeat", type=_at_least_one, default=20)
    args = parser.parse_args(argv)
    print(f"n={N} rows per step, best of {args.repeat} x {args.steps} steps; "
          f"numpy {np.__version__}")
    print(f"{'kind':8s} {'form':10s} {'us/step':>8s} {'x checked':>10s}")
    for kind in KINDS:
        us = measure(kind, args.steps, args.repeat)
        for name, value in us.items():
            print(f"{kind:8s} {name:10s} {value:8.3f} {value / us['checked']:10.3f}")


if __name__ == "__main__":
    main()
