"""Time the linear reference step against the same step inlined in numpy.

Prints microseconds per step for three forms of the c07 / linear-ref step
(full batch n = 64, d = 5, box [-2, 2], constant lr 0.05, kl weights with
a clip level above every loss reachable inside the box):

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
the forms taking turns.  Pin BLAS to one thread (for instance
``OPENBLAS_NUM_THREADS=1``) for stable numbers.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from reweightopt.models import Batch, zero_state
from reweightopt.numerics import clip
from reweightopt.optim import TrainConfig, init_state, rgd_step
from reweightopt.weighting import WeightingRule

N, D, LR, BOX, SEED = 64, 5, 0.05, (-2.0, 2.0), 7


def setup(steps: int):
    """The c07 problem: (batch, kl rule, TrainConfig of ``steps`` steps)."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((N, D)) / np.sqrt(D)
    y = x @ rng.standard_normal(D) + 0.5 * rng.standard_normal(N)
    bound = float(np.max((np.abs(x).sum(axis=1) * BOX[1] + np.abs(y)) ** 2))
    rule = WeightingRule("kl", float(np.ceil(bound) + 1.0))
    config = TrainConfig(lr_base=LR, steps=steps, batch_size=N, box=BOX)
    return Batch(x, y), rule, config


def library(batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    state = init_state(zero_state("linear", D))
    for _ in range(config.steps):
        state, _ = rgd_step(state, batch, rule, config)
    return state.model.theta


def _all_finite(vec: np.ndarray) -> bool:
    return math.isfinite(vec.dot(vec)) or np.count_nonzero(np.isfinite(vec)) == vec.size


@np.errstate(over="ignore", invalid="ignore")
def checked(batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, y = batch.inputs, batch.targets
    tau, (lo, hi), lr = rule.tau, config.box, config.lr_base
    theta = np.zeros(D)
    for t in range(1, config.steps + 1):
        if x.shape[1] != theta.size or batch.label_range is not None:
            raise ValueError("the batch does not fit the linear model")
        r = x @ theta
        r -= y
        losses = r * r
        if not _all_finite(losses):
            raise FloatingPointError(f"non-finite loss at step {t}")
        w = clip(losses, 0.0, tau)
        w /= tau + 1.0
        np.exp(w, out=w)
        if w.shape[0] != x.shape[0]:
            raise ValueError("one weight per row expected")
        scale = w / float(x.shape[0])
        scale *= 2.0
        scale *= r
        g = x.T @ scale
        if not 1 <= t <= config.steps:
            raise ValueError(f"step {t} outside [1, {config.steps}]")
        update = np.multiply(lr, g)
        theta = np.subtract(theta, update, out=update)
        if not _all_finite(theta):
            raise FloatingPointError(f"non-finite parameter update at step {t}")
        clip(theta, lo, hi, out=theta)
    return theta


def unchecked(batch: Batch, rule: WeightingRule, config: TrainConfig) -> np.ndarray:
    x, y = batch.inputs, batch.targets
    tau, (lo, hi), lr, n = rule.tau, config.box, config.lr_base, float(x.shape[0])
    theta = np.zeros(D)
    for _ in range(config.steps):
        r = x @ theta
        r -= y
        w = clip(r * r, 0.0, tau)
        w /= tau + 1.0
        np.exp(w, out=w)
        scale = w / n
        scale *= 2.0
        scale *= r
        update = np.multiply(lr, x.T @ scale)
        theta = clip(np.subtract(theta, update, out=update), lo, hi, out=update)
    return theta


FORMS = {"library": library, "checked": checked, "unchecked": unchecked}


def measure(steps: int, repeat: int) -> dict:
    """Microseconds per step of each form, the best of ``repeat`` runs;
    raises AssertionError if the forms end on different theta bytes."""
    inputs = setup(steps)
    thetas = {name: form(*inputs).tobytes() for name, form in FORMS.items()}
    differ = [name for name, theta in thetas.items() if theta != thetas["library"]]
    assert not differ, f"theta of {differ} differs from the library's"
    best = dict.fromkeys(FORMS, math.inf)
    for _ in range(repeat):
        for name, form in FORMS.items():
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
    us = measure(args.steps, args.repeat)
    print(f"linear step, n={N} d={D}, best of {args.repeat} x {args.steps} steps; "
          f"numpy {np.__version__}")
    print(f"{'form':10s} {'us/step':>8s} {'x checked':>10s}")
    for name, value in us.items():
        print(f"{name:10s} {value:8.3f} {value / us['checked']:10.3f}")


if __name__ == "__main__":
    main()
