"""Property tests for the reweighted step path and the weight functions."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reweightopt.models import Batch, ModelKind, per_sample_loss, random_state, weighted_grad
from reweightopt.optim import (
    TrainConfig,
    adam_step,
    init_state,
    lr_at,
    rgd_step,
    sgd_step,
    term_step,
    term_weights,
)
from reweightopt.weighting import Divergence, WeightingRule, batch_weights

NONE = WeightingRule(Divergence.NONE)
REAL = [Divergence.KL, Divergence.CHI2, Divergence.REVERSE_KL]

seeds = st.integers(0, 2**32 - 1)
boxes = st.one_of(st.none(), st.floats(0.05, 2.0).map(lambda r: (-r, r)))


def _case(kind, seed):
    """Random model of the given kind and a batch of 1..64 samples for it."""
    rng = np.random.default_rng(seed)
    d, size = int(rng.integers(1, 8)), int(rng.integers(1, 65))
    x = rng.standard_normal((size, d))
    if kind is ModelKind.LINEAR:
        return random_state(kind, d, seed=seed), Batch(x, rng.standard_normal(size))
    c = int(rng.integers(2, 6))
    hidden = tuple(int(h) for h in rng.integers(1, 9, size=rng.integers(1, 3)))
    hidden = hidden if kind is ModelKind.MLP else ()
    return random_state(kind, d, c, hidden, seed=seed), Batch(x, rng.integers(0, c, size))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ModelKind)),
    seed=seeds,
    optimizer=st.sampled_from(["sgd", "adam"]),
    lr=st.floats(1e-3, 1.0),
    box=boxes,
    schedule=st.sampled_from(["constant", "inv_sqrt_step", "inv_sqrt_horizon"]),
)
def test_none_rule_step_is_the_plain_step_bitwise(kind, seed, optimizer, lr, box, schedule):
    model, batch = _case(kind, seed)
    config = TrainConfig(optimizer=optimizer, rule=NONE, lr_base=lr, schedule=schedule,
                         steps=3, box=box)
    reweighted = plain = init_state(model, optimizer)
    for _ in range(config.steps):
        reweighted, info = rgd_step(reweighted, batch, NONE, config)
        grad = weighted_grad(plain.model, batch, np.ones(batch.size))
        step_lr = lr_at(config.schedule, lr, plain.t + 1, config.steps)
        if optimizer == "adam":
            plain = adam_step(plain, grad, step_lr, config.beta1, config.beta2, config.eps, box)
        else:
            plain = sgd_step(plain, grad, step_lr, box)
        assert np.array_equal(info.direction, grad)
        assert np.array_equal(reweighted.model.theta, plain.model.theta)
        if optimizer == "adam":
            assert np.array_equal(reweighted.m, plain.m)
            assert np.array_equal(reweighted.v, plain.v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(ModelKind)), seed=seeds, t_tilt=st.floats(1e-3, 1e2))
def test_term_direction_is_the_tilted_weighted_gradient(kind, seed, t_tilt):
    model, batch = _case(kind, seed)
    config = TrainConfig(optimizer="sgd", rule=NONE, steps=1)
    _, info = term_step(init_state(model), batch, t_tilt, config)
    p = term_weights(per_sample_loss(model, batch), t_tilt)
    assert np.array_equal(info.direction, weighted_grad(model, batch, batch.size * p))
    assert np.array_equal(info.weights, batch.size * p)


taus = st.floats(1e-3, 1e3)
fractions = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=50)


def _losses_around(tau, fracs):
    """Losses spread over [-3 tau, 3 tau] plus 0, tau and tau's neighbours."""
    extra = [0.0, tau, math.nextafter(tau, math.inf), math.nextafter(tau, -math.inf)]
    return np.sort(np.array([tau * f for f in fracs] + extra))


@settings(max_examples=200, deadline=None)
@given(divergence=st.sampled_from(REAL), tau=taus, fracs=fractions)
def test_weights_bounded_and_monotone(divergence, tau, fracs):
    u = _losses_around(tau, fracs)
    w = batch_weights(u, WeightingRule(divergence, tau))
    lower = {Divergence.KL: 1.0, Divergence.CHI2: tau, Divergence.REVERSE_KL: 1.0}[divergence]
    upper = {
        Divergence.KL: float(np.exp(tau / (tau + 1.0))),
        Divergence.CHI2: 2.0 * tau,
        Divergence.REVERSE_KL: tau + 1.0,
    }[divergence]
    assert np.all(w >= lower) and np.all(w <= upper)
    assert np.all(np.diff(w) >= 0.0)
    assert np.all(w[u <= 0.0] == lower)


@settings(max_examples=200, deadline=None)
@given(divergence=st.sampled_from(REAL), tau=taus, fracs=fractions)
def test_weights_saturate_exactly_at_tau(divergence, tau, fracs):
    u = _losses_around(tau, fracs)
    rule = WeightingRule(divergence, tau)
    w = batch_weights(u, rule)
    cap = batch_weights([tau], rule)[0]
    assert np.all(w[u >= tau] == cap)
    if divergence is Divergence.KL:
        assert cap == np.exp(tau / (tau + 1.0))
    elif divergence is Divergence.CHI2:
        assert cap == 2.0 * tau
    else:
        assert cap <= tau + 1.0 and math.isclose(cap, tau + 1.0, rel_tol=1e-12)
