"""Property tests for the reweighted step path, the weight functions and the DRO solvers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reweightopt import dro
from reweightopt.dro import (
    DiscreteDistribution,
    DroInstance,
    chi2_dro_value,
    divergence_value,
    kl_dro_primal,
    revkl_dro_value,
    simplex_bruteforce,
)
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
from reweightopt.numerics import logsumexp
from reweightopt.verify import GRID_TOL
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


# DRO solvers: the value lies between the base mean and the max loss, grows
# with rho, meets the constraint, and (kl) never beats a dual bound.  The
# tolerances cover the solvers' float error, scaled by the loss range.
BOUND_TOL = 1e-12  # value vs [E_p l, max l]
MONO_TOL = 1e-9  # value(rho1) - value(rho2) for rho1 < rho2
FEAS_TOL = 1e-9  # D(q || p) - rho, as check_instances uses
DUAL_TOL = 1e-9  # primal - (beta log E_p e^(l/beta) + beta rho)
ORACLE_TOL = 1e-9  # grid value - solver value
SOLVERS = {
    Divergence.KL: kl_dro_primal,
    Divergence.CHI2: chi2_dro_value,
    Divergence.REVERSE_KL: revkl_dro_value,
}
rhos = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))


def _dro_case(seed, divergence, rho, n_max=8):
    """Losses in [0, 5] (tied on integers half the time), base with zero-mass atoms."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    losses = rng.uniform(0.0, 5.0, n)
    if rng.integers(0, 2):
        losses = np.round(losses)
    p = rng.dirichlet(np.ones(n))
    p[rng.random(n) < 0.3] = 0.0
    if p.sum() == 0.0:
        p[rng.integers(0, n)] = 1.0
    return DroInstance(losses, DiscreteDistribution(p / p.sum()), rho, divergence)


@settings(max_examples=150, deadline=None)
@given(divergence=st.sampled_from(REAL), seed=seeds, rho=rhos)
def test_dro_value_bounded_and_feasible(divergence, seed, rho):
    inst = _dro_case(seed, divergence, rho)
    sol = SOLVERS[divergence](inst)
    l, p = inst.losses, inst.base.probs
    scale = 1.0 + float(l.max())
    assert float(p @ l) - BOUND_TOL * scale <= sol.value <= float(l.max()) + BOUND_TOL * scale
    assert divergence_value(sol.worst_dist.probs, p, divergence) <= rho + FEAS_TOL
    assert np.all(sol.worst_dist.probs[p == 0] == 0)


@settings(max_examples=100, deadline=None)
@given(divergence=st.sampled_from(REAL), seed=seeds, rhos=st.lists(rhos, min_size=2, max_size=2))
def test_dro_value_monotone_in_rho(divergence, seed, rhos):
    small, large = (_dro_case(seed, divergence, r) for r in sorted(rhos))
    solve = SOLVERS[divergence]
    scale = 1.0 + float(small.losses.max())
    assert solve(small).value <= solve(large).value + MONO_TOL * scale


@settings(max_examples=100, deadline=None)
@given(seed=seeds, rho=rhos, beta=st.floats(1e-3, 1e3))
def test_kl_primal_below_every_dual_bound(seed, rho, beta):
    inst = _dro_case(seed, Divergence.KL, rho)
    l, p = inst.losses, inst.base.probs
    on = p > 0
    bound = beta * logsumexp(np.log(p[on]) + l[on] / beta) + beta * rho
    assert kl_dro_primal(inst).value <= bound + DUAL_TOL * (1.0 + abs(bound))


@settings(max_examples=100, deadline=None)
@given(divergence=st.sampled_from(REAL), seed=seeds, rho=rhos)
def test_grid_oracle_never_beats_the_solver(divergence, seed, rho):
    # every grid point the oracle accepts is feasible, so it cannot exceed the
    # exact worst case; mass on a zero-mass atom would make it infeasible
    inst = _dro_case(seed, divergence, rho, n_max=4)
    value, q = simplex_bruteforce(inst, 41, return_dist=True)
    assert np.all(q.probs[inst.base.probs == 0] == 0)
    assert value <= SOLVERS[divergence](inst).value + ORACLE_TOL * (1.0 + float(inst.losses.max()))


@pytest.mark.parametrize("divergence", REAL)
def test_grid_oracle_keeps_off_zero_mass_atoms(divergence):
    # q may put no mass where p = 0, so the grid's best point is on the support
    inst = DroInstance([0.0, 1.0, 10.0], DiscreteDistribution([0.5, 0.5, 0.0]), 0.1, divergence)
    value, q = simplex_bruteforce(inst, 2001, return_dist=True)
    assert q.probs[2] == 0.0
    assert abs(value - SOLVERS[divergence](inst).value) <= GRID_TOL


def _nearest_norm_chi2(inst):
    """The chi2 solver with the former piece rule as reference: solve every
    top-k piece, evaluate each normalizer on all n atoms (an n x n array) and
    keep the eta whose normalizer is nearest 1.  Returns (s, q on the support)."""
    _, l, p = dro._support(inst)
    order = np.argsort(l)[::-1]
    ls, ps = l[order], p[order]
    cum_p, cum_pl = np.cumsum(ps), np.cumsum(ps * ls)

    def candidate(s):
        etas = (cum_p + s * cum_pl - 1.0) / (s * cum_p)
        norms = np.maximum(0.0, 1.0 + s * (l[None, :] - etas[:, None])) @ p
        eta = etas[int(np.argmin(np.abs(norms - 1.0)))]
        r = np.maximum(0.0, 1.0 + s * (l - eta))
        q = p * r
        q /= q.sum()
        return q, float(p @ (r - 1.0) ** 2)

    var = float(p @ (l - p @ l) ** 2)
    hi, _ = dro._bracket(candidate, inst.rho, math.sqrt(inst.rho / var), 2.0, rising=True)
    s = dro._bisect(candidate, inst.rho, 0.0, hi, rising=True)
    return s, candidate(s)[0]


@settings(max_examples=300, deadline=None)
@given(seed=seeds, rho=st.floats(1e-3, 5.0))
def test_chi2_scan_picks_the_nearest_norm_piece(seed, rho):
    # the O(n) scan must choose, at every slope the bisection probes, the same
    # eta as the nearest-norm rule, so both runs end on the same bits
    inst = _dro_case(seed, Divergence.CHI2, rho, n_max=40)
    sol = chi2_dro_value(inst)
    assume(not sol.boundary and sol.dual_param is not None)
    s, q_sup = _nearest_norm_chi2(inst)
    q = np.zeros(inst.n)
    on = inst.base.probs > 0
    q[on] = np.maximum(q_sup, 0.0)
    q /= q.sum()
    assert sol.dual_param == s
    assert np.array_equal(sol.worst_dist.probs, q)
