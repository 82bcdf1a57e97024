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
    kl_dro_dual,
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


def _kl_feasible_value(inst):
    """E_q[l] of a q inside the kl ball, built from kl_dro_primal's beta.

    This lower bound on the worst case is what the dual must not undercut.
    The tilt q ~ p * exp(d), d = (l - max l) / beta, is evaluated as
    max l + beta * E_q[d], which keeps its value to a few ulps where the
    solver's log q = log p + l / beta - logsumexp loses about 1e-12 at
    small beta.  The solver meets rho only to 1e-10, so q may lie just
    outside the ball; KL is convex, so the mixture (1 - t) p + t q with
    t = min(1, rho / KL(q || p)) lies inside it.
    """
    sol = kl_dro_primal(inst)
    if sol.dual_param is None:  # the mean at rho = 0 or max l at the boundary: exact
        return sol.value
    _, l, p = dro._support(inst)
    d = (l - l.max()) / sol.dual_param
    w = p * np.exp(d)
    total = w.sum()
    # near 1 the sum of p * expm1(d) keeps the digits that 1 + ... would lose
    log_mean_exp = math.log(total) if total < 0.5 else math.log1p(p @ np.expm1(d))
    mean_d = (w @ d) / total
    kl = mean_d - log_mean_exp
    t = min(1.0, inst.rho / kl) if kl > 0.0 else 1.0
    mean = float(p @ l)
    return mean + t * (float(l.max() + sol.dual_param * mean_d) - mean)


def _check_kl_dual(inst):
    dual = kl_dro_dual(inst)
    assert dual >= _kl_feasible_value(inst) - 1e-12  # weak duality
    assert abs(dual - kl_dro_primal(inst).value) <= 1e-8
    _, l, p = dro._support(inst)
    if inst.rho >= -math.log(p[l == l.max()].sum()):
        assert dual == l.max()


# below about 1e-6 kl_dro_primal's own value drifts (1e-8 off at rho = 1e-15)
# and below about 1e-16 it fails to bracket; the small-radius test covers there
@settings(max_examples=200, deadline=None)
@given(seed=seeds, rho=st.floats(1e-6, 3.0))
def test_kl_dual_matches_the_primal(seed, rho):
    _check_kl_dual(_dro_case(seed, Divergence.KL, rho))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, offset=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-0.5, 1.0)))
def test_kl_dual_near_the_boundary(seed, offset):
    # rho around -log(mass of the argmax set), where the dual's beta -> 0;
    # tied maxima and zero-mass atoms come from _dro_case
    inst = _dro_case(seed, Divergence.KL, 1.0)
    _, l, p = dro._support(inst)
    rho = -math.log(p[l == l.max()].sum()) + offset
    assume(1e-6 <= rho <= 3.0)
    _check_kl_dual(DroInstance(inst.losses, inst.base, rho, Divergence.KL))


@settings(max_examples=100, deadline=None)
@given(seed=seeds, rho=st.floats(0.0, 1e-6, exclude_min=True))
def test_kl_dual_at_small_radius(seed, rho):
    # p is feasible, and Hoeffding's lemma with Donsker-Varadhan bounds the
    # worst case by E_p[l] + ptp(l) * sqrt(rho / 2)
    inst = _dro_case(seed, Divergence.KL, rho)
    _, l, p = dro._support(inst)
    dual = kl_dro_dual(inst)
    assert float(p @ l) - 1e-12 <= dual <= float(p @ l) + np.ptp(l) * math.sqrt(rho / 2.0) + 1e-12


def _single_pass_grid(inst, grid_points):
    """simplex_bruteforce's body as one pass over all grid rows, the reference
    for the blocked loop: (value, distribution)."""
    p = inst.base.probs
    sup, l, p_sup = dro._support(inst)
    qs, log_qs, qlogq = dro._grid_cache(sup.size, grid_points)
    with np.errstate(invalid="ignore"):
        if inst.divergence is Divergence.KL:
            div = qlogq - qs @ np.log(p_sup)
        elif inst.divergence is Divergence.CHI2:
            div = (qs * qs) @ (1.0 / p_sup) - 1.0
        else:
            div = float(p_sup @ np.log(p_sup)) - log_qs @ p_sup
    values = np.where(div <= inst.rho + 1e-12, qs @ l, -np.inf)
    i = int(np.argmax(values))
    if float(values[i]) < float(p @ inst.losses):
        return float(p @ inst.losses), p
    q = np.zeros(inst.n)
    q[sup] = qs[i]
    return float(values[i]), q


# grid points per edge that keep the grid of n atoms under about 2e5 rows
_GRID_POINTS_MAX = {1: 2, 2: 200_000, 3: 600, 4: 100}


@settings(max_examples=120, deadline=None)
@given(
    divergence=st.sampled_from(REAL),
    seed=seeds,
    rho=rhos,
    ties=st.booleans(),
    data=st.data(),
)
def test_blocked_grid_matches_one_pass(divergence, seed, rho, ties, data):
    # row counts below one block, at it and past it (not a multiple); tied
    # integer losses put equal maxima in different blocks, where the first
    # one must win as it does in one argmax
    inst = _dro_case(seed, divergence, rho, n_max=4)
    if ties:
        losses = np.minimum(np.round(inst.losses), 2.0)
        inst = DroInstance(losses, inst.base, rho, divergence)
    support = int(np.count_nonzero(inst.base.probs))
    grid_points = data.draw(st.integers(2, _GRID_POINTS_MAX[support]), label="grid_points")
    value, q = simplex_bruteforce(inst, grid_points, return_dist=True)
    want_value, want_q = _single_pass_grid(inst, grid_points)
    assert value == want_value
    assert q.probs.tobytes() == np.asarray(want_q, dtype=np.float64).tobytes()
