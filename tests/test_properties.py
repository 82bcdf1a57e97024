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


def _feasible_value(inst, sol):
    """E_q'[l] of a q' inside the ball, built from the solution's own q.

    This lower bound on the worst case is what the dual must not undercut.
    The solver meets rho only to rounding, so q may lie just outside the
    ball; every divergence is convex in q, so the mixture q' = (1 - t) p + t q
    with t = min(1, rho / D(q || p)) lies inside it.
    """
    p, l, q = inst.base.probs, inst.losses, sol.worst_dist.probs
    d = divergence_value(q, p, inst.divergence)
    t = min(1.0, inst.rho / d) if d > 0.0 else 1.0
    mean = float(p @ l)
    return mean + t * (float(q @ l) - mean)


def _check_dual(inst):
    sol = SOLVERS[inst.divergence](inst)
    assert sol.dual_value >= _feasible_value(inst, sol) - 1e-12  # weak duality
    assert abs(sol.dual_value - sol.value) <= 1e-8
    _, l, p = dro._support(inst)
    if inst.divergence is Divergence.KL:
        assert kl_dro_dual(inst) == sol.dual_value
        if inst.rho >= -math.log(p[l == l.max()].sum()):
            assert sol.dual_value == l.max()


# every divergence, from radii where D at the root is below the rounding of
# its own terms (about 1e-32 and less) up to 3
@settings(max_examples=300, deadline=None)
@given(
    divergence=st.sampled_from(REAL),
    seed=seeds,
    rho=st.one_of(st.floats(1e-40, 1e-6), st.floats(1e-6, 3.0)),
)
def test_kl_dual_matches_the_primal(divergence, seed, rho):
    _check_dual(_dro_case(seed, divergence, rho))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, offset=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-0.5, 1.0)))
def test_kl_dual_near_the_boundary(seed, offset):
    # rho around -log(mass of the argmax set), where the dual's beta -> 0;
    # tied maxima and zero-mass atoms come from _dro_case
    inst = _dro_case(seed, Divergence.KL, 1.0)
    _, l, p = dro._support(inst)
    rho = -math.log(p[l == l.max()].sum()) + offset
    assume(1e-6 <= rho <= 3.0)
    _check_dual(DroInstance(inst.losses, inst.base, rho, Divergence.KL))


@settings(max_examples=100, deadline=None)
@given(seed=seeds, rho=st.floats(0.0, 1e-6, exclude_min=True))
def test_kl_dual_at_small_radius(seed, rho):
    # p is feasible, and Hoeffding's lemma with Donsker-Varadhan bounds the
    # worst case by E_p[l] + ptp(l) * sqrt(rho / 2)
    inst = _dro_case(seed, Divergence.KL, rho)
    _, l, p = dro._support(inst)
    dual = kl_dro_dual(inst)
    assert float(p @ l) - 1e-12 <= dual <= float(p @ l) + np.ptp(l) * math.sqrt(rho / 2.0) + 1e-12


def test_tiny_radii_never_raise_and_certify():
    # rho in [1e-40, 1e-16]: a bracket on D(x) = rho can fail to form here, as
    # D's rounding exceeds rho
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        seed, rho = int(rng.integers(2**32)), float(10.0 ** rng.uniform(-40.0, -16.0))
        for divergence in REAL:
            sol = SOLVERS[divergence](_dro_case(seed, divergence, rho))
            assert abs(sol.value - sol.dual_value) <= 1e-8, (divergence, seed, rho)


@settings(max_examples=150, deadline=None)
@given(divergence=st.sampled_from(REAL), seed=seeds, rho=rhos, shift=st.floats(-100.0, 100.0))
def test_dro_value_is_translation_equivariant(divergence, seed, rho, shift):
    # the solvers see only the gaps max l - l, so shifting the losses (to any
    # sign) shifts the value and its dual bound
    inst = _dro_case(seed, divergence, rho)
    moved = DroInstance(inst.losses + shift, inst.base, rho, divergence)
    sol, moved_sol = SOLVERS[divergence](inst), SOLVERS[divergence](moved)
    scale = 1.0 + abs(shift) + float(inst.losses.max())
    assert abs(moved_sol.value - (sol.value + shift)) <= 1e-12 * scale
    assert abs(moved_sol.dual_value - (sol.dual_value + shift)) <= 1e-12 * scale


def _reference_value(inst):
    """The worst case of ``inst`` to about 40 digits, from its textbook dual in
    60-digit mpmath: kl at beta = 1/x, chi2 at eta = max l - 1/x and reverse-KL
    at eta = max l + 1/x, minimized by golden-section search over log x in
    [-92, 92] (the dual is convex in beta or eta, so unimodal in log x).

    The base is renormalized in 60 digits: float probabilities sum to 1 only
    within about 1e-16, which the kl dual multiplies by beta."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        on = inst.base.probs > 0
        l = [mp.mpf(float(v)) for v in inst.losses[on]]
        total = mp.fsum(mp.mpf(float(v)) for v in inst.base.probs[on])
        p = [mp.mpf(float(v)) / total for v in inst.base.probs[on]]
        rho, top = mp.mpf(inst.rho), max(l)

        def dual(t):
            x = mp.exp(t)
            if inst.divergence is Divergence.KL:
                tilt = mp.fsum(pi * mp.exp((li - top) * x) for li, pi in zip(l, p))
                return top + (mp.log(tilt) + rho) / x
            if inst.divergence is Divergence.CHI2:
                eta = top - 1 / x
                tail = mp.fsum(pi * max(li - eta, 0) ** 2 for li, pi in zip(l, p))
                return eta + mp.sqrt(1 + rho) * mp.sqrt(tail)
            eta = top + 1 / x
            return eta - mp.exp(mp.fsum(pi * mp.log(eta - li) for li, pi in zip(l, p)) - rho)

        golden = (mp.sqrt(5) - 1) / 2
        a, b = mp.mpf(-92), mp.mpf(92)
        c, d = b - golden * (b - a), a + golden * (b - a)
        fc, fd = dual(c), dual(d)
        for _ in range(260):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = dual(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = dual(d)
        return min(fc, fd)


@pytest.mark.parametrize("divergence", REAL)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rho", [1e-40, 1e-12, 1e-3, 0.3, 2.0])
def test_solvers_match_the_60_digit_dual(divergence, seed, rho):
    inst = _dro_case(seed, divergence, rho)
    ref = _reference_value(inst)
    sol = SOLVERS[divergence](inst)
    tol = 1e-13 * (1.0 + float(inst.losses.max()))
    assert abs(sol.value - ref) <= tol and abs(sol.dual_value - ref) <= tol


@pytest.mark.parametrize(
    "seed, rho",
    # a bisection on the tilt log p + l / beta was 3.2e-10 high, 1.1e-8 low
    # and 2.8e-12 high at these instances
    [(4048106433, 1e-12), (2216742906, 1e-15), (2591582385, 0.626)],
)
def test_kl_regression_seeds_match_the_60_digit_dual(seed, rho):
    inst = _dro_case(seed, Divergence.KL, rho)
    ref = _reference_value(inst)
    sol = kl_dro_primal(inst)
    tol = 1e-14 * (1.0 + float(inst.losses.max()))
    assert abs(sol.value - ref) <= tol and abs(sol.dual_value - ref) <= tol


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
