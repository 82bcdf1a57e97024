"""Property tests for the reweighted step path, the weight functions and the DRO solvers."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reweightopt import dro, experiment, weighting
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
    BaselineState,
    TrainConfig,
    TrainingDivergenceError,
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


@pytest.mark.parametrize("divergence", REAL)
def test_rgd_weights_are_the_dro_worst_case(divergence):
    # RGD applies weights g(clip(l, 0, tau)); normalized, they are the worst
    # case of the DRO problem on the clipped losses, uniform base, at the
    # radius they imply: the tilt with beta = tau + 1 (kl) or eta = tau + 1
    # (reverse-KL), and for chi2 q ~ l - eta with eta = -tau
    rng = np.random.default_rng(["kl", "chi2", "reverse_kl"].index(divergence.value))
    solver = SOLVERS[divergence]
    solved = 0
    for _ in range(300):
        size, tau = int(rng.integers(2, 65)), float(rng.uniform(0.2, 5.0))
        losses = tau * rng.exponential(0.7, size)
        losses[rng.random(size) < 0.1] *= -1.0  # below the clip at 0
        rule = WeightingRule(divergence, tau)
        w, _ = rule.step_weights(losses, 1)
        clipped = np.clip(losses, 0.0, tau)
        if np.ptp(clipped) == 0.0:  # rho = 0: no DRO problem to solve
            continue
        q = w / w.sum()
        base = dro.uniform(size)
        rho = divergence_value(q, base.probs, divergence)
        sol = solver(DroInstance(clipped, base, rho, divergence))
        assert np.max(np.abs(sol.worst_dist.probs - q)) <= 1e-12
        dual_param = -tau if divergence is Divergence.CHI2 else tau + 1.0
        assert sol.dual_param == pytest.approx(dual_param, rel=1e-10, abs=0.0)
        solved += 1
    assert solved >= 290


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


def _lattice_divergence(qs, p_sup, divergence):
    """D(q || p) of each row of qs, by the grid oracle's expressions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.log(qs)
        if divergence is Divergence.KL:
            return np.where(qs > 0.0, qs * log_qs, 0.0).sum(axis=1) - qs @ np.log(p_sup)
        if divergence is Divergence.CHI2:
            return (qs * qs) @ (1.0 / p_sup) - 1.0
        return float(p_sup @ np.log(p_sup)) - log_qs @ p_sup


def _lattice_scan(inst, grid_points):
    """The grid oracle by its definition: every composition of g = grid_points - 1
    into the support's atoms, in row-major order, as fractions; the first
    maximum of E_q[l] with D(q || p) <= rho + 1e-12, else the base:
    (value, distribution)."""
    p = inst.base.probs
    sup, l, p_sup = dro._support(inst)
    g, m = grid_points - 1, sup.size
    heads = np.indices((g + 1,) * (m - 1)).reshape(m - 1, (g + 1) ** (m - 1)).T
    heads = heads[heads.sum(axis=1) <= g]
    qs = np.column_stack([heads, g - heads.sum(axis=1)]) / g
    div = _lattice_divergence(qs, p_sup, inst.divergence)
    values = np.where(div <= inst.rho + 1e-12, qs @ l, -np.inf)
    i = int(np.argmax(values))
    if float(values[i]) < float(p @ inst.losses):
        return float(p @ inst.losses), p
    q = np.zeros(inst.n)
    q[sup] = qs[i]
    return float(values[i]), q


# grid points per edge that keep the lattice of n atoms under about 2e5 rows
_GRID_POINTS_MAX = {1: 2, 2: 200_000, 3: 600, 4: 100}


@settings(max_examples=120, deadline=None)
@given(
    divergence=st.sampled_from(REAL),
    seed=seeds,
    rho=rhos,
    ties=st.booleans(),
    data=st.data(),
)
def test_grid_oracle_matches_a_full_lattice_scan(divergence, seed, rho, ties, data):
    _check_grid_oracle_against_a_full_scan(divergence, seed, rho, ties, data)


@settings(max_examples=60, deadline=None)
@given(
    divergence=st.sampled_from(REAL),
    seed=seeds,
    rho=rhos,
    block=st.integers(1, 50),
    data=st.data(),
)
def test_grid_oracle_in_small_blocks_matches_a_full_lattice_scan(
    divergence, seed, rho, block, data
):
    # a few lattice lines per block, and tied losses, whose equal maxima on
    # lines of different blocks must resolve to the first, as in the scan
    with mock.patch.object(dro, "_LINE_BLOCK", block):
        _check_grid_oracle_against_a_full_scan(divergence, seed, rho, True, data)


def _check_grid_oracle_against_a_full_scan(divergence, seed, rho, ties, data):
    # tied integer losses put equal maxima on different lattice lines, where
    # the first one must win as it does in the scan
    inst = _dro_case(seed, divergence, rho, n_max=4)
    if ties:
        losses = np.minimum(np.round(inst.losses), 2.0)
        inst = DroInstance(losses, inst.base, rho, divergence)
    sup, l, p_sup = dro._support(inst)
    grid_points = data.draw(st.integers(2, _GRID_POINTS_MAX[sup.size]), label="grid_points")
    value, q = simplex_bruteforce(inst, grid_points, return_dist=True)
    want_value, want_q = _lattice_scan(inst, grid_points)
    if sup.size < 3 or l[-2] != l[-1]:
        assert value == want_value
        assert q.probs.tobytes() == np.asarray(want_q, dtype=np.float64).tobytes()
        return
    # with the last two losses tied, E_q[l] is constant along each line up to
    # rounding, so the scan may break the tie at another row
    tol = 4.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(l))))
    assert abs(value - want_value) <= tol
    q_sup = q.probs[sup]
    assert abs(float(q_sup @ l) - value) <= tol
    if not np.array_equal(q.probs, inst.base.probs):  # else the base, kept as a candidate
        g = grid_points - 1
        assert np.array_equal(q_sup, np.round(q_sup * g) / g)
        assert _lattice_divergence(q_sup[None, :], p_sup, divergence)[0] <= rho + 1e-12


# The eval rows and the ma weights take a mean as np.mean's sum (or count) over
# the size, without np.mean's Python wrapper; each is pinned here bit for bit
# against np.mean, on vectors with infinite entries, sums that overflow and masks.
MEANS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_EXTREME = st.sampled_from([np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0])
_float_vectors = hnp.arrays(np.float64, st.integers(1, 300), elements=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), _EXTREME))
_finite_vectors = hnp.arrays(np.float64, st.integers(1, 300), elements=st.one_of(
    st.floats(0.0, 1e308), st.sampled_from([1e308, 0.0, 1.0])))


def _same(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@MEANS
@given(_float_vectors)
def test_float_mean_is_the_sum_over_the_size(a):
    with np.errstate(all="ignore"):  # inf - inf and overflowing sums
        assert _same(float(a.sum()) / a.size, np.mean(a))


@MEANS
@given(hnp.arrays(np.bool_, st.integers(1, 5000)))
def test_bool_mean_is_the_count_over_the_size(a):
    assert _same(float(np.count_nonzero(a) / a.size), np.mean(a))


@MEANS
@given(_finite_vectors, st.floats(1.0, 1e6), st.floats(1e-3, 1e6), st.sampled_from(REAL))
def test_eval_row_means_match_np_mean(ell, weight, tau, divergence):
    # losses are finite in an eval row; their weighted sum may overflow
    w = np.full(ell.size, weight)
    with np.errstate(over="ignore"):
        mean = float(np.mean(w * ell))
    if not math.isfinite(mean):
        scale = float(np.max(np.abs(ell)))
        mean = float(np.mean(w * (ell / scale))) * scale
    assert _same(weighting._objective(ell, w), mean)
    rule = WeightingRule(divergence, tau)
    assert _same(rule._report(ell)[2], float(np.mean(ell >= rule.tau)))
    with np.errstate(over="ignore"):
        assert _same(experiment._metric_value("mse", None, None, ell, None), np.mean(ell))
    predicted = (ell > ell[0]).astype(np.intp)
    dataset = Batch(np.zeros((ell.size, 1)), np.zeros(ell.size, dtype=np.int64))
    assert _same(experiment._metric_value("accuracy", None, dataset, None, predicted),
                 np.mean(predicted == dataset.targets))


@MEANS
@given(_finite_vectors.map(lambda a: a / 1e306), st.floats(1e-3, 10.0))
def test_ma_means_match_np_mean(losses, lam):
    # exp(lam * loss) overflows for large losses; the step reports an entry that
    # does, and its mean is np.mean's until then
    with np.errstate(over="ignore"):
        e = np.exp(lam * losses)
        want = float(np.mean(e))
    weighter = BaselineState(lam, 0.5)
    try:
        with np.errstate(over="ignore"):
            _, after = weighter.step_weights(losses, 1)
    except TrainingDivergenceError:
        assert not np.isfinite(e).all()
    else:
        assert _same(after.z, want)
    assert _same(weighter.report(losses)[0], np.mean(losses))
