"""Exact worst-case-distribution solvers for finite discrete instances.

Given losses l_1..l_n, a base distribution p, a radius rho and an
f-divergence D, these solvers compute

    sup { sum_i q_i l_i :  D(q || p) <= rho,  q in simplex }

exactly (to numerical tolerance), along with the maximizing distribution
and a dual bound that certifies it.  With gap_i = max(l) - l_i >= 0, each
divergence's worst case lies in a family indexed by a scale x > 0 in
which no tilt cancels:

    kl          q ~ p * exp(-x gap)            beta = 1/x
    chi2        q ~ p * max(0, 1 - x gap)      eta = max(l) - 1/x
    reverse_kl  q ~ p / (1 + x gap)            eta = max(l) + 1/x

D(q_x || p) grows with x, and one safeguarded Newton iteration finds the
root of D(x) = rho from D and D' in closed form.  The value E_q[l] and the
closed-form dual bound g are read off its final iterate:

    kl          g(beta) = beta log E_p[exp(l / beta)] + beta rho     (Hu & Hong 2013)
    chi2        g(eta) = eta + sqrt(1 + rho) sqrt(E_p[(l - eta)_+^2])
    reverse_kl  g(eta) = eta - e^-rho exp(E_p[log(eta - l)]),  eta > max(l)

The chi2 dual is that of Duchi & Namkoong (2021, Ann. Statist.) for
D = E_p[(q/p - 1)^2], hence sqrt(1 + rho).  By weak duality g bounds the
worst case from above at any parameter, and E_q[l] bounds it from below
when q meets the constraint, so their gap certifies a solution whose
feasibility is checked separately.  Past the boundary radius (kl:
-log(mass of the argmax set), chi2: (1 - mass)/mass) the worst case is
the base conditioned on the argmax set, and the dual's infimum is max(l).
A dense simplex grid search is the independent oracle; it scans its
cached grid in fixed row blocks.

Distributions are required to be absolutely continuous w.r.t. the base:
mass placed where p_i = 0 makes every divergence infinite.  The solvers
and the grid oracle alike work on the base's support and put no mass on
its zero-mass atoms, for every divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .weighting import Divergence

# bound here only so that the benchmark's layer_targets() can count its calls
from .numerics import logsumexp  # noqa: F401

__all__ = [
    "DiscreteDistribution",
    "DroInstance",
    "DroSolution",
    "FormCheckReport",
    "uniform",
    "divergence_value",
    "kl_dro_primal",
    "kl_dro_dual",
    "chi2_dro_value",
    "revkl_dro_value",
    "simplex_bruteforce",
    "optimal_weight_form_check",
    "instance_to_json",
    "instance_from_json",
    "random_instance",
]

_EPS = float(np.finfo(float).eps)
_MAX_NEWTON = 200  # iterations of _newton
# largest x * ptp(l): reverse-KL's eta - max(l) stays >= ptp(l) * 2^-500, which
# binds only at a huge rho, where the value is within ~1e-150 of max(l)
_X_MAX = 2.0**500
_GRID_BLOCK = 2**15  # grid rows per block in simplex_bruteforce


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over n atoms; must sum to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.size < 1:
            raise ValueError("distribution needs at least one atom")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.probs.size


def uniform(n: int) -> DiscreteDistribution:
    return DiscreteDistribution(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DroInstance:
    losses: np.ndarray
    base: DiscreteDistribution
    rho: float
    divergence: Divergence

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=np.float64).reshape(-1)
        losses.setflags(write=False)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "divergence", Divergence(self.divergence))
        if self.divergence is Divergence.NONE:
            raise ValueError("instance needs a real divergence, not 'none'")
        if losses.size != self.base.n:
            raise ValueError("losses and base distribution disagree on n")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError("rho must be a nonnegative real")

    @property
    def n(self) -> int:
        return self.losses.size


@dataclass(frozen=True)
class DroSolution:
    """Worst-case value, the achieving distribution, and its dual certificate.

    ``value`` is E_q[l] for ``worst_dist`` q, and ``dual_value`` the dual
    bound at the solver's final parameter, an upper bound on the worst case
    by weak duality; their difference is the duality gap.  ``dual_param`` is
    beta for kl and eta for chi2 and reverse-KL, None when no dual parameter
    is finite.  ``boundary`` certifies that rho was large enough to reach the
    maximal-loss distribution (conditional of the base on the argmax set),
    where the tilting family degenerates.
    """

    value: float
    worst_dist: DiscreteDistribution
    dual_value: float
    dual_param: float | None = None
    boundary: bool = False


def divergence_value(q, p, divergence: Divergence) -> float:
    """f-divergence D(q || p) straight from its definition E_p[f(dq/dp)]."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    divergence = Divergence(divergence)
    if np.any(q[p == 0] > 0):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        if divergence is Divergence.KL:
            terms = np.where(q > 0, q * (np.log(q) - np.log(p)), 0.0)
        elif divergence is Divergence.CHI2:
            terms = np.where(p > 0, (q - p) ** 2 / p, 0.0)
        elif divergence is Divergence.REVERSE_KL:
            terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        else:
            raise ValueError(f"unsupported divergence {divergence!r}")
    return float(np.sum(terms))


def _support(inst: DroInstance):
    """Indices with positive base mass; all solver work happens there."""
    sup = np.flatnonzero(inst.base.probs > 0)
    return sup, inst.losses[sup], inst.base.probs[sup]


def _full_dist(n: int, sup: np.ndarray, q_sup: np.ndarray) -> DiscreteDistribution:
    q = np.zeros(n)
    q[sup] = np.maximum(q_sup, 0.0)
    q /= q.sum()
    return DiscreteDistribution(q)


def _argmax_conditional(losses, probs):
    lmax = losses.max()
    mask = losses == lmax
    mass = probs[mask].sum()
    q = np.where(mask, probs, 0.0) / mass
    return lmax, mass, q


def _kl_state(x, gap, p, rho):
    # q ~ p * e^(-x gap); with Z = E_p[e^(-x gap)], D = -x E_q[gap] - log Z,
    # D' = x Var_q(gap) and beta = 1/x gives g = max l + (log Z + rho) / x
    e = np.exp(-x * gap)
    total = float(p @ e)
    # a sum near 1 (small x) loses its small deviation to rounding, and the
    # dual divides it by x; summing p * expm1 keeps it
    log_z = math.log(total) if total < 0.5 else math.log1p(float(p @ np.expm1(-x * gap)))
    q = p * e / total
    mean = float(q @ gap)
    var = float(q @ (gap - mean) ** 2)
    return -x * mean - log_z, x * var, mean, (log_z + rho) / x, q


def _chi2_state(x, gap, p, rho):
    # q ~ p * u, u = (1 - m), m = min(x gap, 1); with A1 = E_p[u] and
    # A2 = E_p[u^2], D = Var_p(m) / A1^2 and eta = max l - 1/x gives
    # g = max l + (sqrt((1 + rho) A2) - 1) / x, here without its cancellation
    m = np.minimum(x * gap, 1.0)
    u = 1.0 - m
    a1, a2 = float(p @ u), float(p @ u**2)
    c = float(p @ m) - m  # u - A1, without the cancellation of 1 - m
    var = float(p @ c**2)
    h = np.where(m < 1.0, gap, 0.0)  # dm/dx
    slope = 2.0 * (var * float(p @ h) - a1 * float(p @ (c * h))) / a1**3
    num = rho * a2 - float(p @ (m * (1.0 + u)))
    dual = num / (x * (math.sqrt((1.0 + rho) * a2) + 1.0))
    q = p * u / a1
    return var / a1**2, slope, float(q @ gap), dual, q


def _revkl_state(x, gap, p, rho):
    # q ~ p * w, w = 1 / (1 + x gap); with W = E_p[w] and L = E_p[log(1 + x gap)],
    # D = log W + L and eta = max l + 1/x gives g = max l + (1 - e^(L - rho)) / x
    xg = x * gap
    w = 1.0 / (1.0 + xg)
    v = xg * w  # 1 - w, without its cancellation
    v_mean = float(p @ v)
    big_w = float(p @ w)
    log_w = math.log1p(-v_mean) if v_mean < 0.5 else math.log(big_w)
    log_mean = float(p @ np.log1p(xg))
    slope = float(p @ (w * gap * (v - v_mean))) / big_w
    q = p * w / big_w
    return log_w + log_mean, slope, float(q @ gap), -math.expm1(log_mean - rho) / x, q


def _newton(state, rho: float, x: float, tight: float):
    """Safeguarded Newton for the root of D(x) = rho on (0, _X_MAX].

    ``state(x)`` returns (D, D', E_q[gap], g - max l, q) with D increasing
    in x.  The steps are Newton steps in log x, where D is linear both as
    x -> 0 (D ~ x^2) and for reverse-KL as x -> inf (D ~ log x).  The sign
    of D - rho keeps a bracket [lo, hi] of the root; a step that leaves it
    is replaced by the bracket's midpoint in log x (in x while lo = 0).  The
    loop stops once D meets rho and the duality gap closes to ``tight``,
    their relative rounding level (at small x, D is a difference of terms of
    order x whose rounding can hide the root), or on a step or bracket below
    float resolution, where it returns the x with D <= rho.  Returns the
    final x and its state.
    """
    lo, hi, s_lo = 0.0, _X_MAX, None
    for _ in range(_MAX_NEWTON):
        s = state(x)
        d, slope, mean_gap, dual = s[:4]
        if abs(d - rho) <= tight * (1.0 + rho) and abs(dual + mean_gap) <= tight * mean_gap:
            return x, s
        if d > rho:
            hi = x
        else:
            lo, s_lo = x, s
        if hi - lo <= 4.0 * _EPS * hi:
            break
        den = x * slope  # dD / dlog x
        step = min(x * math.exp(min((rho - d) / den, 700.0)), _X_MAX) if den > 0.0 else math.nan
        if abs(step - x) <= 4.0 * _EPS * x:
            if d <= rho:
                return x, s
            # where D is steeper than the spacing of floats, the root can lie
            # between two of them: end on its feasible side
            step = x * (1.0 - 2.0 * _EPS)
        elif not lo < step <= hi:  # also a nan step
            step = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        x = step
    return (lo, s_lo) if d > rho and s_lo is not None else (x, s)


# per divergence: its state; the cap, the boundary radius D at the argmax
# conditional of base mass m less a rounding slack; the dual parameter at x;
# and k with D ~ k x^2 Var_p(l) as x -> 0
_FAMILIES = {
    Divergence.KL: (_kl_state, lambda m: -math.log(m) - 1e-15, lambda lmax, x: 1 / x, 0.5),
    Divergence.CHI2: (_chi2_state, lambda m: (1 - m) / m - 1e-12, lambda lmax, x: lmax - 1 / x, 1),
    Divergence.REVERSE_KL: (_revkl_state, lambda m: math.inf, lambda lmax, x: lmax + 1 / x, 0.5),
}


def _solve(inst: DroInstance, divergence: Divergence) -> DroSolution:
    """The worst case of ``inst`` read off its family at the root of D(x) = rho."""
    if inst.divergence is not divergence:
        raise ValueError(f"instance divergence must be {divergence.value}")
    sup, l, p = _support(inst)
    spread = float(np.ptp(l))
    if inst.rho == 0.0 or spread == 0.0:  # the base mean, exact for constant losses
        value = float(inst.base.probs @ inst.losses) if spread else float(l[0])
        return DroSolution(value, inst.base, value)
    state, cap, param, k = _FAMILIES[divergence]
    lmax, mass, q_cond = _argmax_conditional(l, p)
    if inst.rho >= cap(mass):
        return DroSolution(float(lmax), _full_dist(inst.n, sup, q_cond), float(lmax), None, True)
    # D depends on x * gap alone, so the solve runs on gaps in [0, 1], where
    # nothing overflows at any loss scale: x there is x * ptp(l)
    gap, rho = (lmax - l) / spread, inst.rho
    var = float(p @ (gap - p @ gap) ** 2)
    x = min(math.sqrt(rho) / math.sqrt(k * var), _X_MAX) if var > 0.0 else _X_MAX
    # n-term sums round to about sqrt(n) ulps
    tight = 16.0 * _EPS * math.sqrt(p.size)
    x, (_, _, mean_gap, dual, q) = _newton(lambda x: state(x, gap, p, rho), rho, x, tight)
    value, dual = lmax - spread * mean_gap, lmax + spread * dual
    q = _full_dist(inst.n, sup, q)
    return DroSolution(float(value), q, float(dual), float(param(lmax, x / spread)))


def kl_dro_primal(inst: DroInstance) -> DroSolution:
    """Worst case in the tilted family q ~ p * exp(l / beta), beta = 1/x.

    KL(q || p) grows with x from 0 to -log(mass of the argmax set); past that
    radius the argmax conditional is returned as a boundary solution.
    """
    return _solve(inst, Divergence.KL)


def kl_dro_dual(inst: DroInstance) -> float:
    """Dual value inf_beta beta * log E_p[exp(l / beta)] + beta * rho (Hu & Hong 2013).

    It is the kl solve's ``dual_value``: the dual at the solve's final beta,
    or max(l) over the base's support in the boundary regime.
    """
    return kl_dro_primal(inst).dual_value


def chi2_dro_value(inst: DroInstance) -> DroSolution:
    """Worst case in the clamped affine family q ~ p * max(0, l - eta), eta = max l - 1/x.

    D(q || p) grows with x from 0 to (1 - mass)/mass of the argmax set; past
    that radius the argmax conditional is returned as a boundary solution.
    Any finite losses are accepted.
    """
    return _solve(inst, Divergence.CHI2)


def revkl_dro_value(inst: DroInstance) -> DroSolution:
    """Worst case in the inverse-gap family q ~ p / (eta - l), eta = max l + 1/x.

    E_p[log(p/q)] grows with x from 0 without bound, so there is no boundary
    regime for finite rho; the worst case keeps full support.
    """
    return _solve(inst, Divergence.REVERSE_KL)


@lru_cache(maxsize=8)
def _simplex_grid(n: int, grid_points: int) -> np.ndarray:
    """All compositions of grid_points-1 into n parts, as (m, n) fractions."""
    g = grid_points - 1
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        i = np.arange(g + 1)
        return np.stack([i, g - i], axis=1) / g
    if n == 3:
        i, j = np.meshgrid(np.arange(g + 1), np.arange(g + 1), indexing="ij")
        i, j = i.ravel(), j.ravel()
        keep = i + j <= g
        i, j = i[keep], j[keep]
        return np.stack([i, j, g - i - j], axis=1) / g
    if n == 4:
        rows = []
        for i in range(g + 1):
            sub = _simplex_grid(3, g - i + 1) * (g - i) / g if g - i > 0 else np.zeros((1, 3))
            rows.append(np.column_stack([np.full(len(sub), i / g), sub]))
        return np.vstack(rows)
    raise ValueError("dense simplex grid supports n <= 4 only")


@lru_cache(maxsize=4)
def _grid_cache(n: int, grid_points: int):
    """Grid plus instance-independent derived arrays (logs, q^2, sum q log q)."""
    qs = _simplex_grid(n, grid_points)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.log(qs)
        qlogq = np.where(qs > 0.0, qs * log_qs, 0.0).sum(axis=1)
    for arr in (qs, log_qs, qlogq):
        arr.setflags(write=False)
    return qs, log_qs, qlogq


def simplex_bruteforce(inst: DroInstance, grid_points: int = 2001, return_dist: bool = False):
    """Independent oracle: maximize over a dense grid of the simplex.

    The base distribution itself is always included as a candidate, so
    the result is at least the base expectation even when the grid has
    no feasible point.  Accuracy is limited by the grid resolution.
    """
    if inst.n > 4:
        raise ValueError("brute force limited to n <= 4")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points per edge")
    p = inst.base.probs
    # q must vanish where p does, so the grid spans the base's support only
    sup, l, p_sup = _support(inst)
    qs, log_qs, qlogq = _grid_cache(sup.size, grid_points)
    # row blocks keep the temporaries in cache; the strict > keeps the first
    # maximum across blocks, as one argmax over all rows would
    best, best_i = -np.inf, 0
    for start in range(0, qs.shape[0], _GRID_BLOCK):
        rows = slice(start, start + _GRID_BLOCK)
        q = qs[rows]
        # sums split against the cached grid terms; a -inf from log q = 0
        # propagates to an infinite divergence exactly where it should
        with np.errstate(invalid="ignore"):
            if inst.divergence is Divergence.KL:
                div = qlogq[rows] - q @ np.log(p_sup)
            elif inst.divergence is Divergence.CHI2:
                div = (q * q) @ (1.0 / p_sup) - 1.0
            else:
                div = float(p_sup @ np.log(p_sup)) - log_qs[rows] @ p_sup
        values = np.where(div <= inst.rho + 1e-12, q @ l, -np.inf)
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_i = float(values[i]), start + i
    base_value = float(p @ inst.losses)
    if best >= base_value:
        best_value, best_dist = best, np.zeros(inst.n)
        best_dist[sup] = qs[best_i]
    else:
        best_value, best_dist = base_value, p
    if return_dist:
        return best_value, DiscreteDistribution(best_dist)
    return best_value


@dataclass(frozen=True)
class FormCheckReport:
    passed: bool
    max_rel_dev: float
    fitted_param: float | None


def optimal_weight_form_check(
    inst: DroInstance, solution: DroSolution, tol: float = 1e-6
) -> FormCheckReport:
    """Verify the worst-case distribution matches its tilting family.

    Fits the single free parameter of the divergence-specific form by
    least squares on the solution's support and reports the maximum
    relative deviation of the solution from the refitted form.
    """
    p = inst.base.probs
    q = solution.worst_dist.probs
    if solution.boundary:
        lmax, _, q_cond = _argmax_conditional(inst.losses, p)
        dev = float(np.max(np.abs(q - np.where(inst.losses == lmax, q_cond, 0.0))))
        return FormCheckReport(dev <= 1e-12, dev, None)

    on = (q > 1e-300) & (p > 0)
    l, qs, ps = inst.losses[on], q[on], p[on]
    if qs.size < 2 or np.ptp(l) == 0.0:
        dev = float(np.max(np.abs(qs - ps / ps.sum() * qs.sum())))
        return FormCheckReport(dev <= tol, dev, None)

    if inst.divergence is Divergence.KL:
        slope, intercept = np.polyfit(l, np.log(qs) - np.log(ps), 1)
        fitted = ps * np.exp(slope * l + intercept)
        param = 1.0 / slope if slope != 0 else math.inf
    elif inst.divergence is Divergence.CHI2:
        slope, intercept = np.polyfit(l, qs / ps, 1)
        fitted = ps * (slope * l + intercept)
        param = -intercept / slope if slope != 0 else -math.inf  # eta of q ~ p * (l - eta)
    else:
        # fit p/q against the exact gaps max(l) - l; regressing on l itself
        # cancels catastrophically when eta - max(l) is below float resolution.
        # p/q spans many orders of magnitude, so weight by 1/y for a
        # relative-error fit
        gaps = l.max() - l
        y = ps / qs
        slope, intercept = np.polyfit(gaps, y, 1, w=1.0 / y)
        fitted = ps / (intercept + slope * gaps)
        param = l.max() + intercept / slope if slope != 0 else math.inf
    fitted = fitted / fitted.sum() * qs.sum()
    dev = float(np.max(np.abs(qs - fitted) / fitted))
    return FormCheckReport(dev <= tol, dev, float(param))


def instance_to_json(inst: DroInstance) -> dict:
    """Wire format: {losses, probs, rho, divergence}."""
    return {
        "losses": inst.losses.tolist(),
        "probs": inst.base.probs.tolist(),
        "rho": inst.rho,
        "divergence": inst.divergence.value,
    }


def instance_from_json(obj: dict) -> DroInstance:
    unknown = set(obj) - {"losses", "probs", "rho", "divergence"}
    if unknown:
        raise ValueError(f"unknown instance key(s) {sorted(unknown)}")
    return DroInstance(
        np.asarray(obj["losses"], dtype=np.float64),
        DiscreteDistribution(np.asarray(obj["probs"], dtype=np.float64)),
        float(obj["rho"]),
        Divergence(obj["divergence"]),
    )


def random_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (2, 10),
    loss_scale: float = 5.0,
    rho_max: float = 0.5,
    divergence: Divergence = Divergence.KL,
) -> DroInstance:
    """Seeded random instance generator shared by tests and the CLI suite."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    losses = rng.uniform(0.0, loss_scale, size=n)
    if rng.integers(0, 2):  # a fair coin picks a uniform or a Dirichlet base
        base = uniform(n)
    else:
        raw = rng.dirichlet(np.ones(n))
        base = DiscreteDistribution(raw / raw.sum())
    rho = float(rng.uniform(0.0, rho_max))
    return DroInstance(losses, base, rho, divergence)
