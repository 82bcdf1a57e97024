"""Exact worst-case-distribution solvers for finite discrete instances.

Given losses l_1..l_n, a base distribution p, a radius rho and an
f-divergence D, these solvers compute

    sup { sum_i q_i l_i :  D(q || p) <= rho,  q in simplex }

exactly (to numerical tolerance), along with the maximizing distribution.
Each divergence admits a one-parameter family of candidate optimizers:

    kl          q_i  proportional to  p_i * exp(l_i / beta)
    chi2        q_i = p_i * max(0, 1 + s * (l_i - eta(s)))
    reverse_kl  q_i  proportional to  p_i / (eta - l_i),  eta > max(l)

and the solver matches the constraint D(q || p) = rho by a monotone
one-dimensional search.  A dense simplex grid search provides the
independent oracle, and the dual one-dimensional minimization

    inf_{beta > 0}  g(beta) = beta * log E_p[exp(l / beta)] + beta * rho

cross-checks the kl solver through strong duality (Hu & Hong 2013).  g
is convex with closed-form g'(beta) = log E_p[exp(l / beta)] + rho -
E_q[l] / beta and g''(beta) = Var_q(l) / beta^3 under the tilt q above,
so a safeguarded Newton iteration minimizes it in O(n) memory; when rho
>= -log(mass of the argmax set), g is increasing and the dual value is
its limit max(l) as beta -> 0.  The grid oracle scans its cached grid in
fixed row blocks.

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

from .numerics import logsumexp
from .weighting import Divergence

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

_MAX_BISECT = 500
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
    """Worst-case value, the achieving distribution, and the dual parameter.

    ``boundary`` certifies that rho was large enough to reach the
    maximal-loss distribution (conditional of the base on the argmax set),
    where the tilting family degenerates and no finite dual parameter
    matches the constraint.
    """

    value: float
    worst_dist: DiscreteDistribution
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


def _trivial(inst: DroInstance) -> DroSolution:
    value = float(inst.base.probs @ inst.losses)
    return DroSolution(value, inst.base, None, False)


def _argmax_conditional(losses, probs):
    lmax = losses.max()
    mask = losses == lmax
    mass = probs[mask].sum()
    q = np.where(mask, probs, 0.0) / mass
    return lmax, mass, q


def _bracket(candidate, rho: float, x: float, factor: float, rising: bool):
    """Scale x by ``factor`` (2 or 1/2) until D(x) = candidate(x)[1] crosses rho.

    Returns (x, True) at the first such x, or (x, False) with x scaled
    ``_MAX_BISECT`` times.  ``rising`` says whether D increases with x.
    """
    # growing x on a rising D, or shrinking it on a falling one, starts below rho
    from_below = (factor > 1.0) == rising
    for _ in range(_MAX_BISECT):
        d = candidate(x)[1]
        if (d >= rho) if from_below else (d <= rho):
            return x, True
        x *= factor
    return x, False


def _bisect(candidate, rho: float, lo: float, hi: float, rising: bool, geometric=False):
    """Shrink a bracket [lo, hi] of D(x) = rho to float resolution; its midpoint."""
    for _ in range(_MAX_BISECT):
        x = math.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)
        if (candidate(x)[1] > rho) != rising:  # the crossing lies above x
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    return math.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)


def kl_dro_primal(inst: DroInstance) -> DroSolution:
    """Bisection on beta in the tilted family q ~ p * exp(l / beta).

    The divergence KL(q_beta || p) decreases continuously from -log(mass
    of the argmax set) to 0 as beta grows, so matching it to rho is a
    plain sign bisection.
    """
    if inst.divergence is not Divergence.KL:
        raise ValueError("instance divergence must be kl")
    sup, l, p = _support(inst)
    if inst.rho == 0.0 or np.ptp(l) == 0.0:
        return _trivial(inst)

    lmax, mass, q_cond = _argmax_conditional(l, p)
    if inst.rho >= -math.log(mass) - 1e-15:
        return DroSolution(float(lmax), _full_dist(inst.n, sup, q_cond), None, True)

    logp = np.log(p)

    def tilt(beta):
        logq = logp + l / beta
        logq -= logsumexp(logq)
        q = np.exp(logq)
        kl = float(q @ (logq - logp))
        return q, kl

    beta = max(float(np.ptp(l)), 1e-6)
    lo, found = _bracket(tilt, inst.rho, beta, 0.5, rising=False)
    if not found:
        raise RuntimeError("kl bisection failed to bracket from below")
    hi, found = _bracket(tilt, inst.rho, beta, 2.0, rising=False)
    if not found:
        raise RuntimeError("kl bisection failed to bracket from above")
    beta = _bisect(tilt, inst.rho, lo, hi, rising=False)
    q, kl = tilt(beta)
    if abs(kl - inst.rho) > 1e-10:
        raise RuntimeError(f"kl bisection stalled at |KL - rho| = {abs(kl - inst.rho)}")
    return DroSolution(float(q @ l), _full_dist(inst.n, sup, q), float(beta), False)


def kl_dro_dual(inst: DroInstance) -> float:
    """Scalar dual value inf_beta g(beta), g(beta) = beta * log E_p[exp(l/beta)] + beta * rho.

    g is convex in beta.  With the tilt q ~ p * exp(l / beta), both of its
    derivatives have a closed form:

        g'(beta)  = log E_p[exp(l/beta)] + rho - E_q[l] / beta
        g''(beta) = Var_q(l) / beta^3

    and a safeguarded Newton iteration finds the root of g': a Newton step
    that leaves the sign bracket [lo, hi] of g' is replaced by the bracket's
    midpoint, or by doubling beta while hi is unbounded.  Every beta bounds
    the primal from above (weak duality), so the smallest g seen is
    returned and an early stop can only overstate the duality gap.  Work
    and memory are O(n) per iteration.

    When rho >= -log(mass of the argmax set), g' > 0 for every beta and the
    infimum is the limit beta -> 0: max(l) over the base's support.
    """
    if inst.divergence is not Divergence.KL:
        raise ValueError("instance divergence must be kl")
    _, l, p = _support(inst)
    if inst.rho == 0.0:
        return float(p @ l)
    if np.ptp(l) == 0.0:
        return float(l[0])
    lmax, mass, _ = _argmax_conditional(l, p)
    if inst.rho >= -math.log(mass):
        return float(lmax)

    gaps, rho = l - lmax, inst.rho
    beta, lo, hi = float(np.ptp(l)), 0.0, math.inf
    best = math.inf
    # in d = (l - max l) / beta <= 0 nothing overflows, and with lse = log E_p[e^d]
    # g = max l + beta * (lse + rho), g' = lse + rho - E_q[d], g'' = Var_q(d) / beta
    for _ in range(_MAX_BISECT):
        d = gaps / beta
        e = np.exp(d)
        total = float(p @ e)
        # a sum near 1 (large beta) loses its small deviation to rounding, and
        # g multiplies that by beta; summing p * expm1(d) keeps it
        lse = math.log(total) if total < 0.5 else math.log1p(float(p @ np.expm1(d)))
        q = p * e / total
        mean = float(q @ d)
        var = float(q @ (d - mean) ** 2)
        slope = lse + rho - mean
        best = min(best, float(lmax + beta * (lse + rho)))
        if slope > 0.0:
            hi = beta
        else:
            lo = beta
        step = beta * (1.0 - slope / var) if var > 0.0 else math.nan
        if not lo < step < hi:  # also a nan step
            step = 2.0 * beta if hi == math.inf else 0.5 * (lo + hi)
        if abs(step - beta) <= 1e-15 * beta:
            break
        beta = step
    return best


def chi2_dro_value(inst: DroInstance) -> DroSolution:
    """Affine tilting family with nonnegativity clamping.

    For slope s >= 0 the candidate is q_i = p_i * max(0, 1 + s*(l_i - eta(s)))
    with eta(s) the exact normalizer: one sort, then an O(n) scan of the top-k
    pieces as in simplex projection.  The divergence grows with s; bisection
    matches it to rho.  When rho reaches (1 - mass)/mass of the argmax set,
    the family degenerates and the conditional point mass is returned.
    """
    if inst.divergence is not Divergence.CHI2:
        raise ValueError("instance divergence must be chi2")
    sup, l, p = _support(inst)
    if np.any(l < 0):
        raise ValueError("chi2 solver expects nonnegative losses")
    if inst.rho == 0.0 or np.ptp(l) == 0.0:
        return _trivial(inst)

    lmax, mass, q_cond = _argmax_conditional(l, p)
    cap = (1.0 - mass) / mass
    if inst.rho >= cap - 1e-12:
        return DroSolution(float(lmax), _full_dist(inst.n, sup, q_cond), None, True)

    order = np.argsort(l)[::-1]
    ls, ps = l[order], p[order]
    cum_p = np.cumsum(ps)
    cum_pl = np.cumsum(ps * ls)

    def candidate(s):
        # eta solves sum_i p_i * max(0, 1 + s*(l_i - eta)) = 1 on a top-k set of
        # losses; etas[k] solves it for the top k+1, and the right piece is the
        # last k whose atom ls[k] stays active (k = 0 always does: 1/p_1 > 0)
        etas = (cum_p + s * cum_pl - 1.0) / (s * cum_p)
        eta = etas[np.flatnonzero(1.0 + s * (ls - etas) > 0.0)[-1]]
        r = np.maximum(0.0, 1.0 + s * (l - eta))
        q = p * r
        q /= q.sum()
        div = float(p @ (r - 1.0) ** 2)
        return q, div

    var = float(p @ (l - p @ l) ** 2)
    hi, found = _bracket(candidate, inst.rho, math.sqrt(inst.rho / var), 2.0, rising=True)
    if not found:
        raise RuntimeError("chi2 bisection failed to bracket")
    s = _bisect(candidate, inst.rho, 0.0, hi, rising=True)
    q, _ = candidate(s)
    return DroSolution(float(q @ l), _full_dist(inst.n, sup, q), float(s), False)


def revkl_dro_value(inst: DroInstance) -> DroSolution:
    """Inverse-gap family q ~ p / (eta - l) with eta > max(l).

    E_p[log(p/q)] decreases monotonically from +inf (eta -> max l) to 0
    (eta -> inf); geometric bisection on the gap eta - max(l) matches it
    to rho.  The worst case always keeps full support, so there is no
    boundary regime for finite rho.
    """
    if inst.divergence is not Divergence.REVERSE_KL:
        raise ValueError("instance divergence must be reverse_kl")
    sup, l, p = _support(inst)
    if inst.rho == 0.0 or np.ptp(l) == 0.0:
        return _trivial(inst)

    lmax = l.max()
    gap0 = lmax - l  # exact per-atom gap; adding delta keeps argmax atoms > 0

    def candidate(delta):
        g = gap0 + delta
        w = p / g
        z = w.sum()
        q = w / z
        div = float(p @ np.log(g) + math.log(z))
        return q, div

    scale = float(np.ptp(l))
    hi, found = _bracket(candidate, inst.rho, scale, 2.0, rising=False)
    if not found:
        raise RuntimeError("reverse-kl bisection failed to bracket from above")
    delta, found = _bracket(candidate, inst.rho, scale, 0.5, rising=False)
    if found:
        delta = _bisect(candidate, inst.rho, delta, hi, rising=False, geometric=True)
    # else rho is so large that matching it needs a gap below double
    # resolution; the slack candidate is optimal to within ~1e-150 of max(l)
    q, _ = candidate(delta)
    return DroSolution(float(q @ l), _full_dist(inst.n, sup, q), float(lmax + delta), False)


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
        param = slope
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
