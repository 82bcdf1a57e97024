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
The independent oracle is the best point of a dense simplex lattice,
found at the feasible ends of its lines without building the lattice.

Distributions are required to be absolutely continuous w.r.t. the base:
mass placed where p_i = 0 makes every divergence infinite.  The solvers
and the grid oracle alike work on the base's support and put no mass on
its zero-mass atoms, for every divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schema import check_section, config_errors, list_of, number
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
_LINE_BLOCK = 2**14  # lattice lines per block of simplex_bruteforce


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
        if not abs(probs.sum() - 1.0) <= 1e-12:  # also rejects nan
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.probs.size


def uniform(n: int) -> DiscreteDistribution:
    """Equal mass on each of ``n`` >= 1 atoms."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
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
        # the solvers scale by the range, which finite losses can overflow;
        # a finite range also rules out an infinite or nan loss
        if not math.isfinite(float(losses.max()) - float(losses.min())):
            raise ValueError("losses must be finite, and so must their range")
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


def _grid_divergence(q: np.ndarray, p: np.ndarray, divergence: Divergence) -> np.ndarray:
    """D(q || p) of each lattice row of q, infinite where a zero q_i makes it so."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if divergence is Divergence.KL:
            # summed column by column: q.sum(axis=1)'s order, at a fraction of its cost
            return sum(np.where(q > 0.0, q * np.log(q), 0.0).T) - q @ np.log(p)
        if divergence is Divergence.CHI2:
            return (q * q) @ (1.0 / p) - 1.0
        return float(p @ np.log(p)) - np.log(q) @ p


def _line_heads(g: int, m: int):
    """The heads (counts of the first m - 2 atoms) of the lattice lines in
    row-major order, in blocks of whole first counts: at most _LINE_BLOCK
    lines a block, or the lines of one first count if they are more."""
    per_block = max(1, _LINE_BLOCK // (g + 1) ** (m - 3))
    for first in range(0, g + 1, per_block):
        heads = np.indices((min(per_block, g + 1 - first),) + (g + 1,) * (m - 3))
        heads = heads.reshape(m - 2, -1).T
        heads[:, 0] += first
        yield heads[heads.sum(axis=1) <= g]


def _line_ends(heads: np.ndarray, g: int, l: np.ndarray, p: np.ndarray, divergence, limit):
    """Per lattice line of ``heads``, the counts of its best row with
    D(q || p) <= limit (of an infeasible row if it has none), as (lines, m)."""
    s = g - heads.sum(axis=1)

    def feasible(a):
        return _grid_divergence(np.column_stack([heads, a, s - a]) / g, p, divergence) <= limit

    centre = s * (p[-2] / (p[-2] + p[-1]))
    floor, ceil = np.floor(centre).astype(s.dtype), np.ceil(centre).astype(s.dtype)
    if l[-2] > l[-1]:  # up from the minimum's feasible neighbour
        step, start = 1, np.where(feasible(ceil), ceil, floor)
    else:  # down, also on a tie: a scan keeps the first of equal rows
        step, start = -1, np.where(feasible(floor), floor, ceil)
    # bisect for the largest feasible distance from start, up to the line's end
    lo, hi = np.zeros_like(s), (s - start if step > 0 else start) + 1
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        good = feasible(start + step * mid)
        lo, hi = np.where(good, mid, lo), np.where(good, hi, mid)
    end = start + step * lo
    return np.column_stack([heads, end, s - end])


def simplex_bruteforce(inst: DroInstance, grid_points: int = 2001, return_dist: bool = False):
    """Independent oracle: the best point of the simplex lattice with step
    1/(grid_points - 1) whose divergence is within 1e-12 of rho.

    A lattice line fixes the counts of all support atoms but the last two,
    in row-major order, and moves the rest s between those two: a = 0..s.
    Along it every f-divergence is convex, least (Jensen) where
    (q_{m-2}, q_{m-1}) ~ (p_{m-2}, p_{m-1}), so its lattice minimum is the
    floor or the ceiling of that a and its feasible rows are one run around
    it.  E_q[l] is linear in a: its maximum over the run is at the end that
    the sign of l_{m-2} - l_{m-1} picks (the first row on a tie), found by
    bisection on a block of lines at once.  The first maximum over the
    blocks is then that of a scan of every row, without building the
    lattice: O(g) memory at m = 3, O(g + _LINE_BLOCK) at m = 4.  With
    m <= 2 atoms the one line is scanned.

    The base distribution itself is always included as a candidate, so
    the result is at least the base expectation even when the lattice has
    no feasible point.  Accuracy is limited by the lattice resolution.
    """
    if inst.n > 4:
        raise ValueError("brute force limited to n <= 4")
    if not grid_points >= 2:  # written so that nan fails it
        raise ValueError("need at least 2 grid points per edge")
    p = inst.base.probs
    # q must vanish where p does, so the lattice spans the base's support only
    sup, l, p_sup = _support(inst)
    g, limit = grid_points - 1, inst.rho + 1e-12
    if sup.size > 2:
        heads = _line_heads(g, sup.size)
        blocks = (_line_ends(h, g, l, p_sup, inst.divergence, limit) for h in heads)
    else:
        a = np.arange(g + 1)
        blocks = [np.stack([a, g - a], axis=1) if sup.size == 2 else np.full((1, 1), g)]
    best, q = -np.inf, p
    for counts in blocks:
        qs = counts / g
        values = np.where(_grid_divergence(qs, p_sup, inst.divergence) <= limit, qs @ l, -np.inf)
        i = int(np.argmax(values))
        if values[i] > best:  # the first maximum of the scan
            best, q = float(values[i]), np.zeros(inst.n)
            q[sup] = qs[i]
    if best < float(p @ inst.losses):
        best, q = float(p @ inst.losses), p
    return (best, DiscreteDistribution(q)) if return_dist else best


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

    # the abscissa (the losses, or reverse KL's exact gaps to max(l)) is divided exactly into
    # (-2, 2) by a power of two, which polyfit's column scaling undoes bit for bit; unscaled,
    # the column norms overflow near the float limit or underflow (tiny gaps, tiny weights)
    x = l.max() - l if inst.divergence is Divergence.REVERSE_KL else l
    scale = 2.0 ** (math.frexp(np.max(np.abs(x)))[1] - 1)
    x = x / scale
    if inst.divergence is Divergence.KL:
        slope, intercept = np.polyfit(x, np.log(qs) - np.log(ps), 1)
        fitted = ps * np.exp(slope * x + intercept)
        param = scale / slope if slope != 0 else math.inf
    elif inst.divergence is Divergence.CHI2:
        slope, intercept = np.polyfit(x, qs / ps, 1)
        fitted = ps * (slope * x + intercept)
        param = -intercept / slope * scale if slope != 0 else -math.inf  # eta of q ~ p * (l - eta)
    else:
        # fit p/q against the gaps: regressing on l itself cancels catastrophically when
        # eta - max(l) is below float resolution.  p/q spans many orders of magnitude,
        # so weight by 1/y for a relative-error fit
        y = ps / qs
        slope, intercept = np.polyfit(x, y, 1, w=1.0 / y)
        fitted = ps / (intercept + slope * x)
        param = l.max() + intercept / slope * scale if slope != 0 else math.inf
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


# The schema of an instance record (see schema); DroInstance checks the rest
_RECORD = ({"losses": list_of, "probs": list_of, "rho": number, "divergence": None}, {})


def instance_from_json(obj: dict, where: str = "instance") -> DroInstance:
    """An instance from a wire-format record; a fault is a ConfigError naming ``where``."""
    with config_errors(where):
        check_section(obj, where, _RECORD)
        return DroInstance(obj["losses"], DiscreteDistribution(obj["probs"]), float(obj["rho"]),
                           obj["divergence"])


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
