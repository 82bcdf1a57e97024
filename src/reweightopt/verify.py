"""Self-contained verification suites behind the CLI oracle/gradcheck commands.

Each suite runs seeded randomized checks against the independent oracles
(strong duality, dense simplex grid, central finite differences) and
returns a report dict with the worst observed deviations, so callers can
print one line per check and fail on any tolerance breach.  Each DRO instance
of ``dro_suite`` or ``check_instances`` gets one certificate: D(q || p) <= rho,
the tilting form and the duality gap between E_q[l] and the solution's dual
bound (a certificate only for feasible q, hence the constraint check).

``gradcheck_suite`` compares ``weighted_grad`` with central differences of
the weighted objective.  Once per trial: the model, the batch and the
weights are built and checked, the batch's fit to the model and the flat
label index are made (``models._trial_losses``), ``finite_diff_grad``
scans its one work copy of theta, over which the (W, b) views are built,
and the quiet error state of the weighted mean is entered.  Per
evaluation: the moved coordinate theta_j +- h must be finite, the losses
of the forward pass alone get one finiteness scan before
``weighted_objective``'s arithmetic, and the two objective values must be
finite.

Each suite argument's range is defined once, in ``_LEAST``; the CLI
checks its flags against it (``_range_error``) before a suite runs.
"""

from __future__ import annotations

import numpy as np

from .dro import (
    Divergence,
    divergence_value,
    instance_from_json,
    kl_dro_primal,
    optimal_weight_form_check,
    random_instance,
    simplex_bruteforce,
    chi2_dro_value,
    revkl_dro_value,
)
from .models import Batch, ModelKind, _trial_losses, finite_diff_grad, random_state, weighted_grad
from .numerics import _all_finite
from .schema import ConfigError
from .weighting import _weighted_mean, as_loss_vector

# bound here only so that the benchmark's layer_targets() can trace them
from .dro import kl_dro_dual  # noqa: F401
from .models import per_sample_loss  # noqa: F401

__all__ = [
    "dro_suite",
    "gradcheck_suite",
    "check_instances",
    "DUALITY_TOL",
    "FORM_TOL",
    "GRID_TOL",
    "GRAD_TOL",
]

DUALITY_TOL = 1e-8
FORM_TOL = 1e-6
GRID_TOL = 2e-3
GRAD_TOL = 1e-5
_DIVERGENCES = (Divergence.KL, Divergence.CHI2, Divergence.REVERSE_KL)


def _fails(value: float, tol: float) -> bool:
    """Every check's verdict: only a deviation <= tol passes, so a NaN fails."""
    return not value <= tol


def _worse(worst: float, value: float) -> float:
    """``max(worst, value)``, except that a NaN, once in, stays the worst."""
    return value if value > worst or value != value else worst


def _certify(inst, where: str):
    """Solve ``inst`` with its divergence's solver and check D(q || p) <= rho,
    the tilting form and strong duality; returns (solution, duality gap, form
    deviation, failures naming ``where``)."""
    # built per call: the benchmark traces the solvers by patching these names
    solvers = {
        Divergence.KL: kl_dro_primal,
        Divergence.CHI2: chi2_dro_value,
        Divergence.REVERSE_KL: revkl_dro_value,
    }
    div = inst.divergence
    sol = solvers[div](inst)
    failures = []
    dv = divergence_value(sol.worst_dist.probs, inst.base.probs, div)
    if _fails(dv, inst.rho + 1e-9):
        failures.append(f"{where}: constraint violated ({dv:.3e} > rho)")
    form = optimal_weight_form_check(inst, sol, FORM_TOL)
    if not form.passed:
        failures.append(f"{where}: {div.value} form deviation {form.max_rel_dev:.3e}")
    gap = abs(sol.value - sol.dual_value)
    if _fails(gap, DUALITY_TOL):
        failures.append(f"{where}: {div.value} duality gap {gap:.3e}")
    return sol, gap, form.max_rel_dev, failures


# each suite argument's range is [least, inf)
_LEAST = {"trials": 1, "n_max": 2, "rho_max": 0.0, "grid_points": 2}


def _range_error(**values):
    """(name, what is wrong) of the first argument outside its range, nan
    included; None when every one lies in it."""
    for name, value in values.items():
        if not _LEAST[name] <= value < np.inf:
            return name, f"must lie in [{_LEAST[name]}, inf), got {value}"
    return None


def _check_arguments(**values):
    """Refuse an argument outside its range, naming it."""
    error = _range_error(**values)
    if error:
        raise ValueError(" ".join(error))


def dro_suite(
    trials: int = 200,
    n_max: int = 10,
    rho_max: float = 0.5,
    seed: int = 0,
    grid_points: int = 2001,
    check_variants: bool = True,
) -> dict:
    """Certified kl solutions over random instances, grid-checked for n <= 3
    together with their chi2 and reverse-KL variants (reported as ``variant``)."""
    _check_arguments(trials=trials, n_max=n_max, rho_max=rho_max, grid_points=grid_points)
    rng = np.random.default_rng(seed)
    # brute-force accuracy is grid-limited; 2e-3 is calibrated at 2001 points
    grid_tol = GRID_TOL * 2000.0 / (grid_points - 1)
    report = {"trials": trials, "grid_checked": 0, "grid_tol": grid_tol, "failures": []}
    for key in ("max_", "max_variant_"):  # kl, then its chi2 and reverse-KL variants
        report |= {key + stat: 0.0 for stat in ("duality_gap", "form_dev", "grid_err")}
    for trial in range(trials):
        inst = random_instance(rng, (2, n_max), 5.0, rho_max, Divergence.KL)
        gridded = inst.n <= 3
        report["grid_checked"] += gridded
        for div in _DIVERGENCES if gridded and check_variants else _DIVERGENCES[:1]:
            inst = type(inst)(inst.losses, inst.base, inst.rho, div)
            key = "max_" if div is Divergence.KL else "max_variant_"
            sol, gap, dev, failures = _certify(inst, f"trial {trial}")
            report["failures"] += failures
            report[key + "duality_gap"] = _worse(report[key + "duality_gap"], gap)
            report[key + "form_dev"] = _worse(report[key + "form_dev"], dev)
            if gridded:
                brute = simplex_bruteforce(inst, grid_points)
                err = _worse(abs(sol.value - brute), abs(sol.dual_value - brute))
                report[key + "grid_err"] = _worse(report[key + "grid_err"], err)
                if _fails(err, grid_tol):
                    label = "" if div is Divergence.KL else f"{div.value} "
                    report["failures"].append(f"trial {trial}: {label}grid disagreement {err:.3e}")
    report["passed"] = not report["failures"]
    return report


def check_instances(records: list[dict]) -> dict:
    """Solve user-supplied JSON instance records and certify the solutions.

    Each record is solved and checked like a ``dro_suite`` trial: the
    constraint, the tilting form and strong duality.  An empty list is a
    ConfigError, since it would certify nothing.
    """
    if not records:
        raise ConfigError("expected at least one instance, got an empty list")
    report = {"checked": 0, "results": [], "failures": []}
    for i, record in enumerate(records):
        inst = instance_from_json(record, f"instance {i}")
        sol, gap, _, failures = _certify(inst, f"instance {i}")
        report["failures"] += failures
        report["results"].append({
            "index": i, "divergence": inst.divergence.value, "value": sol.value, "duality_gap": gap,
        })
        report["checked"] += 1
    report["passed"] = not report["failures"]
    return report


def _random_model_and_batch(kind: ModelKind, rng: np.random.Generator):
    d = int(rng.integers(2, 6))
    b = int(rng.integers(2, 6))
    x = rng.standard_normal((b, d))
    if kind is ModelKind.LINEAR:
        model = random_state(kind, d, seed=int(rng.integers(1 << 31)), scale=0.5)
        y = rng.standard_normal(b)
    else:
        c = int(rng.integers(2, 5))
        hidden = (int(rng.integers(3, 9)),) if kind is ModelKind.MLP else ()
        model = random_state(kind, d, c, hidden, seed=int(rng.integers(1 << 31)), scale=0.5)
        y = rng.integers(0, c, size=b)
    return model, Batch(x, y)


def gradcheck_suite(trials: int = 50, seed: int = 0) -> dict:
    """Analytic weighted gradients vs central differences, per model kind."""
    _check_arguments(trials=trials)
    rng = np.random.default_rng(seed)
    report = {"trials": trials, "max_rel_err": {}, "failures": []}
    for kind in ModelKind:
        worst = 0.0
        for trial in range(trials):
            model, batch = _random_model_and_batch(kind, rng)
            weights = rng.uniform(0.5, 2.0, size=batch.size)
            analytic = weighted_grad(model, batch, weights)
            losses_at = _trial_losses(model, batch)

            # theta: finite_diff_grad's scanned work vector, moved at one finite
            # coordinate; _weighted_mean gives weighted_objective's bits
            def objective(theta):
                losses = losses_at(theta)
                if not _all_finite(losses):
                    as_loss_vector(losses)  # raises, naming the non-finite losses
                return _weighted_mean(losses, weights)

            with np.errstate(over="ignore"):  # _weighted_mean's, entered once per trial
                numeric = finite_diff_grad(objective, model.theta)
            denom = max(float(np.linalg.norm(numeric)), 1e-10)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            worst = _worse(worst, rel)
            if _fails(rel, GRAD_TOL):
                report["failures"].append(f"{kind.value} trial {trial}: rel err {rel:.3e}")
        report["max_rel_err"][kind.value] = worst
    report["passed"] = not report["failures"]
    return report
