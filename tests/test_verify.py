"""The one DRO certificate behind dro_suite and check_instances, and the
gradient oracle behind gradcheck_suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reweightopt import models, verify
from reweightopt.dro import DiscreteDistribution, DroSolution, instance_to_json, random_instance
from reweightopt.models import ModelKind, per_sample_loss, weighted_grad
from reweightopt.weighting import Divergence, weighted_objective

SOLVER_NAMES = ("kl_dro_primal", "chi2_dro_value", "revkl_dro_value")


def _records():
    rng = np.random.default_rng(3)
    return [
        instance_to_json(random_instance(rng, (6, 6), 5.0, 0.5, div))
        for div in (Divergence.KL, Divergence.CHI2, Divergence.REVERSE_KL)
    ]


def test_dro_suite_reports_an_infeasible_solution(monkeypatch):
    # the point mass on the largest loss beats every feasible q, so only the
    # constraint check can catch it (one atom always matches its tilting form)
    def point_mass(inst):
        q = np.zeros(inst.n)
        q[np.argmax(inst.losses)] = 1.0
        top = float(inst.losses.max())
        return DroSolution(top, DiscreteDistribution(q), top)

    monkeypatch.setattr(verify, "chi2_dro_value", point_mass)
    report = verify.dro_suite(trials=4, n_max=3, seed=1, grid_points=101)
    assert not report["passed"]
    assert any("constraint violated" in f for f in report["failures"])


def test_both_suites_call_the_patched_solvers(monkeypatch):
    # the benchmark traces the solvers by patching these module attributes
    calls = dict.fromkeys(SOLVER_NAMES, 0)

    def counting(name, solver):
        def wrapper(inst):
            calls[name] += 1
            return solver(inst)
        return wrapper

    for name in SOLVER_NAMES:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    assert verify.dro_suite(trials=2, n_max=3, seed=0, grid_points=101)["passed"]
    assert all(calls.values()), calls
    calls.update(dict.fromkeys(SOLVER_NAMES, 0))
    assert verify.check_instances(_records())["passed"]
    assert calls == dict.fromkeys(SOLVER_NAMES, 1)


def test_check_instances_names_the_divergence_of_a_bad_form(monkeypatch):
    def spread(inst):
        q = np.linspace(1.0, 2.0, inst.n) ** 3
        return DroSolution(0.0, DiscreteDistribution(q / q.sum()), 0.0)

    monkeypatch.setattr(verify, "revkl_dro_value", spread)
    report = verify.check_instances(_records())
    assert any(f.startswith("instance 2: reverse_kl form deviation") for f in report["failures"])


def test_every_divergence_gets_a_duality_certificate(monkeypatch):
    report = verify.check_instances(_records())
    assert [e["divergence"] for e in report["results"]] == ["kl", "chi2", "reverse_kl"]
    assert all(e["duality_gap"] <= verify.DUALITY_TOL for e in report["results"])
    suite = verify.dro_suite(trials=4, n_max=3, seed=1, grid_points=101)
    assert suite["passed"] and suite["max_variant_duality_gap"] <= verify.DUALITY_TOL

    exact = verify.revkl_dro_value

    def loose(inst):  # the exact worst case with a dual bound 1e-6 too high
        sol = exact(inst)
        return replace(sol, dual_value=sol.dual_value + 1e-6)

    monkeypatch.setattr(verify, "revkl_dro_value", loose)
    report = verify.check_instances(_records())
    assert report["failures"] == ["instance 2: reverse_kl duality gap 1.000e-06"]


def _nan_dual_bound_first(monkeypatch):
    """Patch the kl solver so that its first solution's dual bound is NaN."""
    exact, calls = verify.kl_dro_primal, []

    def spoiled(inst):
        calls.append(inst)
        sol = exact(inst)
        return replace(sol, dual_value=np.nan) if len(calls) == 1 else sol

    monkeypatch.setattr(verify, "kl_dro_primal", spoiled)


def test_a_nan_dual_bound_fails_dro_suite_and_stays_the_worst(monkeypatch):
    _nan_dual_bound_first(monkeypatch)
    report = verify.dro_suite(trials=3, n_max=3, seed=1, grid_points=101)
    assert report["grid_checked"] == 3  # two finite trials follow the NaN one
    assert report["failures"] == ["trial 0: kl duality gap nan", "trial 0: grid disagreement nan"]
    assert not report["passed"]
    assert np.isnan(report["max_duality_gap"]) and np.isnan(report["max_grid_err"])
    assert report["max_variant_grid_err"] <= report["grid_tol"]


def test_a_nan_duality_gap_fails_check_instances(monkeypatch):
    _nan_dual_bound_first(monkeypatch)
    report = verify.check_instances(_records()[:1])
    assert np.isnan(report["results"][0]["duality_gap"])
    assert report["failures"] == ["instance 0: kl duality gap nan"]
    assert not report["passed"]


def test_a_nan_divergence_fails_the_constraint(monkeypatch):
    monkeypatch.setattr(verify, "divergence_value", lambda q, p, div: np.nan)
    report = verify.check_instances(_records()[:1])
    assert report["failures"] == ["instance 0: constraint violated (nan > rho)"]


def _reference_gradcheck(trials, seed):
    """``gradcheck_suite``'s report through the checked route: every perturbed
    theta goes through ``with_theta``, ``per_sample_loss`` and
    ``weighted_objective``, with a fresh h e_j per coordinate."""
    rng = np.random.default_rng(seed)
    report = {"trials": trials, "max_rel_err": {}, "failures": []}
    for kind in ModelKind:
        worst = 0.0
        for trial in range(trials):
            model, batch = verify._random_model_and_batch(kind, rng)
            weights = rng.uniform(0.5, 2.0, size=batch.size)
            analytic = weighted_grad(model, batch, weights)

            def objective(theta):
                return weighted_objective(per_sample_loss(model.with_theta(theta), batch), weights)

            h = 1e-5
            numeric = np.empty_like(model.theta)
            for j in range(model.theta.size):
                bump = np.zeros_like(model.theta)
                bump[j] = h
                f_plus, f_minus = objective(model.theta + bump), objective(model.theta - bump)
                assert np.isfinite(f_plus) and np.isfinite(f_minus)
                numeric[j] = (f_plus - f_minus) / (2.0 * h)
            denom = max(float(np.linalg.norm(numeric)), 1e-10)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            worst = max(worst, rel)
            if rel > verify.GRAD_TOL:
                report["failures"].append(f"{kind.value} trial {trial}: rel err {rel:.3e}")
        report["max_rel_err"][kind.value] = worst
    report["passed"] = not report["failures"]
    return report


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_gradcheck_report_is_the_checked_route_byte_for_byte(seed):
    assert repr(verify.gradcheck_suite(1, seed)) == repr(_reference_gradcheck(1, seed))


def test_gradcheck_suite_fails_a_wrong_gradient(monkeypatch):
    exact = verify.weighted_grad

    def off(model, batch, weights):  # the largest entry 0.1% off: rel err >= 1e-3 / sqrt(P)
        grad = exact(model, batch, weights)
        grad[np.argmax(np.abs(grad))] *= 1.0 + 1e-3
        return grad

    monkeypatch.setattr(verify, "weighted_grad", off)
    report = verify.gradcheck_suite(1, 0)
    assert not report["passed"]
    for kind in ModelKind:
        assert any(f.startswith(f"{kind.value} trial 0: rel err") for f in report["failures"])


def test_a_nan_gradient_fails_gradcheck_suite_and_stays_the_worst(monkeypatch):
    exact, calls = verify.weighted_grad, []

    def spoiled(model, batch, weights):  # all NaN in trial 0 of each kind only
        calls.append(model.kind)
        grad = exact(model, batch, weights)
        return np.full_like(grad, np.nan) if len(calls) % 2 else grad

    monkeypatch.setattr(verify, "weighted_grad", spoiled)
    report = verify.gradcheck_suite(2, 0)
    assert calls == [kind for kind in ModelKind for _ in range(2)]
    assert report["failures"] == [f"{kind.value} trial 0: rel err nan" for kind in ModelKind]
    assert not report["passed"]
    assert all(np.isnan(worst) for worst in report["max_rel_err"].values())


def _recorded(monkeypatch, name, spoil=None, at=0):
    """Patch ``verify.<name>`` to record the arguments of every call; the
    ``at``-th call (from 1) goes to ``spoil`` instead.  Returns the record."""
    exact, calls = getattr(verify, name), []

    def patched(*args):
        calls.append(args)
        return spoil(*args) if len(calls) == at else exact(*args)

    monkeypatch.setattr(verify, name, patched)
    return calls


def _recorded_evaluations(monkeypatch, spoil=None, at=0):
    """Patch ``verify._trial_losses`` so that every loss evaluator it builds
    records a copy of each theta it is called with, in one list; the
    ``at``-th evaluation (from 1) returns ``spoil(losses)``.  Returns
    (each built context's model and its theta's bytes at the build, the
    recorded thetas)."""
    build, contexts, thetas = verify._trial_losses, [], []

    def patched(model, batch):
        contexts.append((model, model.theta.tobytes()))
        losses_at = build(model, batch)

        def evaluate(theta):
            thetas.append(theta.copy())
            losses = losses_at(theta)
            return spoil(losses) if len(thetas) == at else losses

        return evaluate

    monkeypatch.setattr(verify, "_trial_losses", patched)
    return contexts, thetas


def test_a_non_finite_loss_at_a_perturbed_theta_raises(monkeypatch):
    def spoil(losses):
        losses[-1] = np.inf
        return losses

    _, calls = _recorded_evaluations(monkeypatch, spoil, at=3)
    with pytest.raises(ValueError, match="non-finite loss values at indices"):
        verify.gradcheck_suite(1, 0)
    assert len(calls) == 3


def test_a_non_finite_theta_raises(monkeypatch):
    def spoil(objective, theta):  # a finite theta whose first coordinate + h overflows
        return models.finite_diff_grad(objective, np.full(theta.size, 1.7e308), 1e308)

    _recorded(monkeypatch, "finite_diff_grad", spoil, at=1)
    _, calls = _recorded_evaluations(monkeypatch)
    with pytest.raises(ValueError, match="theta contains non-finite entries"):
        verify.gradcheck_suite(1, 0)
    assert calls == []


def test_the_traced_bindings_count_the_oracle_calls(monkeypatch):
    # the benchmark traces the oracle by patching these module attributes:
    # one finite_diff_grad per kind and trial, two forward passes per coordinate
    grads = _recorded(monkeypatch, "finite_diff_grad")
    _, thetas = _recorded_evaluations(monkeypatch)
    assert verify.gradcheck_suite(2, 5)["passed"]
    assert len(grads) == 2 * len(ModelKind)
    assert len(thetas) == sum(2 * theta.size for _, theta in grads)


def test_each_trial_builds_its_context_once(monkeypatch):
    # the batch's fit, the label index and the (W, b) views: once per kind and
    # trial for the oracle, besides the one forward pass of weighted_grad
    counts = dict.fromkeys(("_check_batch", "_label_index", "_unpack_mlp"), 0)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(models, name, counting(name, getattr(models, name)))
    contexts, thetas = _recorded_evaluations(monkeypatch)
    trials = 3
    assert verify.gradcheck_suite(trials, 7)["passed"]
    assert [model.kind for model, _ in contexts] == [k for k in ModelKind for _ in range(trials)]
    classifiers = (len(ModelKind) - 1) * trials
    assert counts == {"_check_batch": 2 * len(contexts), "_label_index": 2 * classifiers,
                      "_unpack_mlp": 2 * classifiers}
    assert len(thetas) > 2 * len(contexts)


def test_no_trial_theta_changes(monkeypatch):
    # every evaluation sees the trial's theta moved at one coordinate by +-h, and
    # the model's theta keeps its bytes
    contexts, thetas = _recorded_evaluations(monkeypatch)
    grads = _recorded(monkeypatch, "finite_diff_grad")
    assert verify.gradcheck_suite(2, 11)["passed"]
    before = [built for _, built in contexts]
    assert [model.theta.tobytes() for model, _ in contexts] == before
    assert [theta.tobytes() for _, theta in grads] == before
    start = 0
    for model, _ in contexts:
        theta = model.theta
        for j in range(theta.size):
            for sign, seen in zip((1.0, -1.0), thetas[start : start + 2]):
                moved = theta.copy()
                moved[j] = theta[j] + sign * 1e-5
                assert seen.tobytes() == moved.tobytes()
            start += 2
    assert start == len(thetas)


@pytest.mark.parametrize("suite, kwargs, name", [
    (verify.dro_suite, {"grid_points": 1}, "grid_points"),
    (verify.dro_suite, {"n_max": 1}, "n_max"),
    (verify.dro_suite, {"rho_max": -1.0}, "rho_max"),
    (verify.dro_suite, {"rho_max": float("nan")}, "rho_max"),
    (verify.dro_suite, {"rho_max": float("inf")}, "rho_max"),
    (verify.dro_suite, {"trials": -3}, "trials"),
    (verify.dro_suite, {"trials": 0}, "trials"),
    (verify.gradcheck_suite, {"trials": -5}, "trials"),
    (verify.gradcheck_suite, {"trials": 0}, "trials"),
])
def test_suite_refuses_an_argument_it_cannot_honour_before_drawing(monkeypatch, suite, kwargs,
                                                                   name):
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=rf"^{name} must lie in \["):
        suite(**kwargs)
    assert draws == []


def test_suite_arguments_at_their_lower_bounds_run():
    report = verify.dro_suite(trials=1, n_max=2, rho_max=0.0, grid_points=2)
    assert report["trials"] == 1 and report["grid_checked"] == 1
    assert verify.gradcheck_suite(trials=1)["trials"] == 1
