"""The one DRO certificate behind dro_suite and check_instances."""

import numpy as np

from reweightopt import verify
from reweightopt.dro import DiscreteDistribution, DroSolution, instance_to_json, random_instance
from reweightopt.weighting import Divergence

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
        return DroSolution(float(inst.losses.max()), DiscreteDistribution(q))

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
        return DroSolution(0.0, DiscreteDistribution(q / q.sum()))

    monkeypatch.setattr(verify, "revkl_dro_value", spread)
    report = verify.check_instances(_records())
    assert any(f.startswith("instance 2: reverse_kl form deviation") for f in report["failures"])
