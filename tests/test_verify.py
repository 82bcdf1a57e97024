"""The one DRO certificate behind dro_suite and check_instances."""

from dataclasses import replace

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
