import math
import tracemalloc

import numpy as np
import pytest

from reweightopt.dro import (
    DiscreteDistribution,
    DroInstance,
    chi2_dro_value,
    divergence_value,
    kl_dro_dual,
    kl_dro_primal,
    optimal_weight_form_check,
    random_instance,
    revkl_dro_value,
    simplex_bruteforce,
    uniform,
)
from reweightopt.verify import GRID_TOL
from reweightopt.weighting import Divergence

SOLVERS = {
    Divergence.KL: kl_dro_primal,
    Divergence.CHI2: chi2_dro_value,
    Divergence.REVERSE_KL: revkl_dro_value,
}


def make(losses, probs, rho, div):
    return DroInstance(np.asarray(losses, float), DiscreteDistribution(probs), rho, div)


class TestTypes:
    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0.5, 0.6])
        with pytest.raises(ValueError):
            DiscreteDistribution([1.5, -0.5])
        with pytest.raises(ValueError):
            DiscreteDistribution([])

    def test_instance_validation(self):
        base = uniform(2)
        with pytest.raises(ValueError):
            DroInstance([1.0, 2.0, 3.0], base, 0.1, Divergence.KL)
        with pytest.raises(ValueError):
            DroInstance([1.0, 2.0], base, -0.1, Divergence.KL)
        with pytest.raises(ValueError):
            DroInstance([1.0, 2.0], base, 0.1, Divergence.NONE)
        with pytest.raises(ValueError):
            DroInstance([1.0, math.inf], base, 0.1, Divergence.KL)

    def test_instance_rejects_an_overflowing_loss_range(self):
        # finite losses whose range overflows left every solver dividing by inf
        with pytest.raises(ValueError, match="their range"):
            DroInstance([-1e308, 1e308], uniform(2), 0.1, Divergence.KL)


class TestDivergenceValue:
    def test_definitions_on_known_pairs(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.75, 0.25])
        assert divergence_value(q, p, Divergence.KL) == pytest.approx(
            0.75 * math.log(1.5) + 0.25 * math.log(0.5), abs=1e-15
        )
        assert divergence_value(q, p, Divergence.CHI2) == pytest.approx(
            0.25**2 / 0.5 * 2, abs=1e-15
        )
        assert divergence_value(q, p, Divergence.REVERSE_KL) == pytest.approx(
            0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25), abs=1e-15
        )

    def test_zero_at_equal(self):
        p = np.array([0.3, 0.7])
        for div in SOLVERS:
            assert divergence_value(p, p, div) == pytest.approx(0.0, abs=1e-15)

    def test_infinite_off_support(self):
        assert divergence_value([0.5, 0.5], [1.0, 0.0], Divergence.KL) == math.inf


class TestKlPrimal:
    def test_zero_radius(self):
        inst = make([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], 0.0, Divergence.KL)
        sol = kl_dro_primal(inst)
        assert sol.value == pytest.approx(1.8, abs=1e-15)
        assert np.array_equal(sol.worst_dist.probs, inst.base.probs)

    def test_point_mass_boundary(self):
        # KL(point mass || uniform_2) = ln 2, so any rho >= ln 2 tops out
        inst = make([0.0, 1.0], [0.5, 0.5], math.log(2.0), Divergence.KL)
        sol = kl_dro_primal(inst)
        assert sol.boundary
        assert sol.value == 1.0
        assert np.array_equal(sol.worst_dist.probs, [0.0, 1.0])

    def test_golden_small_radius(self):
        inst = make([0.0, 1.0], [0.5, 0.5], 0.05, Divergence.KL)
        sol = kl_dro_primal(inst)
        # golden value frozen from the bisection, certified below against
        # the dual and the grid oracle
        assert sol.value == pytest.approx(0.6567815983649669, abs=1e-9)
        assert 0.5 < sol.value < 1.0
        assert abs(kl_dro_dual(inst) - sol.value) < 1e-10
        assert abs(simplex_bruteforce(inst, 2001) - sol.value) < 2e-3

    def test_constraint_met_exactly(self):
        inst = make([0.3, 2.0, 4.1], [0.4, 0.4, 0.2], 0.21, Divergence.KL)
        sol = kl_dro_primal(inst)
        kl = divergence_value(sol.worst_dist.probs, inst.base.probs, Divergence.KL)
        assert abs(kl - inst.rho) < 1e-10

    def test_constant_losses(self):
        inst = make([2.0, 2.0], [0.5, 0.5], 0.4, Divergence.KL)
        assert kl_dro_primal(inst).value == 2.0
        assert kl_dro_dual(inst) == 2.0


class TestKlDual:
    def test_weak_duality_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_instance(rng, (2, 8), 5.0, 1.0)
            primal = kl_dro_primal(inst).value
            dual = kl_dro_dual(inst)
            assert dual >= primal - 1e-8

    def test_strong_duality_randomized(self):
        rng = np.random.default_rng(32)
        gaps = []
        for _ in range(60):
            inst = random_instance(rng, (2, 10), 5.0, 0.5)
            gaps.append(abs(kl_dro_primal(inst).value - kl_dro_dual(inst)))
        assert max(gaps) <= 1e-8

    def test_zero_radius_is_mean(self):
        inst = make([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], 0.0, Divergence.KL)
        assert kl_dro_dual(inst) == pytest.approx(1.8, abs=1e-12)


class TestBruteForce:
    def test_zero_radius(self):
        inst = make([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], 0.0, Divergence.KL)
        assert simplex_bruteforce(inst, 501) == pytest.approx(1.8, abs=1e-12)

    def test_huge_radius_reaches_max(self):
        inst = make([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], 50.0, Divergence.KL)
        assert simplex_bruteforce(inst, 501) == pytest.approx(3.0, abs=1e-2)

    def test_n_limit(self):
        inst = make([0.0] * 5, [0.2] * 5, 0.1, Divergence.KL)
        with pytest.raises(ValueError):
            simplex_bruteforce(inst, 101)

    def test_n4_supported(self):
        inst = make([0.0, 1.0, 2.0, 3.0], [0.25] * 4, 0.1, Divergence.KL)
        val = simplex_bruteforce(inst, 101)
        assert abs(val - kl_dro_primal(inst).value) < 0.05

    def test_n3_call_needs_no_lattice_in_memory(self):
        # a 2001-point lattice of 3 atoms has 2,001,001 rows, 48 MB as one float array
        inst = make([4.0, 1.0, 2.5], [0.2, 0.5, 0.3], 0.3, Divergence.KL)
        tracemalloc.start()
        try:
            simplex_bruteforce(inst, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_n4_call_bisects_the_lines_in_blocks(self):
        # a 2001-point lattice of 4 atoms has 2,003,001 lines: bisected all at
        # once, their (lines, 4) arrays peaked above 300 MB
        inst = make([0.0, 1.0, 2.0, 3.0], [0.25] * 4, 0.1, Divergence.KL)
        tracemalloc.start()
        try:
            simplex_bruteforce(inst, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("div", list(SOLVERS))
    def test_grid_tolerance_defect_is_grid_resolution(self, div):
        # the dro_suite trial seed that the benchmark's strict xfail replays:
        # at 2001 points the kl grid misses the exact value by 2.0e-3 > GRID_TOL,
        # at 20001 points by 2e-4
        kl_inst = random_instance(np.random.default_rng(3686510624), (2, 10), 5.0, 0.5)
        inst = DroInstance(kl_inst.losses, kl_inst.base, kl_inst.rho, div)
        assert inst.n == 2
        sol = SOLVERS[div](inst)
        brute = simplex_bruteforce(inst, 20001)
        assert max(abs(sol.value - brute), abs(sol.dual_value - brute)) <= GRID_TOL


@pytest.mark.parametrize("div", list(SOLVERS))
class TestVariantSolvers:
    def test_zero_radius(self, div):
        inst = make([0.5, 1.0, 3.0], [0.2, 0.3, 0.5], 0.0, div)
        sol = SOLVERS[div](inst)
        assert sol.value == pytest.approx(float(inst.base.probs @ inst.losses), abs=1e-14)

    def test_constant_losses(self, div):
        inst = make([2.0, 2.0, 2.0], [0.3, 0.3, 0.4], 0.7, div)
        assert SOLVERS[div](inst).value == 2.0

    def test_against_bruteforce_n3(self, div):
        rng = np.random.default_rng(33)
        for _ in range(25):
            inst = random_instance(rng, (2, 3), 5.0, 0.5, div)
            sol = SOLVERS[div](inst)
            brute = simplex_bruteforce(inst, 2001)
            assert abs(sol.value - brute) < 2e-3

    def test_sandwich(self, div):
        rng = np.random.default_rng(34)
        for _ in range(30):
            inst = random_instance(rng, (2, 9), 5.0, 2.0, div)
            sol = SOLVERS[div](inst)
            base_val = float(inst.base.probs @ inst.losses)
            assert base_val - 1e-10 <= sol.value <= inst.losses.max() + 1e-10

    def test_monotone_in_rho(self, div):
        losses = [0.0, 1.2, 2.7, 4.0]
        probs = [0.4, 0.3, 0.2, 0.1]
        prev = -math.inf
        for rho in np.linspace(0.0, 2.5, 26):
            sol = SOLVERS[div](make(losses, probs, float(rho), div))
            assert sol.value >= prev - 1e-10
            prev = sol.value

    def test_constraint_satisfied(self, div):
        rng = np.random.default_rng(35)
        for _ in range(30):
            inst = random_instance(rng, (2, 8), 5.0, 1.5, div)
            sol = SOLVERS[div](inst)
            d = divergence_value(sol.worst_dist.probs, inst.base.probs, div)
            assert d <= inst.rho + 1e-9


class TestBoundaries:
    def test_chi2_boundary_certificate(self):
        # argmax mass 0.5 -> chi2 cap (1-m)/m = 1
        inst = make([0.0, 1.0], [0.5, 0.5], 1.5, Divergence.CHI2)
        sol = chi2_dro_value(inst)
        assert sol.boundary and sol.value == 1.0

    def test_chi2_clamped_region_matches_bruteforce(self):
        # rho large enough that the affine family needs the positive-part clamp
        inst = make([0.0, 1.0, 5.0], [0.4, 0.4, 0.2], 1.8, Divergence.CHI2)
        sol = chi2_dro_value(inst)
        assert not sol.boundary
        assert sol.worst_dist.probs[0] == 0.0  # lowest-loss atom dropped
        assert abs(sol.value - simplex_bruteforce(inst, 2001)) < 2e-3

    def test_revkl_keeps_full_support(self):
        inst = make([0.0, 1.0, 5.0], [0.4, 0.4, 0.2], 3.0, Divergence.REVERSE_KL)
        sol = revkl_dro_value(inst)
        assert np.all(sol.worst_dist.probs > 0)

    def test_zero_mass_base_atoms_stay_empty(self):
        inst = make([9.0, 1.0, 2.0], [0.0, 0.5, 0.5], 0.3, Divergence.KL)
        sol = kl_dro_primal(inst)
        assert sol.worst_dist.probs[0] == 0.0
        assert sol.value <= 2.0


@pytest.mark.parametrize("div", [Divergence.KL, Divergence.CHI2, Divergence.REVERSE_KL])
def test_large_instance_is_feasible_and_tilted(div):
    # n = 1e5: the solvers and their duals must stay O(n) in memory; an n x n
    # piece search would need 80 GB here
    inst = random_instance(np.random.default_rng(7), (100_000, 100_000), 5.0, 0.5, div)
    inst = DroInstance(inst.losses, inst.base, 0.5, div)
    sol = SOLVERS[div](inst)
    assert divergence_value(sol.worst_dist.probs, inst.base.probs, div) <= 0.5 + 1e-9
    assert optimal_weight_form_check(inst, sol).passed
    assert abs(sol.value - sol.dual_value) <= 1e-8


class TestSerialization:
    def test_json_round_trip(self):
        inst = make([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], 0.25, Divergence.CHI2)
        from reweightopt.dro import instance_from_json, instance_to_json

        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.losses, inst.losses)
        assert np.array_equal(back.base.probs, inst.base.probs)
        assert back.rho == inst.rho and back.divergence == inst.divergence

    def test_unknown_key_rejected(self):
        from reweightopt.dro import instance_from_json

        with pytest.raises(ValueError):
            instance_from_json({"losses": [0.0], "probs": [1.0], "rho": 0.1,
                                "divergence": "kl", "extra": 1})


def test_log_domain_survives_large_losses():
    # losses near the double-exponent limit must not overflow the solvers
    inst = make([0.0, 350.0, 700.0], [0.4, 0.3, 0.3], 0.3, Divergence.KL)
    sol = kl_dro_primal(inst)
    dual = kl_dro_dual(inst)
    assert math.isfinite(sol.value) and 350.0 < sol.value <= 700.0
    assert abs(sol.value - dual) < 1e-6 * max(1.0, abs(sol.value))


class TestFormCheck:
    def test_kl_tilting_form(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            inst = random_instance(rng, (3, 8), 5.0, 0.5)
            sol = kl_dro_primal(inst)
            report = optimal_weight_form_check(inst, sol)
            assert report.passed, report
            if not sol.boundary:
                # the refit slope recovers 1/beta
                assert report.fitted_param == pytest.approx(sol.dual_param, rel=1e-6)

    def test_constant_losses_form(self):
        inst = make([2.0, 2.0], [0.4, 0.6], 0.3, Divergence.KL)
        report = optimal_weight_form_check(inst, kl_dro_primal(inst))
        assert report.passed

    def test_boundary_form(self):
        inst = make([0.0, 1.0], [0.5, 0.5], 2.0, Divergence.KL)
        report = optimal_weight_form_check(inst, kl_dro_primal(inst))
        assert report.passed

    def test_chi2_bruteforce_dist_is_affine_in_loss(self):
        inst = make([0.5, 1.5, 3.0], [0.4, 0.4, 0.2], 0.25, Divergence.CHI2)
        _, grid_dist = simplex_bruteforce(inst, 2001, return_dist=True)
        sol = chi2_dro_value(inst)
        from reweightopt.dro import DroSolution

        grid_sol = DroSolution(0.0, grid_dist, math.inf)
        report = optimal_weight_form_check(inst, grid_sol, tol=5e-3)
        assert report.passed, report
        report = optimal_weight_form_check(inst, sol)
        assert report.passed
        # the refit recovers the dual's eta
        assert report.fitted_param == pytest.approx(sol.dual_param, rel=1e-6)
