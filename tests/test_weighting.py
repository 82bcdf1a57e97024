import math

import numpy as np
import pytest

from reweightopt.weighting import (
    Divergence,
    WeightingRule,
    batch_weights,
    saturation_fraction,
    weighted_objective,
)

TAU_GRID = [1.0, 3.0, 5.0, 7.0, 9.0]


# one sample's weight under each rule, through the vector entry point
def weight_kl(u, tau):
    return float(batch_weights([u], WeightingRule(Divergence.KL, tau))[0])


def weight_chi2(u, tau):
    return float(batch_weights([u], WeightingRule(Divergence.CHI2, tau))[0])


def weight_revkl(u, tau):
    return float(batch_weights([u], WeightingRule(Divergence.REVERSE_KL, tau))[0])


class TestScalarWeights:
    def test_kl_examples(self):
        assert weight_kl(0.0, 1.0) == 1.0
        assert weight_kl(10.0, 1.0) == math.exp(0.5)
        assert weight_kl(-2.0, 1.0) == 1.0  # lower clamp at 0
        assert weight_kl(3.0, 9.0) == pytest.approx(math.exp(0.3), abs=1e-15)

    def test_chi2_examples(self):
        assert weight_chi2(0.0, 1.0) == 1.0
        assert weight_chi2(5.0, 3.0) == 6.0
        assert weight_chi2(2.0, 3.0) == 5.0

    def test_revkl_examples(self):
        assert weight_revkl(0.0, 1.0) == 1.0
        assert weight_revkl(1.0, 1.0) == 2.0
        assert weight_revkl(3.0, 9.0) == pytest.approx(10.0 / 7.0, abs=1e-15)

    @pytest.mark.parametrize("fn", [weight_kl, weight_chi2, weight_revkl])
    def test_nonfinite_rejected(self, fn):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                fn(bad, 1.0)

    @pytest.mark.parametrize("fn", [weight_kl, weight_chi2, weight_revkl])
    def test_bad_tau_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(1.0, 0.0)


class TestSaturationAndBounds:
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_kl_saturation_exact(self, tau):
        rng = np.random.default_rng(17)
        cap = math.exp(tau / (tau + 1.0))
        for u in tau + rng.uniform(0.0, 100.0, size=200):
            assert weight_kl(float(u), tau) == cap
        assert weight_kl(tau, tau) == cap

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_variant_saturation_exact(self, tau):
        rng = np.random.default_rng(18)
        revkl_cap = weight_revkl(tau, tau)
        assert revkl_cap <= tau + 1.0
        for u in tau + rng.uniform(0.0, 50.0, size=50):
            assert weight_chi2(float(u), tau) == 2.0 * tau
            assert weight_revkl(float(u), tau) == revkl_cap

    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_bounds_randomized(self, tau):
        rng = np.random.default_rng(19)
        u = rng.uniform(-10.0, 3.0 * tau, size=500)
        kl = batch_weights(u, WeightingRule(Divergence.KL, tau))
        assert np.all(kl >= 1.0) and np.all(kl <= math.exp(tau / (tau + 1.0)))
        assert np.all(kl < math.e)
        rk = batch_weights(u, WeightingRule(Divergence.REVERSE_KL, tau))
        assert np.all(rk >= 1.0) and np.all(rk <= tau + 1.0)
        c2 = batch_weights(u, WeightingRule(Divergence.CHI2, tau))
        assert np.all(c2 >= tau) and np.all(c2 <= 2.0 * tau)

    @pytest.mark.parametrize("tau", TAU_GRID)
    @pytest.mark.parametrize("fn", [weight_kl, weight_chi2, weight_revkl])
    def test_monotone_nondecreasing(self, fn, tau):
        rng = np.random.default_rng(20)
        u = np.sort(rng.uniform(-5.0, 3.0 * tau, size=300))
        w = np.array([fn(float(v), tau) for v in u])
        assert np.all(np.diff(w) >= 0.0)

    @pytest.mark.parametrize("fn", [weight_kl, weight_chi2, weight_revkl])
    def test_strictly_increasing_inside_clip(self, fn):
        tau = 5.0
        rng = np.random.default_rng(21)
        u = np.sort(rng.uniform(1e-6, tau, size=100))
        w = np.array([fn(float(v), tau) for v in u])
        assert np.all(np.diff(w) > 0.0)

    def test_revkl_dominates_kl(self):
        # (1-x)^-1 >= e^x on [0, 1), so the inverse-gap rule upweights harder
        rng = np.random.default_rng(22)
        for tau in TAU_GRID:
            u = rng.uniform(1e-9, tau, size=200)
            for v in u:
                assert weight_revkl(float(v), tau) >= weight_kl(float(v), tau)


class TestBatchWeights:
    def test_examples(self):
        w = batch_weights([0.0, 1.0, 10.0], WeightingRule(Divergence.KL, 1.0))
        assert np.array_equal(w, [1.0, math.exp(0.5), math.exp(0.5)])
        w = batch_weights([0.3, 0.7], WeightingRule(Divergence.NONE))
        assert np.array_equal(w, [1.0, 1.0])
        w = batch_weights([0.0, 1.0], WeightingRule(Divergence.REVERSE_KL, 1.0))
        assert np.array_equal(w, [1.0, 2.0])

    def test_propagates_input_errors(self):
        with pytest.raises(ValueError):
            batch_weights([0.1, math.nan], WeightingRule(Divergence.KL, 1.0))
        with pytest.raises(ValueError):
            batch_weights([], WeightingRule(Divergence.NONE))

    def test_gamma_is_tied_to_tau(self):
        assert WeightingRule(Divergence.KL, 3.0).gamma == 0.25
        assert WeightingRule(Divergence.KL, 1.0).gamma == 0.5
        with pytest.raises(TypeError):
            WeightingRule(Divergence.KL, 1.0, gamma_override=0.2)


class TestWeightedObjective:
    def test_examples(self):
        assert weighted_objective([0.0, 1.0], [1.0, math.exp(0.5)]) == pytest.approx(
            math.exp(0.5) / 2.0, abs=1e-15
        )
        assert weighted_objective([2.0, 2.0, 2.0], [1.5, 1.5, 1.5]) == 3.0

    def test_erm_reduction_bitwise(self):
        rng = np.random.default_rng(24)
        losses = rng.uniform(0.0, 4.0, size=33)
        ones = batch_weights(losses, WeightingRule(Divergence.NONE))
        assert weighted_objective(losses, ones) == float(np.mean(losses))

    def test_overflowing_sum_takes_the_scaled_mean(self):
        # finite losses whose sum overflows: the mean of the scaled losses, quietly
        losses = np.full(4, 1e308)
        with np.errstate(all="raise"):
            assert weighted_objective(losses, [2.0, 1.0, 1.0, 0.0]) == 1e308

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_objective([1.0, 2.0], [1.0])


def test_rule_validation():
    with pytest.raises(ValueError):
        WeightingRule(Divergence.KL, 0.0)
    with pytest.raises(ValueError):
        WeightingRule(Divergence.KL, -1.0)
    with pytest.raises(ValueError):
        WeightingRule("not-a-divergence", 1.0)


def test_saturation_fraction():
    rule = WeightingRule(Divergence.KL, 2.0)
    assert saturation_fraction([0.0, 1.0, 2.0, 3.0], rule) == 0.5
    assert saturation_fraction([0.0, 1.0], WeightingRule(Divergence.NONE)) == 0.0
