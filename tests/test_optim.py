import math
import warnings

import numpy as np
import pytest

from reweightopt.models import Batch, ModelKind, per_sample_loss, random_state, weighted_grad, zero_state
from reweightopt.optim import (
    BaselineState,
    Schedule,
    Tilt,
    TrainConfig,
    TrainingDivergenceError,
    adam_step,
    init_state,
    lr_at,
    ma_exp_step,
    rgd_step,
    sgd_step,
    term_objective,
    term_step,
    term_weights,
)
from reweightopt.models import ModelState, finite_diff_grad
from reweightopt.weighting import Divergence, WeightingRule, batch_weights, weighted_objective

KL1 = WeightingRule(Divergence.KL, 1.0)
NONE = WeightingRule(Divergence.NONE)


class TestSchedules:
    def test_values(self):
        assert lr_at(Schedule.INV_SQRT_STEP, 1.0, 4, 100) == 0.5
        assert lr_at(Schedule.INV_SQRT_HORIZON, 2.0, 17, 100) == 0.2
        assert lr_at(Schedule.CONSTANT, 4.0, 1, 10) == 4.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(Schedule.CONSTANT, 1.0, 0, 10)
        with pytest.raises(ValueError):
            lr_at(Schedule.CONSTANT, 1.0, 11, 10)


class TestBaseSteps:
    def test_sgd_examples(self):
        state = init_state(zero_state(ModelKind.LINEAR, 1).with_theta([1.0]))
        assert sgd_step(state, [1.0], 0.5).model.theta[0] == 0.5
        assert sgd_step(state, [0.0], 0.5).model.theta[0] == 1.0
        state0 = init_state(zero_state(ModelKind.LINEAR, 1))
        assert sgd_step(state0, [-2.0], 4.0).model.theta[0] == 8.0

    def test_sgd_projection(self):
        state = init_state(zero_state(ModelKind.LINEAR, 2))
        new = sgd_step(state, [-5.0, 5.0], 1.0, box=(-1.0, 1.0))
        assert np.array_equal(new.model.theta, [1.0, -1.0])

    def test_adam_first_step(self):
        state = init_state(zero_state(ModelKind.LINEAR, 1), "adam")
        new = adam_step(state, [1.0], lr=0.1)
        # bias-corrected m_hat = 1, v_hat = 1 -> update ~ lr
        assert new.model.theta[0] == pytest.approx(-0.1, abs=1e-8)
        assert new.t == 1

    def test_adam_zero_grad_never_moves(self):
        state = init_state(zero_state(ModelKind.LINEAR, 3), "adam")
        for _ in range(5):
            state = adam_step(state, np.zeros(3), lr=0.5)
        assert np.array_equal(state.model.theta, np.zeros(3))

    def test_adam_monotone_for_constant_positive_grad(self):
        state = init_state(zero_state(ModelKind.LINEAR, 1), "adam")
        prev = 0.0
        for _ in range(3):
            state = adam_step(state, [1.0], lr=0.1)
            assert state.model.theta[0] < prev
            prev = state.model.theta[0]

    def test_adam_requires_moments(self):
        state = init_state(zero_state(ModelKind.LINEAR, 1), "sgd")
        with pytest.raises(ValueError):
            adam_step(state, [1.0], 0.1)

    def test_nonfinite_gradient_rejected(self):
        state = init_state(zero_state(ModelKind.LINEAR, 1))
        with pytest.raises(TrainingDivergenceError):
            sgd_step(state, [math.nan], 0.1)

    @pytest.mark.parametrize("gradient", [math.nan, math.inf])
    def test_adam_nonfinite_gradient_rejected_quietly(self, gradient):
        state = init_state(zero_state(ModelKind.LINEAR, 1), "adam")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergenceError) as err:
                adam_step(state, [gradient], 0.1)
        assert err.value.step == 1

    def test_overflowing_update_diverges_at_step_1(self):
        # finite theta and gradient, but theta - lr * step leaves the floats
        big = ModelState(ModelKind.LINEAR, [1e308], 1)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergenceError) as err:
            sgd_step(init_state(big), [-2.0], 1e308)
        assert err.value.step == 1 and "update" in str(err.value)
        with pytest.raises(TrainingDivergenceError) as err:
            adam_step(init_state(big, "adam"), [-2.0], 1e308)
        assert err.value.step == 1 and "update" in str(err.value)


class TestRgdStep:
    def test_hand_evaluated_single_sample(self):
        # theta=0, x=e1, y=1: loss 1, weight e^0.5, grad -2 e1, lr 1
        config = TrainConfig(optimizer="sgd", rule=KL1, lr_base=1.0, steps=1, batch_size=1)
        state = init_state(zero_state(ModelKind.LINEAR, 3))
        batch = Batch([[1.0, 0.0, 0.0]], [1.0])
        new, info = rgd_step(state, batch, KL1, config)
        assert new.model.theta[0] == pytest.approx(2.0 * math.exp(0.5), abs=1e-12)
        assert np.array_equal(new.model.theta[1:], [0.0, 0.0])
        assert info.weights[0] == math.exp(0.5)

    def test_projection_box(self):
        config = TrainConfig(
            optimizer="sgd", rule=KL1, lr_base=1.0, steps=1, batch_size=1, box=(-1.0, 1.0)
        )
        state = init_state(zero_state(ModelKind.LINEAR, 2))
        new, _ = rgd_step(state, Batch([[1.0, 0.0]], [5.0]), KL1, config)
        assert np.all(new.model.theta >= -1.0) and np.all(new.model.theta <= 1.0)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_erm_reduction_bitwise(self, optimizer):
        rng = np.random.default_rng(11)
        model = random_state(ModelKind.SOFTMAX, 4, 3, seed=5, scale=0.3)
        config = TrainConfig(
            optimizer=optimizer, rule=NONE, lr_base=0.05, steps=20, batch_size=8
        )
        reweighted = init_state(model, optimizer)
        plain = init_state(model, optimizer)
        for step in range(20):
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            batch = Batch(x, y)
            reweighted, _ = rgd_step(reweighted, batch, NONE, config)
            grad = weighted_grad(plain.model, batch, np.ones(8))
            lr = config.lr_base
            if optimizer == "adam":
                plain = adam_step(plain, grad, lr, config.beta1, config.beta2, config.eps)
            else:
                plain = sgd_step(plain, grad, lr)
            assert np.array_equal(reweighted.model.theta, plain.model.theta)

    def test_pseudo_gradient_identity(self):
        rng = np.random.default_rng(12)
        model = random_state(ModelKind.MLP, 3, 2, (4,), seed=2)
        config = TrainConfig(optimizer="sgd", rule=KL1, lr_base=0.1, steps=10, batch_size=6)
        state = init_state(model)
        for _ in range(10):
            batch = Batch(rng.standard_normal((6, 3)), rng.integers(0, 2, 6))
            new, info = rgd_step(state, batch, KL1, config)
            # recompute the direction sample by sample
            recomputed = np.zeros_like(state.model.theta)
            for i in range(batch.size):
                sub = Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1])
                recomputed += info.weights[i] * weighted_grad(state.model, sub, [1.0])
            recomputed /= batch.size
            assert np.allclose(info.direction, recomputed, atol=1e-12)
            assert np.allclose(
                state.model.theta - config.lr_base * info.direction,
                new.model.theta,
                atol=1e-12,
            )
            state = new

    def test_divergence_error_carries_step(self):
        config = TrainConfig(optimizer="sgd", rule=NONE, lr_base=1e300, steps=5, batch_size=1)
        state = init_state(zero_state(ModelKind.LINEAR, 1))
        batch = Batch([[1.0]], [1.0])
        with pytest.raises(TrainingDivergenceError) as err:
            for _ in range(5):
                state, _ = rgd_step(state, batch, NONE, config)
        assert err.value.step >= 1

    def test_divergence_message_lists_plain_ints(self):
        config = TrainConfig(optimizer="sgd", rule=NONE, steps=1, batch_size=2)
        state = init_state(ModelState(ModelKind.LINEAR, [1e200], 1))
        batch = Batch([[1.0], [1.0]], [0.0, 0.0])  # (1e200)^2 overflows
        with pytest.raises(TrainingDivergenceError) as err:
            rgd_step(state, batch, NONE, config)
        assert str(err.value) == "training diverged at step 1: non-finite loss (samples [0, 1])"
        assert [type(i) for i in err.value.sample_indices] == [int, int]

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_non_finite_direction_raises_at_its_step(self, optimizer):
        # the loss (0 - 1)^2 = 1 is finite, the gradient 2 * 1e308 * -1 is not
        config = TrainConfig(optimizer=optimizer, rule=KL1, lr_base=0.1, steps=5, batch_size=1)
        state = init_state(zero_state(ModelKind.LINEAR, 1), optimizer)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergenceError) as err:
            rgd_step(state, Batch([[1e308]], [1.0]), KL1, config)
        assert err.value.step == 1

    def test_schedule_used_by_step_counter(self):
        config = TrainConfig(
            optimizer="sgd",
            rule=NONE,
            lr_base=1.0,
            schedule=Schedule.INV_SQRT_STEP,
            steps=4,
            batch_size=1,
        )
        state = init_state(zero_state(ModelKind.LINEAR, 1))
        batch = Batch([[1.0]], [1.0])  # grad = 2*(theta-1)
        thetas = [0.0]
        for _ in range(4):
            state, _ = rgd_step(state, batch, NONE, config)
            thetas.append(float(state.model.theta[0]))
        # first step lr=1: theta = 0 - 1*(-2) = 2; second lr=1/sqrt(2)
        assert thetas[1] == 2.0
        assert thetas[2] == pytest.approx(2.0 - (1 / math.sqrt(2)) * 2.0, abs=1e-12)


def term_direction(model, batch, t_tilt):
    """Direction of one term_step: the gradient of the tilted objective."""
    config = TrainConfig(optimizer="sgd", rule=NONE, steps=1)
    return term_step(init_state(model), batch, t_tilt, config)[1].direction


class TestTerm:
    def test_constant_losses(self):
        assert term_objective([3.0, 3.0, 3.0], 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_two_point_value(self):
        # log((1+e)/2), checked against 30-digit arithmetic
        assert term_objective([0.0, 1.0], 1.0) == pytest.approx(
            0.62011450695827752, abs=1e-14
        )

    def test_small_tilt_approaches_mean(self):
        assert term_objective([0.0, 1.0], 1e-3) == pytest.approx(0.5, abs=1e-3)

    def test_weights_sum_to_one_and_saturate(self):
        w = term_weights([0.0, 10.0], 5.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[1] > 0.99

    def test_equal_losses_give_mean_gradient(self):
        model = zero_state(ModelKind.SOFTMAX, 3, 2)
        batch = Batch(np.eye(3)[:2], [0, 1])  # uniform logits -> equal losses
        g_term = term_direction(model, batch, 2.0)
        g_mean = weighted_grad(model, batch, np.ones(2))
        assert np.allclose(g_term, g_mean, atol=1e-12)

    def test_dominant_loss_owns_the_gradient(self):
        # losses [0, 100] at t=5: the softmax weight saturates on sample 1
        model = zero_state(ModelKind.LINEAR, 2)
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [0.0, 10.0])  # losses 0 and 100
        w = term_weights(per_sample_loss(model, batch), 5.0)
        assert w[1] > 0.99
        g = term_direction(model, batch, 5.0)
        g_sample = weighted_grad(model, Batch([[0.0, 1.0]], [10.0]), [1.0])
        assert np.allclose(g, g_sample, rtol=1e-6)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        model = random_state(ModelKind.SOFTMAX, 3, 3, seed=4, scale=0.5)
        batch = Batch(rng.standard_normal((5, 3)), rng.integers(0, 3, 5))
        analytic = term_direction(model, batch, 1.5)

        def objective(theta):
            return term_objective(per_sample_loss(model.with_theta(theta), batch), 1.5)

        numeric = finite_diff_grad(objective, model.theta, 1e-5)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5

    def test_term_step_runs(self):
        config = TrainConfig(optimizer="sgd", rule=NONE, lr_base=0.1, steps=3, batch_size=2)
        state = init_state(zero_state(ModelKind.SOFTMAX, 2, 2))
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        state, info = term_step(state, batch, 1.0, config)
        assert info.weights.sum() == pytest.approx(2.0, abs=1e-12)  # B * softmax


class TestWeighters:
    """term_step and ma_exp_step are rgd_step with a Tilt / BaselineState."""

    def _case(self):
        config = TrainConfig(optimizer="adam", lr_base=0.05, steps=3, batch_size=4)
        model = random_state(ModelKind.MLP, 3, 3, (4,), seed=2)
        rng = np.random.default_rng(3)
        batch = Batch(rng.standard_normal((4, 3)), rng.integers(0, 3, 4))
        return config, init_state(model, "adam"), batch

    def test_tilt_steps_like_term_step(self):
        config, state, batch = self._case()
        new, info = rgd_step(state, batch, Tilt(0.7), config)
        ref, ref_info = term_step(state, batch, 0.7, config)
        assert np.array_equal(new.model.theta, ref.model.theta)
        assert np.array_equal(info.weights, ref_info.weights)
        assert info.weighter == Tilt(0.7)

    def test_baseline_weighter_carries_z(self):
        config, state, batch = self._case()
        baseline = BaselineState(lam=0.5, beta_ma=0.3)
        new, info = rgd_step(state, batch, baseline, config)
        ref, ref_baseline, ref_info = ma_exp_step(state, baseline, batch, config)
        assert np.array_equal(new.model.theta, ref.model.theta)
        assert info.weighter == ref_baseline and ref_baseline.z is not None
        assert ref_info.weighter == ref_baseline

    def test_rule_is_its_own_next_weighter(self):
        config, state, batch = self._case()
        _, info = rgd_step(state, batch, KL1, config)
        assert info.weighter is KL1

    def test_reports(self):
        losses = np.array([0.5, 2.0, 1.0])
        objective, w, sat = KL1.report(losses)
        assert np.array_equal(w, batch_weights(losses, KL1))
        assert (objective, sat) == (weighted_objective(losses, w), 2 / 3)  # tau = 1
        objective, w, sat = Tilt(2.0).report(losses)
        assert objective == term_objective(losses, 2.0) and sat == 0.0
        assert np.array_equal(w, term_weights(losses, 2.0))
        # before any step the ma weights use the split's own mean
        objective, w, sat = BaselineState(lam=1.0).report(losses)
        assert objective == float(np.mean(losses)) and sat == 0.0
        assert np.array_equal(w, np.exp(losses) / float(np.mean(np.exp(losses))))
        objective, w, _ = BaselineState(lam=1.0, z=4.0).report(losses)
        assert np.array_equal(w, np.exp(losses) / 4.0)

    @pytest.mark.parametrize("t_tilt", [0.0, -1.0])
    def test_tilt_rejects_nonpositive(self, t_tilt):
        with pytest.raises(ValueError, match="t_tilt"):
            Tilt(t_tilt)


class TestMovingAverage:
    def _setup(self):
        config = TrainConfig(optimizer="sgd", rule=NONE, lr_base=0.01, steps=10, batch_size=2)
        state = init_state(zero_state(ModelKind.LINEAR, 2))
        return config, state

    def test_first_batch_weights_average_one(self):
        config, state = self._setup()
        baseline = BaselineState(lam=1.0, beta_ma=0.5)
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [0.3, 2.0])
        _, new_baseline, info = ma_exp_step(state, baseline, batch, config)
        assert float(np.mean(info.weights)) == pytest.approx(1.0, abs=1e-12)
        assert new_baseline.z is not None and new_baseline.z > 0

    def test_constant_losses_steady_state(self):
        config, state = self._setup()
        baseline = BaselineState(lam=1.0, beta_ma=0.5)
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        lr0 = config
        for _ in range(30):
            # keep the model pinned so losses stay constant
            _, baseline, info = ma_exp_step(state, baseline, batch, config)
        assert np.allclose(info.weights, 1.0, atol=1e-9)

    def test_outlier_amplification_ratio(self):
        losses = np.array([0.0, 10.0])
        e = np.exp(1.0 * losses)
        ratio = e[1] / e[0]
        assert ratio == pytest.approx(math.exp(10.0), rel=1e-12)
        config, state = self._setup()
        baseline = BaselineState(lam=1.0, beta_ma=0.5)
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [0.0, 1e3])  # loss 0 and 1e6
        with pytest.raises(TrainingDivergenceError):
            # exp(1e6) overflows; the unclipped comparator must say so loudly
            ma_exp_step(state, baseline, batch, config)

    def test_baseline_state_validation(self):
        with pytest.raises(ValueError):
            BaselineState(lam=0.0, beta_ma=0.5)
        with pytest.raises(ValueError):
            BaselineState(lam=1.0, beta_ma=1.0)
        with pytest.raises(ValueError):
            BaselineState(lam=1.0, beta_ma=0.5, z=-1.0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(lr_base=0.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(box=(1.0, -1.0))


def test_optimizer_state_validation():
    model = zero_state(ModelKind.LINEAR, 3)
    with pytest.raises(ValueError):
        init_state(model).__class__(model, -1)
    with pytest.raises(ValueError):
        init_state(model).__class__(model, 0, np.zeros(2), np.zeros(3))
