import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from reweightopt import models
from reweightopt.models import (
    Batch,
    ModelKind,
    ModelState,
    backward_weighted,
    finite_diff_grad,
    forward_losses,
    logits,
    param_count,
    per_sample_loss,
    predict,
    random_state,
    weighted_grad,
    zero_state,
)
from reweightopt.weighting import WeightingRule, batch_weights, weighted_objective


def _random_case(kind, rng):
    d = int(rng.integers(2, 6))
    b = int(rng.integers(2, 6))
    x = rng.standard_normal((b, d))
    if kind is ModelKind.LINEAR:
        model = random_state(kind, d, seed=int(rng.integers(1 << 31)), scale=0.5)
        y = rng.standard_normal(b)
    else:
        c = int(rng.integers(2, 5))
        hidden = (int(rng.integers(3, 8)),) if kind is ModelKind.MLP else ()
        model = random_state(kind, d, c, hidden, seed=int(rng.integers(1 << 31)), scale=0.5)
        y = rng.integers(0, c, size=b)
    return model, Batch(x, y)


class TestPerSampleLoss:
    def test_linear_examples(self):
        model = zero_state(ModelKind.LINEAR, 3)
        batch = Batch(np.eye(3)[:1], [0.0])
        assert per_sample_loss(model, batch)[0] == 0.0
        batch = Batch(np.eye(3)[:1], [2.0])
        assert per_sample_loss(model, batch)[0] == 4.0

    def test_uniform_logits_cross_entropy(self):
        model = zero_state(ModelKind.SOFTMAX, 4, num_classes=10)
        batch = Batch(np.random.default_rng(0).standard_normal((5, 4)), np.arange(5))
        losses = per_sample_loss(model, batch)
        assert np.allclose(losses, math.log(10.0), atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for kind in ModelKind:
            for _ in range(20):
                model, batch = _random_case(kind, rng)
                assert np.all(per_sample_loss(model, batch) >= 0.0)

    def test_dimension_mismatch(self):
        model = zero_state(ModelKind.LINEAR, 3)
        with pytest.raises(ValueError):
            per_sample_loss(model, Batch(np.ones((2, 4)), [0.0, 1.0]))

    def test_label_out_of_range(self):
        model = zero_state(ModelKind.SOFTMAX, 2, num_classes=3)
        with pytest.raises(ValueError):
            per_sample_loss(model, Batch(np.ones((1, 2)), [3]))

    def test_large_logits_do_not_overflow(self):
        model = ModelState(ModelKind.SOFTMAX, np.array([500.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 2, 2)
        losses = per_sample_loss(model, Batch([[1.0, 0.0]], [1]))
        assert np.isfinite(losses).all() and losses[0] > 400.0


class TestWeightedGrad:
    def test_hand_evaluated_fixture(self):
        # per-sample grads g1=[1,0], g2=[0,2]; weights [1, e^0.5]
        model = zero_state(ModelKind.LINEAR, 2)
        batch = Batch([[1.0, 0.0], [0.0, 1.0]], [-0.5, -1.0])
        g = weighted_grad(model, batch, [1.0, math.exp(0.5)])
        assert np.allclose(g, [0.5, math.exp(0.5)], atol=1e-15)

    def test_all_ones_matches_mean_gradient_fd(self):
        rng = np.random.default_rng(2)
        model, batch = _random_case(ModelKind.LINEAR, rng)
        ones = np.ones(batch.size)
        analytic = weighted_grad(model, batch, ones)

        def objective(theta):
            return float(np.mean(per_sample_loss(model.with_theta(theta), batch)))

        numeric = finite_diff_grad(objective, model.theta, 1e-5)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-6

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_fd_of_frozen_weight_objective(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, batch = _random_case(kind, rng)
            losses = per_sample_loss(model, batch)
            weights = batch_weights(losses, WeightingRule("kl", 1.0))
            analytic = weighted_grad(model, batch, weights)

            def objective(theta):
                return weighted_objective(
                    per_sample_loss(model.with_theta(theta), batch), weights
                )

            numeric = finite_diff_grad(objective, model.theta, 1e-5)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-10)
            assert rel < 1e-5

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_linear_in_weights(self, kind):
        rng = np.random.default_rng(4)
        model, batch = _random_case(kind, rng)
        w1 = rng.uniform(0.5, 2.0, batch.size)
        w2 = rng.uniform(0.5, 2.0, batch.size)
        a, b = 0.3, 1.7
        combo = weighted_grad(model, batch, a * w1 + b * w2)
        parts = a * weighted_grad(model, batch, w1) + b * weighted_grad(model, batch, w2)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_single_sample_weight_isolates_gradient(self):
        rng = np.random.default_rng(5)
        model, batch = _random_case(ModelKind.SOFTMAX, rng)
        i = 1
        onehot = np.zeros(batch.size)
        onehot[i] = batch.size
        isolated = weighted_grad(model, batch, onehot)
        single = weighted_grad(
            model, Batch(batch.inputs[i : i + 1], batch.targets[i : i + 1]), [1.0]
        )
        assert np.allclose(isolated, single, atol=1e-12)

    def test_weight_length_mismatch(self):
        model = zero_state(ModelKind.LINEAR, 2)
        batch = Batch([[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            weighted_grad(model, batch, [1.0, 2.0])


class TestFiniteDiff:
    def test_quadratic_exact(self):
        grad = finite_diff_grad(lambda t: float(t @ t), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_zero(self):
        grad = finite_diff_grad(lambda t: 3.5, np.array([1.0, -1.0, 0.5]), 1e-5)
        assert np.array_equal(grad, np.zeros(3))

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, np.zeros(2), 0.0)

    def test_nonfinite_objective(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda t: math.inf, np.zeros(2), 1e-5)


class TestModelState:
    def test_param_counts(self):
        assert param_count(ModelKind.LINEAR, 7, 1, ()) == 7
        assert param_count(ModelKind.SOFTMAX, 4, 3, ()) == 15
        assert param_count(ModelKind.MLP, 4, 3, (5,)) == 4 * 5 + 5 + 5 * 3 + 3
        assert param_count(ModelKind.MLP, 4, 3, (5, 6)) == 25 + 5 * 6 + 6 + 6 * 3 + 3

    def test_theta_length_checked(self):
        with pytest.raises(ValueError):
            ModelState(ModelKind.LINEAR, np.zeros(3), 4)

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            ModelState(ModelKind.LINEAR, np.array([1.0, math.nan]), 2)

    def test_mlp_layer_limits(self):
        with pytest.raises(ValueError):
            zero_state(ModelKind.MLP, 3, 2, (4, 4, 4))

    @pytest.mark.parametrize("kind", [ModelKind.SOFTMAX, ModelKind.LINEAR])
    def test_hidden_widths_need_an_mlp(self, kind):
        # softmax is the mlp with no hidden layer: widths would silently make it an mlp
        n = param_count(ModelKind.MLP, 3, 2, (4,))
        with pytest.raises(ValueError, match="no hidden layers"):
            ModelState(kind, np.zeros(n), 3, 2, (4,))

    def test_theta_immutable(self):
        model = zero_state(ModelKind.LINEAR, 2)
        with pytest.raises(ValueError):
            model.theta[0] = 1.0

    def test_mlp_forward_deterministic(self):
        batch = Batch(np.random.default_rng(6).standard_normal((8, 3)), np.zeros(8, dtype=int))
        a = random_state(ModelKind.MLP, 3, 2, (4,), seed=9)
        b = random_state(ModelKind.MLP, 3, 2, (4,), seed=9)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(per_sample_loss(a, batch), per_sample_loss(b, batch))

    def test_two_hidden_layer_mlp_runs(self):
        model = random_state(ModelKind.MLP, 3, 2, (4, 5), seed=1)
        batch = Batch(np.random.default_rng(7).standard_normal((6, 3)), np.ones(6, dtype=int))
        losses = per_sample_loss(model, batch)
        grad = weighted_grad(model, batch, np.ones(6))
        assert losses.shape == (6,) and grad.shape == model.theta.shape

    def test_predict_shapes(self):
        lin = zero_state(ModelKind.LINEAR, 2)
        assert predict(lin, [[1.0, 2.0]]).shape == (1,)
        clf = zero_state(ModelKind.SOFTMAX, 2, 3)
        assert predict(clf, [[1.0, 2.0]])[0] == 0


def _softmax_reference(z, y, w):
    """delta = (softmax(z) - onehot(y)) * w / B, softmax from z - z.max(1)."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(z.shape[0]), y] -= 1.0
    return delta * (w / z.shape[0])[:, None]


class TestClassifierContext:
    """forward_losses carries exp(z - max z) in ctx for the backward pass."""

    def _case(self, kind, scale, seed):
        rng = np.random.default_rng(seed)
        hidden = (32,) if kind is ModelKind.MLP else ()
        model = random_state(kind, 20, 10, hidden, seed=seed, scale=scale)
        batch = Batch(rng.standard_normal((64, 20)), rng.integers(0, 10, 64))
        return model, batch, rng.uniform(0.5, 2.0, 64)

    @pytest.mark.parametrize("kind", [ModelKind.SOFTMAX, ModelKind.MLP])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_backward_twice_on_one_ctx(self, kind, scale):
        model, batch, w = self._case(kind, scale, 11)
        losses, ctx = forward_losses(model, batch)
        first = backward_weighted(model, batch, ctx, w)
        second = backward_weighted(model, batch, ctx, w)
        assert np.array_equal(first, second)
        again, _ = forward_losses(model, batch)
        assert np.array_equal(losses, again)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_losses_match_scipy_cross_entropy(self, scale):
        model, batch, _ = self._case(ModelKind.SOFTMAX, scale, 12)
        z = logits(model, batch.inputs)
        want = scipy_logsumexp(z, axis=1) - z[np.arange(64), batch.targets]
        assert np.array_equal(forward_losses(model, batch)[0], want)
        assert np.array_equal(per_sample_loss(model, batch), want)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_softmax_direction_matches_inline_reference(self, scale):
        model, batch, w = self._case(ModelKind.SOFTMAX, scale, 13)
        x, y = batch.inputs, batch.targets
        wt = model.theta[:200].reshape(10, 20)
        delta = _softmax_reference(x @ wt.T + model.theta[200:], y, w)
        want = np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0)])
        _, ctx = forward_losses(model, batch)
        assert np.array_equal(backward_weighted(model, batch, ctx, w), want)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_mlp_direction_matches_inline_reference(self, scale):
        model, batch, w = self._case(ModelKind.MLP, scale, 14)
        x, y = batch.inputs, batch.targets
        t = model.theta
        w1, b1 = t[:640].reshape(32, 20), t[640:672]
        w2, b2 = t[672:992].reshape(10, 32), t[992:]
        h = np.tanh(x @ w1.T + b1)
        delta = _softmax_reference(h @ w2.T + b2, y, w)
        dz = (delta @ w2) * (1.0 - h**2)
        want = np.concatenate(
            [(dz.T @ x).ravel(), dz.sum(axis=0), (delta.T @ h).ravel(), delta.sum(axis=0)]
        )
        _, ctx = forward_losses(model, batch)
        assert np.array_equal(backward_weighted(model, batch, ctx, w), want)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_two_hidden_direction_matches_inline_reference(self, scale):
        rng = np.random.default_rng(15)
        model = random_state(ModelKind.MLP, 6, 4, (5, 3), seed=15, scale=scale)
        batch = Batch(rng.standard_normal((16, 6)), rng.integers(0, 4, 16))
        w = rng.uniform(0.5, 2.0, 16)
        x, y, t = batch.inputs, batch.targets, model.theta
        w1, b1 = t[:30].reshape(5, 6), t[30:35]
        w2, b2 = t[35:50].reshape(3, 5), t[50:53]
        w3, b3 = t[53:65].reshape(4, 3), t[65:]
        h1 = np.tanh(x @ w1.T + b1)
        h2 = np.tanh(h1 @ w2.T + b2)
        z = h2 @ w3.T + b3
        delta = _softmax_reference(z, y, w)
        dz2 = (delta @ w3) * (1.0 - h2**2)
        dz1 = (dz2 @ w2) * (1.0 - h1**2)
        want = np.concatenate([
            (dz1.T @ x).ravel(), dz1.sum(axis=0), (dz2.T @ h1).ravel(), dz2.sum(axis=0),
            (delta.T @ h2).ravel(), delta.sum(axis=0),
        ])
        assert np.array_equal(logits(model, x), z)
        _, ctx = forward_losses(model, batch)
        assert np.array_equal(backward_weighted(model, batch, ctx, w), want)

    @pytest.mark.parametrize("hidden", [(), (7,), (5, 3)])
    def test_theta_is_unpacked_once_per_step(self, hidden, monkeypatch):
        calls = []
        unpack = models._unpack_mlp
        monkeypatch.setattr(models, "_unpack_mlp", lambda m: calls.append(m) or unpack(m))
        kind = ModelKind.MLP if hidden else ModelKind.SOFTMAX
        model = random_state(kind, 6, 4, hidden, seed=16)
        rng = np.random.default_rng(16)
        batch = Batch(rng.standard_normal((8, 6)), rng.integers(0, 4, 8))
        _, ctx = forward_losses(model, batch)
        backward_weighted(model, batch, ctx, np.ones(8))
        assert len(calls) == 1
