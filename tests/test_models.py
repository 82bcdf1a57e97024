import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from reweightopt import models
from reweightopt.models import (
    Batch,
    ModelKind,
    ModelState,
    backward_weighted,
    finite_diff_grad,
    forward_losses,
    param_count,
    per_sample_loss,
    predict,
    random_state,
    weighted_grad,
    zero_state,
)
from reweightopt.numerics import logsumexp, logsumexp_classes
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

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
    def test_bad_h(self, h):
        with pytest.raises(ValueError, match="h must be a positive finite real"):
            finite_diff_grad(lambda t: 3.5, np.array([1.0, -1.0]), h)

    def test_nonfinite_objective(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda t: math.inf, np.zeros(2), 1e-5)

    @pytest.mark.parametrize("theta", [[0.0, math.nan], [math.inf, 1.0], [1.7e308, 0.0]])
    def test_nonfinite_theta(self, theta):
        # a non-finite entry, or a coordinate that h moves past the largest float
        seen = []
        with pytest.raises(ValueError, match="^theta contains non-finite entries$"):
            finite_diff_grad(lambda t: seen.append(t) or 0.0, np.array(theta), 1e308)
        assert seen == []

    def test_moves_one_coordinate_of_a_copy_and_leaves_the_callers_theta(self):
        theta = np.array([1.5, -0.0, 2.0**-1074, -3.0])
        before = theta.tobytes()
        seen = []

        def objective(t):
            assert not np.shares_memory(t, theta)
            seen.append(t.copy())
            return float(t @ np.arange(1.0, 5.0))

        grad = finite_diff_grad(objective, theta, 0.25)
        assert theta.tobytes() == before
        assert np.array_equal(grad, np.arange(1.0, 5.0))
        for j in range(theta.size):
            for moved, seen_theta in zip((theta[j] + 0.25, theta[j] - 0.25), seen[2 * j : 2 * j + 2]):
                want = theta.copy()
                want[j] = moved
                assert seen_theta.tobytes() == want.tobytes()

    def test_leaves_the_callers_theta_when_the_objective_raises(self):
        theta = np.array([1.0, 2.0, 3.0])
        calls = []

        def objective(t):
            calls.append(1)
            if len(calls) == 4:
                raise RuntimeError("stop")
            return 0.0

        with pytest.raises(RuntimeError, match="stop"):
            finite_diff_grad(objective, theta, 1e-5)
        assert np.array_equal(theta, [1.0, 2.0, 3.0]) and len(calls) == 4


class TestModelState:
    def test_param_counts(self):
        assert param_count(ModelKind.LINEAR, 7, 1, ()) == 7
        assert param_count(ModelKind.SOFTMAX, 4, 3, ()) == 15
        assert param_count(ModelKind.MLP, 4, 3, (5,)) == 4 * 5 + 5 + 5 * 3 + 3
        assert param_count(ModelKind.MLP, 4, 3, (5, 6)) == 25 + 5 * 6 + 6 + 6 * 3 + 3

    def test_theta_length_checked(self):
        with pytest.raises(ValueError):
            ModelState(ModelKind.LINEAR, np.zeros(3), 4)
        with pytest.raises(ValueError, match="3 entries"):
            zero_state(ModelKind.LINEAR, 4).with_theta(np.zeros(3))

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            ModelState(ModelKind.LINEAR, np.array([1.0, math.nan]), 2)
        with pytest.raises(ValueError, match="non-finite"):
            zero_state(ModelKind.LINEAR, 2).with_theta(np.array([1.0, math.inf]))

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
        z = models._forward(models._unpack_mlp(model, model.theta), batch.inputs)[0]
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
        assert np.array_equal(models._forward(models._unpack_mlp(model, t), x)[0], z)
        _, ctx = forward_losses(model, batch)
        assert np.array_equal(backward_weighted(model, batch, ctx, w), want)

    @pytest.mark.parametrize("hidden", [(), (7,), (5, 3)])
    def test_theta_is_unpacked_once_per_step(self, hidden, monkeypatch):
        calls = []
        unpack = models._unpack_mlp
        monkeypatch.setattr(models, "_unpack_mlp", lambda *a: calls.append(a) or unpack(*a))
        kind = ModelKind.MLP if hidden else ModelKind.SOFTMAX
        model = random_state(kind, 6, 4, hidden, seed=16)
        rng = np.random.default_rng(16)
        batch = Batch(rng.standard_normal((8, 6)), rng.integers(0, 4, 8))
        _, ctx = forward_losses(model, batch)
        backward_weighted(model, batch, ctx, np.ones(8))
        assert len(calls) == 1


# rows: a minibatch, or an eval split of the benchmark's workloads
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(1, 700), st.sampled_from([1250, 4375, 5000])),
       st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_dot_is_the_matmul_operator_bit_for_bit(m, k, n, seed):
    # the passes multiply with ndarray.dot, in these orientations: layer inputs by
    # W.T, dz.T by activations, dz by W, and the linear model's two vector products
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) * np.exp(rng.uniform(-30.0, 30.0))
    w, dz = rng.standard_normal((n, k)), rng.standard_normal((m, n))
    for left, right in [(a, w.T), (dz.T, a), (dz, w), (a, w[0]), (a.T, dz[:, 0])]:
        assert _bits(left.dot(right)) == _bits(left @ right)


def _row_major_cross_entropy(z, y):
    """Reference: the cross entropy and exp(z - max z) by row-major reductions."""
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    is_max = z == zmax
    m = is_max.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(is_max, 0.0, e).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + zmax
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(z).sum(axis=1, keepdims=True)))
    return np.squeeze(out, axis=1) - z[np.arange(z.shape[0]), y], e


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@st.composite
def _labelled_logits(draw):
    """(N, C) logits and labels, N = 1..700 and C = 2..300: Gaussian at a drawn
    scale, with copied row maxima (ties), signed zeros and -inf planted at a
    drawn rate, the -inf only off each row's label."""
    n, c = draw(st.integers(1, 700)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, c)) * draw(st.sampled_from([1e-3, 1.0, 30.0, 1e150]))
    y = rng.integers(0, c, n)
    rows = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0])))
    z[rows, rng.integers(0, c, rows.size)] = z[rows].max(axis=1)
    rate = draw(st.sampled_from([0.0, 0.05, 0.5]))
    for value in (0.0, -0.0, -np.inf):
        planted = rng.random((n, c)) < rate
        if value == -np.inf:
            planted[np.arange(n), y] = False
        z[planted] = value
    return z, y


class TestClassMajorCrossEntropy:
    """forward_losses and _eval_pass equal the row-major kernel and np.argmax bit for bit."""

    def _check(self, z, y, monkeypatch):
        monkeypatch.setattr(models, "_forward", lambda layers, x: (z.copy(), [x]))
        n, c = z.shape
        model = zero_state(ModelKind.SOFTMAX, 1, c)
        batch = Batch(np.zeros((n, 1)), y)
        with np.errstate(all="ignore"):
            want, want_e = _row_major_cross_entropy(z, y)
            losses, (e, _, _, _) = forward_losses(model, batch)
        eval_losses, predicted = models._eval_pass(model, batch)
        assert _bits(losses) == _bits(want) and _bits(eval_losses) == _bits(want)
        assert _bits(e) == _bits(want_e) and e.flags.c_contiguous
        assert _bits(predicted) == _bits(np.argmax(z, axis=1))

    @pytest.mark.parametrize("c", [2, 3, 7, 8, 9, 10, 15, 16, 17, 64, 128, 129, 130, 136, 300])
    @pytest.mark.parametrize("n", [1, 5, 64, 700])
    def test_matches_row_major_kernel(self, c, n, monkeypatch):
        rng = np.random.default_rng(1000 * c + n)
        z = rng.standard_normal((n, c)) * np.exp(rng.uniform(-8.0, 8.0, (n, 1)))
        z[: n // 3] = np.round(z[: n // 3])  # ties, at the maximum too
        z[rng.random(z.shape) < 0.1] = 0.0
        z[rng.random(z.shape) < 0.1] = -0.0
        z[rng.random(z.shape) < 0.1] = -np.inf
        if n > 4:
            z[-1] = -np.inf
            z[-2, ::2] = np.inf
            z[-3, -1] = np.nan
            z[-4] = 1e308
        y = rng.integers(0, c, n)
        self._check(z, y, monkeypatch)

    @pytest.mark.parametrize("c", [2, 10])
    def test_all_tied_rows(self, c, monkeypatch):
        # a zero-initialized softmax: every logit 0, every class maximal
        self._check(np.zeros((6, c)), np.arange(6) % c, monkeypatch)
        self._check(np.full((6, c), -0.0), np.arange(6) % c, monkeypatch)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_labelled_logits())
    def test_flat_label_gather_matches_the_2d_gather(self, case):
        # the picked logit through the flat label index i * C + y_i, taken before
        # the logits are overwritten, against the class-major 2-D gather
        z, y = case
        n = z.shape[0]
        zt = np.ascontiguousarray(z.T)
        with np.errstate(all="ignore"):
            zmax = zt.max(axis=0)
            is_max = zt == zmax
            want = logsumexp_classes(zt, zmax, is_max, np.exp(zt - zmax))
            want -= zt[y, np.arange(n)]
            label = models._label_index(y, z.shape[1])
            losses, _, _, _ = models._cross_entropy(z.copy(), label)
        assert _bits(label) == _bits(np.arange(n) * z.shape[1] + y)
        assert _bits(z.reshape(-1)[label]) == _bits(zt[y, np.arange(n)])
        assert _bits(losses) == _bits(want)

    def test_eval_pass_peak_memory(self):
        # the forward pass adds the bias and applies tanh in place, and the
        # cross entropy overwrites the logits: the peak is the hidden
        # activations and the logits, with 10% to spare
        rng = np.random.default_rng(17)
        model = random_state(ModelKind.MLP, 20, 10, (32,), seed=17)
        batch = Batch(rng.standard_normal((4380, 20)), rng.integers(0, 10, 4380))
        models._eval_pass(model, batch)
        tracemalloc.start()
        try:
            models._eval_pass(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * 4380 * (32 + 10)


_PLANTED = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.0]


@st.composite
def _class_logits(draw):
    """(N, C) logits, N = 1..700 and C = 1..300, with labels: Gaussian at a
    drawn scale up to 1e308, with copied row maxima (ties) and planted
    signed zeros, infinities, nan and extremes at a drawn rate."""
    n, c = draw(st.integers(1, 700)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):  # at 1e308 some logits overflow to +-inf
        z = rng.standard_normal((n, c)) * draw(st.sampled_from([1e-3, 1.0, 30.0, 1e150, 1e308]))
    tie_rate = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    if c > 1 and tie_rate:
        rows = np.flatnonzero(rng.random(n) < tie_rate)
        z[rows, rng.integers(0, c, rows.size)] = z[rows].max(axis=1)
    planted = draw(st.lists(st.sampled_from(_PLANTED), max_size=4))
    rate = draw(st.sampled_from([0.001, 0.02, 0.2]))
    for value in planted:
        z[rng.random((n, c)) < rate] = value
    return z, rng.integers(0, c, n)


def _lse_and_cross_entropy_match(z, y):
    zt = np.ascontiguousarray(z.T)
    with np.errstate(all="ignore"):
        zmax = zt.max(axis=0)
        is_max = zt == zmax
        got = logsumexp_classes(zt, zmax, is_max, np.exp(zt - zmax))
        want = logsumexp(z, axis=1)
        losses, e, _, _ = models._cross_entropy(z.copy(), models._label_index(y, z.shape[1]))
        want_losses, want_e = _row_major_cross_entropy(z, y)
    assert _bits(got) == _bits(want)
    assert _bits(losses) == _bits(want_losses)
    assert _bits(np.ascontiguousarray(e.T)) == _bits(want_e)


@settings(max_examples=150, deadline=None)
@given(_class_logits())
def test_class_major_log_sum_exp_is_bit_exact(case):
    _lse_and_cross_entropy_match(*case)


def test_nan_row_beside_a_tie_takes_the_general_form():
    # the nan row has no maximal logit and the tied row two: their tie counts
    # sum to N, as with one maximal logit per row, so only the finiteness of
    # the short form's results tells the two apart
    z = np.array([[np.nan, 1.0, 0.0], [2.0, 2.0, -1.0]])
    assert np.count_nonzero(z == z.max(axis=1, keepdims=True)) == z.shape[0]
    _lse_and_cross_entropy_match(z, np.array([1, 0]))
