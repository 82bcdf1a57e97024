"""The checks of a reweighted step, each made where its value enters.

``Batch`` checks its rows and records its label range, ``forward_losses``
checks the batch against the model, ``backward_weighted`` the weights
against the batch and the base step the Adam moments; ``rgd_step`` then
scans its losses and its new theta once each.  These tests pin the
errors a caller sees, and that the scans are exact and quiet.
"""

import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from reweightopt import models, optim
from reweightopt.datagen import Dataset
from reweightopt.models import Batch, ModelKind, ModelState, random_state, zero_state
from reweightopt.optim import (
    OptimizerState,
    TrainConfig,
    TrainingDivergenceError,
    adam_step,
    init_state,
    rgd_step,
    sgd_step,
)
from reweightopt.weighting import (
    Divergence,
    WeightingRule,
    batch_weights,
    weighted_objective,
)

NONE = WeightingRule(Divergence.NONE)
KL = WeightingRule(Divergence.KL, 2.0)
KINDS = ["linear", "softmax", "mlp"]
CLASSIFIERS = ["softmax", "mlp"]
B, D, C = 8, 3, 4


def _model(kind):
    if kind == "linear":
        return zero_state(ModelKind.LINEAR, D)
    if kind == "softmax":
        return zero_state(ModelKind.SOFTMAX, D, C)
    return random_state(ModelKind.MLP, D, C, (5,), seed=1)


def _targets(kind, rng):
    return rng.standard_normal(B) if kind == "linear" else rng.integers(0, C, B)


def _step(kind, batch, weighter=NONE, optimizer="sgd", state=None):
    config = TrainConfig(optimizer=optimizer, lr_base=0.1, steps=5, batch_size=B)
    state = init_state(_model(kind), optimizer) if state is None else state
    return rgd_step(state, batch, weighter, config)


class _Fixed:
    """A weighter that returns the same given weights on every step."""

    def __init__(self, weights):
        self.weights = weights

    def step_weights(self, losses, t):
        return self.weights, self


class TestBatchAgainstModel:
    @pytest.mark.parametrize("kind", CLASSIFIERS)
    @pytest.mark.parametrize("label", [-1, C])
    def test_label_out_of_range(self, kind, label):
        rng = np.random.default_rng(0)
        y = _targets(kind, rng)
        y[3] = label
        with pytest.raises(ValueError, match="class label out of range"):
            _step(kind, Batch(rng.standard_normal((B, D)), y))

    def test_integer_targets_to_linear(self):
        rng = np.random.default_rng(0)
        batch = Batch(rng.standard_normal((B, D)), rng.integers(0, C, B))
        with pytest.raises(ValueError, match="linear regression expects real-valued targets"):
            _step("linear", batch)

    @pytest.mark.parametrize("kind", KINDS)
    def test_input_dim(self, kind):
        rng = np.random.default_rng(1)
        batch = Batch(rng.standard_normal((B, D + 1)), _targets(kind, rng))
        with pytest.raises(ValueError, match=f"batch dim {D + 1} does not match model dim {D}"):
            _step(kind, batch)

    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_float_targets_to_classifier(self, kind):
        rng = np.random.default_rng(2)
        batch = Batch(rng.standard_normal((B, D)), rng.integers(0, C, B).astype(float))
        with pytest.raises(ValueError, match="classifier expects integer class labels"):
            _step(kind, batch)


class TestWeightsAgainstBatch:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weights, count", [
        (np.ones(B + 1), B + 1),
        (np.ones(B - 1), B - 1),
        (np.ones((2, B)), 2 * B),
        (np.ones((B, 2)), 2 * B),
    ])
    def test_wrong_count(self, kind, weights, count):
        rng = np.random.default_rng(3)
        batch = Batch(rng.standard_normal((B, D)), _targets(kind, rng))
        with pytest.raises(ValueError, match=f"{count} weights for batch of {B}"):
            _step(kind, batch, _Fixed(weights))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weights", [
        np.ones((B, 1)),
        np.ones((1, B)),
        [1.0] * B,
        np.ones(B, dtype=np.float32),
        np.ones(B, dtype=np.int64),
        np.ones(2 * B)[::2],
    ])
    def test_other_forms_of_b_weights_are_converted(self, kind, weights):
        rng = np.random.default_rng(4)
        batch = Batch(rng.standard_normal((B, D)), _targets(kind, rng))
        want, _ = _step(kind, batch, NONE)
        got, info = _step(kind, batch, _Fixed(weights))
        assert np.array_equal(got.model.theta, want.model.theta)
        assert info.weights is weights


class TestOptimizerState:
    @pytest.mark.parametrize("kind", KINDS)
    def test_adam_without_moments(self, kind):
        rng = np.random.default_rng(5)
        batch = Batch(rng.standard_normal((B, D)), _targets(kind, rng))
        state = init_state(_model(kind), "sgd")
        with pytest.raises(ValueError, match="adam moments not initialized"):
            _step(kind, batch, optimizer="adam", state=state)


class TestCallerArrays:
    """``Batch`` and ``Dataset`` store read-only rows without freezing the
    caller's own arrays: a writeable input is copied, a read-only one kept."""

    @pytest.mark.parametrize("make", [
        lambda x, y: Batch(x, y),
        lambda x, y: Dataset(x, y, {"class_counts": [2, 1]}),
    ], ids=["Batch", "Dataset"])
    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    def test_writeable_inputs_stay_writeable(self, make, view):
        x, y = np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])
        given_x, given_y = (x[:], y[:]) if view else (x, y)
        batch = make(given_x, given_y)
        assert x.flags.writeable and y.flags.writeable
        assert given_x.flags.writeable and given_y.flags.writeable
        assert not batch.inputs.flags.writeable and not batch.targets.flags.writeable
        x[0, 0], y[0] = 99.0, 1  # a later write by the caller
        assert batch.inputs[0, 0] == 0.0 and batch.targets[0] == 0
        assert batch.label_range == (0, 1)

    def test_read_only_inputs_are_kept(self):
        x, y = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([0.5, 1.0, 2.0])
        x.setflags(write=False)
        y.setflags(write=False)
        batch = Batch(x, y)
        assert np.shares_memory(batch.inputs, x) and np.shares_memory(batch.targets, y)

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        x = np.arange(6.0).reshape(3, 2)
        view = x[:]
        view.setflags(write=False)
        batch = Batch(view, [0.5, 1.0, 2.0])
        x[0, 0] = 99.0
        assert batch.inputs[0, 0] == 0.0


class TestLabelRange:
    def test_recorded_by_the_constructor(self):
        assert Batch(np.zeros((4, 1)), [2, 0, 5, 3]).label_range == (0, 5)
        assert Batch(np.zeros((2, 1)), np.array([7, 7], dtype=np.int8)).label_range == (7, 7)
        assert Batch(np.zeros((2, 1)), [0.5, 1.0]).label_range is None

    def test_rows_carry_the_parent_range(self):
        batch = Batch(np.arange(12.0).reshape(6, 2), [0, 3, 1, 1, 2, 0])
        rows = models._rows(batch, np.array([2, 3]))
        assert np.array_equal(rows.targets, [1, 1])
        assert rows.label_range == batch.label_range == (0, 3)
        real = Batch(np.zeros((3, 1)), [0.5, 1.0, 2.0])
        assert models._rows(real, np.array([0, 2])).label_range is None

    @pytest.mark.parametrize("kind", CLASSIFIERS)
    def test_rows_step_like_a_rebuilt_batch(self, kind):
        rng = np.random.default_rng(6)
        batch = Batch(rng.standard_normal((B, D)), _targets(kind, rng))
        idx = np.array([5, 0, 2])
        config = TrainConfig(lr_base=0.1, steps=5, batch_size=3)
        state = init_state(_model(kind))
        want, _ = rgd_step(state, Batch(batch.inputs[idx], batch.targets[idx]), KL, config)
        got, _ = rgd_step(state, models._rows(batch, idx), KL, config)
        assert np.array_equal(got.model.theta, want.model.theta)


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args)


class TestFiniteScans:
    @pytest.mark.parametrize("weighter", [NONE, KL])
    def test_finite_losses_whose_sum_overflows(self, weighter):
        state = init_state(ModelState(ModelKind.LINEAR, [1e154], 1))
        batch = Batch(np.ones((4, 1)), np.zeros(4))  # each loss is 1e308, their sum is not finite
        config = TrainConfig(lr_base=1e-200, steps=1, batch_size=4)
        new, info = _quietly(rgd_step, state, batch, weighter, config)
        assert np.array_equal(info.losses, np.full(4, 1e154 * 1e154))
        assert np.isfinite(new.model.theta).all()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_finite_theta_whose_sum_overflows(self, optimizer):
        theta = [1.5e308, 1.5e308]
        state = init_state(ModelState(ModelKind.LINEAR, theta, 2), optimizer)
        batch = Batch([[1.0, -1.0], [0.5, -0.5]], [0.5, -0.25])  # x.theta = 0 on each row
        config = TrainConfig(optimizer=optimizer, lr_base=1.0, steps=1, batch_size=2)
        new, info = _quietly(rgd_step, state, batch, NONE, config)
        assert np.array_equal(info.losses, [0.25, 0.0625])
        assert np.isfinite(new.model.theta).all() and new.t == 1
        step = sgd_step if optimizer == "sgd" else adam_step
        moved = _quietly(step, state, np.zeros(2), 0.1)
        assert np.array_equal(moved.model.theta, theta)

    def test_one_infinite_loss(self):
        state = OptimizerState(ModelState(ModelKind.LINEAR, [1e150], 1), 4)
        batch = Batch([[0.5], [1e200], [0.25]], [0.0, 0.0, 0.0])
        config = TrainConfig(steps=10, batch_size=3)
        with pytest.raises(TrainingDivergenceError) as err:
            _quietly(rgd_step, state, batch, KL, config)
        assert str(err.value) == "training diverged at step 5: non-finite loss (samples [1])"
        assert err.value.step == 5 and err.value.sample_indices == [1]

    def test_one_nan_loss(self):
        # row 1 gives the logits [inf, inf, 0], whose shifted exponentials are nan
        theta = [1e200, 1e200, 0.0, 0.0, 0.0, 0.0]
        state = OptimizerState(ModelState(ModelKind.SOFTMAX, theta, 1, 3), 4)
        batch = Batch([[0.5], [1e200], [0.25]], [0, 1, 2])
        config = TrainConfig(steps=10, batch_size=3)
        with pytest.raises(TrainingDivergenceError) as err:
            _quietly(rgd_step, state, batch, KL, config)
        assert str(err.value) == "training diverged at step 5: non-finite loss (samples [1])"
        assert err.value.sample_indices == [1]

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("gradient", [
        [0.0, np.inf, 0.0], [np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0],
    ])
    def test_one_non_finite_theta(self, optimizer, gradient):
        state = OptimizerState(zero_state(ModelKind.LINEAR, 3), 2, *(
            (np.zeros(3), np.zeros(3)) if optimizer == "adam" else ()
        ))
        step = sgd_step if optimizer == "sgd" else adam_step
        with pytest.raises(TrainingDivergenceError) as err:
            _quietly(step, state, gradient, 0.1)
        assert str(err.value) == "training diverged at step 3: non-finite parameter update"
        assert err.value.step == 3 and err.value.sample_indices == []

    def test_non_finite_theta_in_a_step(self):
        # an infinite weight makes the direction, and so theta, infinite
        rng = np.random.default_rng(7)
        batch = Batch(rng.standard_normal((B, D)), rng.standard_normal(B))
        weights = np.ones(B)
        weights[2] = np.inf
        state = OptimizerState(zero_state(ModelKind.LINEAR, D).with_theta([0.5, 0.5, 0.5]), 6)
        config = TrainConfig(steps=10, batch_size=B)
        with pytest.raises(TrainingDivergenceError) as err:
            _quietly(rgd_step, state, batch, _Fixed(weights), config)
        assert str(err.value) == "training diverged at step 7: non-finite parameter update"


class TestRuleReport:
    """``WeightingRule.report`` checks a row's losses once, then reports what
    the two public functions, each with its own check, give, and the
    fraction of losses at the clip."""

    @pytest.mark.parametrize("divergence", list(Divergence))
    def test_equals_the_public_functions(self, divergence):
        rule = WeightingRule(divergence, 0.75)
        losses = np.random.default_rng(8).exponential(1.0, 50).tolist()
        objective, w, sat = rule.report(losses)
        assert np.array_equal(w, batch_weights(losses, rule))
        assert objective == weighted_objective(losses, w)
        saturated = 0.0 if divergence is Divergence.NONE else np.mean(np.array(losses) >= rule.tau)
        assert sat == float(saturated)

    def test_rejects_non_finite_losses(self):
        with pytest.raises(ValueError, match=r"non-finite loss values at indices \[1\]"):
            KL.report([0.5, np.nan, 1.0])
        with pytest.raises(ValueError, match="at least one entry"):
            KL.report([])


class TestErrorState:
    """The step's functions enter numpy's quiet error state through the
    ``np.errstate`` decorator, and leave the caller's state as it was,
    however they end."""

    CALLER = {"divide": "warn", "over": "raise", "under": "print", "invalid": "call"}

    def _diverging(self, optimizer):
        state = init_state(ModelState(ModelKind.LINEAR, [1e200], 1), optimizer)
        batch = Batch([[1e200], [0.5]], [0.0, 0.0])  # the first loss overflows
        return state, batch, TrainConfig(optimizer=optimizer, steps=3, batch_size=2)

    @pytest.mark.parametrize("call", [
        lambda self: rgd_step(*self._diverging("sgd")[:2], KL, self._diverging("sgd")[2]),
        lambda self: rgd_step(*self._diverging("adam")[:2], KL, self._diverging("adam")[2]),
        lambda self: sgd_step(self._diverging("sgd")[0], [np.inf], 0.1),
        lambda self: adam_step(self._diverging("adam")[0], [np.nan], 0.1),
    ], ids=["rgd_step-sgd", "rgd_step-adam", "sgd_step", "adam_step"])
    def test_unchanged_after_a_divergence(self, call):
        with np.errstate(call=lambda *args: None, **self.CALLER):
            before = np.geterr()
            with pytest.raises(TrainingDivergenceError):
                call(self)
            assert np.geterr() == before

    def test_unchanged_after_an_eval_pass(self):
        model = ModelState(ModelKind.LINEAR, [1e200], 1)
        with np.errstate(call=lambda *args: None, **self.CALLER):
            before = np.geterr()
            losses, _ = models._eval_pass(model, Batch([[1e200]], [0.0]))
            assert np.isinf(losses).all() and np.geterr() == before
            with pytest.raises(ValueError, match="batch dim"):
                models._eval_pass(model, Batch([[1.0, 2.0]], [0.0]))
            assert np.geterr() == before

    @pytest.mark.parametrize("vec, finite", [
        ([0.5, -2.0, 0.0], True),
        ([1.5e308, -1.5e308, 5e-324], True),  # the squares overflow, every entry is finite
        ([1.0, np.inf], False), ([-np.inf, 1.0], False), ([np.nan, 0.0], False),
        ([1e308, np.nan], False), ([np.inf, -np.inf], False),
    ])
    def test_finite_scan_is_exact(self, vec, finite):
        vec = np.array(vec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                assert optim._all_finite(vec) == finite


_OVERFLOWING_STEPS = textwrap.dedent("""
    import numpy as np
    from reweightopt.models import Batch, ModelKind, ModelState, random_state, zero_state
    from reweightopt.optim import (
        TrainConfig, TrainingDivergenceError, adam_step, init_state, rgd_step, sgd_step,
    )
    from reweightopt.weighting import WeightingRule

    models = {
        "linear": ModelState(ModelKind.LINEAR, [1e200, 1.0], 2),
        "softmax": zero_state(ModelKind.SOFTMAX, 2, 3).with_theta(np.full(9, 1e200)),
        "mlp": random_state(ModelKind.MLP, 2, 3, (4,), seed=0),
    }
    # each batch's first row overflows its model's forward pass or, for the
    # tanh-bounded mlp, an update at the large learning rate
    rows = [[1e200, 1.0], [0.5, 0.25]]
    outcomes = []
    for kind, model in models.items():
        targets = [0.0, 1.0] if kind == "linear" else [0, 2]
        for optimizer in ("sgd", "adam"):
            state = init_state(model, optimizer)
            config = TrainConfig(optimizer=optimizer, lr_base=1e308, steps=2, batch_size=2)
            for weighter in (WeightingRule("none"), WeightingRule("kl", 2.0)):
                try:
                    for _ in range(2):
                        state, _ = rgd_step(state, Batch(rows, targets), weighter, config)
                except TrainingDivergenceError as exc:
                    outcomes.append(exc.step)
    for step, gradient in ((sgd_step, [np.inf] * 2), (adam_step, [1e308, np.nan])):
        try:
            step(init_state(models["linear"], "adam"), gradient, 1e308)
        except TrainingDivergenceError as exc:
            outcomes.append(exc.step)
    print(len(outcomes))
""")


def test_overflowing_steps_raise_only_divergence_under_warnings_as_errors():
    # -W error::RuntimeWarning turns any numpy warning the step lets out into an exception
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _OVERFLOWING_STEPS],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["14"]
