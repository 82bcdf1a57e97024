"""Each checked fact has one owner, and every check that stays is reached.

A library check that the config schema makes unreachable for a config is
still the guard of a direct Python caller, so it gets a direct test here;
where the schema and a library function check the same range, the two
must accept and refuse the same values on both sides of its boundary.
"""

import math
import re

import numpy as np
import pytest

from reweightopt import datagen, dro, experiment
from reweightopt.experiment import parse_trace
from reweightopt.models import ModelState, param_count, random_state, zero_state
from reweightopt.optim import (
    BaselineState, OptimizerState, TrainConfig, TrainingDivergenceError,
)
from reweightopt.schema import ConfigError
from reweightopt.weighting import Divergence, weighted_objective


def _mixture(num_classes=3, n_per_class=20):
    return datagen.gaussian_mixture_classification(num_classes, n_per_class, 4, 3.0, 0)


def _empty_json_trace(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("[]\n")
    return parse_trace(path)


def _chi2_instance():
    return dro.DroInstance([0.0, 1.0, 2.0], dro.uniform(3), 0.1, Divergence.CHI2)


# (call, exception, message) of each library raise that no config reaches
DIRECT = {
    "num_classes of regression data": (
        lambda _: datagen.rare_feature_regression(0).num_classes,
        ValueError, "regression dataset has no classes"),
    "subsample_long_tailed of regression data": (
        lambda _: datagen.subsample_long_tailed(datagen.rare_feature_regression(0), [1, 1], 0),
        ValueError, "regression dataset has no classes"),
    "flip_labels of regression data": (
        lambda _: datagen.flip_labels(datagen.rare_feature_regression(0), 0.5, 0),
        ValueError, "regression dataset has no classes"),
    "one class": (
        lambda _: _mixture(num_classes=1),
        ValueError, "need num_classes >= 2 and n_per_class >= 1"),
    "no row per class": (
        lambda _: _mixture(n_per_class=0),
        ValueError, "need num_classes >= 2 and n_per_class >= 1"),
    "a count per class": (
        lambda _: datagen.subsample_long_tailed(_mixture(), [2, 2], 0),
        ValueError, "2 counts for 3 classes"),
    "flip fraction above 1": (
        lambda _: datagen.flip_labels(_mixture(), 1.5, 0),
        ValueError, "flip fraction must lie in [0, 1]"),
    "divergence of the none rule": (
        lambda _: dro.divergence_value([0.5, 0.5], [0.5, 0.5], "none"),
        ValueError, "unsupported divergence <Divergence.NONE: 'none'>"),
    "kl solver of a chi2 instance": (
        lambda _: dro.kl_dro_primal(_chi2_instance()),
        ValueError, "instance divergence must be kl"),
    "grid of one point": (
        lambda _: dro.simplex_bruteforce(_chi2_instance(), 1),
        ValueError, "need at least 2 grid points per edge"),
    "no input": (
        lambda _: ModelState("linear", np.zeros(0), 0),
        ValueError, "input_dim must be >= 1"),
    "classifier of one class": (
        lambda _: ModelState("softmax", np.zeros(3), 2, 1),
        ValueError, "classifiers need num_classes >= 2"),
    "hidden layer of no unit": (
        lambda _: ModelState("mlp", np.zeros(3), 2, 3, (0,)),
        ValueError, "hidden widths must be >= 1"),
    "random mlp of a negative width": (
        lambda _: random_state("mlp", 4, 3, (-1,)),
        ValueError, "hidden widths must be >= 1"),
    "zero mlp of a negative width": (
        lambda _: zero_state("mlp", 4, 3, (-1,)),
        ValueError, "hidden widths must be >= 1"),
    "random mlp of a negative first width": (
        lambda _: random_state("mlp", 4, 3, (-1, 5)),
        ValueError, "hidden widths must be >= 1"),
    "ma normalizer that underflows": (
        lambda _: BaselineState(1.0, 0.5).step_weights(np.array([-800.0]), 1),
        TrainingDivergenceError, "training diverged at step 1: non-positive normalizer z=0.0"),
    "empty json trace": (
        _empty_json_trace, ValueError, "empty trace file "),
    # a nan fails each range check, whose comparison it would pass unseen
    "ma normalizer of nan": (
        lambda _: BaselineState(1.0, 0.5, z=math.nan),
        ValueError, "running normalizer must be finite and positive"),
    "ma normalizer of inf": (
        lambda _: BaselineState(1.0, 0.5, z=math.inf),
        ValueError, "running normalizer must be finite and positive"),
    "long tail of nan classes": (
        lambda _: datagen.long_tailed_counts(math.nan, 10, 2.0),
        ValueError, "need at least 2 classes"),
    "long tail of a nan head": (
        lambda _: datagen.long_tailed_counts(3, math.nan, 2.0),
        ValueError, "n_max must be >= 1"),
    "long tail of a nan imbalance": (
        lambda _: datagen.long_tailed_counts(3, 10, math.nan),
        ValueError, "imbalance factor must be >= 1"),
    "train config of nan steps": (
        lambda _: TrainConfig(steps=math.nan),
        ValueError, "steps must be >= 0 and batch_size >= 1"),
    "train config of a nan batch size": (
        lambda _: TrainConfig(batch_size=math.nan),
        ValueError, "steps must be >= 0 and batch_size >= 1"),
    "model of a nan input": (
        lambda _: param_count("linear", math.nan, 1, ()),
        ValueError, "input_dim must be >= 1"),
    "classifier of nan classes": (
        lambda _: param_count("softmax", 4, math.nan, ()),
        ValueError, "classifiers need num_classes >= 2"),
    "hidden layer of a nan width": (
        lambda _: param_count("mlp", 4, 3, (math.nan,)),
        ValueError, "hidden widths must be >= 1"),
    "optimizer state at a nan step": (
        lambda _: OptimizerState(zero_state("linear", 2, 1), t=math.nan),
        ValueError, "step counter must be >= 0"),
    "mixture of nan classes": (
        lambda _: _mixture(num_classes=math.nan),
        ValueError, "need num_classes >= 2 and n_per_class >= 1"),
    "mixture of nan rows per class": (
        lambda _: _mixture(n_per_class=math.nan),
        ValueError, "need num_classes >= 2 and n_per_class >= 1"),
    "mixture of a nan dim": (
        lambda _: datagen.gaussian_mixture_classification(3, 20, math.nan, 3.0, 0),
        ValueError, "dim must be >= num_classes so each mean gets its own axis"),
    "grid of nan points": (
        lambda _: dro.simplex_bruteforce(_chi2_instance(), math.nan),
        ValueError, "need at least 2 grid points per edge"),
    "uniform of no atom": (
        lambda _: dro.uniform(0), ValueError, "n must be an integer >= 1, got 0"),
    "uniform of a negative n": (
        lambda _: dro.uniform(-1), ValueError, "n must be an integer >= 1, got -1"),
    "uniform of a fractional n": (
        lambda _: dro.uniform(2.5), ValueError, "n must be an integer >= 1, got 2.5"),
    "direction of a fractional index": (
        lambda _: experiment.direction_l2([1.0, 2.0], [0.0, 0.0], [0.5]),
        ValueError, "index set entries must be integers, got [0.5]"),
    "direction of a fractional index past the first": (
        lambda _: experiment.direction_l2([1.0, 2.0], [0.0, 0.0], [1.9]),
        ValueError, "index set entries must be integers, got [1.9]"),
    "direction of a string index": (
        lambda _: experiment.direction_l2([1.0, 2.0], [0.0, 0.0], ["1"]),
        ValueError, "index set entries must be integers, got ['1']"),
    "direction to a shorter theta*": (
        lambda _: experiment.direction_l2([1.0, 2.0], [0.0], [0]),
        ValueError, "length mismatch: 2 theta vs 1 theta* entries"),
    "objective of a nan weight": (
        lambda _: weighted_objective([1.0, 2.0], [math.nan, 1.0]),
        ValueError, "non-finite weight values at indices [0]"),
    "objective of an inf weight": (
        lambda _: weighted_objective([1.0, 2.0], [1.0, math.inf]),
        ValueError, "non-finite weight values at indices [1]"),
}


@pytest.mark.parametrize("name", DIRECT)
def test_library_check_raises_its_message(tmp_path, name):
    call, exception, message = DIRECT[name]
    with pytest.raises(exception, match="^" + re.escape(message)) as info:
        call(tmp_path)
    assert not isinstance(info.value, ConfigError)


@pytest.mark.parametrize("hidden", [(-1,), (0,), (-1, 5), (5, -2)])
@pytest.mark.parametrize("build", [random_state, zero_state])
def test_a_state_of_a_bad_width_is_refused_before_anything_is_drawn(monkeypatch, build, hidden):
    # the shape is checked before theta's length is used to draw or allocate it
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
    monkeypatch.setattr(np, "zeros", lambda *args: made.append(args))
    with pytest.raises(ValueError, match="^hidden widths must be >= 1$"):
        build("mlp", 4, 3, hidden)
    assert made == []


def _config(**changes):
    """A small mixture config, with ``changes`` made to its dataset and model."""
    params = {"num_classes": 3, "n_per_class": 20, "dim": 4, "separation": 3.0, "seed": 0}
    return {
        "dataset": {"generator": "gaussian_mixture_classification",
                    "params": {**params, **changes.get("params", {})},
                    **changes.get("stages", {})},
        "model": changes.get("model", {"kind": "softmax"}),
        "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "train": {"optimizer": "sgd", "lr_base": 0.1, "steps": 1, "batch_size": 4, "seed": 0},
    }


def _refuses(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


def _config_refusal(config):
    """Which step of the config path reports a config error: "checks"
    (``validate_config``, before any data is drawn), "build", or None; any
    other exception propagates."""
    try:
        checked = experiment.validate_config(config)
    except ConfigError:
        return "checks"
    try:
        experiment._build(checked)
    except ConfigError:
        return "build"
    return None


def _subsample(**sub):
    return {"stages": {"subsample": {"n_max": 10, "imbalance_factor": 2.0, "seed": 1, **sub}}}


def _mlp(hidden):
    return {"model": {"kind": "mlp", "hidden": list(hidden), "init_seed": 0}}


# fact -> (the config changes, the library call, of a value; refused values, accepted
# values, the step of the config path that refuses: the fact's owner for a config)
SHARED = {
    "num_classes": (
        lambda v: {"params": {"num_classes": v}},
        lambda v: datagen.gaussian_mixture_classification(v, 20, 4, 3.0, 0),
        [0, 1], [2, 3], "checks"),
    "n_per_class": (
        lambda v: {"params": {"n_per_class": v}},
        lambda v: datagen.gaussian_mixture_classification(3, v, 4, 3.0, 0),
        [-1, 0], [1, 2], "checks"),
    "dim": (
        lambda v: {"params": {"dim": v}},
        lambda v: datagen.gaussian_mixture_classification(3, 20, v, 3.0, 0),
        [1, 2], [3, 4], "build"),
    "n_max": (
        lambda v: _subsample(n_max=v),
        lambda v: datagen.long_tailed_counts(3, v, 2.0),
        [-1, 0], [1, 2], "checks"),
    "imbalance_factor": (
        lambda v: _subsample(imbalance_factor=v),
        lambda v: datagen.long_tailed_counts(3, 10, v),
        [0.5, math.nextafter(1.0, 0.0)], [1, 1.0, 2.0], "checks"),
    "flip fraction": (
        lambda v: {"stages": {"flip_train": {"fraction": v, "seed": 2}}},
        lambda v: datagen.flip_labels(_mixture(), v, 2),
        [-0.5, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)], [0.0, 0.5, 1.0], "checks"),
    "mlp hidden width": (
        lambda v: _mlp([v]),
        lambda v: random_state("mlp", 4, 3, (v,), seed=0),
        [0], [1, 2], "checks"),
    "mlp hidden count": (
        lambda v: _mlp([5] * v),
        lambda v: random_state("mlp", 4, 3, (5,) * v, seed=0),
        [0, 3], [1, 2], "checks"),
}


@pytest.mark.parametrize("fact", SHARED)
def test_schema_and_library_agree_on_both_sides_of_the_boundary(fact):
    changes, call, refused, accepted, owner = SHARED[fact]
    for value in refused + accepted:
        expected = value in refused
        assert _config_refusal(_config(**changes(value))) == (owner if expected else None), (
            fact, value)
        assert _refuses(lambda: call(value)) is expected, (fact, value)


def test_dim_below_one_is_the_schemas():
    assert _config_refusal(_config(params={"dim": 0})) == "checks"

