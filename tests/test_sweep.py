import json

import numpy as np
import pytest

from reweightopt import datagen, experiment
from reweightopt.experiment import ConfigError, run_experiment
from reweightopt.optim import TrainingDivergenceError
from reweightopt.sweep import GridResult, SweepSpec, sweep, validate_sweep_spec


def base_config(lr=0.2):
    return {
        "dataset": {
            "generator": "gaussian_mixture_classification",
            "params": {"num_classes": 3, "n_per_class": 40, "dim": 4,
                       "separation": 3.0, "seed": 1},
            "split": {"holdout_fraction": 0.25, "seed": 2},
        },
        "model": {"kind": "softmax"},
        "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "train": {"optimizer": "sgd", "lr_base": lr, "steps": 80,
                  "batch_size": 16, "seed": 3},
        "metrics": ["accuracy"],
        "eval_every": 40,
    }


def test_single_point_grid_selected():
    spec = SweepSpec({"tau": [3.0], "lr_mult": [1.0]}, "accuracy")
    best, results = sweep(spec, base_config())
    assert len(results) == 1 and results[0].status == "ok"
    assert best["method"]["rule"]["tau"] == 3.0


def divergent_config():
    return {
        "dataset": {
            "generator": "rare_feature_regression",
            "params": {"seed": 0},
            "split": {"holdout_fraction": 0.2, "seed": 1},
        },
        "model": {"kind": "linear"},
        "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 0.25}},
        "train": {"optimizer": "sgd", "lr_base": 4.0, "steps": 40,
                  "batch_size": 255, "seed": 0},
        "metrics": ["mse"],
        "eval_every": 20,
    }


def test_divergent_point_survives_sweep():
    # squared losses overflow under an absurd learning rate; the sweep
    # must log the failure and still select the survivor
    spec = SweepSpec({"tau": [0.25], "lr_mult": [1.0, 1e200]}, "mse")
    best, results = sweep(spec, divergent_config())
    statuses = {r.params: r.status for r in results}
    assert statuses[(0.25, 1.0)] == "ok"
    assert statuses[(0.25, 1e200)] == "failed"
    assert best["train"]["lr_base"] == pytest.approx(4.0)


def test_point_with_overflowing_eval_losses_is_marked_failed():
    # lr 1e160 leaves theta finite after step 1, but its eval losses overflow
    cfg = divergent_config()
    cfg["eval_every"] = 1
    spec = SweepSpec({"tau": [0.25], "lr_mult": [1.0, 2.5e159]}, "mse")
    best, results = sweep(spec, cfg)
    failed = results[1]
    assert failed.status == "failed" and "step 1: non-finite train loss" in failed.detail
    assert results[0].status == "ok" and best["train"]["lr_base"] == pytest.approx(4.0)


def test_lexicographic_tie_break():
    # identical metric values on both points: smaller tuple must win
    spec = SweepSpec({"tau": [5.0, 1.0], "lr_mult": [1.0]}, "accuracy")
    cfg = base_config()
    cfg["train"]["steps"] = 0  # no training: all points tie at the initial model
    best, results = sweep(spec, cfg)
    values = [r.metric for r in results]
    assert values[0] == values[1]
    assert best["method"]["rule"]["tau"] == 1.0


def test_sweep_reproducible():
    spec = SweepSpec({"tau": [1.0, 3.0], "lr_mult": [0.5, 1.0]}, "accuracy")
    best1, res1 = sweep(spec, base_config())
    best2, res2 = sweep(spec, base_config())
    assert best1 == best2
    assert res1 == res2


def test_lr_mult_applies_to_base():
    spec = SweepSpec({"tau": [1.0], "lr_mult": [0.5]}, "accuracy")
    best, _ = sweep(spec, base_config(lr=0.4))
    assert best["train"]["lr_base"] == pytest.approx(0.2)


def test_selection_metric_must_be_tracked():
    spec = SweepSpec({"tau": [1.0], "lr_mult": [1.0]}, "mse")
    with pytest.raises(ConfigError):
        sweep(spec, base_config())


@pytest.mark.parametrize("change, message", [
    (lambda cfg: cfg.update(banana=1), r"^config: unknown key\(s\) \['banana'\]"),
    (lambda cfg: cfg["train"].update(seed=-1), r"^train\.seed: expected a non-negative integer"),
], ids=["unknown-key", "negative-seed"])
def test_a_raw_base_is_checked(change, message):
    # the sweep command checks its base itself; a direct caller's base is checked here
    cfg = base_config()
    change(cfg)
    spec = SweepSpec({"tau": [1.0], "lr_mult": [1.0]}, "accuracy")
    with pytest.raises(ConfigError, match=message):
        sweep(spec, cfg)


@pytest.mark.parametrize("split", ["holdut", "test"])
def test_unknown_selection_split_fails_before_any_point_trains(monkeypatch, split):
    # base_config has train and holdout splits only
    calls = []
    train = sweep.__globals__["_train"]
    monkeypatch.setitem(sweep.__globals__, "_train", lambda *args: calls.append(1) or train(*args))
    spec = SweepSpec({"tau": [1.0, 3.0], "lr_mult": [1.0]}, "accuracy", split)
    with pytest.raises(ConfigError, match=f"selection split '{split}'"):
        sweep(spec, base_config())
    assert calls == []


def test_out_of_range_later_point_fails_before_any_point_trains(monkeypatch):
    # beta_ma 0.5 is valid and 1.5 is not: every point's config is checked whole first
    calls = []
    train = sweep.__globals__["_train"]
    monkeypatch.setitem(sweep.__globals__, "_train", lambda *args: calls.append(1) or train(*args))
    cfg = base_config()
    cfg["method"] = {"name": "ma", "lam": 1.0, "beta_ma": 0.5}
    spec = SweepSpec({"lam": [1.0], "beta_ma": [0.5, 1.5], "lr_mult": [1.0]}, "accuracy")
    with pytest.raises(ConfigError, match=r"^method: beta_ma must lie in \(0, 1\)"):
        sweep(spec, cfg)
    assert calls == []


def test_weighter_and_train_config_built_once_per_run(monkeypatch):
    # validation builds both to check them, and the run trains with those objects
    calls = []
    weighter, train_config = experiment._build_weighter, experiment.TrainConfig
    monkeypatch.setattr(experiment, "_build_weighter",
                        lambda cfg: calls.append(1) or weighter(cfg))
    monkeypatch.setattr(experiment, "TrainConfig",
                        lambda **train: calls.append(1) or train_config(**train))
    run_experiment(base_config())
    assert len(calls) == 2
    calls.clear()
    sweep(SweepSpec({"tau": [1.0, 3.0], "lr_mult": [1.0]}, "accuracy"), base_config())
    assert len(calls) == 2 * (1 + 2)  # the base config, then each point


def test_unknown_selection_split_fails_when_every_point_would_diverge():
    spec = SweepSpec({"tau": [0.25], "lr_mult": [1e200]}, "mse", "holdut")
    with pytest.raises(ConfigError, match="selection split 'holdut'"):
        sweep(spec, divergent_config())


def test_validate_sweep_spec_defaults():
    spec = validate_sweep_spec({"select": {"metric": "accuracy"}}, base_config())
    assert spec.axes["tau"] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert spec.axes["lr_mult"] == [0.5, 0.75, 1.0, 1.25, 1.5]
    assert spec.select_split == "holdout"


def test_validate_sweep_spec_errors():
    with pytest.raises(ConfigError):
        validate_sweep_spec({"grid": {"t_tilt": [1.0]}, "select": {"metric": "accuracy"}},
                            base_config())
    with pytest.raises(ConfigError):
        validate_sweep_spec({"select": {}}, base_config())
    with pytest.raises(ConfigError):
        SweepSpec({"tau": []}, "accuracy")


@pytest.mark.parametrize("base, message", [
    ({"method": "rgd"}, "base.method: expected an object"),
    ("rgd", "base: expected an object"),
    ({}, r"base\.method\.name: expected rgd\|term\|ma, got None"),
])
def test_validate_sweep_spec_malformed_base(base, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        validate_sweep_spec({"select": {"metric": "mse"}}, base)


def test_tau_sweep_on_label_noise_beats_unclipped_comparator():
    # small-scale version of the noisy-label setup: the selected clipped run
    # must beat the batch-tilted baseline trained at the same budget
    def noisy(method):
        return {
            "dataset": {
                "generator": "gaussian_mixture_classification",
                "params": {"num_classes": 5, "n_per_class": 120, "dim": 10,
                           "separation": 3.0, "seed": 50},
                "split": {"holdout_fraction": 0.15, "test_fraction": 0.2, "seed": 51},
                "flip_train": {"fraction": 0.4, "seed": 52},
            },
            "model": {"kind": "softmax"},
            "method": method,
            "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": 800,
                      "batch_size": 32, "seed": 53},
            "metrics": ["accuracy"],
            "eval_every": 400,
        }

    spec = SweepSpec({"tau": [1.0, 3.0, 5.0, 7.0, 9.0], "lr_mult": [1.0]}, "accuracy")
    best, results = sweep(spec, noisy({"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}}))
    assert best is not None and np.isfinite(best["method"]["rule"]["tau"])
    from reweightopt.experiment import run_experiment

    _, best_summary = run_experiment(best)
    _, term_summary = run_experiment(noisy({"name": "term", "t_tilt": 1.0}))
    assert best_summary["final"]["test"]["accuracy"] > term_summary["final"]["test"]["accuracy"]


def test_term_axes():
    cfg = base_config()
    cfg["method"] = {"name": "term", "t_tilt": 1.0}
    spec = validate_sweep_spec({"grid": {"t_tilt": [0.5, 1.0], "lr_mult": [1.0]},
                                "select": {"metric": "accuracy"}}, cfg)
    best, results = sweep(spec, cfg)
    assert len(results) == 2
    assert best["method"]["t_tilt"] in (0.5, 1.0)


def point_config(base, params):
    """The config of one grid point, built without the sweep module."""
    cfg = json.loads(json.dumps(base))
    method = cfg["method"]
    if method["name"] == "rgd":
        method["rule"]["tau"], lr_mult = params
    else:
        method["t_tilt"], lr_mult = params
    cfg["train"]["lr_base"] *= lr_mult
    return cfg


def term_config():
    cfg = base_config()
    cfg["method"] = {"name": "term", "t_tilt": 1.0}
    cfg["dataset"]["split"]["test_fraction"] = 0.2
    return cfg


@pytest.mark.parametrize("base, axes, metric", [
    (divergent_config(), {"tau": [0.5, 0.25], "lr_mult": [1.0, 1e200, 0.5]}, "mse"),
    (term_config(), {"t_tilt": [0.5, 2.0], "lr_mult": [1.0, 1.5]}, "accuracy"),
])
def test_each_point_equals_its_own_run(base, axes, metric):
    _, results = sweep(SweepSpec(axes, metric), base)
    assert len(results) == np.prod([len(v) for v in axes.values()])
    statuses = set()
    for r in results:
        statuses.add(r.status)
        try:
            _, summary = run_experiment(point_config(base, r.params))
        except TrainingDivergenceError as exc:
            assert r.status == "failed" and r.summary is None and r.detail == str(exc)
        else:
            assert r.status == "ok" and r.metric == summary["final"]["holdout"][metric]
            assert json.dumps(r.summary) == json.dumps(summary)
    assert statuses == ({"ok", "failed"} if metric == "mse" else {"ok"})


def test_sweep_builds_its_datasets_once(monkeypatch):
    calls = []
    generate = datagen.gaussian_mixture_classification
    monkeypatch.setattr(datagen, "gaussian_mixture_classification",
                        lambda **kw: calls.append(kw) or generate(**kw))
    spec = SweepSpec({"tau": [1.0, 3.0], "lr_mult": [0.5, 1.0]}, "accuracy")
    _, results = sweep(spec, base_config())
    assert len(results) == 4 and all(r.status == "ok" for r in results)
    assert len(calls) == 1


@pytest.mark.parametrize("values", [["2"], [True], ["a", 1.0], [1.0, None], [float("nan")]])
def test_grid_values_must_be_finite_numbers(values):
    spec = {"grid": {"lr_mult": values}, "select": {"metric": "accuracy"}}
    with pytest.raises(ConfigError, match=r"^sweep\.grid\.lr_mult: "):
        validate_sweep_spec(spec, base_config())
    with pytest.raises(ConfigError, match=r"^sweep\.grid\.lr_mult: "):
        SweepSpec({"tau": [1.0], "lr_mult": values}, "accuracy")


@pytest.mark.parametrize("values", [2.0, "2", {"a": 1}])
def test_grid_axis_must_be_a_list(values):
    spec = {"grid": {"tau": values}, "select": {"metric": "accuracy"}}
    with pytest.raises(ConfigError, match=r"^sweep\.grid\.tau: expected a list"):
        validate_sweep_spec(spec, base_config())
