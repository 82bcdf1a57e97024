import copy
import importlib.util
import json
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from reweightopt import datagen, experiment, models, optim, weighting
from reweightopt.datagen import gaussian_mixture_classification, rare_feature_regression
from reweightopt.experiment import (
    ConfigError,
    Trace,
    TraceRecord,
    direction_l2,
    export_trace,
    minibatch_stream,
    parse_trace,
    run_experiment,
    validate_config,
)
from reweightopt.datagen import split as datagen_split
from reweightopt.models import Batch, ModelKind, ModelState, per_sample_loss, zero_state
from reweightopt.optim import (
    BaselineState,
    OptimizerState,
    TrainConfig,
    TrainingDivergenceError,
    init_state,
    ma_exp_step,
    rgd_step,
    term_objective,
    term_step,
    term_weights,
)
from reweightopt.weighting import (
    WeightingRule,
    batch_weights,
    weighted_objective,
)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def toy_config(seed=0, divergence="kl", tau=0.25, steps=60, lr=4.0):
    rule = {"divergence": divergence}
    if divergence != "none":
        rule["tau"] = tau
    return {
        "dataset": {"generator": "rare_feature_regression", "params": {"seed": seed}},
        "model": {"kind": "linear"},
        "method": {"name": "rgd", "rule": rule},
        "train": {
            "optimizer": "sgd",
            "lr_base": lr,
            "steps": steps,
            "batch_size": 255,
            "seed": seed,
        },
        "metrics": ["mse", "rare_l2", "frequent_l2"],
        "eval_every": 20,
    }


def mixture_config(seed=0, method=None, steps=100):
    return {
        "dataset": {
            "generator": "gaussian_mixture_classification",
            "params": {"num_classes": 3, "n_per_class": 40, "dim": 4,
                       "separation": 3.0, "seed": seed},
            "split": {"holdout_fraction": 0.2, "test_fraction": 0.2, "seed": seed},
        },
        "model": {"kind": "softmax"},
        "method": method or {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": steps,
                  "batch_size": 16, "seed": seed},
        "metrics": ["accuracy"],
        "eval_every": 25,
    }


def _every_dataset_option_config():
    """A valid mlp config whose dataset section has every optional part."""
    cfg = mixture_config()
    cfg["dataset"]["subsample"] = {"n_max": 40, "imbalance_factor": 2.0, "seed": 1}
    cfg["dataset"]["flip_train"] = {"fraction": 0.2, "seed": 2}
    cfg["model"] = {"kind": "mlp", "hidden": [4], "init_seed": 3}
    return cfg


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        cfg = toy_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)

    def test_unknown_nested_key(self):
        cfg = toy_config()
        cfg["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="train"):
            validate_config(cfg)

    def test_missing_required(self):
        cfg = toy_config()
        del cfg["train"]["lr_base"]
        with pytest.raises(ConfigError, match="lr_base"):
            validate_config(cfg)

    def test_unknown_generator(self):
        cfg = toy_config()
        cfg["dataset"]["generator"] = "cifar10"
        with pytest.raises(ConfigError, match="generator"):
            validate_config(cfg)

    def test_unknown_metric(self):
        cfg = toy_config()
        cfg["metrics"] = ["f1"]
        with pytest.raises(ConfigError, match="metric"):
            validate_config(cfg)

    def test_bad_method(self):
        cfg = toy_config()
        cfg["method"] = {"name": "focal"}
        with pytest.raises(ConfigError, match="method"):
            validate_config(cfg)

    def test_gamma_override_is_an_unknown_key(self):
        cfg = toy_config()
        cfg["method"]["rule"]["gamma_override"] = 0.2
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)

    def test_mlp_needs_init_seed(self):
        cfg = mixture_config()
        cfg["model"] = {"kind": "mlp", "hidden": [8]}
        with pytest.raises(ConfigError, match="init_seed"):
            validate_config(cfg)

    @pytest.mark.parametrize("model", [
        {"kind": "softmax", "hidden": [32], "init_seed": 5, "init_scale": 9.0},
        {"kind": "linear", "hidden": [4]},
    ])
    def test_mlp_only_keys_rejected(self, model):
        cfg = mixture_config() if model["kind"] == "softmax" else toy_config()
        cfg["model"] = model
        message = rf"^model: unknown key\(s\) .* for kind '{model['kind']}'$"
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

    def test_mlp_takes_all_model_keys(self):
        cfg = mixture_config(steps=2)
        cfg["model"] = {"kind": "mlp", "hidden": [5], "init_seed": 1, "init_scale": 0.5}
        _, summary = run_experiment(cfg)
        assert len(summary["final_theta"]) == 5 * 4 + 5 + 3 * 5 + 3

    @pytest.mark.parametrize("path, value", [
        ("train.steps", 10.9), ("train.batch_size", 2.5), ("train.seed", 1.5),
        ("train.steps", "10"), ("train.lr_base", "0.5"), ("train.steps", True),
        ("train.seed", False), ("train.beta1", True), ("train.beta2", "0.9"),
        ("train.eps", None), ("method.rule.tau", True), ("method.rule.tau", "1"),
        ("method.t_tilt", True), ("method.lam", "2"), ("method.beta_ma", False),
        ("eval_every", True), ("eval_every", 2.0),
    ])
    def test_numbers_are_not_coerced(self, path, value):
        # int()/float() would turn each of these into a number silently
        *parents, key = path.split(".")
        term = {"name": "term", "t_tilt": 1.0}
        ma = {"name": "ma", "lam": 1.0, "beta_ma": 0.5}
        cfg = mixture_config(method={"t_tilt": term, "lam": ma, "beta_ma": ma}.get(key))
        section = cfg
        for part in parents:
            section = section[part]
        section[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            validate_config(cfg)

    @pytest.mark.parametrize("method", [
        {"name": "rgd", "rule": {"divergence": "kl", "tau": 3}},
        {"name": "term", "t_tilt": 1},
        {"name": "ma", "lam": 2, "beta_ma": 0.5},
    ])
    def test_integer_valued_numbers_accepted(self, method):
        cfg = mixture_config(method=method)
        cfg["train"].update(lr_base=1, beta1=0, eps=1)
        assert validate_config(cfg)["method"] == method

    @pytest.mark.parametrize("path, value", [
        ("dataset.split.test_fraction", -0.2), ("dataset.split.test_fraction", math.nan),
        ("dataset.split.test_fraction", "0.2"), ("dataset.split.test_fraction", 1.0),
        ("dataset.split.holdout_fraction", -0.2), ("dataset.split.holdout_fraction", math.nan),
        ("dataset.split.holdout_fraction", True), ("dataset.split.seed", 4.0),
        ("dataset.split.seed", -1), ("dataset.params.seed", 0.5),
        ("dataset.params.n_per_class", 40.0), ("dataset.params.dim", "4"),
        ("dataset.params.separation", "3"), ("dataset.subsample.n_max", 30.0),
        ("dataset.subsample.imbalance_factor", "2"), ("dataset.subsample.seed", 1.5),
        ("dataset.flip_train.fraction", "0.2"), ("dataset.flip_train.fraction", 1.5),
        ("dataset.flip_train.fraction", -0.1), ("dataset.flip_train.fraction", math.nan),
        ("dataset.flip_train.seed", 2.0), ("train.seed", -1), ("model.init_seed", -3),
        ("model.init_seed", 3.0), ("model.hidden", [True]), ("model.hidden", [2.5]),
        ("model.init_scale", True), ("train.box", [True, 2]),
    ])
    def test_bad_values_name_their_key(self, path, value):
        # each was dropped silently, coerced, or reported in numpy's words
        *parents, key = path.split(".")
        cfg = _every_dataset_option_config()
        section = cfg
        for part in parents:
            section = section[part]
        section[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
            validate_config(cfg)

    @pytest.mark.parametrize("test_fraction, holdout_fraction", [(0.5, 0.5), (0.9, 0.3)])
    def test_split_fractions_leave_a_train_split(self, test_fraction, holdout_fraction):
        cfg = _every_dataset_option_config()
        cfg["dataset"]["split"].update(
            test_fraction=test_fraction, holdout_fraction=holdout_fraction
        )
        with pytest.raises(ConfigError, match=r"^dataset\.split: test_fraction \+ holdout"):
            validate_config(cfg)

    @pytest.mark.parametrize("update", [
        {"split": {"test_fraction": 0, "holdout_fraction": 0.5, "seed": 0}},
        {"flip_train": {"fraction": 0, "seed": 0}},
        {"flip_train": {"fraction": 1, "seed": 2**40}},
    ])
    def test_dataset_values_at_their_bounds_accepted(self, update):
        cfg = _every_dataset_option_config()
        cfg["dataset"].update(update)
        assert validate_config(cfg)["dataset"] == cfg["dataset"]

    @pytest.mark.parametrize("method, train, message", [
        ({"name": "ma", "lam": 1.0, "beta_ma": 1.5}, {}, r"^method: beta_ma must lie in \(0, 1\)"),
        ({"name": "rgd", "rule": {"divergence": "kl", "tau": -1}}, {},
         r"^method\.rule: tau must be a positive finite real"),
        (None, {"optimizer": "rmsprop"}, r"^train: unknown optimizer 'rmsprop'"),
        (None, {"schedule": "bogus"}, r"^train: 'bogus' is not a valid Schedule"),
        (None, {"box": [1, 0]}, r"^train: projection box must satisfy lo < hi"),
    ], ids=["beta_ma", "tau", "optimizer", "schedule", "box"])
    def test_method_and_train_values_checked_before_anything_runs(self, method, train, message):
        # the weighter's and TrainConfig's own checks, run by validate_config alone
        cfg = mixture_config(method=method)
        cfg["train"].update(train)
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

    def test_defaults_filled(self):
        cfg = toy_config()
        del cfg["eval_every"]
        del cfg["metrics"]
        out = validate_config(cfg)
        assert out["eval_every"] == 10 and out["metrics"] == []


def _reference_datasets(ds_cfg):
    """``_build_datasets`` as a chain of the public datagen calls, each of
    which gathers its own rows."""
    full = getattr(datagen, ds_cfg["generator"])(**ds_cfg["params"])
    if "subsample" in ds_cfg:
        sub = ds_cfg["subsample"]
        counts = datagen.long_tailed_counts(full.num_classes, sub["n_max"], sub["imbalance_factor"])
        full = datagen.subsample_long_tailed(full, counts, sub["seed"])
    splits = {"train": full}
    if "split" in ds_cfg:
        sp = ds_cfg["split"]
        test_frac = float(sp.get("test_fraction", 0.0))
        holdout_frac = float(sp.get("holdout_fraction", 0.0))
        rest = full
        if test_frac > 0:
            rest, splits["test"] = datagen.split(rest, 1.0 - test_frac, sp["seed"])
        if holdout_frac > 0:
            frac = holdout_frac / (1.0 - test_frac)
            rest, splits["holdout"] = datagen.split(rest, 1.0 - frac, sp["seed"] + 1)
        splits["train"] = rest
    if "flip_train" in ds_cfg:
        fl = ds_cfg["flip_train"]
        splits["train"] = datagen.flip_labels(splits["train"], fl["fraction"], fl["seed"])
    return splits


_MIXTURE_PARAMS = {"num_classes": 4, "n_per_class": 50, "dim": 6, "separation": 2.0}
_BUILD_OPTIONS = {
    "subsample": {"n_max": 50, "imbalance_factor": 10.0, "seed": 3},
    "test": {"test_fraction": 0.2},
    "holdout": {"holdout_fraction": 0.15},
    "flip": {"fraction": 0.3, "seed": 4},
}


def _build_case(generator, options, seed):
    if generator == "rare_feature_regression":
        ds = {"generator": generator, "params": {"seed": seed}}
    else:
        ds = {"generator": generator, "params": {**_MIXTURE_PARAMS, "seed": seed}}
    fractions = {}
    for option in options:
        if option == "subsample":
            ds["subsample"] = _BUILD_OPTIONS[option]
        elif option == "flip":
            ds["flip_train"] = _BUILD_OPTIONS[option]
        else:
            fractions.update(_BUILD_OPTIONS[option])
    if fractions:
        ds["split"] = {**fractions, "seed": seed + 1}
    return ds


class TestBuildDatasets:
    """``_build_datasets`` is the public datagen chain with the config's
    error contexts; its splits equal those of the chain's reference."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("generator, options", [
        ("gaussian_mixture_classification", options)
        for options in [(), ("subsample",), ("test",), ("holdout",), ("test", "holdout"),
                        ("flip",), ("test", "flip"), ("holdout", "flip"),
                        ("subsample", "test"), ("subsample", "holdout", "flip"),
                        ("subsample", "test", "holdout", "flip")]
    ] + [
        ("rare_feature_regression", options)
        for options in [(), ("test",), ("holdout",), ("test", "holdout")]
    ])
    def test_equals_the_public_datagen_chain(self, generator, options, seed):
        ds_cfg = _build_case(generator, options, seed)
        got = experiment._build_datasets(ds_cfg)
        want = _reference_datasets(ds_cfg)
        assert list(got) == list(want)
        for name, ds in got.items():
            ref = want[name]
            for arr, ref_arr in ((ds.inputs, ref.inputs), (ds.targets, ref.targets)):
                assert arr.dtype == ref_arr.dtype and arr.shape == ref_arr.shape
                assert arr.tobytes() == ref_arr.tobytes()
                assert not arr.flags.writeable
            assert list(ds.meta.items()) == list(ref.meta.items())

    def test_nothing_selected_keeps_the_generated_dataset(self):
        ds_cfg = _build_case("gaussian_mixture_classification", ("flip",), 2)
        ds_cfg["split"] = {"seed": 3}  # no fraction: no split is carved
        splits = experiment._build_datasets(ds_cfg)
        assert list(splits) == ["train"]
        full = datagen.gaussian_mixture_classification(**ds_cfg["params"])
        assert splits["train"].inputs.tobytes() == full.inputs.tobytes()
        assert splits["train"].inputs.base is None


class TestMinibatchStream:
    def test_epoch_without_replacement(self):
        batches = list(minibatch_stream(10, 3, 4, seed=0))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        seen = np.concatenate(batches)
        assert np.array_equal(np.sort(seen), np.arange(10))

    def test_reshuffles_each_epoch(self):
        batches = list(minibatch_stream(6, 6, 3, seed=1))
        assert not np.array_equal(batches[0], batches[1]) or not np.array_equal(
            batches[1], batches[2]
        )

    def test_deterministic(self):
        a = [b.tolist() for b in minibatch_stream(20, 7, 10, seed=5)]
        b = [b.tolist() for b in minibatch_stream(20, 7, 10, seed=5)]
        assert a == b

    @pytest.mark.parametrize("n, batch_size, message", [
        (0, 4, "n must be >= 1, got 0"),
        (math.nan, 4, "n must be >= 1, got nan"),
        (5, 0, "batch_size must be >= 1, got 0"),
        (5, -1, "batch_size must be >= 1, got -1"),
        (5, math.nan, "batch_size must be >= 1, got nan"),
    ])
    def test_refuses_an_epoch_of_no_batch(self, n, batch_size, message):
        # an empty range(0, n, batch_size) would make the stream spin forever
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            next(minibatch_stream(n, batch_size, 3, seed=0))


class TestRunExperiment:
    def test_deterministic_traces(self):
        t1, s1 = run_experiment(toy_config())
        t2, s2 = run_experiment(toy_config())
        assert t1 == t2
        assert s1 == s2

    def test_byte_identical_exports(self, tmp_path):
        t1, _ = run_experiment(toy_config())
        t2, _ = run_experiment(toy_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(t1, p1)
        export_trace(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_step_run_has_only_initial_eval(self):
        cfg = toy_config(steps=0)
        trace, summary = run_experiment(cfg)
        assert [r.step for r in trace.records] == [0]
        assert summary["final"]["train"]["step"] == 0

    def test_final_step_always_recorded(self):
        cfg = toy_config(steps=33)  # not a multiple of eval_every
        trace, _ = run_experiment(cfg)
        assert trace.records[-1].step == 33

    def test_kl_weight_stats_bounds(self):
        cfg = mixture_config()
        trace, _ = run_experiment(cfg)
        cap = math.exp(1.0 / 2.0)
        for rec in trace.records:
            assert rec.w_min >= 1.0
            assert rec.w_max <= cap
            assert 0.0 <= rec.w_sat_frac <= 1.0

    def test_splits_present(self):
        trace, summary = run_experiment(mixture_config())
        splits = {r.split for r in trace.records}
        assert splits == {"train", "holdout", "test"}
        assert set(summary["final"]) == {"train", "holdout", "test"}
        assert "accuracy" in summary["holdout_best"]

    def test_one_forward_pass_per_step_and_eval_split(self, monkeypatch):
        # an eval split's losses and accuracy share one forward pass
        calls = []
        forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda *args: calls.append(1) or forward(*args))
        trace, _ = run_experiment(mixture_config(steps=60))  # evals at 0, 25, 50, 60
        evals = sorted({r.step for r in trace.records})
        assert evals == [0, 25, 50, 60] and len(calls) == 60 + len(evals) * 3

    def test_eval_losses_are_checked_once(self, monkeypatch):
        # record checks each split's losses, naming the split and rows; the
        # rule's report core takes them without a second as_loss_vector scan
        def second_check(values):
            raise AssertionError("eval losses checked twice")

        monkeypatch.setattr(weighting, "as_loss_vector", second_check)
        trace, _ = run_experiment(mixture_config(steps=30))
        assert {r.step for r in trace.records} == {0, 25, 30}

    @pytest.mark.parametrize("method", [
        {"name": "term", "t_tilt": 1.0}, {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
    ], ids=["term", "ma"])
    def test_term_and_ma_eval_losses_are_checked_once(self, monkeypatch, method):
        # the Tilt and BaselineState report cores, like the rule's, take them unscanned
        def second_check(values):
            raise AssertionError("eval losses checked twice")

        monkeypatch.setattr(optim, "as_loss_vector", second_check)
        trace, _ = run_experiment(mixture_config(method=method, steps=30))
        assert {r.step for r in trace.records} == {0, 25, 30}

    def test_build_is_read_only(self):
        # every point of a sweep trains from one build, so nothing may write to it
        cfg = mixture_config()
        cfg["model"] = {"kind": "mlp", "hidden": [5], "init_seed": 1}
        cfg["train"]["optimizer"] = "adam"
        built = experiment._build(validate_config(cfg))
        assert list(built.step0) == ["train", "holdout", "test"]
        arrays = [built.state.model.theta, built.state.m, built.state.v]
        arrays += [arr for passed in built.step0.values() for arr in passed]
        arrays += [ds.inputs for ds in built.splits.values()]
        arrays += [ds.targets for ds in built.splits.values()]
        assert not any(arr.flags.writeable for arr in arrays)
        # later runs reuse the build, so its mappings refuse assignment too
        with pytest.raises(TypeError):
            built.splits["train"] = built.splits["test"]
        with pytest.raises(TypeError):
            built.step0["train"] = built.step0["test"]

    def test_build_type_hints_resolve(self):
        hints = typing.get_type_hints(experiment._Built)
        assert hints["state"] is OptimizerState

    def test_flip_applies_to_train_only(self):
        cfg = mixture_config()
        cfg["dataset"]["flip_train"] = {"fraction": 0.5, "seed": 9}
        trace, summary = run_experiment(cfg)
        assert summary["final"]["test"]["accuracy"] >= 0.5

    def test_divergence_error_carries_step(self):
        cfg = toy_config(lr=1e250, divergence="none", steps=10)
        with pytest.raises(TrainingDivergenceError) as err:
            run_experiment(cfg)
        assert 1 <= err.value.step <= 10

    def test_overflowing_sgd_update_diverges_without_a_warning(self):
        # theta - lr * g overflows at step 1: the error reports it, numpy stays quiet
        cfg = toy_config(seed=2, divergence="reverse_kl", tau=2.0, lr=1e308, steps=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergenceError, match="parameter update") as err:
                run_experiment(cfg)
        assert err.value.step == 1

    @pytest.mark.parametrize("method", [
        {"name": "rgd", "rule": {"divergence": "kl", "tau": 0.25}},
        {"name": "term", "t_tilt": 1.0},
        {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
    ], ids=["rgd", "term", "ma"])
    def test_overflowing_eval_losses_diverge_quietly(self, method):
        # step 1 leaves theta finite (about 1e160), but the eval pass squares
        # its residuals to inf: every method reports a divergence, without warnings
        cfg = {**toy_config(lr=1e160, steps=1), "method": method}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergenceError, match="non-finite train loss") as err:
                run_experiment(cfg)
        assert err.value.step == 1 and err.value.sample_indices

    def test_eval_divergence_message_stays_short(self):
        # every train row's eval loss overflows; the message names 32 of them
        cfg = {**toy_config(lr=1e160, steps=1), "eval_every": 1}
        with pytest.raises(TrainingDivergenceError) as err:
            run_experiment(cfg)
        n = len(err.value.sample_indices)
        assert n > 32 and err.value.sample_indices == sorted(set(err.value.sample_indices))
        assert str(err.value).endswith(f", ...], {n} in all)") and len(str(err.value)) < 250

    def test_overflowing_eval_sum_keeps_the_summary_finite_and_quiet(self):
        # the digest tool's softmax run under rgd kl at lr_base 3e306: its eval
        # losses stay finite but their sum overflows; the objective takes the
        # scaled mean, so the summary is strict JSON and numpy stays quiet
        spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        base = digests.MODELS["softmax"]
        cfg = {
            **base,
            "train": {**base["train"], "lr_base": 3e306},
            "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 0.5}},
            "eval_every": 7,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, summary = run_experiment(cfg)
        assert 1e306 < summary["final"]["train"]["objective"] < math.inf
        json.dumps(summary, allow_nan=False)

    def test_term_and_ma_methods_run(self):
        for method in (
            {"name": "term", "t_tilt": 1.0},
            {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
        ):
            trace, summary = run_experiment(mixture_config(method=method, steps=40))
            assert summary["final"]["train"]["accuracy"] > 0.5


def _count_generator_calls(monkeypatch, name):
    """Count the calls of the dataset generator ``name`` from now on."""
    calls = []
    generate = getattr(datagen, name)
    monkeypatch.setattr(datagen, name, lambda **kw: calls.append(kw) or generate(**kw))
    return calls


def _exported(result, path):
    """A run's exported trace bytes and its summary."""
    trace, summary = result
    export_trace(trace, path)
    return path.read_bytes(), summary


def _cold_run(monkeypatch, cfg, path):
    """``_exported`` of a run that builds its data anew."""
    monkeypatch.setattr(experiment, "_last_build", None)
    return _exported(run_experiment(cfg), path)


class TestKeptBuild:
    """Consecutive runs on one dataset, model and optimizer share one build."""

    def test_runs_on_one_dataset_share_one_build(self, monkeypatch, tmp_path):
        configs = [mixture_config(), mixture_config(method={"name": "term", "t_tilt": 1.0}),
                   mixture_config(method={"name": "ma", "lam": 1.0, "beta_ma": 0.5}, steps=40)]
        configs[1]["train"]["lr_base"] = 0.1
        configs[2]["train"]["seed"] = 5
        cold = [_cold_run(monkeypatch, cfg, tmp_path / "cold.csv") for cfg in configs]
        monkeypatch.setattr(experiment, "_last_build", None)
        calls = _count_generator_calls(monkeypatch, "gaussian_mixture_classification")
        warm = [_exported(run_experiment(cfg), tmp_path / "warm.csv") for cfg in configs]
        assert len(calls) == 1
        assert warm == cold

    @pytest.mark.parametrize("change", [
        lambda cfg: cfg["dataset"]["flip_train"].update(seed=7),
        lambda cfg: cfg["model"].update(init_seed=4),
        lambda cfg: cfg["train"].update(optimizer="adam"),
    ], ids=["flip_train.seed", "model.init_seed", "train.optimizer"])
    def test_a_change_to_what_the_build_reads_rebuilds(self, monkeypatch, tmp_path, change):
        cfg = _every_dataset_option_config()
        changed = copy.deepcopy(cfg)
        change(changed)
        cold = _cold_run(monkeypatch, changed, tmp_path / "cold.csv")
        monkeypatch.setattr(experiment, "_last_build", None)
        calls = _count_generator_calls(monkeypatch, "gaussian_mixture_classification")
        run_experiment(cfg)
        assert _exported(run_experiment(changed), tmp_path / "warm.csv") == cold
        assert len(calls) == 2

    @pytest.mark.parametrize("change, message", [
        (lambda cfg: cfg["dataset"]["params"].update(n_per_class=2),
         r"^dataset\.split: degenerate split"),
        # a finite scale whose initial theta overflows
        (lambda cfg: cfg.update(model={"kind": "mlp", "hidden": [4], "init_seed": 0,
                                       "init_scale": 1e308}),
         r"^model: theta contains non-finite"),
    ], ids=["dataset", "model"])
    def test_a_failed_build_keeps_nothing(self, change, message):
        run_experiment(toy_config(steps=0))
        kept = experiment._last_build
        cfg = mixture_config()
        change(cfg)
        for _ in range(2):
            with pytest.raises(ConfigError, match=message), np.errstate(over="ignore"):
                run_experiment(cfg)
            assert experiment._last_build is kept

    def test_a_diverging_run_leaves_the_build_usable(self, monkeypatch, tmp_path):
        cfg = toy_config(steps=30)
        cold = _cold_run(monkeypatch, cfg, tmp_path / "cold.csv")
        monkeypatch.setattr(experiment, "_last_build", None)
        with pytest.raises(TrainingDivergenceError):
            run_experiment(toy_config(lr=1e250, divergence="none", steps=10))
        calls = _count_generator_calls(monkeypatch, "rare_feature_regression")
        assert _exported(run_experiment(cfg), tmp_path / "warm.csv") == cold
        assert calls == []


class TestTraceReport:
    """Each trace row holds what the method reports on that split.

    The run is replayed through the public step functions: rgd rows hold
    the rule's weights, term rows the softmax p (summing to 1, while the
    step applies B * p), ma rows exp(lam * l) / z with the z left by the
    last step, or the split's own mean at step 0.
    """

    STEPS, EVERY = 23, 5

    def _replay(self, method):
        cfg = mixture_config(seed=4, method=method, steps=self.STEPS)
        cfg["eval_every"] = self.EVERY
        ds, sp, tr = cfg["dataset"], cfg["dataset"]["split"], cfg["train"]
        rest, test = datagen_split(gaussian_mixture_classification(**ds["params"]),
                                   1.0 - sp["test_fraction"], sp["seed"])
        frac = sp["holdout_fraction"] / (1.0 - sp["test_fraction"])
        train, holdout = datagen_split(rest, 1.0 - frac, sp["seed"] + 1)
        splits = {"train": train, "holdout": holdout, "test": test}
        state = init_state(zero_state(ModelKind.SOFTMAX, train.dim, train.num_classes))
        rule = WeightingRule("none")
        if method["name"] == "rgd":
            rule = WeightingRule(method["rule"]["divergence"], method["rule"]["tau"])
        config = TrainConfig(tr["optimizer"], rule, lr_base=tr["lr_base"], steps=self.STEPS,
                             batch_size=tr["batch_size"], seed=tr["seed"])
        baseline = BaselineState(method.get("lam", 1.0), method.get("beta_ma", 0.5))
        rows = []

        def record(step):
            for name, ds in splits.items():
                losses = per_sample_loss(state.model, Batch(ds.inputs, ds.targets))
                if method["name"] == "rgd":
                    w = batch_weights(losses, rule)
                    row = (weighted_objective(losses, w), w, rule.report(losses)[2])
                elif method["name"] == "term":
                    w = term_weights(losses, method["t_tilt"])
                    assert math.isclose(w.sum(), 1.0)
                    row = (term_objective(losses, method["t_tilt"]), w, 0.0)
                else:
                    e = np.exp(baseline.lam * losses)
                    z = baseline.z if baseline.z is not None else float(np.mean(e))
                    row = (float(np.mean(losses)), e / z, 0.0)
                objective, w, sat = row
                stats = (float(np.min(w)), float(np.mean(w)), float(np.max(w)), float(sat))
                rows.append((step, name, float(objective), *stats))

        record(0)
        stream = minibatch_stream(train.n, config.batch_size, self.STEPS, config.seed)
        for step, idx in enumerate(stream, start=1):
            batch = Batch(train.inputs[idx], train.targets[idx])
            if method["name"] == "rgd":
                state, _ = rgd_step(state, batch, rule, config)
            elif method["name"] == "term":
                state, _ = term_step(state, batch, method["t_tilt"], config)
            else:
                state, baseline, _ = ma_exp_step(state, baseline, batch, config)
            if step % self.EVERY == 0 or step == self.STEPS:
                record(step)
        return cfg, rows

    @pytest.mark.parametrize("method", [
        {"name": "rgd", "rule": {"divergence": "kl", "tau": 0.5}},
        {"name": "term", "t_tilt": 1.5},
        {"name": "ma", "lam": 0.8, "beta_ma": 0.3},
    ])
    def test_rows_equal_the_replayed_report(self, method):
        cfg, want = self._replay(method)
        trace, _ = run_experiment(cfg)
        got = [(r.step, r.split, r.objective, r.w_min, r.w_mean, r.w_max, r.w_sat_frac)
               for r in trace.records]
        assert [(s, n) for s, n, *_ in want] == [
            (s, n) for s in (0, 5, 10, 15, 20, 23) for n in ("train", "holdout", "test")
        ]
        assert got == want


def _metric(name, model, ds):
    """A metric of ``ds`` as a run computes it, from one eval pass."""
    losses, predicted = models._eval_pass(model, Batch(ds.inputs, ds.targets))
    return experiment._metric_value(name, model, ds, losses, predicted)


class TestMetrics:
    def test_direction_l2(self):
        theta = np.zeros(10)
        theta_star = np.zeros(10)
        assert direction_l2(theta, theta_star, range(10)) == 0.0
        theta = np.zeros(10)
        theta[7] = 1.0
        assert direction_l2(theta, theta_star, [5, 6, 7, 8, 9]) == 1.0
        assert direction_l2(theta, theta_star, [0, 1, 2, 3, 4]) == 0.0
        with pytest.raises(ValueError):
            direction_l2(theta, theta_star, [10])

    def test_direction_l2_of_no_index_is_zero(self):
        assert direction_l2(np.arange(3.0), np.zeros(3), []) == 0.0
        assert direction_l2(np.arange(3.0), np.zeros(3), np.array([], dtype=np.int64)) == 0.0

    def test_accuracy_perfect_and_chance(self):
        ds = gaussian_mixture_classification(4, 10, 5, 50.0, seed=1)
        # well-separated blobs: unit weight on each mean axis classifies perfectly
        w = np.zeros((4, 5))
        for c in range(4):
            w[c, c] = 1.0
        model = ModelState(ModelKind.SOFTMAX, np.concatenate([w.ravel(), np.zeros(4)]), 5, 4)
        assert _metric("accuracy", model, ds) == 1.0
        # all-zero logits predict class 0 always: 1/C on balanced data
        assert _metric("accuracy", zero_state(ModelKind.SOFTMAX, 5, 4), ds) == 0.25

    def test_mse_at_optimum(self):
        ds = rare_feature_regression(seed=2)
        model = ModelState(ModelKind.LINEAR, np.array(ds.meta["theta_star"]), 10)
        assert _metric("mse", model, ds) == 0.0


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path):
        trace, _ = run_experiment(toy_config())
        path = tmp_path / "trace.csv"
        export_trace(trace, path)
        assert parse_trace(path) == trace

    def test_json_round_trip(self, tmp_path):
        trace, _ = run_experiment(toy_config())
        path = tmp_path / "trace.json"
        export_trace(trace, path)
        assert parse_trace(path) == trace

    def test_formats_numerically_identical(self, tmp_path):
        trace, _ = run_experiment(toy_config())
        export_trace(trace, tmp_path / "t.csv")
        export_trace(trace, tmp_path / "t.json")
        assert parse_trace(tmp_path / "t.csv") == parse_trace(tmp_path / "t.json")

    def test_header_layout(self, tmp_path):
        trace, _ = run_experiment(toy_config())
        path = tmp_path / "trace.csv"
        export_trace(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == "step,split,objective,mse,rare_l2,frequent_l2,w_min,w_mean,w_max,w_sat_frac"

    def test_zero_step_trace_is_header_plus_one_row(self, tmp_path):
        trace, _ = run_experiment(toy_config(steps=0))
        path = tmp_path / "trace.csv"
        export_trace(trace, path)
        assert len(path.read_text().splitlines()) == 2

    def test_append_monotonicity_enforced(self):
        trace = Trace(())
        trace.append(TraceRecord(0, "train", 1.0, {}, 1.0, 1.0, 1.0, 0.0))
        trace.append(TraceRecord(0, "test", 1.0, {}, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            trace.append(TraceRecord(0, "train", 1.0, {}, 1.0, 1.0, 1.0, 0.0))


def _golden_trace():
    trace = Trace(("accuracy", "mse"))
    trace.append(TraceRecord(0, "train", 0.1 + 0.2, {"accuracy": 1e-300, "mse": 123456789.125},
                             1.0, 1.5, 2.718281828459045, 0.0))
    trace.append(TraceRecord(0, "test", 1 / 3, {"accuracy": 0.5, "mse": -0.0},
                             0.25, 1e16, 3.0, 0.125))
    trace.append(TraceRecord(10, "train", 2.5e-8, {"accuracy": 0.75, "mse": 7.0},
                             1.0, 1.0, 1.0, 1.0))
    return trace


GOLDEN_CSV = (
    b"step,split,objective,accuracy,mse,w_min,w_mean,w_max,w_sat_frac\r\n"
    b"0,train,0.30000000000000004,1e-300,123456789.125,1.0,1.5,2.718281828459045,0.0\r\n"
    b"0,test,0.3333333333333333,0.5,-0.0,0.25,1e+16,3.0,0.125\r\n"
    b"10,train,2.5e-08,0.75,7.0,1.0,1.0,1.0,1.0\r\n"
)


GOLDEN_JSON = (
    b'[\n'
    b' {\n'
    b'  "step": 0,\n'
    b'  "split": "train",\n'
    b'  "objective": 0.30000000000000004,\n'
    b'  "accuracy": 1e-300,\n'
    b'  "mse": 123456789.125,\n'
    b'  "w_min": 1.0,\n'
    b'  "w_mean": 1.5,\n'
    b'  "w_max": 2.718281828459045,\n'
    b'  "w_sat_frac": 0.0\n'
    b' },\n'
    b' {\n'
    b'  "step": 0,\n'
    b'  "split": "test",\n'
    b'  "objective": 0.3333333333333333,\n'
    b'  "accuracy": 0.5,\n'
    b'  "mse": -0.0,\n'
    b'  "w_min": 0.25,\n'
    b'  "w_mean": 1e+16,\n'
    b'  "w_max": 3.0,\n'
    b'  "w_sat_frac": 0.125\n'
    b' },\n'
    b' {\n'
    b'  "step": 10,\n'
    b'  "split": "train",\n'
    b'  "objective": 2.5e-08,\n'
    b'  "accuracy": 0.75,\n'
    b'  "mse": 7.0,\n'
    b'  "w_min": 1.0,\n'
    b'  "w_mean": 1.0,\n'
    b'  "w_max": 1.0,\n'
    b'  "w_sat_frac": 1.0\n'
    b' }\n'
    b']\n'
)


class TestTraceGoldenBytes:
    """Exact file bytes of a hand-built trace; the trace format must not drift."""

    @pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)])
    def test_export_bytes(self, tmp_path, fmt, golden):
        path = tmp_path / f"trace.{fmt}"
        export_trace(_golden_trace(), path)
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)])
    def test_parse_golden_bytes(self, tmp_path, fmt, golden):
        path = tmp_path / f"trace.{fmt}"
        path.write_bytes(golden)
        assert parse_trace(path) == _golden_trace()


class TestConfigBoundary:
    """Input that cannot be built into objects is a ConfigError before step 1."""

    def test_mlp_without_hidden_layers(self):
        cfg = mixture_config()
        cfg["model"] = {"kind": "mlp", "hidden": [], "init_seed": 0}
        with pytest.raises(ConfigError, match="model"):
            run_experiment(cfg)

    def test_bad_generator_params(self):
        cfg = mixture_config()
        cfg["dataset"]["params"]["num_classes"] = 1
        with pytest.raises(ConfigError, match="dataset"):
            run_experiment(cfg)

    @pytest.mark.parametrize("change, message", [
        (lambda ds: ds["params"].update(num_classes=1),
         r"^dataset\.params\.num_classes: expected an integer >= 2, got 1$"),
        (lambda ds: ds["params"].update(separation=math.nan),
         r"^dataset\.params\.separation: expected a finite number, got nan$"),
        (lambda ds: ds["params"].update(separation=math.inf),
         r"^dataset\.params\.separation: expected a finite number, got inf$"),
        (lambda ds: ds.update(subsample={"n_max": 80, "imbalance_factor": 2.0, "seed": 1}),
         r"^dataset\.subsample: class 0 has 40 samples, need 80"),
        (lambda ds: ds.update(generator="rare_feature_regression", params={"seed": 0},
                              subsample={"n_max": 5, "imbalance_factor": 2.0, "seed": 1}),
         r"^dataset: unknown key\(s\) \['subsample'\] for generator 'rare_feature_regression'"),
        (lambda ds: ds["params"].update(n_per_class=2), r"^dataset\.split: degenerate split"),
        (lambda ds: ds.update(generator="rare_feature_regression", params={"seed": 0},
                              flip_train={"fraction": 0.1, "seed": 1}),
         r"^dataset: unknown key\(s\) \['flip_train'\] for generator 'rare_feature_regression'"),
    ], ids=["num_classes", "nan-separation", "inf-separation", "subsample-size",
            "subsample-regression", "split", "flip-regression"])
    def test_dataset_fault_names_its_stage(self, change, message):
        cfg = mixture_config()
        change(cfg["dataset"])
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)

    def test_a_run_checks_its_rows_once(self, monkeypatch):
        # the generator's Dataset is the one check: splits, flips, eval
        # passes and minibatches reuse its rows unchecked
        calls = []
        check = Batch.__post_init__

        def counted(self):
            calls.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(Batch, "__post_init__", counted)
        cfg = _every_dataset_option_config()
        run_experiment(cfg)
        assert calls == ["Dataset"]

    def test_linear_model_on_classification_data(self):
        cfg = mixture_config()
        cfg["model"] = {"kind": "linear"}
        with pytest.raises(ConfigError, match=r"^model\.kind: linear does not apply"):
            run_experiment(cfg)

    def test_method_fault_reported_before_model_fault(self):
        # the order is: validate_config (schema, method, train), dataset stages, model
        cfg = mixture_config(method={"name": "rgd", "rule": {"divergence": "hellinger"}})
        cfg["model"] = {"kind": "linear"}
        with pytest.raises(ConfigError, match=r"^method\.rule: "):
            run_experiment(cfg)

    @pytest.mark.parametrize("config, metric", [(toy_config, "accuracy"),
                                                (mixture_config, "mse")])
    def test_metric_model_kind_mismatch(self, monkeypatch, config, metric):
        def no_training(*args):
            raise AssertionError("the config error must come before step 1")

        monkeypatch.setattr(experiment, "rgd_step", no_training)
        cfg = config()
        cfg["metrics"] = [metric]
        with pytest.raises(ConfigError, match=metric):
            run_experiment(cfg)

    def test_non_numeric_hyperparameters(self):
        cfg = mixture_config(method={"name": "term", "t_tilt": "high"})
        with pytest.raises(ConfigError, match="t_tilt"):
            run_experiment(cfg)
        cfg = mixture_config()
        cfg["train"]["box"] = 5
        with pytest.raises(ConfigError, match="train"):
            run_experiment(cfg)

    @pytest.mark.parametrize("key, value", [("metrics", 5), ("metrics", [["mse"]]),
                                            ("output", {1, 2})])
    def test_malformed_values(self, key, value):
        cfg = toy_config()
        cfg[key] = value
        # a metrics fault names its key; a value that is not JSON, the whole config
        with pytest.raises(ConfigError, match="^metrics: " if key == "metrics" else "config"):
            validate_config(cfg)

    def test_method_not_an_object(self):
        cfg = toy_config()
        cfg["method"] = ["rgd"]
        with pytest.raises(ConfigError, match="method"):
            validate_config(cfg)

    def test_unsupported_trace_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            export_trace(Trace(()), tmp_path / "trace.txt")
