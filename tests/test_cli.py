import json

import numpy as np
import pytest

from reweightopt import experiment
from reweightopt.cli import cli_main
from reweightopt.sweep import sweep


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "dataset": {"generator": "rare_feature_regression", "params": {"seed": 0}},
        "model": {"kind": "linear"},
        "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 0.25}},
        "train": {"optimizer": "sgd", "lr_base": 4.0, "steps": 30,
                  "batch_size": 255, "seed": 0},
        "metrics": ["mse", "rare_l2", "frequent_l2"],
        "eval_every": 10,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_train_writes_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli_main(["train", str(cfg), "--output", str(out)]) == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,split,objective")
    assert "final" in capsys.readouterr().out


def test_train_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, banana=1)
    assert cli_main(["train", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_train_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dataset": \n totally-not-json')
    assert cli_main(["train", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err  # line-referenced parse error


def test_train_seed_override_changes_run(tmp_path):
    # minibatches so the batch stream (seeded by train.seed) matters
    cfg = write_config(tmp_path, train={"optimizer": "sgd", "lr_base": 1.0,
                                        "steps": 30, "batch_size": 32, "seed": 0})
    out1, out2, out3 = (tmp_path / f"t{i}.csv" for i in range(3))
    cli_main(["train", str(cfg), "--output", str(out1)])
    cli_main(["train", str(cfg), "--output", str(out2), "--seed", "1"])
    cli_main(["train", str(cfg), "--output", str(out3)])
    assert out1.read_bytes() == out3.read_bytes()
    assert out1.read_bytes() != out2.read_bytes()


def test_oracle_suite_passes(capsys):
    assert cli_main(["oracle", "--n", "6", "--trials", "25", "--grid", "801"]) == 0
    out = capsys.readouterr().out
    assert "max duality gap" in out and "PASS" in out


def test_gradcheck_suite_passes(capsys):
    assert cli_main(["gradcheck", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck suite: PASS" in out


def test_report_tabulates_final_metrics(tmp_path, capsys):
    cfg_kl = write_config(tmp_path, "kl.json")
    out_kl = tmp_path / "kl.csv"
    cli_main(["train", str(cfg_kl), "--output", str(out_kl)])

    cfg_erm = write_config(tmp_path, "erm.json",
                           method={"name": "rgd", "rule": {"divergence": "none"}})
    out_erm = tmp_path / "erm.csv"
    cli_main(["train", str(cfg_erm), "--output", str(out_erm)])

    capsys.readouterr()
    assert cli_main(["report", str(out_kl), str(out_erm)]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert "rare_l2" in header and "frequent_l2" in header
    assert "kl.csv" in out and "erm.csv" in out


def test_sweep_command(tmp_path, capsys):
    base = {
        "dataset": {
            "generator": "gaussian_mixture_classification",
            "params": {"num_classes": 3, "n_per_class": 30, "dim": 4,
                       "separation": 3.0, "seed": 1},
            "split": {"holdout_fraction": 0.25, "seed": 2},
        },
        "model": {"kind": "softmax"},
        "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": 40,
                  "batch_size": 16, "seed": 3},
        "metrics": ["accuracy"],
        "eval_every": 20,
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": base,
        "grid": {"tau": [1.0, 3.0], "lr_mult": [1.0]},
        "select": {"metric": "accuracy"},
    }))
    best_path = tmp_path / "best.json"
    assert cli_main(["sweep", str(spec_path), "--output", str(best_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "tau\tlr_mult\tstatus\taccuracy"
    best = json.loads(best_path.read_text())
    assert best["method"]["rule"]["tau"] in (1.0, 3.0)


def test_oracle_instances_file(tmp_path, capsys):
    records = [
        {"losses": [0.0, 1.0], "probs": [0.5, 0.5], "rho": 0.05, "divergence": "kl"},
        {"losses": [0.5, 2.0, 3.0], "probs": [0.4, 0.4, 0.2], "rho": 0.2,
         "divergence": "chi2"},
        {"losses": [0.5, 2.0, 3.0], "probs": [0.4, 0.4, 0.2], "rho": 0.2,
         "divergence": "reverse_kl"},
    ]
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(records))
    assert cli_main(["oracle", "--instances", str(path)]) == 0
    out = capsys.readouterr().out
    assert "instance 0: kl" in out and "duality_gap" in out
    assert "oracle instances: PASS" in out


def test_sweep_bad_spec_exits_2(tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"grid": {}}))
    assert cli_main(["sweep", str(spec_path)]) == 2


@pytest.mark.parametrize("lr_mult", [["2"], [True], ["a", 1.0]])
def test_sweep_non_numeric_grid_value_exits_2(tmp_path, capsys, lr_mult):
    base = json.loads(write_config(tmp_path).read_text())
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": base, "grid": {"lr_mult": lr_mult}, "select": {"metric": "mse"},
    }))
    assert cli_main(["sweep", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: sweep.grid.lr_mult: ")
    assert captured.out == ""


@pytest.mark.parametrize("command, payload", [
    ("train", [1, 2]),
    ("sweep", {"base": [1], "select": {"metric": "accuracy"}}),
])
@pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, payload, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert cli_main([command, str(path), *seed]) == 2
    assert "config error: config: expected an object" in capsys.readouterr().err


def test_sweep_marks_an_overflowing_point_failed(tmp_path, capsys):
    # lr_base * 1.0 makes the first update overflow; lr_base * 1e-310 trains
    base = json.loads(write_config(tmp_path).read_text())
    base["dataset"]["split"] = {"seed": 1, "holdout_fraction": 0.2}
    base["train"].update(lr_base=1.7e308, batch_size=1)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": base,
        "grid": {"tau": [0.25], "lr_mult": [1e-310, 1.0]},
        "select": {"metric": "mse"},
    }))
    with np.errstate(over="ignore"):
        assert cli_main(["sweep", str(spec_path)]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:3]]
    assert [row[2] for row in rows] == ["ok", "failed"]


def test_sweep_with_unknown_selection_split_exits_2_without_training(tmp_path, capsys, monkeypatch):
    from reweightopt.sweep import sweep

    calls = []
    train = sweep.__globals__["_train"]
    monkeypatch.setitem(sweep.__globals__, "_train", lambda *args: calls.append(1) or train(*args))
    base = json.loads(write_config(tmp_path).read_text())
    base["dataset"]["split"] = {"seed": 1, "holdout_fraction": 0.2}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": base,
        "grid": {"tau": [0.25], "lr_mult": [1.0]},
        "select": {"metric": "mse", "split": "holdut"},
    }))
    assert cli_main(["sweep", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: selection split 'holdut' is not a split")
    assert captured.out == "" and calls == []


def test_sweep_with_out_of_range_later_point_exits_2_without_training(tmp_path, capsys,
                                                                      monkeypatch):
    calls = []
    monkeypatch.setitem(sweep.__globals__, "_train", lambda *args: calls.append(1))
    base = json.loads(write_config(tmp_path).read_text())
    base["method"] = {"name": "ma", "lam": 1.0, "beta_ma": 0.5}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "base": base, "grid": {"lam": [1.0], "beta_ma": [0.5, 1.5], "lr_mult": [1.0]},
        "select": {"metric": "mse"},
    }))
    assert cli_main(["sweep", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: method: beta_ma must lie in (0, 1)")
    assert captured.out == "" and calls == []


@pytest.mark.parametrize("path", [
    "method.rule.tau", "method.t_tilt", "train.lr_base", "train.beta1", "train.box",
    "dataset.params.separation", "dataset.subsample.imbalance_factor", "model.init_scale",
    "dataset.subsample.n_max",
])
def test_train_integer_beyond_the_float_range_exits_2(tmp_path, capsys, path):
    # each was an uncaught OverflowError where the value is turned into a float
    dataset = {"generator": "gaussian_mixture_classification",
               "params": {"num_classes": 3, "n_per_class": 10, "dim": 4,
                          "separation": 3.0, "seed": 0},
               "subsample": {"n_max": 10, "imbalance_factor": 2.0, "seed": 1}}
    cfg = json.loads(write_config(
        tmp_path, dataset=dataset, metrics=["accuracy"],
        model={"kind": "mlp", "hidden": [4], "init_seed": 0, "init_scale": 1.0},
    ).read_text())
    if path == "method.t_tilt":
        cfg["method"] = {"name": "term", "t_tilt": 1.0}
    cfg["train"].update(beta1=0.9, box=[-5.0, 5.0])
    *parents, key = path.split(".")
    section = cfg
    for part in parents:
        section = section[part]
    section[key] = [0, 10**400] if key == "box" else 10**400
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps(cfg))
    assert cli_main(["train", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {path}: expected a number within the float range"
    )


def test_train_integer_json_cannot_parse_exits_2(tmp_path, capsys):
    # the json module refuses integers of more than 4300 digits with a ValueError
    path = tmp_path / "config.json"
    text = write_config(tmp_path).read_text()
    path.write_text(text.replace('"seed": 0', '"seed": ' + "9" * 5000, 1))
    assert cli_main(["train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: Exceeds the limit")


def test_missing_file_exits_2():
    assert cli_main(["train", "/nonexistent/config.json"]) == 2


@pytest.mark.parametrize("overrides, message", [
    ({"model": {"kind": "mlp", "hidden": [], "init_seed": 0},
      "dataset": {"generator": "gaussian_mixture_classification",
                  "params": {"num_classes": 3, "n_per_class": 10, "dim": 4,
                             "separation": 3.0, "seed": 0}},
      "metrics": ["accuracy"]}, "model"),
    ({"metrics": ["accuracy"]}, "accuracy"),
    ({"dataset": {"generator": "gaussian_mixture_classification",
                  "params": {"num_classes": 0, "n_per_class": 10, "dim": 4,
                             "separation": 3.0, "seed": 0}}}, "dataset"),
    # hidden/init_seed/init_scale are mlp-only, never silently ignored
    ({"model": {"kind": "softmax", "hidden": [32], "init_seed": 5, "init_scale": 9.0},
      "dataset": {"generator": "gaussian_mixture_classification",
                  "params": {"num_classes": 3, "n_per_class": 10, "dim": 4,
                             "separation": 3.0, "seed": 0}},
      "metrics": ["accuracy"]}, "model:"),
    ({"model": {"kind": "linear", "hidden": [4]}}, "model:"),
])
def test_train_unbuildable_config_exits_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert cli_main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("split, flip, message", [
    ({"test_fraction": -0.2}, None, "dataset.split.test_fraction: expected a number in [0, 1)"),
    ({"holdout_fraction": float("nan")}, None,
     "dataset.split.holdout_fraction: expected a number in [0, 1)"),
    ({"test_fraction": "0.2"}, None, "dataset.split.test_fraction: expected a number"),
    ({"test_fraction": 0.6, "holdout_fraction": 0.4}, None,
     "dataset.split: test_fraction + holdout_fraction must be below 1"),
    ({"test_fraction": 0.2, "seed": 1.5}, None, "dataset.split.seed: expected an integer"),
    ({"test_fraction": 0.2}, {"fraction": "0.2", "seed": 0},
     "dataset.flip_train.fraction: expected a number"),
    ({"test_fraction": 0.2}, {"fraction": 0.2, "seed": 2.0},
     "dataset.flip_train.seed: expected an integer"),
])
def test_train_bad_dataset_value_exits_2(tmp_path, capsys, split, flip, message):
    dataset = {"generator": "gaussian_mixture_classification",
               "params": {"num_classes": 3, "n_per_class": 10, "dim": 4,
                          "separation": 3.0, "seed": 0},
               "split": {"seed": 0, **split}}
    if flip is not None:
        dataset["flip_train"] = flip
    cfg = write_config(tmp_path, dataset=dataset, model={"kind": "softmax"},
                       metrics=["accuracy"])
    assert cli_main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("separation", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_train_non_finite_separation_exits_2(tmp_path, capsys, separation):
    dataset = {"generator": "gaussian_mixture_classification",
               "params": {"num_classes": 3, "n_per_class": 10, "dim": 4,
                          "separation": separation, "seed": 0}}
    cfg = write_config(tmp_path, dataset=dataset, model={"kind": "softmax"},
                       metrics=["accuracy"])
    assert cli_main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: dataset.params: inputs contain non-finite entries"
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("overrides, message", [
    (lambda v: {"method": {"name": "term", "t_tilt": v}}, "method.t_tilt: t_tilt must be"),
    (lambda v: {"method": {"name": "ma", "lam": v, "beta_ma": 0.5}}, "method: lam must be"),
    (lambda v: {"train": {"optimizer": "adam", "lr_base": 0.1, "steps": 5,
                          "batch_size": 255, "seed": 0, "eps": v}}, "train: adam eps must be"),
], ids=["t_tilt", "lam", "eps"])
def test_train_non_finite_hyperparameter_exits_2(tmp_path, capsys, overrides, message, value):
    cfg = write_config(tmp_path, **overrides(value))
    assert cli_main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message} finite and positive")


def test_train_non_integer_steps_exits_2(tmp_path, capsys):
    train = {"optimizer": "sgd", "lr_base": 4.0, "steps": 10.9, "batch_size": 255, "seed": 0}
    cfg = write_config(tmp_path, train=train)
    assert cli_main(["train", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: train.steps: expected an integer")


@pytest.mark.parametrize("record", [
    {"losses": [0.0, 1.0], "probs": [0.5, 0.5], "divergence": "kl"},
    {"losses": [0.0, 1.0], "probs": [0.5], "rho": 0.1, "divergence": "kl"},
    {"losses": [0.0, 1.0], "probs": [0.5, 0.5], "rho": 0.1, "divergence": "hellinger"},
    {"losses": "abc", "probs": [0.5, 0.5], "rho": 0.1, "divergence": "kl"},
    {"losses": [-1e308, 1e308], "probs": [0.5, 0.5], "rho": 0.1, "divergence": "kl"},
    [0.0, 1.0],
])
def test_oracle_malformed_instance_exits_2(tmp_path, capsys, record):
    path = tmp_path / "instances.json"
    path.write_text(json.dumps([record]))
    assert cli_main(["oracle", "--instances", str(path)]) == 2
    assert "config error: instance 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "--trials", "1", "--n", "1"],
    ["oracle", "--trials", "1", "--grid", "1"],
    ["oracle", "--trials", "1", "--grid", "0"],
    ["oracle", "--trials", "1", "--rho-max", "-1"],
    ["oracle", "--trials", "1", "--rho-max", "nan"],
    ["oracle", "--trials", "0"],
    ["gradcheck", "--trials", "-5"],
])
def test_suite_arguments_out_of_range_exit_2(capsys, argv):
    assert cli_main(argv) == 2
    assert f"config error: {argv[-2]}" in capsys.readouterr().err


def test_report_malformed_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "notes.csv"
    path.write_text("hello,world\n1,2\n")
    assert cli_main(["report", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_internal_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal invariant broken")

    # a bug inside the training loop, after the config was accepted
    monkeypatch.setattr(experiment, "rgd_step", broken)
    cfg = write_config(tmp_path)
    with pytest.raises(ValueError, match="internal invariant broken"):
        cli_main(["train", str(cfg)])
    assert "config error" not in capsys.readouterr().err


def test_train_divergence_lists_plain_sample_indices(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"optimizer": "sgd", "lr_base": 1e200, "steps": 3,
                                        "batch_size": 2, "seed": 0})
    assert cli_main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "(samples [" in err and "np.int64" not in err


def test_train_with_overflowing_eval_losses_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"optimizer": "sgd", "lr_base": 1e160, "steps": 1,
                                        "batch_size": 255, "seed": 0})
    assert cli_main(["train", str(cfg)]) == 1
    assert "diverged at step 1: non-finite train loss" in capsys.readouterr().err
