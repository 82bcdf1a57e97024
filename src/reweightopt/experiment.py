"""Experiment runner: strict JSON configs, training loops, traces, metrics.

A config fully determines a run (all seeds explicit), so traces are
byte-identical across repeated runs on the same platform.  Unknown config
keys are rejected, which keeps experiment files usable as archival
records.

Trace rows carry, per evaluation step and split: the method's reported
objective, the requested metrics, and weight statistics (min/mean/max and
the fraction of samples saturated at the clip).
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datagen, models
from .datagen import Dataset
from .models import Batch, ModelKind, ModelState, predict, random_state, zero_state
from .optim import BaselineState, Tilt, TrainConfig, init_state, rgd_step
from .weighting import Divergence, WeightingRule

# bound here only so that the benchmark's layer_targets() can trace them
from .models import per_sample_loss  # noqa: F401
from .optim import ma_exp_step, term_step  # noqa: F401
from .weighting import batch_weights  # noqa: F401

__all__ = [
    "ConfigError",
    "TraceRecord",
    "Trace",
    "validate_config",
    "minibatch_stream",
    "run_experiment",
    "direction_l2",
    "accuracy",
    "mse",
    "METRIC_DIRECTIONS",
    "export_trace",
    "parse_trace",
]


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending key path."""


# +1 means larger is better; used for best-holdout tracking and sweeps
METRIC_DIRECTIONS = {"mse": -1, "accuracy": +1, "rare_l2": -1, "frequent_l2": -1}


@dataclass(frozen=True)
class TraceRecord:
    step: int
    split: str
    objective: float
    metrics: dict
    w_min: float
    w_mean: float
    w_max: float
    w_sat_frac: float


@dataclass
class Trace:
    """Append-only per-step records; steps strictly increase per split."""

    metric_names: tuple
    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict, compare=False)

    def append(self, record: TraceRecord) -> None:
        for prev in reversed(self.records):
            if prev.split == record.split:
                if record.step <= prev.step:
                    raise ValueError(
                        f"step {record.step} not increasing for split {record.split!r}"
                    )
                break
        self.records.append(record)

    def rows(self, split: str | None = None):
        return [r for r in self.records if split is None or r.split == split]


@contextmanager
def _config_errors(path: str):
    """Re-raise a KeyError/TypeError/ValueError from building the input
    section ``path`` into objects as a ConfigError naming that section."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}: {detail}") from None


def _check_keys(section: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - required - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")


def _check_numbers(section: dict, path: str, keys: tuple, types=(int, float)):
    """Reject a present key whose JSON value (bool, string, ...) is not of ``types``."""
    for key in keys:
        if key in section and type(section[key]) not in types:
            what = "an integer" if types == (int,) else "a number"
            raise ConfigError(f"{path}.{key}: expected {what}, got {section[key]!r}")


_GENERATOR_PARAMS = {
    "rare_feature_regression": ({"seed"}, set()),
    "gaussian_mixture_classification": (
        {"num_classes", "n_per_class", "dim", "separation", "seed"},
        set(),
    ),
}


@_config_errors("config")
def validate_config(config: dict) -> dict:
    """Strict-schema check; returns the config with defaults filled in."""
    _check_keys(
        config,
        "config",
        {"dataset", "model", "method", "train"},
        {"eval_every", "metrics", "output"},
    )
    cfg = json.loads(json.dumps(config))  # deep copy, also rejects non-JSON values

    ds = cfg["dataset"]
    _check_keys(ds, "dataset", {"generator", "params"}, {"subsample", "split", "flip_train"})
    gen = ds["generator"]
    if gen not in _GENERATOR_PARAMS:
        raise ConfigError(f"dataset.generator: unknown generator {gen!r}")
    req, opt = _GENERATOR_PARAMS[gen]
    _check_keys(ds["params"], "dataset.params", req, opt)
    if "subsample" in ds:
        _check_keys(ds["subsample"], "dataset.subsample", {"n_max", "imbalance_factor", "seed"})
    if "split" in ds:
        _check_keys(
            ds["split"], "dataset.split", {"seed"}, {"holdout_fraction", "test_fraction"}
        )
    if "flip_train" in ds:
        _check_keys(ds["flip_train"], "dataset.flip_train", {"fraction", "seed"})

    model = cfg["model"]
    _check_keys(model, "model", {"kind"}, {"hidden", "init_seed", "init_scale"})
    try:
        kind = ModelKind(model["kind"])
    except ValueError as exc:
        raise ConfigError(f"model.kind: {exc}") from None
    if kind is ModelKind.MLP and "init_seed" not in model:
        raise ConfigError("model.init_seed: required for mlp (no implicit entropy)")
    mlp_only = sorted(set(model) - {"kind"})
    if kind is not ModelKind.MLP and mlp_only:
        raise ConfigError(f"model: key(s) {mlp_only} apply to mlp only, not {kind.value}")

    method = cfg["method"]
    name = method.get("name") if isinstance(method, dict) else None
    if name == "rgd":
        _check_keys(method, "method", {"name", "rule"})
        _check_keys(method["rule"], "method.rule", {"divergence"}, {"tau"})
        _check_numbers(method["rule"], "method.rule", ("tau",))
    elif name == "term":
        _check_keys(method, "method", {"name", "t_tilt"})
        _check_numbers(method, "method", ("t_tilt",))
    elif name == "ma":
        _check_keys(method, "method", {"name", "lam", "beta_ma"})
        _check_numbers(method, "method", ("lam", "beta_ma"))
    else:
        raise ConfigError(f"method.name: expected rgd|term|ma, got {name!r}")

    _check_keys(
        cfg["train"],
        "train",
        {"optimizer", "lr_base", "steps", "batch_size", "seed"},
        {"schedule", "beta1", "beta2", "eps", "box"},
    )
    _check_numbers(cfg["train"], "train", ("steps", "batch_size", "seed"), (int,))
    _check_numbers(cfg["train"], "train", ("lr_base", "beta1", "beta2", "eps"))

    cfg.setdefault("eval_every", 10)
    if not (type(cfg["eval_every"]) is int and cfg["eval_every"] >= 1):
        raise ConfigError("eval_every: must be a positive integer")
    cfg.setdefault("metrics", [])
    for m in cfg["metrics"]:
        if m not in METRIC_DIRECTIONS:
            raise ConfigError(f"metrics: unknown metric {m!r}")
    return cfg


@_config_errors("dataset")
def _build_datasets(ds_cfg: dict) -> dict:
    gen = getattr(datagen, ds_cfg["generator"])
    full = gen(**ds_cfg["params"])
    if "subsample" in ds_cfg:
        sub = ds_cfg["subsample"]
        counts = datagen.long_tailed_counts(
            full.num_classes, sub["n_max"], sub["imbalance_factor"]
        )
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


@_config_errors("model")
def _build_model(model_cfg: dict, dataset: Dataset) -> ModelState:
    kind = ModelKind(model_cfg["kind"])
    num_classes = dataset.num_classes if dataset.is_classification else 1
    if kind is ModelKind.MLP:
        return random_state(
            kind,
            dataset.dim,
            num_classes,
            tuple(model_cfg.get("hidden", ())),
            seed=model_cfg["init_seed"],
            scale=model_cfg.get("init_scale"),
        )
    if kind is ModelKind.LINEAR and dataset.is_classification:
        raise ValueError("a linear model needs a regression dataset")
    return zero_state(kind, dataset.dim, num_classes)


def _build_weighter(method_cfg: dict):
    """The method's weighter (see ``optim``); the one branch on its name."""
    name = method_cfg["name"]
    with _config_errors({"rgd": "method.rule", "term": "method.t_tilt"}.get(name, "method")):
        if name == "rgd":
            rule = method_cfg["rule"]
            return WeightingRule(Divergence(rule["divergence"]), float(rule.get("tau", 1.0)))
        if name == "term":
            return Tilt(float(method_cfg["t_tilt"]))
        return BaselineState(float(method_cfg["lam"]), float(method_cfg["beta_ma"]))


@_config_errors("train")
def _build_train_config(train_cfg: dict) -> TrainConfig:
    box = train_cfg.get("box")
    return TrainConfig(
        optimizer=train_cfg["optimizer"],
        lr_base=float(train_cfg["lr_base"]),
        schedule=train_cfg.get("schedule", "constant"),
        steps=int(train_cfg["steps"]),
        batch_size=int(train_cfg["batch_size"]),
        seed=int(train_cfg["seed"]),
        beta1=float(train_cfg.get("beta1", 0.9)),
        beta2=float(train_cfg.get("beta2", 0.999)),
        eps=float(train_cfg.get("eps", 1e-8)),
        box=tuple(box) if box is not None else None,
    )


def minibatch_stream(n: int, batch_size: int, steps: int, seed: int):
    """Yield `steps` index arrays; epoch-shuffled sampling w/o replacement."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < steps:
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            if produced == steps:
                return
            yield perm[start : start + batch_size]
            produced += 1


def direction_l2(theta, theta_star, index_set) -> float:
    """Euclidean distance to theta* restricted to the given coordinates."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    theta_star = np.asarray(theta_star, dtype=np.float64).reshape(-1)
    idx = np.asarray(list(index_set), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= theta.size):
        raise ValueError("index set outside parameter range")
    diff = theta[idx] - theta_star[idx]
    return float(np.sqrt(np.sum(diff**2)))


def accuracy(model: ModelState, dataset: Dataset) -> float:
    """Argmax-match fraction on a classification dataset."""
    if model.kind is ModelKind.LINEAR or not dataset.is_classification:
        raise ValueError("accuracy needs a classifier and a classification dataset")
    return float(np.mean(predict(model, dataset.inputs) == dataset.targets))


def mse(model: ModelState, dataset: Dataset) -> float:
    """Mean squared prediction error on a regression dataset."""
    if model.kind is not ModelKind.LINEAR or dataset.is_classification:
        raise ValueError("mse needs a regression model and dataset")
    pred = predict(model, dataset.inputs)
    return float(np.mean((pred - dataset.targets) ** 2))


def _metric_value(name: str, model: ModelState, dataset: Dataset, losses, predicted) -> float:
    """A metric of one split, from its eval pass's losses and predictions."""
    if name in ("mse", "accuracy"):
        # _build_model pairs linear models with regression data only
        if (name == "mse") != (model.kind is ModelKind.LINEAR):
            raise ConfigError(f"metrics: {name} does not apply to a {model.kind.value} model")
        # a linear model's losses are its squared prediction errors
        return float(np.mean(losses if name == "mse" else predicted == dataset.targets))
    if name in ("rare_l2", "frequent_l2"):
        key = "rare_indices" if name == "rare_l2" else "frequent_indices"
        if "theta_star" not in dataset.meta or key not in dataset.meta:
            raise ConfigError(f"metrics: {name} needs theta_star/{key} in dataset metadata")
        return direction_l2(model.theta, dataset.meta["theta_star"], dataset.meta[key])
    raise ConfigError(f"metrics: unknown metric {name!r}")


_SPLITS = ("train", "holdout", "test")  # the order of a trace's rows per eval step


@dataclass(frozen=True)
class _Built:
    """What ``_build`` makes of a config, shared read-only by every run
    ``_train`` makes from it: the splits, their eval batches and the
    initial optimizer state, plus the step-0 eval pass (losses,
    predictions) of each split.  The batches and passes are in trace order."""

    splits: dict
    eval_batches: dict
    state: OptimizerState
    step0: dict


def _build(cfg: dict) -> _Built:
    """Build a validated config's data, initial state and step-0 eval pass.

    The result depends on neither ``method`` nor ``train.lr_base``, so
    one build serves every config that differs from ``cfg`` only there.
    """
    splits = _build_datasets(cfg["dataset"])
    # built (and dropped) here so that a config with several faults reports
    # the first in the order dataset, method, train, model; _train builds its own
    _build_weighter(cfg["method"])
    _build_train_config(cfg["train"])
    model = _build_model(cfg["model"], splits["train"])
    eval_batches = {
        name: Batch(splits[name].inputs, splits[name].targets) for name in _SPLITS if name in splits
    }
    step0 = {}
    for name, batch in eval_batches.items():
        step0[name] = models._eval_pass(model, batch)
        for arr in step0[name]:
            arr.setflags(write=False)
    # init_state stores theta and the Adam moments read-only
    return _Built(splits, eval_batches, init_state(model, cfg["train"]["optimizer"]), step0)


def run_experiment(config: dict):
    """Run one experiment; returns (trace, summary).

    Training divergence raises :class:`TrainingDivergenceError` with the
    offending step index.
    """
    cfg = validate_config(config)
    return _train(cfg, _build(cfg))


def _train(cfg: dict, built: _Built):
    """Train a validated config from ``built``, which ``_build`` made from a
    config differing from ``cfg`` at most in ``method`` and ``train.lr_base``;
    returns (trace, summary) as ``run_experiment`` does."""
    weighter = _build_weighter(cfg["method"])
    train_config = _build_train_config(cfg["train"])
    state = built.state
    metric_names = tuple(cfg["metrics"])
    trace = Trace(
        metric_names,
        meta={
            "method": cfg["method"]["name"],
            "batching": "epoch_shuffle_without_replacement",
            "splits": {name: ds.n for name, ds in built.splits.items()},
        },
    )

    def record(step: int, passes):
        """Append the rows of one eval step; ``passes`` yields (split, (losses, predicted))."""
        for name, (losses, predicted) in passes:
            objective, w, sat = weighter.report(losses)
            metrics = {
                m: _metric_value(m, state.model, built.splits[name], losses, predicted)
                for m in metric_names
            }
            trace.append(
                TraceRecord(
                    step,
                    name,
                    float(objective),
                    metrics,
                    float(np.min(w)),
                    float(np.mean(w)),
                    float(np.max(w)),
                    float(sat),
                )
            )

    record(0, built.step0.items())
    train_ds = built.splits["train"]
    stream = minibatch_stream(
        train_ds.n, train_config.batch_size, train_config.steps, train_config.seed
    )
    # _build has checked the whole train split (Batch, then _eval_pass)
    train_batch = built.eval_batches["train"]
    for step, idx in enumerate(stream, start=1):
        state, info = rgd_step(state, models._rows(train_batch, idx), weighter, train_config)
        weighter = info.weighter
        # free the step's arrays now: held into the next step they shift where numpy
        # puts the eval temporaries, which slowed the mlp-sweep benchmark by up to 20%
        del info
        if step % cfg["eval_every"] == 0 or step == train_config.steps:
            record(step, (
                (name, models._eval_pass(state.model, batch))
                for name, batch in built.eval_batches.items()
            ))

    summary = _summarize(trace, metric_names)
    summary["method"] = cfg["method"]["name"]
    summary["seed"] = train_config.seed
    summary["final_theta"] = state.model.theta.tolist()
    return trace, summary


def _summarize(trace: Trace, metric_names) -> dict:
    summary = {"final": {}, "holdout_best": {}}
    for split in _SPLITS:
        rows = trace.rows(split)
        if not rows:
            continue
        last = rows[-1]
        summary["final"][split] = {"step": last.step, "objective": last.objective, **last.metrics}
    for m in metric_names:
        rows = trace.rows("holdout")
        if not rows:
            continue
        sign = METRIC_DIRECTIONS[m]
        best = max(rows, key=lambda r: sign * r.metrics[m])
        summary["holdout_best"][m] = {"step": best.step, "value": best.metrics[m]}
    return summary


_FIXED_COLUMNS = ("step", "split", "objective")
_STAT_COLUMNS = ("w_min", "w_mean", "w_max", "w_sat_frac")


def export_trace(trace: Trace, path, fmt: str | None = None) -> None:
    """Write a trace as CSV or JSON; both round-trip at full precision."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower() or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unsupported trace format {fmt!r}")
    columns = _FIXED_COLUMNS + tuple(trace.metric_names) + _STAT_COLUMNS
    rows = [
        (r.step, r.split, r.objective, *(r.metrics[m] for m in trace.metric_names),
         r.w_min, r.w_mean, r.w_max, r.w_sat_frac)
        for r in trace.records
    ]
    with open(path, "w", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            # csv writes floats with str(), which equals repr(): full precision
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            json.dump([dict(zip(columns, row)) for row in rows], fh, indent=1)
            fh.write("\n")


def parse_trace(path) -> Trace:
    """Read back a trace written by :func:`export_trace`."""
    path = Path(path)
    with open(path, newline="") as fh:
        if path.suffix.lower() == ".json":
            rows = json.load(fh)
            if not rows:
                raise ValueError(f"empty trace file {path}")
            columns = tuple(rows[0])
        else:
            reader = csv.reader(fh)
            columns = tuple(next(reader))
            if columns[:3] != _FIXED_COLUMNS or columns[-4:] != _STAT_COLUMNS:
                raise ValueError(f"unrecognized trace header in {path}")
            rows = [dict(zip(columns, row)) for row in reader]
    metric_names = tuple(c for c in columns if c not in _FIXED_COLUMNS + _STAT_COLUMNS)
    trace = Trace(metric_names)
    for row in rows:
        trace.append(
            TraceRecord(
                int(row["step"]),
                row["split"],
                float(row["objective"]),
                {m: float(row[m]) for m in metric_names},
                *(float(row[c]) for c in _STAT_COLUMNS),
            )
        )
    return trace
