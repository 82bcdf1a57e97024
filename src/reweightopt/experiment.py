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
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import datagen, models
from .datagen import Dataset
from .models import ModelKind, ModelState, random_state, zero_state
from .optim import (
    BaselineState, OptimizerState, Tilt, TrainConfig, TrainingDivergenceError, init_state, rgd_step,
)
from .weighting import WeightingRule

# bound here only so that the benchmark's layer_targets() can trace them
from .models import Batch, per_sample_loss, predict  # noqa: F401
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


# the kinds of the schema's keys, each a check of a present value that
# names its key path ``where`` in the first fault it finds
def _number(value, where: str, types=(int, float), what="a number"):
    """A JSON number of ``types``: not a bool or a string, and if an
    integer, within the float range that a run's arithmetic needs."""
    if type(value) not in types:
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    if type(value) is int and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a number within the float range, got a larger one")


def _integer(value, where: str):
    _number(value, where, (int,), "an integer")


def _finite(value, where: str):
    _number(value, where)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _at_least(low, what: str, kind=_integer):
    """The kind of a value of ``kind`` that is at least ``low`` (a nan is not)."""

    def check(value, where: str):
        kind(value, where)
        if not value >= low:
            raise ConfigError(f"{where}: expected {what}, got {value!r}")

    return check


_seed = _at_least(0, "a non-negative integer")  # the only seeds numpy's generators take
_positive = _at_least(1, "a positive integer")


def _fraction(value, where: str, interval="[0, 1)"):
    _number(value, where)
    if not (0.0 <= value < 1.0 or interval == "[0, 1]" and value == 1.0):
        raise ConfigError(f"{where}: expected a number in {interval}, got {value!r}")


def _string(value, where: str):
    if type(value) is not str:
        raise ConfigError(f"{where}: expected a string, got {value!r}")


def _trace_format(path, where: str) -> str:
    """The format ``export_trace`` writes to ``path``, as its suffix says in any
    case (csv without one); another suffix is a fault of ``where``."""
    fmt = Path(path).suffix.lstrip(".").lower() or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{where}: unsupported trace format {fmt!r}")
    return fmt


def _trace_path(value, where: str):
    _string(value, where)
    _trace_format(value, where)


def _name(value, where: str, names):
    """One of ``names``, a string (a list is never looked up)."""
    if type(value) is not str or value not in names:
        raise ConfigError(f"{where}: expected {'|'.join(names)}, got {value!r}")


def _list(value, where: str, kind=_number, what="a list of numbers", lengths=None):
    if type(value) is not list or lengths is not None and len(value) not in lengths:
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    # floats are numbers, so a list of them is checked whole: a record's losses may number 10^5
    if kind is not _number or set(map(type, value)) - {float}:
        for item in value:
            kind(item, where)


def _metrics(value, where: str):
    """Distinct metric names: a trace has one column per name."""
    _list(value, where, lambda v, where: _name(v, where, METRIC_DIRECTIONS),
          "a list of metric names")
    if len(set(value)) < len(value):
        raise ConfigError(f"{where}: expected distinct metric names, got {value!r}")


class _Choice(NamedTuple):
    """A section whose table is chosen by the value of its key ``key``."""

    key: str
    tables: dict


# The config schema.  A table is a pair of dicts, its section's required
# and its optional keys, from key to kind: a check above, a nested table,
# a _Choice of tables, or None for a value that a _Choice or the object
# built from it checks.
_GENERATORS = {  # the tables of dataset.params
    "rare_feature_regression": ({"seed": _seed}, {}),
    "gaussian_mixture_classification": (
        {"num_classes": _at_least(2, "an integer >= 2"), "n_per_class": _positive,
         "dim": _positive, "separation": _finite, "seed": _seed},
        {},
    ),
}
# the generator, model kind and metrics of regression data; the others' data is class labels
_REGRESSION = {"rare_feature_regression", "linear", "mse", "rare_l2", "frequent_l2"}
_MODELS = {
    "linear": ({"kind": None}, {}),
    "softmax": ({"kind": None}, {}),
    "mlp": ({"kind": None, "init_seed": _seed,
             "hidden": lambda v, where: _list(v, where, _positive, "1 or 2 integers", (1, 2))},
            {"init_scale": _finite}),
}
_METHODS = {
    "rgd": ({"name": None, "rule": ({"divergence": None}, {"tau": _number})}, {}),
    "term": ({"name": None, "t_tilt": _number}, {}),
    "ma": ({"name": None, "lam": _number, "beta_ma": _number}, {}),
}
_STAGES = {
    "subsample": ({"n_max": _positive, "imbalance_factor": _at_least(1, "a number >= 1", _number),
                   "seed": _seed}, {}),
    "split": ({"seed": _seed}, {"test_fraction": _fraction, "holdout_fraction": _fraction}),
    "flip_train": ({"fraction": lambda v, where: _fraction(v, where, "[0, 1]"), "seed": _seed},
                   {}),
}
_SCHEMA = (
    {
        "dataset": _Choice("generator", {
            # subsample and flip_train draw per class, so regression data takes only a split
            name: ({"generator": None, "params": params},
                   {"split": _STAGES["split"]} if name in _REGRESSION else _STAGES)
            for name, params in _GENERATORS.items()
        }),
        "model": _Choice("kind", _MODELS),
        "method": _Choice("name", _METHODS),
        "train": (
            {"optimizer": None, "steps": _integer, "batch_size": _integer, "seed": _seed,
             "lr_base": _number},
            {"schedule": None, "beta1": _number, "beta2": _number, "eps": _number,
             "box": lambda v, where: _list(v, where, _number, "a list of two numbers", (2,))},
        ),
    },
    {"eval_every": _positive,
     "metrics": _metrics, "output": _trace_path},
)


def _check_section(section, path: str, schema):
    """Check a section (the whole config at path "config") against its
    schema, a table or a _Choice: an object whose choosing key names one of
    the choice's tables, without unknown or missing keys, each value of its kind."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    prefix, chosen = ("" if path == "config" else path + "."), ""
    if type(schema) is _Choice:
        key, tables = schema
        if key not in section:
            raise ConfigError(f"{path}: missing required key(s) {[key]}")
        _name(section[key], prefix + key, tables)
        schema, chosen = tables[section[key]], f" for {key} {section[key]!r}"
    required, optional = schema
    unknown = section.keys() - required.keys() - optional.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}{chosen}")
    missing = required.keys() - section.keys()
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}{chosen}")
    for kinds in schema:
        for key, kind in kinds.items():
            if isinstance(kind, tuple) and key in section:
                _check_section(section[key], prefix + key, kind)
            elif kind is not None and key in section:
                kind(section[key], prefix + key)


@_config_errors("config")
def _checked(config: dict):
    """``validate_config``'s result, with the weighter and ``TrainConfig`` built to check it."""
    cfg = json.loads(json.dumps(config))  # deep copy, also rejects non-JSON values
    _check_section(cfg, "config", _SCHEMA)
    sp = cfg["dataset"].get("split", {})
    total = sp.get("test_fraction", 0.0) + sp.get("holdout_fraction", 0.0)
    if total >= 1.0:
        raise ConfigError(
            f"dataset.split: test_fraction + holdout_fraction must be below 1, got {total!r}"
        )
    cfg.setdefault("eval_every", 10)
    cfg.setdefault("metrics", [])
    weighter = _build_weighter(cfg["method"])
    with _config_errors("train"):
        train_config = TrainConfig(**cfg["train"])
    data = "regression" if cfg["dataset"]["generator"] in _REGRESSION else "classification"
    pairs = [("model.kind", cfg["model"]["kind"])] + [("metrics", m) for m in cfg["metrics"]]
    for where, name in pairs:
        if (name in _REGRESSION) != (data == "regression"):
            raise ConfigError(f"{where}: {name} does not apply to the generator's {data} data")
    return cfg, weighter, train_config


def validate_config(config: dict) -> dict:
    """Check a config before anything runs: the schema, the method's and
    train values (by building the weighter and the ``TrainConfig``), then
    that the model kind and metrics apply to the data.  Returns a deep copy
    with defaults filled in.  ``_build`` reports the faults of the drawn data."""
    return _checked(config)[0]


def _build_datasets(ds_cfg: dict) -> dict:
    """The splits of a dataset section, keyed train, test, holdout (those
    present, in that order): the generator, ``subsample_long_tailed``,
    ``split`` with the test fraction (seed), then ``split`` of the rest with
    the holdout fraction (seed + 1), and ``flip_labels`` on the train split."""
    with _config_errors("dataset.params"):
        train = getattr(datagen, ds_cfg["generator"])(**ds_cfg["params"])
    if "subsample" in ds_cfg:
        sub = ds_cfg["subsample"]
        with _config_errors("dataset.subsample"):
            counts = datagen.long_tailed_counts(
                train.num_classes, sub["n_max"], sub["imbalance_factor"]
            )
            train = datagen.subsample_long_tailed(train, counts, sub["seed"])
    splits = {}  # test and holdout; no name keeps a dataset after its cut, which frees it
    if "split" in ds_cfg:
        sp = ds_cfg["split"]
        test_frac = float(sp.get("test_fraction", 0.0))
        holdout_frac = float(sp.get("holdout_fraction", 0.0))
        with _config_errors("dataset.split"):
            if test_frac > 0:
                train, splits["test"] = datagen.split(train, 1.0 - test_frac, sp["seed"])
            if holdout_frac > 0:
                train, splits["holdout"] = datagen.split(
                    train, 1.0 - holdout_frac / (1.0 - test_frac), sp["seed"] + 1
                )
    if "flip_train" in ds_cfg:
        fl = ds_cfg["flip_train"]
        train = datagen.flip_labels(train, fl["fraction"], fl["seed"])
    return {"train": train, **splits}


@_config_errors("model")
def _build_model(model_cfg: dict, dataset: Dataset) -> ModelState:
    kind = ModelKind(model_cfg["kind"])
    num_classes = dataset.num_classes if dataset.is_classification else 1
    if kind is ModelKind.MLP:
        return random_state(
            kind,
            dataset.dim,
            num_classes,
            tuple(model_cfg["hidden"]),
            seed=model_cfg["init_seed"],
            scale=model_cfg.get("init_scale"),
        )
    return zero_state(kind, dataset.dim, num_classes)


def _build_weighter(method_cfg: dict):
    """The method's weighter (see ``optim``); the one branch on its name."""
    name = method_cfg["name"]
    with _config_errors({"rgd": "method.rule", "term": "method.t_tilt"}.get(name, "method")):
        if name == "rgd":
            return WeightingRule(**method_cfg["rule"])
        if name == "term":
            return Tilt(method_cfg["t_tilt"])
        return BaselineState(method_cfg["lam"], method_cfg["beta_ma"])


def minibatch_stream(n: int, batch_size: int, steps: int, seed: int):
    """Yield `steps` index arrays; epoch-shuffled sampling w/o replacement
    of n >= 1 samples in batches of batch_size >= 1."""
    for name, value in (("n", n), ("batch_size", batch_size)):
        if not value >= 1:  # written so that nan fails it
            raise ValueError(f"{name} must be >= 1, got {value!r}")
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


def _metric_value(name: str, model: ModelState, dataset: Dataset, losses, predicted) -> float:
    """A metric of one split, from its eval pass's losses and predictions."""
    if name in ("mse", "accuracy"):
        # a linear model's losses are its squared prediction errors; each mean is
        # np.mean's sum or count over the size, without its Python wrapper
        if name == "mse":
            return float(losses.sum()) / losses.size
        return float(np.count_nonzero(predicted == dataset.targets) / predicted.size)
    key = "rare_indices" if name == "rare_l2" else "frequent_indices"
    return direction_l2(model.theta, dataset.meta["theta_star"], dataset.meta[key])


_SPLITS = ("train", "holdout", "test")  # the order of a trace's rows per eval step


@dataclass(frozen=True)
class _Built:
    """What ``_build`` makes of a config, shared by every run ``_train``
    makes from it and kept for later runs, so read-only all the way down:
    the splits, the initial optimizer state and the step-0 eval pass
    (losses, predictions) of each split in trace order."""

    splits: MappingProxyType
    state: OptimizerState
    step0: MappingProxyType


# the last successful build, with its key: the config sections _build reads
_last_build: tuple[str, _Built] | None = None


def _build(cfg: dict) -> _Built:
    """Build a validated config's data, initial state and step-0 eval pass,
    reporting the faults of the drawn data: the dataset stages', then a
    non-finite initial model.  The result depends only on ``dataset``,
    ``model`` and ``train.optimizer``, so one build serves every config that
    matches ``cfg`` there.  The last successful build is kept and returned
    again for such a config (one build only, which grows with the data:
    1.3 MB at the c06 size, 85.6 MB for 10 classes of 20000 rows at dim 50),
    which leaves every result unchanged; a build that raises keeps nothing."""
    global _last_build
    key = json.dumps([cfg["dataset"], cfg["model"], cfg["train"]["optimizer"]], sort_keys=True)
    if _last_build is not None and _last_build[0] == key:
        return _last_build[1]
    splits = _build_datasets(cfg["dataset"])
    model = _build_model(cfg["model"], splits["train"])
    step0 = {name: models._eval_pass(model, splits[name]) for name in _SPLITS if name in splits}
    for losses, predicted in step0.values():
        losses.setflags(write=False)
        predicted.setflags(write=False)
    # init_state stores theta and the Adam moments read-only
    state = init_state(model, cfg["train"]["optimizer"])
    built = _Built(MappingProxyType(splits), state, MappingProxyType(step0))
    _last_build = key, built
    return built


def run_experiment(config: dict):
    """Run one experiment; returns (trace, summary).

    Consecutive runs whose ``dataset``, ``model`` and ``train.optimizer``
    match reuse the last run's build (its splits, initial state and step-0
    eval pass) rather than repeating it.  Only that one build is kept (its
    size grows with the data), and results are unchanged.

    Training divergence raises :class:`TrainingDivergenceError` with the
    offending step index.
    """
    checked = _checked(config)
    return _train(checked, _build(checked[0]))


def _train(checked: tuple, built: _Built):
    """Train ``checked`` (what ``_checked`` returns) from ``built``, which
    ``_build`` made from a config matching it in ``dataset``, ``model`` and
    ``train.optimizer``; returns (trace, summary) as ``run_experiment`` does."""
    cfg, weighter, train_config = checked
    state = built.state
    metric_names = tuple(cfg["metrics"])
    trace = Trace(metric_names)

    def record(step: int, passes):
        """Append the rows of one eval step; ``passes`` yields (split, (losses, predicted))."""
        for name, (losses, predicted) in passes:
            # the one check of the row's losses: the eval pass lets an overflow through
            # quietly, and the weighter's report core trusts them
            if not np.isfinite(losses).all():
                bad = np.flatnonzero(~np.isfinite(losses))
                raise TrainingDivergenceError(step, f"non-finite {name} loss", bad)
            objective, w, sat = weighter._report(losses)
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
                    float(w.sum()) / w.size,  # np.mean(w), bit for bit
                    float(np.max(w)),
                    float(sat),
                )
            )

    record(0, built.step0.items())
    train_ds = built.splits["train"]
    eval_every, steps = cfg["eval_every"], train_config.steps
    stream = minibatch_stream(train_ds.n, train_config.batch_size, steps, train_config.seed)
    for step, idx in enumerate(stream, start=1):
        state, info = rgd_step(state, models._rows(train_ds, idx), weighter, train_config)
        weighter = info.weighter
        # free the step's arrays now: held into the next step they shift where numpy
        # puts the eval temporaries, which slowed the mlp-sweep benchmark by up to 20%
        del info
        if step % eval_every == 0 or step == steps:
            record(step, (
                (name, models._eval_pass(state.model, built.splits[name]))
                for name in built.step0
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
    holdout = trace.rows("holdout")
    for m in (metric_names if holdout else ()):
        sign = METRIC_DIRECTIONS[m]
        best = max(holdout, key=lambda r: sign * r.metrics[m])
        summary["holdout_best"][m] = {"step": best.step, "value": best.metrics[m]}
    return summary


_FIXED_COLUMNS = ("step", "split", "objective")
_STAT_COLUMNS = ("w_min", "w_mean", "w_max", "w_sat_frac")


def export_trace(trace: Trace, path) -> None:
    """Write a trace as CSV or JSON, as the path's suffix says (CSV without
    one); both round-trip at full precision."""
    fmt = _trace_format(path, str(path))
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
