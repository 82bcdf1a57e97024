"""Hyperparameter grid sweeps with holdout selection.

The grid axes depend on the method: clip level tau for the reweighted
method, tilting coefficient for the batch-tilted baseline, and
(lam, beta_ma) for the moving-average baseline; every method sweeps a
learning-rate multiplier.  Grid points run independently (a diverging
point is recorded, not fatal) and selection breaks ties toward the
lexicographically smallest hyperparameter tuple, so re-running a sweep
reproduces the same choice.

No axis changes the data or the initial model, so a sweep builds the
datasets, the initial state and the step-0 eval pass once and trains
every point from them; each point's results equal its own
``run_experiment``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .experiment import METRIC_DIRECTIONS, _build, _checked, _train, validate_config
# bound here only for the benchmark, which reads and patches sweep.run_experiment
from .experiment import run_experiment  # noqa: F401
from .optim import TrainingDivergenceError
from .schema import ConfigError, check_section, finite, list_of, one_of, string

__all__ = ["SweepSpec", "GridResult", "sweep", "validate_sweep_spec"]

_METHOD_AXES = {
    "rgd": ("tau", "lr_mult"),
    "term": ("t_tilt", "lr_mult"),
    "ma": ("lam", "beta_ma", "lr_mult"),
}

_DEFAULT_GRIDS = {
    "tau": [1.0, 3.0, 5.0, 7.0, 9.0],
    "lr_mult": [0.5, 0.75, 1.0, 1.25, 1.5],
    "t_tilt": [0.2, 0.5, 1.0, 3.0, 5.0],
    "lam": [1.0, 3.0, 5.0, 7.0],
    "beta_ma": [0.25, 0.5, 0.75],
}

# The keys of a sweep file less its base config (see schema), per
# base method; SweepSpec checks their values
_SPECS = {
    method: ({"select": ({"metric": None}, {"split": None})},
             {"grid": ({}, dict.fromkeys(axes))})
    for method, axes in _METHOD_AXES.items()
}


@dataclass(frozen=True)
class SweepSpec:
    """Axes (name -> value list), selection metric, and selection split: the
    one check of a sweep's values (finite, as nan has no sort order)."""

    axes: dict
    select_metric: str
    select_split: str = "holdout"

    def __post_init__(self):
        for name, values in self.axes.items():
            list_of(values, f"sweep.grid.{name}", finite)
        if not self.axes or not all(self.axes.values()):
            raise ConfigError("sweep grid must be nonempty on every axis")
        string(self.select_split, "sweep.select.split")
        one_of(self.select_metric, "sweep.select.metric", METRIC_DIRECTIONS)


@dataclass(frozen=True)
class GridResult:
    params: tuple
    status: str  # "ok" or "failed"
    metric: float | None
    detail: str = ""
    summary: dict | None = field(default=None, compare=False)


def validate_sweep_spec(spec: dict, base_config: dict) -> SweepSpec:
    """Build a SweepSpec from the grid and select of a sweep file, checked
    against the schema of ``base_config``'s method, filling default grids."""
    if not isinstance(base_config, dict):
        raise ConfigError("base: expected an object")
    if not isinstance(base_config.get("method", {}), dict):
        raise ConfigError("base.method: expected an object")
    method = base_config.get("method", {}).get("name")
    one_of(method, "base.method.name", _SPECS)
    check_section(spec, "sweep", _SPECS[method])
    grid, select = spec.get("grid", {}), spec["select"]
    axes = {a: grid[a] if a in grid else list(_DEFAULT_GRIDS[a]) for a in _METHOD_AXES[method]}
    return SweepSpec(axes, select["metric"], select.get("split", "holdout"))


def _apply_point(base_config: dict, axes: tuple, point: tuple) -> dict:
    """The point's config: ``base_config`` with copies of the two sections an
    axis changes; ``_checked`` makes the deep copy a run keeps."""
    method, train = dict(base_config["method"]), dict(base_config["train"])
    for name, value in zip(axes, point):
        if name == "lr_mult":
            train["lr_base"] = base_config["train"]["lr_base"] * value
        elif name == "tau":
            method["rule"] = {**method["rule"], "tau": value}
        else:
            method[name] = value
    return {**base_config, "method": method, "train": train}


def sweep(spec: SweepSpec, base_config: dict):
    """Run every grid point; returns (best_config, results).

    The selection value is the final metric on the selection split.
    Failed points never win; if every point fails, best_config is None.
    """
    return _sweep(spec, validate_config(base_config))


def _sweep(spec: SweepSpec, base: dict):
    """``sweep`` of a base config that ``validate_config`` returned."""
    if spec.select_metric not in base["metrics"]:
        raise ConfigError(
            f"selection metric {spec.select_metric!r} missing from config metrics"
        )
    axis_names = tuple(spec.axes.keys())
    points = list(itertools.product(*(sorted(spec.axes[a]) for a in axis_names)))
    checked = [_checked(_apply_point(base, axis_names, p)) for p in points]
    built = _build(checked[0][0])  # the points differ in method and train.lr_base only
    if spec.select_split not in built.splits:
        raise ConfigError(
            f"selection split {spec.select_split!r} is not a split of the dataset "
            f"({', '.join(built.splits)})"
        )
    sign = METRIC_DIRECTIONS[spec.select_metric]
    results: list[GridResult] = []
    best = None  # (sign * value, params, config)
    for point, run in zip(points, checked):
        try:
            _, summary = _train(run, built)
        except TrainingDivergenceError as exc:
            results.append(GridResult(point, "failed", None, str(exc)))
            continue
        value = summary["final"][spec.select_split][spec.select_metric]
        results.append(GridResult(point, "ok", value, "", summary))
        key = sign * value
        # strict improvement only: earlier (lexicographically smaller) ties win
        if best is None or key > best[0]:
            best = (key, point, run[0])
    return (best[2] if best is not None else None), results
