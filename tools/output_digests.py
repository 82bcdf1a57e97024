"""Print a sha256 digest of each output that a refactor must leave unchanged.

Each line reads ``<name> <sha256>``.  The outputs are:

- the CSV and JSON trace bytes, the summary and ``final_theta`` of
  ``run_experiment`` for a softmax (SGD), a 2-hidden-layer MLP (Adam) and
  a boxed linear model (SGD, ``inv_sqrt_step``), each under rgd with the
  kl, chi2, reverse_kl and none rules, term and ma;
- the messages of three runs that diverge: ma weights that overflow, an
  rgd loss that overflows on some samples (the message lists them) and an
  rgd parameter update that overflows;
- for an rgd sweep of the softmax run with one diverging point, the
  ``(params, status, metric, detail, summary)`` of every point, the
  selected config and the standard output of the ``sweep`` command on
  the same spec;
- the reports of ``dro_suite(40)`` and ``gradcheck_suite(5)``;
- per exact DRO solver (kl, chi2, reverse_kl), the value, dual parameter
  and worst-case distribution bytes of seeded instances at n = 5, 50 and
  1000, one of each size with tied losses, and the dual values of all
  three solvers on those instances.

The script takes no flags.  To check that a change keeps these outputs
byte-identical, run it against both trees on the same machine and diff:

    PYTHONPATH=<old tree>/src python tools/output_digests.py > old.txt
    PYTHONPATH=src python tools/output_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from reweightopt.cli import cli_main
from reweightopt.dro import (
    DroInstance, chi2_dro_value, kl_dro_primal, random_instance, revkl_dro_value,
)
from reweightopt.experiment import export_trace, run_experiment
from reweightopt.optim import TrainingDivergenceError
from reweightopt.sweep import sweep, validate_sweep_spec
from reweightopt.verify import dro_suite, gradcheck_suite

METHODS = {
    "rgd-kl": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
    "rgd-chi2": {"name": "rgd", "rule": {"divergence": "chi2", "tau": 0.5}},
    "rgd-reverse_kl": {"name": "rgd", "rule": {"divergence": "reverse_kl", "tau": 2.0}},
    "rgd-none": {"name": "rgd", "rule": {"divergence": "none"}},
    "term": {"name": "term", "t_tilt": 1.5},
    "ma": {"name": "ma", "lam": 0.5, "beta_ma": 0.5},
}

_MIXTURE = {
    "generator": "gaussian_mixture_classification",
    "params": {"num_classes": 3, "n_per_class": 30, "dim": 4, "separation": 2.0, "seed": 3},
    "split": {"holdout_fraction": 0.2, "test_fraction": 0.2, "seed": 4},
    "flip_train": {"fraction": 0.2, "seed": 5},
}

MODELS = {
    "softmax": {
        "dataset": _MIXTURE,
        "model": {"kind": "softmax"},
        "train": {"optimizer": "sgd", "lr_base": 0.3, "steps": 40, "batch_size": 16, "seed": 6},
        "metrics": ["accuracy"],
    },
    "mlp": {
        "dataset": _MIXTURE,
        "model": {"kind": "mlp", "hidden": [6, 5], "init_seed": 7},
        "train": {"optimizer": "adam", "lr_base": 0.02, "steps": 40, "batch_size": 16, "seed": 8},
        "metrics": ["accuracy"],
    },
    "linear": {
        "dataset": {"generator": "rare_feature_regression", "params": {"seed": 9}},
        "model": {"kind": "linear"},
        "train": {"optimizer": "sgd", "lr_base": 0.5, "steps": 40, "batch_size": 32,
                  "seed": 10, "schedule": "inv_sqrt_step", "box": [-0.75, 0.75]},
        "metrics": ["mse", "rare_l2", "frequent_l2"],
    },
}


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def run_digests(tmp: Path):
    for model, base in MODELS.items():
        for method, method_cfg in METHODS.items():
            name = f"{model}/{method}"
            trace, summary = run_experiment({**base, "method": method_cfg, "eval_every": 7})
            for fmt in ("csv", "json"):
                path = tmp / f"trace.{fmt}"
                export_trace(trace, path)
                yield f"{name}/trace.{fmt}", _digest(path.read_bytes())
            theta = np.asarray(summary.pop("final_theta"), dtype=np.float64)
            yield f"{name}/summary", _digest(_canonical(summary))
            yield f"{name}/final_theta", _digest(theta.tobytes())


# name: (model, method, lr_base), each run without a box
DIVERGENT = {
    "ma": ("linear", "ma", 1e200),
    "rgd-loss": ("softmax", "rgd-kl", 1e308),  # step 2, samples [3, 8, 13]
    "rgd-update": ("linear", "rgd-reverse_kl", 1e308),  # step 1
}


def divergence_digests():
    for name, (model, method, lr_base) in DIVERGENT.items():
        base = MODELS[model]
        train = {k: v for k, v in base["train"].items() if k != "box"}
        cfg = {**base, "train": {**train, "lr_base": lr_base}, "method": METHODS[method]}
        try:
            run_experiment(cfg)
        except TrainingDivergenceError as exc:
            yield f"divergent-{name}/message", _digest(str(exc))
        else:
            raise SystemExit(f"the divergent {name} run did not diverge")


# lr_mult 1e308 makes the softmax run diverge; the other points train
SWEEP = {
    "base": {**MODELS["softmax"], "method": METHODS["rgd-kl"], "eval_every": 7},
    "grid": {"tau": [0.5, 2.0], "lr_mult": [0.5, 1.0, 1e308]},
    "select": {"metric": "accuracy"},
}


def sweep_digests(tmp: Path):
    spec = validate_sweep_spec({k: SWEEP[k] for k in ("grid", "select")}, SWEEP["base"])
    best, results = sweep(spec, SWEEP["base"])
    rows = [[r.params, r.status, r.metric, r.detail, r.summary] for r in results]
    yield "sweep/results", _digest(_canonical(rows))
    yield "sweep/best_config", _digest(_canonical(best))
    path = tmp / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["sweep", str(path)])
    yield "sweep/cli-stdout", _digest(f"exit {code}\n{out.getvalue()}")


def _solver_instances(div):
    """Seeded instances at n = 5, 50 and 1000, the last of each size with tied losses."""
    rng = np.random.default_rng(11)
    for n in (5, 50, 1000):
        for ties in (False, False, False, True):
            inst = random_instance(rng, (n, n), 5.0, 0.5, div)
            yield DroInstance(np.round(inst.losses), inst.base, inst.rho, div) if ties else inst


def solver_digests():
    solvers = {"kl": kl_dro_primal, "chi2": chi2_dro_value, "reverse_kl": revkl_dro_value}
    duals = []
    for div, solver in solvers.items():
        parts = []
        for inst in _solver_instances(div):
            sol = solver(inst)
            parts.append(_canonical([sol.value, sol.dual_param]).encode())
            parts.append(sol.worst_dist.probs.tobytes())
            duals.append(sol.dual_value)
        yield f"{div}-solver/n=5,50,1000", _digest(b"".join(parts))
    yield "duals/n=5,50,1000", _digest(_canonical(duals))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_digests(Path(tmp)):
            print(name, digest)
        for name, digest in sweep_digests(Path(tmp)):
            print(name, digest)
    for name, digest in divergence_digests():
        print(name, digest)
    print("dro_suite(40)", _digest(_canonical(dro_suite(40))))
    print("gradcheck_suite(5)", _digest(_canonical(gradcheck_suite(5))))
    for name, digest in solver_digests():
        print(name, digest)


if __name__ == "__main__":
    main()
