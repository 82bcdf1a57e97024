"""Print a sha256 digest of each output that a refactor must leave unchanged.

Each line reads ``<name> <sha256>``.  The outputs are:

- the CSV and JSON trace bytes, the summary and ``final_theta`` of
  ``run_experiment`` for a softmax (SGD), a 2-hidden-layer MLP (Adam) and
  a boxed linear model (SGD, ``inv_sqrt_step``), each under rgd with the
  kl, chi2, reverse_kl and none rules, term and ma;
- the message of one ma run that diverges;
- the reports of ``dro_suite(40)`` and ``gradcheck_suite(5)``.

The script takes no flags.  To check that a change keeps these outputs
byte-identical, run it against both trees on the same machine and diff:

    PYTHONPATH=<old tree>/src python tools/output_digests.py > old.txt
    PYTHONPATH=src python tools/output_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from reweightopt.experiment import export_trace, run_experiment
from reweightopt.optim import TrainingDivergenceError
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


def divergence_digest():
    base = MODELS["linear"]
    train = {k: v for k, v in base["train"].items() if k != "box"}
    cfg = {**base, "train": {**train, "lr_base": 1e200}, "method": METHODS["ma"]}
    try:
        run_experiment(cfg)
    except TrainingDivergenceError as exc:
        return _digest(str(exc))
    raise SystemExit("the divergent ma run did not diverge")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_digests(Path(tmp)):
            print(name, digest)
    print("divergent-ma/message", divergence_digest())
    print("dro_suite(40)", _digest(_canonical(dro_suite(40))))
    print("gradcheck_suite(5)", _digest(_canonical(gradcheck_suite(5))))


if __name__ == "__main__":
    main()
