"""Print a sha256 digest of each output that a refactor must leave unchanged.

Each line reads ``<name> <sha256>``.  The outputs are:

- the CSV and JSON trace bytes, the summary and ``final_theta`` of
  ``run_experiment`` for a softmax (SGD), a 2-hidden-layer MLP (Adam) and
  a boxed linear model (SGD, ``inv_sqrt_step``), each under rgd with the
  kl, chi2, reverse_kl and none rules, term and ma;
- the CSV trace bytes and ``final_theta`` of a 10-class softmax and a
  10-class MLP run under rgd kl, whose class sums take numpy's 8-way
  pairwise path (the runs above have 3 classes);
- the losses of every step and the final theta of the c07 reference
  loop: 1000 full-batch ``rgd_step`` calls on a boxed linear model
  (n = 64, d = 5, box [-2, 2], constant lr 0.05, kl with a clip level
  above any reachable loss);
- the losses and softmax numerators of ``models.forward_losses`` and the
  losses and predictions of ``models._eval_pass`` on given logits with
  2, 9, 10, 17 and 130 classes, with tied logits, signed zeros and -inf
  on classes other than the label (every loss finite);
- the messages of four runs that diverge: ma weights that overflow, an
  rgd loss that overflows on some samples (the message lists them), an
  rgd parameter update that overflows and a finite update whose first
  eval pass overflows;
- for an rgd sweep of the softmax run with one diverging point, the
  ``(params, status, metric, detail, summary)`` of every point, the
  selected config and the standard output of the ``sweep`` command on
  the same spec;
- the reports of ``dro_suite(40)`` and ``gradcheck_suite(5)``;
- per exact DRO solver (kl, chi2, reverse_kl), the value, dual parameter
  and worst-case distribution bytes of seeded instances at n = 5, 50 and
  1000, one of each size with tied losses, and the dual values of all
  three solvers on those instances;
- the value and distribution bytes of ``simplex_bruteforce`` at 2001
  points on 20 seeded instances with n = 2 or 3 per divergence;
- per split, in the order of the dict's keys, the inputs, targets and
  canonical metadata JSON that ``experiment._build_datasets`` returns for
  a 10-class mixture with train, holdout and test splits and flipped
  train labels, and for a long-tailed subsample of a mixture with a test
  split;
- the inputs, targets and canonical metadata JSON of each dataset the
  public ``datagen`` chain returns: ``subsample_long_tailed`` of a
  10-class mixture, ``split`` of that subsample and of the regression
  data (both parts of each), and ``flip_labels`` of the classification
  train part.

The first line, starting with ``# ``, names the stack the digests depend
on: the numpy version, the platform with the CPU targets numpy dispatches
to, and the BLAS.  ``tools/output_digests.txt`` holds the recorded
digests after one such ``# `` line for each stack on which the script
printed every one of them, and ``tests/test_output_digests.py`` compares
this script's output with them line by line on any listed stack.  A
change that alters a digest on purpose regenerates the file, which then
names only the stack it was made on:

    PYTHONPATH=src python tools/output_digests.py > tools/output_digests.txt

A stack on which a run prints every recorded line is added as one more
leading ``# `` line.

The script takes no flags.  To check that a change keeps these outputs
byte-identical on a stack other than the recorded one, run it against
both trees on the same machine and diff:

    PYTHONPATH=<old tree>/src python tools/output_digests.py > old.txt
    PYTHONPATH=src python tools/output_digests.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from reweightopt import datagen, experiment, models, optim
from reweightopt.cli import cli_main
from reweightopt.dro import (
    DroInstance, chi2_dro_value, kl_dro_primal, random_instance, revkl_dro_value,
    simplex_bruteforce,
)
from reweightopt.experiment import export_trace, run_experiment
from reweightopt.optim import TrainConfig, TrainingDivergenceError
from reweightopt.sweep import sweep, validate_sweep_spec
from reweightopt.verify import dro_suite, gradcheck_suite
from reweightopt.weighting import WeightingRule

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


def stack_line() -> str:
    """``# numpy <version>; <platform> <machine> (<CPU targets>); <BLAS>``."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy >= 2, < 2
    targets = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = "unknown BLAS"
    return f"# numpy {np.__version__}; {sys.platform} {platform.machine()} ({targets}); {blas}"


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


def linear_ref_digest() -> str:
    rng = np.random.default_rng(16)
    x = rng.standard_normal((64, 5)) / np.sqrt(5)
    y = x @ rng.standard_normal(5) + 0.5 * rng.standard_normal(64)
    batch = models.Batch(x, y)
    # no kl weight is clipped: tau exceeds every loss reachable inside the box
    tau = float(np.ceil(np.max((np.abs(x).sum(axis=1) * 2.0 + np.abs(y)) ** 2)) + 1.0)
    rule = WeightingRule("kl", tau)
    config = TrainConfig(lr_base=0.05, steps=1000, batch_size=64, box=(-2.0, 2.0))
    state = optim.init_state(models.zero_state("linear", 5))
    parts = []
    for _ in range(config.steps):
        state, info = optim.rgd_step(state, batch, rule, config)
        parts.append(info.losses.tobytes())
    return _digest(b"".join(parts) + state.model.theta.tobytes())


_MIXTURE_10 = {
    "generator": "gaussian_mixture_classification",
    "params": {"num_classes": 10, "n_per_class": 12, "dim": 10, "separation": 2.0, "seed": 13},
    "split": {"holdout_fraction": 0.2, "test_fraction": 0.2, "seed": 14},
}

WIDE = {
    "softmax-10": {**MODELS["softmax"], "dataset": _MIXTURE_10},
    "mlp-10": {**MODELS["mlp"], "dataset": _MIXTURE_10},
}


def wide_digests(tmp: Path):
    for name, base in WIDE.items():
        trace, summary = run_experiment({**base, "method": METHODS["rgd-kl"], "eval_every": 7})
        path = tmp / "trace.csv"
        export_trace(trace, path)
        yield f"{name}/rgd-kl/trace.csv", _digest(path.read_bytes())
        theta = np.asarray(summary["final_theta"], dtype=np.float64)
        yield f"{name}/rgd-kl/final_theta", _digest(theta.tobytes())


def _logits(rng, n, c):
    """n rows of c logits with ties, signed zeros and -inf off the labels; the labels."""
    z = rng.standard_normal((n, c)) * np.exp(rng.uniform(-4.0, 4.0, (n, 1)))
    z[: n // 4] = np.round(z[: n // 4])  # ties, at the maximum too
    z[rng.random(z.shape) < 0.1] = 0.0
    z[rng.random(z.shape) < 0.1] = -0.0
    z[n // 2] = -0.0
    y = rng.integers(0, c, n)
    z[(rng.random(z.shape) < 0.2) & (np.arange(c) != y[:, None])] = -np.inf
    return z, y


def kernel_digests():
    rng = np.random.default_rng(15)
    forward = models._forward
    try:
        for c in (2, 9, 10, 17, 130):
            z, y = _logits(rng, 64, c)
            # the softmax model's forward pass, replaced by the given logits
            models._forward = lambda layers, x: (z.copy(), [x])
            model = models.ModelState("softmax", np.zeros(2 * c), 1, c)
            batch = models.Batch(np.zeros((64, 1)), y)
            losses, (e, _, _, _) = models.forward_losses(model, batch)
            eval_losses, predicted = models._eval_pass(model, batch)
            if not np.isfinite(losses).all():
                raise SystemExit(f"the {c}-class logits give a non-finite loss")
            parts = [losses, e, eval_losses, predicted]
            yield f"cross-entropy/C={c}", _digest(b"".join(a.tobytes() for a in parts))
    finally:
        models._forward = forward


# name: (model, method, lr_base, eval_every), each run without a box
DIVERGENT = {
    "ma": ("linear", "ma", 1e200, 10),
    "rgd-loss": ("softmax", "rgd-kl", 1e308, 10),  # step 2, samples [3, 8, 13]
    "rgd-update": ("linear", "rgd-reverse_kl", 1e308, 10),  # step 1
    "rgd-eval": ("linear", "rgd-kl", 1e160, 1),  # step 1, the train split's eval
}


def divergence_digests():
    for name, (model, method, lr_base, eval_every) in DIVERGENT.items():
        base = MODELS[model]
        train = {k: v for k, v in base["train"].items() if k != "box"}
        cfg = {**base, "train": {**train, "lr_base": lr_base}, "method": METHODS[method],
               "eval_every": eval_every}
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


def grid_oracle_digest() -> str:
    rng = np.random.default_rng(12)
    parts = []
    for div in ("kl", "chi2", "reverse_kl"):
        for _ in range(20):
            inst = random_instance(rng, (2, 3), 5.0, 0.5, div)
            value, dist = simplex_bruteforce(inst, 2001, return_dist=True)
            parts += [_canonical(value).encode(), dist.probs.tobytes()]
    return _digest(b"".join(parts))


DATASETS = {
    "mixture-3-splits-flip": {
        "generator": "gaussian_mixture_classification",
        "params": {"num_classes": 10, "n_per_class": 100, "dim": 20, "separation": 3.0, "seed": 17},
        "split": {"holdout_fraction": 0.1, "test_fraction": 0.2, "seed": 18},
        "flip_train": {"fraction": 0.4, "seed": 19},
    },
    "long-tailed-test-split": {
        "generator": "gaussian_mixture_classification",
        "params": {"num_classes": 10, "n_per_class": 200, "dim": 10, "separation": 2.0, "seed": 20},
        "subsample": {"n_max": 200, "imbalance_factor": 50, "seed": 21},
        "split": {"test_fraction": 0.2, "seed": 22},
    },
}


def _dataset_digest(ds) -> str:
    return _digest(ds.inputs.tobytes() + ds.targets.tobytes() + _canonical(ds.meta).encode())


def dataset_digests():
    for name, ds_cfg in DATASETS.items():
        for split, ds in experiment._build_datasets(ds_cfg).items():
            yield f"datasets/{name}/{split}", _dataset_digest(ds)


def datagen_chain_digests():
    mixture = datagen.gaussian_mixture_classification(10, 60, 10, 2.0, seed=23)
    counts = datagen.long_tailed_counts(10, 60, 20.0)
    subsample = datagen.subsample_long_tailed(mixture, counts, seed=24)
    yield "datagen/subsample_long_tailed", _dataset_digest(subsample)
    train, other = datagen.split(subsample, 0.7, seed=25)
    yield "datagen/split/classification/train", _dataset_digest(train)
    yield "datagen/split/classification/other", _dataset_digest(other)
    parts = datagen.split(datagen.rare_feature_regression(seed=26), 0.6, seed=27)
    yield "datagen/split/regression/train", _dataset_digest(parts[0])
    yield "datagen/split/regression/other", _dataset_digest(parts[1])
    yield "datagen/flip_labels", _dataset_digest(datagen.flip_labels(train, 0.3, seed=28))


def main() -> None:
    print(stack_line())
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in run_digests(Path(tmp)):
            print(name, digest)
        for name, digest in sweep_digests(Path(tmp)):
            print(name, digest)
        for name, digest in wide_digests(Path(tmp)):
            print(name, digest)
    print("c07-loop/linear", linear_ref_digest())
    for name, digest in kernel_digests():
        print(name, digest)
    for name, digest in divergence_digests():
        print(name, digest)
    print("dro_suite(40)", _digest(_canonical(dro_suite(40))))
    print("gradcheck_suite(5)", _digest(_canonical(gradcheck_suite(5))))
    for name, digest in solver_digests():
        print(name, digest)
    print("grid-oracle/n=2,3", grid_oracle_digest())
    for name, digest in dataset_digests():
        print(name, digest)
    for name, digest in datagen_chain_digests():
        print(name, digest)


if __name__ == "__main__":
    main()
