"""The four benchmark workloads.

Every workload has the same shape:

    setup()            -> inputs (timed as ``setup_s``)
    rep(inputs)        -> Rep: outputs plus timed parts (``wall_s``)
    check(inputs, rep) -> list of failure messages (not timed)

The inputs depend on the benchmark seed only, so every repetition of a
run repeats the same work and must give the same outputs.

Library calls go through module attributes (``optim.rgd_step``, not a
name imported into this file) so that a traced repetition sees the
timing wrappers that ``layer_targets`` installs.  All inputs derive from
the benchmark seed through ``derive_seed``.
"""

from __future__ import annotations

import importlib
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from reweightopt import datagen, dro, experiment, models, optim, verify, weighting
from reweightopt.models import ModelKind, zero_state
from reweightopt.optim import init_state
from reweightopt.weighting import Divergence

# the package root rebinds the name ``sweep`` to the function of that name
sweep = importlib.import_module("reweightopt.sweep")


def derive_seed(seed: int, *labels) -> int:
    """Stable 32-bit seed for one purpose (labels) of one benchmark seed."""
    key = [int(seed)] + [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass
class Rep:
    """Raw result of one timed repetition."""

    outputs: dict
    attempted: int
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # steps, points, instances, ...
    # seconds per timed part, keyed "<count>/<part>": the part's work is
    # what counts[<count>] counts
    parts_s: dict = field(default_factory=dict)
    raw: object = None  # what check() inspects beyond the outputs


def _op_failure(what: str, exc: BaseException) -> str:
    return f"{what}: {type(exc).__name__}: {exc}"


def _attempt(parts: dict, failures: list, key: str, fn, *args):
    """Time ``fn(*args)`` as part ``key``; a raise fails that operation only
    and leaves the part untimed."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # reported as a failed operation, not re-raised
        failures.append(_op_failure(key, exc))
        return None
    parts[key] = time.perf_counter() - t0
    return result


def _gaussian_dataset_cfg(seed: int, workload: str, n_per_class: int, split: dict) -> dict:
    return {
        "generator": "gaussian_mixture_classification",
        "params": {
            "num_classes": 10,
            "n_per_class": n_per_class,
            "dim": 20,
            "separation": 3.0,
            "seed": derive_seed(seed, workload, "data"),
        },
        "split": {**split, "seed": derive_seed(seed, workload, "split")},
        "flip_train": {"fraction": 0.4, "seed": derive_seed(seed, workload, "flip")},
    }


def _build_inputs(config: dict) -> dict:
    """Validate a run_experiment config, build its splits and initial state."""
    cfg = experiment.validate_config(config)
    splits = experiment._build_datasets(cfg["dataset"])
    model = experiment._build_model(cfg["model"], splits["train"])
    return {"splits": splits, "state": init_state(model, cfg["train"]["optimizer"])}


def _trace_failures(trace, label: str) -> list:
    failures = []
    for rec in trace.records:
        values = [rec.objective, rec.w_min, rec.w_mean, rec.w_max, *rec.metrics.values()]
        if not all(math.isfinite(v) for v in values):
            failures.append(f"{label}: non-finite trace row at step {rec.step} ({rec.split})")
    return failures


class NoisySoftmax:
    """c06: softmax on 40%-flipped Gaussian mixture, rgd / term / ma with SGD."""

    name = "noisy-softmax"
    OP = "steps"
    FULL = {"n_per_class": 625, "steps": 200}
    TINY = {"n_per_class": 30, "steps": 20}
    METHODS = {
        "rgd": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "term": {"name": "term", "t_tilt": 1.0},
        "ma": {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
    }

    def __init__(self, seed: int, size: dict | None = None):
        self.size = size or self.FULL
        steps = self.size["steps"]
        ds = _gaussian_dataset_cfg(
            seed, self.name, self.size["n_per_class"], {"test_fraction": 0.2}
        )
        self.configs = {
            label: {
                "dataset": ds,
                "model": {"kind": "softmax"},
                "method": method,
                "train": {
                    "optimizer": "sgd",
                    "lr_base": 0.2,
                    "steps": steps,
                    "batch_size": 64,
                    "seed": derive_seed(seed, self.name, "train"),
                },
                "metrics": ["accuracy"],
                # eval only at step 0 and at the final step
                "eval_every": steps + 1,
            }
            for label, method in self.METHODS.items()
        }

    def setup(self):
        # the builders run_experiment calls first; it repeats them inside
        # wall_s, because it takes a config rather than built inputs
        return _build_inputs(self.configs["rgd"])

    def rep(self, inputs) -> Rep:
        outputs, failures, parts = {}, [], {}
        for label, cfg in self.configs.items():
            result = _attempt(parts, failures, f"steps/{label}", experiment.run_experiment, cfg)
            if result is None:
                continue
            trace, summary = result
            failures += _trace_failures(trace, f"steps/{label}")
            final = summary["final"]
            outputs[label] = (final["test"]["accuracy"], final["train"]["objective"])
        if "rgd" in outputs:
            outputs["accuracy"] = outputs["rgd"][0]
        steps = len(parts) * self.size["steps"]
        return Rep(outputs, len(self.configs), failures, {"steps": steps}, parts)

    def check(self, inputs, rep: Rep) -> list:
        return []


class LinearRef:
    """c07 reference loop: full-batch linear rgd_step calls, one after another."""

    name = "linear-ref"
    OP = "steps"
    FULL = {"steps": 1000, "chunk": 100}
    TINY = {"steps": 50, "chunk": 20}
    N, D, LR, BOX = 64, 5, 0.05, (-2.0, 2.0)

    def __init__(self, seed: int, size: dict | None = None):
        self.size = size or self.FULL
        self.data_seed = derive_seed(seed, self.name, "data")
        self._reference = None

    def setup(self):
        rng = np.random.default_rng(self.data_seed)
        x = rng.standard_normal((self.N, self.D)) / np.sqrt(self.D)
        theta_star = rng.standard_normal(self.D)
        y = x @ theta_star + 0.5 * rng.standard_normal(self.N)
        batch = models.Batch(x, y)
        # clip level above the largest loss reachable inside the box, so the
        # kl weights are never clipped
        bound = float(np.max((np.abs(x).sum(axis=1) * self.BOX[1] + np.abs(y)) ** 2))
        rule = weighting.WeightingRule(Divergence.KL, float(np.ceil(bound) + 1.0))
        config = optim.TrainConfig(
            "sgd", rule, lr_base=self.LR, schedule="constant",
            steps=self.size["steps"], batch_size=self.N, box=self.BOX,
        )
        state = init_state(zero_state(ModelKind.LINEAR, self.D))
        return {"batch": batch, "rule": rule, "config": config, "state": state}

    def rep(self, inputs) -> Rep:
        batch, rule, config = inputs["batch"], inputs["rule"], inputs["config"]
        state = inputs["state"]
        step = optim.rgd_step
        losses, parts = [], {}
        chunk = self.size["chunk"]
        try:
            for c in range(0, config.steps, chunk):
                t0 = time.perf_counter()
                for _ in range(min(chunk, config.steps - c)):
                    state, info = step(state, batch, rule, config)
                    losses.append(info.losses)
                parts[f"steps/{c // chunk}"] = time.perf_counter() - t0
        except Exception as exc:  # a raise ends the repetition at the failed step
            failure = _op_failure(f"step {len(losses) + 1}", exc)
            return Rep({}, len(losses) + 1, [failure], {"steps": len(losses)}, parts)
        t0 = time.perf_counter()
        final = optim.term_objective(models.per_sample_loss(state.model, batch), rule.gamma)
        parts["steps/objective"] = time.perf_counter() - t0
        return Rep(
            {"final_objective": final}, config.steps, [], {"steps": config.steps}, parts, losses
        )

    def check(self, inputs, rep: Rep) -> list:
        if not rep.outputs:
            return []
        bad = [i for i, l in enumerate(rep.raw, 1) if not np.all(np.isfinite(l))]
        failures = [f"step {i}: non-finite loss" for i in bad]
        if self._reference is None:
            self._reference = numpy_linear_ref(inputs)
        want, got = self._reference[0], rep.outputs["final_objective"]
        if not abs(got - want) <= 1e-9 * abs(want):
            failures.append(f"final_objective {got!r} != numpy replica {want!r}")
        return failures

    def floor_step_s(self):
        """Seconds per step of the numpy replica; None before a checked repetition."""
        return None if self._reference is None else self._reference[1]


def numpy_linear_ref(inputs):
    """The linear-ref loop inlined in numpy: (final objective, seconds per step).

    An independent replica of the same arithmetic, used to check the
    library's result and as the numpy floor of one step.
    """
    batch, rule, config = inputs["batch"], inputs["rule"], inputs["config"]
    x, y = batch.inputs, batch.targets
    n = y.size
    lo, hi = config.box
    tau, lr = rule.tau, config.lr_base
    theta = np.zeros(x.shape[1])
    t0 = time.perf_counter()
    for _ in range(config.steps):
        r = x @ theta - y
        w = np.exp(np.clip(r * r, 0.0, tau) / (tau + 1.0))
        theta = np.clip(theta - lr * (x.T @ (2.0 * (w / n) * r)), lo, hi)
    per_step = (time.perf_counter() - t0) / config.steps
    z = rule.gamma * (x @ theta - y) ** 2
    zmax = z.max()
    objective = (zmax + math.log(np.mean(np.exp(z - zmax)))) / rule.gamma
    return objective, per_step


class MlpSweep:
    """tau x lr_mult sweep of an Adam-trained MLP 20-32-10, holdout selection."""

    name = "mlp-sweep"
    OP = "points"
    FULL = {"n_per_class": 625, "steps": 20}
    TINY = {"n_per_class": 30, "steps": 10}
    GRID = {"tau": [1.0, 3.0, 5.0, 7.0, 9.0], "lr_mult": [0.5, 1.0, 1.5]}

    def __init__(self, seed: int, size: dict | None = None):
        self.size = size or self.FULL
        self.base = {
            "dataset": _gaussian_dataset_cfg(
                seed, self.name, self.size["n_per_class"],
                {"holdout_fraction": 0.1, "test_fraction": 0.2},
            ),
            "model": {
                "kind": "mlp",
                "hidden": [32],
                "init_seed": derive_seed(seed, self.name, "init"),
            },
            "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
            "train": {
                "optimizer": "adam",
                "lr_base": 0.01,
                "steps": self.size["steps"],
                "batch_size": 64,
                "seed": derive_seed(seed, self.name, "train"),
            },
            "eval_every": 10,
            "metrics": ["accuracy"],
        }
        self.spec = {"grid": self.GRID, "select": {"metric": "accuracy", "split": "holdout"}}

    def setup(self):
        # as in noisy-softmax, every sweep point rebuilds these inside wall_s
        return {**_build_inputs(self.base), "spec": sweep.validate_sweep_spec(self.spec, self.base)}

    def rep(self, inputs) -> Rep:
        spec = inputs["spec"]
        points = math.prod(len(v) for v in spec.axes.values())
        failures, parts, point_s = [], {}, []
        run_point = sweep.run_experiment

        def timed_point(cfg):
            # one clock pair per ~40 ms point; short parts give the minimum
            # of each part many samples
            t0 = time.perf_counter()
            try:
                return run_point(cfg)
            finally:
                point_s.append(time.perf_counter() - t0)

        sweep.run_experiment = timed_point
        try:
            result = _attempt(parts, failures, "points/sweep", sweep.sweep, spec, self.base)
        finally:
            sweep.run_experiment = run_point
        if result is None:  # the whole sweep failed, so every point did
            failed = [f"point {i}: {failures[-1]}" for i in range(points)]
            return Rep({}, points, failed, {"points": 0, "steps": 0})
        best, results = result
        parts["points/sweep"] -= sum(point_s)
        parts.update({f"points/{i}": t for i, t in enumerate(point_s)})
        failures += [f"point {r.params}: {r.detail}" for r in results if r.status != "ok"]
        ok = [r for r in results if r.status == "ok"]
        outputs = {"holdout": [r.metric for r in results]}
        if ok:
            # sweep keeps the first of tied maxima; max() does the same
            chosen = max(ok, key=lambda r: r.metric)
            tau, lr_mult = chosen.params
            if best["method"]["rule"]["tau"] != tau or not math.isclose(
                best["train"]["lr_base"], self.base["train"]["lr_base"] * lr_mult
            ):
                failures.append(f"sweep selected {best['method']} instead of point {chosen.params}")
            outputs["accuracy"] = chosen.summary["final"]["test"]["accuracy"]
        steps = len(results) * self.base["train"]["steps"]
        counts = {"points": len(results), "steps": steps}
        return Rep(outputs, len(results), failures, counts, parts)

    def check(self, inputs, rep: Rep) -> list:
        bad = [m for m in rep.outputs.get("holdout", []) if m is not None and not math.isfinite(m)]
        return [f"non-finite holdout accuracy {m}" for m in bad]


class DroVerify:
    """Small-n dro_suite trials, gradcheck_suite and large-n check_instances."""

    name = "dro-verify"
    OP = "checks"
    FULL = {"n_max": 10, "grid": 2001, "grad_trials": 5, "large_n": 1000}
    TINY = {"n_max": 4, "grid": 201, "grad_trials": 2, "large_n": 40}
    DIVERGENCES = (Divergence.KL, Divergence.CHI2, Divergence.REVERSE_KL)
    RHO_MAX, LOSS_SCALE = 0.5, 5.0

    def __init__(self, seed: int, size: dict | None = None):
        self.size = size or self.FULL
        self.seed = seed
        # One trial seed for every size n in [2, n_max]: the n <= 3 trials
        # also run the dense grid oracle and cost ~7x the others, so an
        # unstratified draw would make the time per repetition depend on
        # the seed.
        candidates = np.random.default_rng(derive_seed(seed, self.name, "trials"))
        wanted = set(range(2, self.size["n_max"] + 1))
        self.trial_seeds = []
        while wanted:
            candidate = int(candidates.integers(2**32))
            n = self._trial_instance(candidate).n
            if n in wanted:
                self.trial_seeds.append(candidate)
                wanted.remove(n)

    def _trial_instance(self, trial_seed: int):
        """The instance ``dro_suite(trials=1, seed=trial_seed)`` solves."""
        rng = np.random.default_rng(trial_seed)
        n_range = (2, self.size["n_max"])
        return dro.random_instance(rng, n_range, self.LOSS_SCALE, self.RHO_MAX)

    def setup(self):
        small = [self._trial_instance(s) for s in self.trial_seeds]
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "large"))
        big = self.size["large_n"]
        records = [
            dro.instance_to_json(
                dro.random_instance(rng, (big, big), self.LOSS_SCALE, self.RHO_MAX, div)
            )
            for div in self.DIVERGENCES
        ]
        return {
            "trial_seeds": self.trial_seeds,
            "grid_expected": sum(inst.n <= 3 for inst in small),
            "records": records,
            # one gradcheck_suite call per trial: short parts, more samples each
            "grad_seeds": [
                derive_seed(self.seed, self.name, "gradcheck", i)
                for i in range(self.size["grad_trials"])
            ],
        }

    def rep(self, inputs) -> Rep:
        size = self.size
        failures, parts = [], {}
        suites = [
            _attempt(parts, failures, f"instances/dro_suite {s}", verify.dro_suite,
                     1, size["n_max"], self.RHO_MAX, s, size["grid"], True)
            for s in inputs["trial_seeds"]
        ]
        grads = [
            _attempt(parts, failures, f"gradchecks/gradcheck_suite {s}", verify.gradcheck_suite,
                     1, s)
            for s in inputs["grad_seeds"]
        ]
        insts = [
            _attempt(parts, failures, f"instances/check_instances {i}", verify.check_instances,
                     [record])
            for i, record in enumerate(inputs["records"])
        ]
        kinds = len(models.ModelKind)
        attempted = len(suites) + len(insts) + kinds * len(grads)
        # parts holds the operations that returned: they make up the counts
        returned = [key.split("/", 1)[0] for key in parts]
        instances, gradchecks = returned.count("instances"), kinds * returned.count("gradchecks")
        values = [
            [r["max_duality_gap"], r["max_form_dev"], r["max_grid_err"],
             r["max_variant_grid_err"], r["max_variant_form_dev"]]
            for r in suites if r is not None
        ]
        values += [sorted(g["max_rel_err"].items()) for g in grads if g is not None]
        values += [[e["value"] for e in r["results"]] for r in insts if r is not None]
        counts = {"instances": instances, "gradchecks": gradchecks, "checks": instances + gradchecks}
        return Rep(
            {"dro_values": values}, attempted, failures, counts, parts,
            raw=(suites, grads, insts),
        )

    def check(self, inputs, rep: Rep) -> list:
        suites, grads, insts = rep.raw
        failures = []
        grid_tol = verify.GRID_TOL * 2000.0 / (self.size["grid"] - 1)
        for s, r in zip(inputs["trial_seeds"], suites):
            if r is None:
                continue
            failures += [f"dro_suite seed {s}: {f}" for f in r["failures"]]
            if r["max_duality_gap"] > verify.DUALITY_TOL:
                failures.append(f"dro_suite seed {s}: duality gap {r['max_duality_gap']:.3e}")
            if max(r["max_grid_err"], r["max_variant_grid_err"]) > grid_tol:
                failures.append(f"dro_suite seed {s}: grid error above {grid_tol:.1e}")
            if max(r["max_form_dev"], r["max_variant_form_dev"]) > verify.FORM_TOL:
                failures.append(f"dro_suite seed {s}: tilting form deviation")
        if None not in suites:
            grid_checked = sum(r["grid_checked"] for r in suites)
            if grid_checked != inputs["grid_expected"]:
                failures.append(
                    f"{grid_checked} grid-checked trials, expected {inputs['grid_expected']}: "
                    "dro_suite no longer draws the instance random_instance predicts"
                )
        for s, g in zip(inputs["grad_seeds"], grads):
            if g is None:
                continue
            # one trial per call: a failure names "<kind> trial 0"
            failures += [f"gradcheck seed {s} {f}" for f in g["failures"]]
            failures += [
                f"gradcheck seed {s} {kind} trial 0: rel err {err:.3e} above GRAD_TOL"
                for kind, err in g["max_rel_err"].items()
                if err > verify.GRAD_TOL
            ]
        for i, r in enumerate(insts):
            if r is None:
                continue
            # check_instances reports constraint (feasibility), form and duality failures
            failures += [f"large instance {i}: {f}" for f in r["failures"]]
            if r["checked"] != 1:
                failures.append(f"large instance {i}: check_instances checked {r['checked']}")
            for e in r["results"]:
                if e.get("duality_gap", 0.0) > verify.DUALITY_TOL:
                    failures.append(f"large instance {i}: duality gap {e['duality_gap']:.3e}")
        return failures


WORKLOADS = {w.name: w for w in (NoisySoftmax, LinearRef, MlpSweep, DroVerify)}


def layer_targets():
    """(module, attribute, kind, span name) for every traced binding."""

    def by_size(solver):
        return lambda args: f"dro.{solver}.{'small' if args[0].n <= 100 else 'large'}"

    t = []

    def span(name, *modules, attr=None):
        for m in modules:
            t.append((m, attr or name.rsplit(".", 1)[1], "span", name))

    span("models.forward_losses", optim)
    span("models.backward_weighted", optim)
    span("models.per_sample_loss", models, experiment, verify)
    span("models.predict", experiment)
    span("models.Batch", experiment, verify)
    span("weighting.batch_weights", optim, experiment)
    span("optim.rgd_step", optim, experiment)
    span("optim.term_step", experiment)
    span("optim.ma_exp_step", experiment)
    span("optim.sgd_step", optim)
    span("optim.adam_step", optim)
    span("experiment.run_experiment", experiment)
    for attr in (
        "gaussian_mixture_classification", "rare_feature_regression",
        "long_tailed_counts", "subsample_long_tailed", "split", "flip_labels",
    ):
        span("datagen.build", datagen, attr=attr)
    # sweep's binding opens sweep.point; the experiment span nests inside it
    span("experiment.run_experiment", sweep)
    span("sweep.point", sweep, attr="run_experiment")
    span("verify.finite_diff_grad", verify)
    span("verify.weighted_grad", verify)
    for solver in (
        "kl_dro_primal", "kl_dro_dual", "chi2_dro_value", "revkl_dro_value",
        "simplex_bruteforce", "optimal_weight_form_check",
    ):
        t.append((verify, solver, "span", by_size(solver)))
    t.append((dro, "logsumexp", "count", "dro.logsumexp"))
    return t


SPAN_NAMES = (
    [f"models.{f}" for f in ("forward_losses", "backward_weighted", "per_sample_loss", "predict", "Batch")]
    + ["weighting.batch_weights"]
    + [f"optim.{f}" for f in ("rgd_step", "term_step", "ma_exp_step", "sgd_step", "adam_step")]
    + ["datagen.build", "sweep.point", "verify.finite_diff_grad", "verify.weighted_grad"]
    + [
        f"dro.{f}.{s}"
        for f in (
            "kl_dro_primal", "kl_dro_dual", "chi2_dro_value", "revkl_dro_value",
            "simplex_bruteforce", "optimal_weight_form_check",
        )
        for s in ("small", "large")
    ]
)
