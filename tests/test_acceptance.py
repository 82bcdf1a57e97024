"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from reweightopt.datagen import gaussian_mixture_classification, long_tailed_counts, subsample_long_tailed
from reweightopt.experiment import minibatch_stream, run_experiment
from reweightopt.models import (
    Batch,
    ModelKind,
    per_sample_loss,
    random_state,
    weighted_grad,
    zero_state,
)
from reweightopt.optim import (
    TrainConfig,
    adam_step,
    init_state,
    rgd_step,
    sgd_step,
    term_objective,
)
from reweightopt.verify import dro_suite, gradcheck_suite
from reweightopt.weighting import Divergence, WeightingRule, batch_weights, weight_kl

TAU_GRID = [1.0, 3.0, 5.0, 7.0, 9.0]


def _report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1 & 2: duality certification and optimal-weight tilting forms
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dro_report():
    t0 = time.perf_counter()
    report = dro_suite(trials=200, n_max=10, rho_max=0.5, seed=123, grid_points=2001)
    report["elapsed"] = time.perf_counter() - t0
    return report


def test_c01_duality_certification(dro_report):
    r = dro_report
    ok = (
        r["trials"] == 200
        and r["max_duality_gap"] <= 1e-8
        and r["grid_checked"] > 0
        and r["max_grid_err"] <= 2e-3
        and r["elapsed"] < 30.0
    )
    _report(
        1,
        ok,
        f"200 instances: |primal-dual| max {r['max_duality_gap']:.2e} (tol 1e-8); "
        f"{r['grid_checked']} grid cross-checks max err {r['max_grid_err']:.2e} "
        f"(tol 2e-3); elapsed {r['elapsed']:.1f}s (< 30s)",
    )


def test_c02_optimal_weight_form(dro_report):
    r = dro_report
    ok = (
        r["max_form_dev"] < 1e-6
        and r["max_variant_form_dev"] < 1e-6
        and r["max_variant_grid_err"] <= 2e-3
    )
    _report(
        2,
        ok,
        f"tilting-form max rel dev {r['max_form_dev']:.2e} (kl), "
        f"{r['max_variant_form_dev']:.2e} (chi2/revkl) (tol 1e-6); "
        f"variant grid agreement {r['max_variant_grid_err']:.2e} (tol 2e-3)",
    )


# --------------------------------------------------------------------------
# 3: analytic gradients vs central differences
# --------------------------------------------------------------------------


def test_c03_gradient_correctness():
    t0 = time.perf_counter()
    report = gradcheck_suite(trials=50, seed=2024)
    elapsed = time.perf_counter() - t0
    worst = max(report["max_rel_err"].values())
    ok = report["passed"] and worst < 1e-5 and elapsed < 10.0
    per_kind = ", ".join(f"{k}={v:.2e}" for k, v in report["max_rel_err"].items())
    _report(3, ok, f"50 triples/kind rel err {per_kind} (tol 1e-5); {elapsed:.1f}s (< 10s)")


# --------------------------------------------------------------------------
# 4: rule=none traces are bit-identical to plain SGD/Adam
# --------------------------------------------------------------------------


def _erm_config(seed, dataset, model, optimizer, lr):
    return {
        "dataset": dataset,
        "model": model,
        "method": {"name": "rgd", "rule": {"divergence": "none"}},
        "train": {"optimizer": optimizer, "lr_base": lr, "steps": 40,
                  "batch_size": 16, "seed": seed},
        "metrics": [],
        "eval_every": 10,
    }


def _plain_run(dataset, model, optimizer, lr, steps, batch_size, seed, eval_every):
    """Hand loop using only the base optimizer on mean gradients."""
    x, y = dataset.inputs, dataset.targets
    state = init_state(model, optimizer)
    thetas = {}
    for step, idx in enumerate(minibatch_stream(dataset.n, batch_size, steps, seed), 1):
        batch = Batch(x[idx], y[idx])
        grad = weighted_grad(state.model, batch, np.ones(len(idx)))
        if optimizer == "adam":
            state = adam_step(state, grad, lr)
        else:
            state = sgd_step(state, grad, lr)
        if step % eval_every == 0 or step == steps:
            thetas[step] = np.array(state.model.theta)
    return thetas


def test_c04_erm_reduction():
    from reweightopt.datagen import rare_feature_regression

    cases = [
        (
            11,
            {"generator": "rare_feature_regression", "params": {"seed": 11}},
            {"kind": "linear"},
            "sgd",
            0.5,
            rare_feature_regression(11),
            zero_state(ModelKind.LINEAR, 10),
        ),
        (
            12,
            {
                "generator": "gaussian_mixture_classification",
                "params": {"num_classes": 3, "n_per_class": 30, "dim": 4,
                           "separation": 3.0, "seed": 12},
            },
            {"kind": "softmax"},
            "adam",
            0.05,
            gaussian_mixture_classification(3, 30, 4, 3.0, 12),
            zero_state(ModelKind.SOFTMAX, 4, 3),
        ),
        (
            13,
            {
                "generator": "gaussian_mixture_classification",
                "params": {"num_classes": 3, "n_per_class": 30, "dim": 4,
                           "separation": 3.0, "seed": 13},
            },
            {"kind": "mlp", "hidden": [8], "init_seed": 3},
            "sgd",
            0.1,
            gaussian_mixture_classification(3, 30, 4, 3.0, 13),
            random_state(ModelKind.MLP, 4, 3, (8,), seed=3),
        ),
    ]
    checked = 0
    for seed, ds_cfg, model_cfg, optimizer, lr, dataset, model in cases:
        trace, summary = run_experiment(_erm_config(seed, ds_cfg, model_cfg, optimizer, lr))
        thetas = _plain_run(dataset, model, optimizer, lr, 40, 16, seed, 10)
        assert np.array_equal(np.array(summary["final_theta"]), thetas[40])
        # trace rows must equal the plain run's objective bit-for-bit
        full = Batch(dataset.inputs, dataset.targets)
        for rec in trace.rows("train"):
            if rec.step == 0:
                continue
            plain_obj = float(np.mean(per_sample_loss(model.with_theta(thetas[rec.step]), full)))
            assert rec.objective == plain_obj
            checked += 1
    _report(4, True, f"3 seeded configs (sgd, adam, mlp): final theta and "
                     f"{checked} trace objectives bit-identical to plain runs")


# --------------------------------------------------------------------------
# 5: rare-feature regression, reweighting vs plain SGD at lr 4
# --------------------------------------------------------------------------


def _toy_config(seed, divergence, tau):
    rule = {"divergence": divergence}
    if divergence != "none":
        rule["tau"] = tau
    return {
        "dataset": {"generator": "rare_feature_regression", "params": {"seed": seed}},
        "model": {"kind": "linear"},
        "method": {"name": "rgd", "rule": rule},
        "train": {"optimizer": "sgd", "lr_base": 4.0, "steps": 1000,
                  "batch_size": 255, "seed": seed},
        "metrics": ["mse", "rare_l2", "frequent_l2"],
        "eval_every": 100,
    }


def test_c05_toy_rare_feature_regression():
    # tau must keep lr=4 stable on this design: the frequent-direction error
    # multiplier is 1 - 4*2*(50/255)*w, so the saturated weight needs
    # exp(tau/(tau+1)) < 2/1.5686, i.e. tau < 0.321; use 0.25 with margin
    t0 = time.perf_counter()
    rare_r, rare_s, freq_r, freq_s = [], [], [], []
    for seed in range(5):
        _, s_rgd = run_experiment(_toy_config(seed, "kl", 0.25))
        _, s_sgd = run_experiment(_toy_config(seed, "none", 0.25))
        rare_r.append(s_rgd["final"]["train"]["rare_l2"])
        rare_s.append(s_sgd["final"]["train"]["rare_l2"])
        freq_r.append(s_rgd["final"]["train"]["frequent_l2"])
        freq_s.append(s_sgd["final"]["train"]["frequent_l2"])
    elapsed = time.perf_counter() - t0
    mean_rare_r, mean_rare_s = float(np.mean(rare_r)), float(np.mean(rare_s))
    mean_freq_r, mean_freq_s = float(np.mean(freq_r)), float(np.mean(freq_s))
    rare_ok = mean_rare_r < mean_rare_s
    # both frequent endpoints converge to the rounding floor (~1e-16); treat
    # values below 1e-9 as equal-at-zero, else compare relatively
    freq_gap = abs(mean_freq_r - mean_freq_s)
    freq_scale = max(mean_freq_r, mean_freq_s)
    freq_ok = freq_gap <= 0.1 * freq_scale or freq_scale <= 1e-9
    ok = rare_ok and freq_ok and elapsed < 60.0
    _report(
        5,
        ok,
        f"5 seeds, lr=4, T=1000: rare L2 reweighted {mean_rare_r:.3e} < plain "
        f"{mean_rare_s:.3e}; frequent L2 {mean_freq_r:.3e} vs {mean_freq_s:.3e} "
        f"(within 10% or both ~0); elapsed {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------
# 6: clipping beats unclipped exponential weighting under 40% label noise
# --------------------------------------------------------------------------


def _noisy_config(seed, method):
    return {
        "dataset": {
            "generator": "gaussian_mixture_classification",
            "params": {"num_classes": 10, "n_per_class": 625, "dim": 20,
                       "separation": 3.0, "seed": 100 + seed},
            "split": {"test_fraction": 0.2, "seed": 200 + seed},
            "flip_train": {"fraction": 0.4, "seed": 300 + seed},
        },
        "model": {"kind": "softmax"},
        "method": method,
        "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": 4000,
                  "batch_size": 64, "seed": seed},
        "metrics": ["accuracy"],
        "eval_every": 100000,
    }


def test_c06_label_noise_robustness():
    t0 = time.perf_counter()
    methods = {
        "clipped": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
        "tilted": {"name": "term", "t_tilt": 1.0},
        "moving_avg": {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
    }
    accs = {name: [] for name in methods}
    for seed in range(5):
        for name, method in methods.items():
            _, summary = run_experiment(_noisy_config(seed, method))
            accs[name].append(summary["final"]["test"]["accuracy"])
    elapsed = time.perf_counter() - t0
    mean = {name: float(np.mean(vals)) for name, vals in accs.items()}
    gap = mean["clipped"] - mean["tilted"]
    ok = gap >= 0.02 and mean["clipped"] > mean["moving_avg"] and elapsed < 300.0
    _report(
        6,
        ok,
        f"5 seeds, 40% flips: clipped {mean['clipped']:.4f}, tilted "
        f"{mean['tilted']:.4f} (gap {gap * 100:.2f}pp >= 2pp), moving-avg "
        f"{mean['moving_avg']:.4f}; elapsed {elapsed:.0f}s (< 300s)",
    )


# --------------------------------------------------------------------------
# 7: sub-optimality of the log-mean-exp surrogate decays like a power law
# --------------------------------------------------------------------------


def test_c07_convergence_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n, d = 64, 5
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    theta_star = rng.standard_normal(d)
    y = x @ theta_star + 0.5 * rng.standard_normal(n)
    full = Batch(x, y)
    box = (-2.0, 2.0)
    # clip level above the max loss reachable inside the box, so the
    # exponential weights are unclipped on the whole feasible set
    loss_bound = float(np.max((np.abs(x).sum(axis=1) * 2.0 + np.abs(y)) ** 2))
    tau = float(np.ceil(loss_bound) + 1.0)
    rule = WeightingRule(Divergence.KL, tau)
    gamma = rule.gamma

    def surrogate(model):
        return term_objective(per_sample_loss(model, full), gamma)

    # reference optimum: 1e6-step full-batch run with a constant small step
    ref_cfg = TrainConfig("sgd", rule, lr_base=0.05, schedule="constant",
                          steps=10**6, batch_size=n, box=box)
    state = init_state(zero_state(ModelKind.LINEAR, d))
    for _ in range(ref_cfg.steps):
        state, _ = rgd_step(state, full, rule, ref_cfg)
    f_star = surrogate(state.model)

    checkpoints = sorted({int(round(10.0**e)) for e in np.linspace(2.0, 4.0, 9)})
    horizon = checkpoints[-1]
    gaps = {c: [] for c in checkpoints}
    cfg = TrainConfig("sgd", rule, lr_base=0.1, schedule="inv_sqrt_step",
                      steps=horizon, batch_size=16, box=box)
    for seed in range(5):
        st = init_state(zero_state(ModelKind.LINEAR, d))
        for step, idx in enumerate(minibatch_stream(n, 16, horizon, seed=100 + seed), 1):
            st, _ = rgd_step(st, Batch(x[idx], y[idx]), rule, cfg)
            if step in gaps:
                gaps[step].append(surrogate(st.model) - f_star)
    means = np.array([np.mean(gaps[c]) for c in checkpoints])
    elapsed = time.perf_counter() - t0
    positive = bool(np.all(means > 0.0))
    slope = float(np.polyfit(np.log(checkpoints), np.log(np.maximum(means, 1e-300)), 1)[0])
    ok = positive and slope <= -0.4 and elapsed < 120.0
    _report(
        7,
        ok,
        f"eta_t = C/sqrt(t): fitted log-log slope {slope:.2f} (<= -0.4) over "
        f"T in [1e2, 1e4]; gaps {means[0]:.1e} -> {means[-1]:.1e}; "
        f"elapsed {elapsed:.0f}s (< 120s)",
    )


# --------------------------------------------------------------------------
# 8: exact weight saturation at the clip
# --------------------------------------------------------------------------


def test_c08_weight_saturation():
    rng = np.random.default_rng(88)
    checked = 0
    for tau in TAU_GRID:
        cap = math.exp(tau / (tau + 1.0))
        u = tau + rng.uniform(0.0, 1000.0, size=1000)
        u[0] = tau  # include the boundary itself
        vec = batch_weights(u, WeightingRule(Divergence.KL, tau))
        assert np.all(vec == cap)
        for v in u[:50]:
            assert weight_kl(float(v), tau) == cap
        checked += u.size
    _report(8, True, f"{checked} saturated inputs across tau grid {TAU_GRID}: "
                     f"weight == exp(tau/(tau+1)) exactly")


# --------------------------------------------------------------------------
# 9: per-step runtime parity with plain SGD on the mlp
# --------------------------------------------------------------------------


def test_c09_runtime_parity():
    rng = np.random.default_rng(9)
    d, h, c, b = 20, 32, 10, 64
    model = random_state(ModelKind.MLP, d, c, (h,), seed=1)
    batch = Batch(rng.standard_normal((b, d)), rng.integers(0, c, b))
    steps = 1000

    rules = [WeightingRule(Divergence.NONE), WeightingRule(Divergence.KL, 1.0)]
    cfgs = [TrainConfig("sgd", r, lr_base=0.01, steps=steps, batch_size=b) for r in rules]
    states = [init_state(model) for _ in rules]
    for _ in range(50):  # warmup
        for k, rule in enumerate(rules):
            states[k], _ = rgd_step(states[k], batch, rule, cfgs[k])
    states = [init_state(model) for _ in rules]
    times = np.empty((len(rules), steps))
    # the two runs alternate step by step (in alternating order), so a change
    # of CPU speed during the measurement reaches both medians alike
    for i in range(steps):
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            start = time.perf_counter()
            states[k], _ = rgd_step(states[k], batch, rules[k], cfgs[k])
            times[k, i] = time.perf_counter() - start
    plain, reweighted = (float(t) for t in np.median(times, axis=1))
    ratio = reweighted / plain
    ok = ratio <= 1.2
    _report(9, ok, f"median per-step: reweighted {reweighted * 1e6:.0f}us vs plain "
                   f"{plain * 1e6:.0f}us, ratio {ratio:.3f} (<= 1.2), {steps} steps")


# --------------------------------------------------------------------------
# 10: long-tailed count profile endpoints and metadata
# --------------------------------------------------------------------------


def test_c10_long_tailed_counts():
    counts = long_tailed_counts(10, 5000, 100)
    endpoints_ok = counts[0] == 5000 and counts[-1] == 50
    full = gaussian_mixture_classification(10, 5000, 10, 2.0, seed=10)
    tailed = subsample_long_tailed(full, counts, seed=11)
    observed = np.bincount(tailed.targets, minlength=10).tolist()
    meta_if = tailed.meta["imbalance_factor"]
    ok = endpoints_ok and observed == counts and meta_if == 100.0
    _report(10, ok, f"counts {counts}: endpoints 5000/50, dataset counts match, "
                    f"metadata imbalance factor {meta_if} == 100.0")
