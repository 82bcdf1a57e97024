"""Tests for the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from tracing import Tracer, self_times_ns, span_stats, tail_quantile  # noqa: E402

from reweightopt import experiment, optim, verify  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_runs_without_errors(name, seed):
    size = workloads.WORKLOADS[name].TINY
    body = run.run(name, seed, seconds=0.01, traced=False, size=size)
    assert body["failures"] == []
    assert body["error_rate"] == 0.0
    result = body["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name_, metric in result["metrics"].items():
        assert metric["value"] > 0, name_


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_change_outputs(name):
    wl = workloads.WORKLOADS[name](5, workloads.WORKLOADS[name].TINY)
    inputs = wl.setup()
    plain = wl.rep(inputs)
    tracer = Tracer()
    with tracer.installed(workloads.layer_targets()):
        traced = wl.rep(inputs)
    assert plain.failures == [] and traced.failures == []
    assert set(plain.outputs) & {"accuracy", "final_objective", "dro_values"}
    assert traced.outputs == plain.outputs
    assert len(tracer.starts) > 0 and not tracer._stack


@pytest.mark.parametrize(
    "name, module, attr",
    [("linear-ref", optim, "rgd_step"), ("mlp-sweep", workloads.sweep, "sweep"),
     ("noisy-softmax", experiment, "run_experiment"), ("dro-verify", verify, "dro_suite"),
     ("dro-verify", verify, "gradcheck_suite")],
)
def test_failing_operations_give_an_incorrect_result(name, module, attr, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(module, attr, broken)
    size = workloads.WORKLOADS[name].TINY
    body = run.run(name, 0, seconds=0.01, traced=False, size=size)
    result = body["result"]
    assert not result["correct"]
    if name == "dro-verify":  # the other dro-verify parts still run
        assert 1 <= result["failed"] < result["attempted"]
    else:
        assert result["failed"] == result["attempted"] >= 1
        assert body["error_rate"] == 1.0
        assert result["metrics"]["ops_per_s"]["value"] == 0.0


def test_traced_run_reports_every_per_layer_metric():
    size = workloads.WORKLOADS["linear-ref"].TINY
    body = run.run("linear-ref", 0, seconds=0.01, traced=True, size=size)
    assert body["failures"] == []
    metrics = body["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["optim.rgd_step.calls"]["value"] > 0
    assert metrics["dro.kl_dro_primal.small.calls"]["value"] == 0


def test_wrappers_restore_attributes_when_workload_raises():
    targets = workloads.layer_targets()
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in targets]
    unpatched = experiment.run_experiment
    tracer = Tracer()
    with pytest.raises(experiment.ConfigError):
        with tracer.installed(targets):
            assert experiment.run_experiment is not unpatched
            experiment.run_experiment({"dataset": {}})
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    # the span of the failed call was closed on the way out
    assert tracer.names == ["experiment.run_experiment"]
    assert tracer.ends[0] >= tracer.starts[0] and not tracer._stack


def test_wrappers_restore_attributes_when_install_fails():
    targets = workloads.layer_targets()[:3] + [(optim, "no_such_function", "span", "x")]
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in targets[:3]]
    with pytest.raises(AttributeError):
        with Tracer().installed(targets):
            pass
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_self_time_on_synthetic_span_tree():
    #   root [0, 100]
    #     a [10, 40]
    #       c [20, 30]
    #     b [50, 90]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert self_times_ns(starts, ends, parents).tolist() == [30, 20, 10, 40]

    tracer = Tracer()
    for name, s, e, p in zip(["root", "a", "c", "b"], starts, ends, parents):
        tracer.name_ids.append(tracer._name_id("x" if name in "ab" else name))
        tracer.starts.append(s * 1000)
        tracer.ends.append(e * 1000)
        tracer.parents.append(p)
    stats = span_stats(tracer)
    assert stats["x"]["calls"] == 2
    assert stats["x"]["self_s"] == pytest.approx((20 + 40) * 1e-6)
    assert stats["x"]["p50_us"] == pytest.approx(30.0)
    assert stats["root"]["self_s"] == pytest.approx(30e-6)


def test_nested_wrappers_record_parents():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.span("inner", inner)
    outer = tracer.span("outer", lambda: wrapped_inner() + wrapped_inner())
    assert outer() == 2
    assert [tracer.names[i] for i in tracer.name_ids] == ["outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0]


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(5000) == 0.99
    assert tail_quantile(100) == pytest.approx(0.9)
    assert tail_quantile(12) == 0.5


def test_seeds_are_derived_from_the_benchmark_seed():
    a = workloads.NoisySoftmax(0).configs["rgd"]
    b = workloads.NoisySoftmax(1).configs["rgd"]
    assert a["dataset"]["params"]["seed"] != b["dataset"]["params"]["seed"]
    assert a["train"]["seed"] != b["train"]["seed"]
    assert workloads.NoisySoftmax(0).configs == workloads.NoisySoftmax(0).configs
    size = workloads.DroVerify.TINY
    s0 = workloads.DroVerify(0, size).setup()
    assert s0 == workloads.DroVerify(0, size).setup()
    assert s0["trial_seeds"] != workloads.DroVerify(1, size).setup()["trial_seeds"]


def test_dro_trials_are_stratified_by_size():
    wl = workloads.DroVerify(2, workloads.DroVerify.FULL)
    sizes = sorted(wl._trial_instance(s).n for s in wl.setup()["trial_seeds"])
    assert sizes == list(range(2, wl.size["n_max"] + 1))


def test_linear_ref_matches_numpy_replica():
    wl = workloads.LinearRef(4, workloads.LinearRef.TINY)
    inputs = wl.setup()
    rep = wl.rep(inputs)
    assert wl.check(inputs, rep) == []
    objective, per_step = workloads.numpy_linear_ref(inputs)
    assert rep.outputs["final_objective"] == pytest.approx(objective, rel=1e-12)
    assert per_step > 0


def test_reference_check_flags_drift():
    reference = {
        "tolerance": {"accuracy": 0.01, "final_objective": 1e-6},
        "floor": {"noisy-softmax": {"accuracy": 0.5}},
        "values": {"noisy-softmax": {"7": {"accuracy": 0.8}}},
    }
    check = run.reference_failures
    assert check("noisy-softmax", 7, {"accuracy": 0.805}, reference) == []
    assert len(check("noisy-softmax", 7, {"accuracy": 0.79}, reference)) == 1
    assert check("noisy-softmax", 8, {"accuracy": 0.6}, reference) == []
    assert len(check("noisy-softmax", 8, {"accuracy": 0.4}, reference)) == 1


def test_recorded_reference_covers_full_size_workloads():
    reference = run.load_reference()
    for name in ("noisy-softmax", "linear-ref", "mlp-sweep"):
        assert reference["values"][name]["0"]


def test_exits_without_result_when_library_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "linear-ref",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench-out").exists()


def test_spans_file_round_trips(tmp_path):
    tracer = Tracer()
    tracer.span("a", lambda: None)()
    tracer.save(tmp_path / "spans.npz")
    data = np.load(tmp_path / "spans.npz")
    assert data["names"].tolist() == ["a"]
    assert data["end_ns"][0] >= data["start_ns"][0]


@pytest.mark.xfail(
    strict=True,
    reason="known library defect: GRID_TOL (2e-3 at 2001 points) is below the grid's "
    "discretization error, about loss range / 2000, so ~0.5% of dro_suite's n <= 3 "
    "trials fail; dro-verify reports such a trial as a failed operation",
)
def test_known_defect_grid_tolerance_below_grid_resolution():
    # n=2, losses [4.71, 0.67]: exact value 1.91711, grid optimum 1.91509
    assert verify.dro_suite(1, 10, 0.5, 3686510624, 2001, True)["passed"]
