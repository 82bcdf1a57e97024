"""The library runs without scipy: only the tests need it."""

import os
import subprocess
import sys
from pathlib import Path

import reweightopt

SCRIPT = r'''
import importlib
import pkgutil
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused: the library must not need scipy")
        return None


sys.meta_path.insert(0, RefuseScipy())

import reweightopt

for info in pkgutil.iter_modules(reweightopt.__path__):
    if info.name != "__main__":
        importlib.import_module(f"reweightopt.{info.name}")

from reweightopt.cli import cli_main
from reweightopt.experiment import run_experiment

assert cli_main(["oracle", "--trials", "2", "--n", "3"]) == 0
assert cli_main(["gradcheck", "--trials", "1"]) == 0
_, summary = run_experiment({
    "dataset": {
        "generator": "gaussian_mixture_classification",
        "params": {"num_classes": 3, "n_per_class": 20, "dim": 4, "separation": 3.0, "seed": 0},
    },
    "model": {"kind": "softmax"},
    "method": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
    "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": 20, "batch_size": 16, "seed": 0},
    "metrics": ["accuracy"],
})
assert summary["final"]["train"]["step"] == 20
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
print("no scipy")
'''


def test_library_runs_with_scipy_refused():
    src = str(Path(reweightopt.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "no scipy"
