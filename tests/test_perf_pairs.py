"""tools/perf_pairs.py summarizes paired benchmark results per end-to-end
metric; these tests give it synthetic results and run no benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(wall, ops):
    return [{"correct": True, "metrics": {"wall_s": {"value": w, "unit": "s"},
                                          "ops_per_s": {"value": o, "unit": "1/s"}}}
            for w, o in zip(wall, ops)]


def test_summary_has_quartiles_ratio_and_wins_by_better(tool):
    base = _runs([2.0, 4.0, 6.0, 8.0, 10.0], [10.0, 20.0, 30.0, 40.0, 50.0])
    change = _runs([1.0, 5.0, 3.0, 8.0, 9.0], [10.0, 30.0, 40.0, 20.0, 60.0])
    wall, ops = tool.summarize(END_TO_END, base, change)
    assert wall == {"name": "wall_s", "unit": "s", "pairs": 5,
                    "change_won": 3, "base_won": 1,  # lower wins; pair 3 ties
                    "base": (4.0, 6.0, 8.0), "change": (3.0, 5.0, 8.0), "ratio": 5.0 / 6.0}
    assert (ops["change_won"], ops["base_won"]) == (3, 1)  # higher wins; pair 0 ties
    assert ops["base"] == (20.0, 30.0, 40.0) and ops["change"] == (20.0, 30.0, 40.0)
    assert ops["ratio"] == 1.0


def test_one_pair_is_its_own_quartiles(tool):
    (wall, _) = tool.summarize(END_TO_END, _runs([2.0], [1.0]), _runs([3.0], [1.0]))
    assert wall["base"] == (2.0, 2.0, 2.0) and wall["change"] == (3.0, 3.0, 3.0)
    assert (wall["change_won"], wall["base_won"]) == (0, 1)


@pytest.mark.parametrize("stdout, result", [
    ('manifest {}\nmetric wall_s 1 s\n{"correct": true}\n', {"correct": True}),
    ("", None),
    ("Traceback ...\nValueError: boom\n", None),
    ("[1, 2]\n", None),
])
def test_a_run_result_is_its_last_line(tool, stdout, result):
    assert tool.last_result(stdout) == result
