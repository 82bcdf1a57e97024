"""tools/perf_pairs.py summarizes paired benchmark results per end-to-end
metric and runs both sides from copies; these tests give it synthetic
results and a throwaway repository, and run no benchmark."""

import importlib.util
import subprocess
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


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_the_change_side_is_a_copy_of_the_working_tree(tool, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "edited.txt").write_text("committed\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "edited.txt").write_text("uncommitted edit\n")
    (repo / "staged.txt").write_text("staged\n")
    _git(repo, "add", "staged.txt")
    (repo / "untracked.txt").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    before = [_git(repo, *args) for args in (["status", "--porcelain"], ["diff", "--cached"],
                                             ["stash", "list"], ["ls-files", "--stage"])]

    copy = tmp_path / "copy"
    tool.extract(repo, tool.working_tree(repo), copy)

    files = {path.name: path.read_text() for path in copy.iterdir()}
    assert files == {".gitignore": "*.log\n", "kept.txt": "committed\n",
                     "edited.txt": "uncommitted edit\n", "staged.txt": "staged\n",
                     "untracked.txt": "untracked\n"}
    after = [_git(repo, *args) for args in (["status", "--porcelain"], ["diff", "--cached"],
                                            ["stash", "list"], ["ls-files", "--stage"])]
    assert after == before
    assert (repo / "edited.txt").read_text() == "uncommitted edit\n"
    assert (repo / "run.log").read_text() == "ignored\n"
