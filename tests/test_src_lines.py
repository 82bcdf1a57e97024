"""tools/src_lines.py gives each line of a module one kind, and counts a
git ref's modules through ``git show``."""

import importlib.util
import subprocess
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

SOURCE = textwrap.dedent('''\
    """A module docstring
    of two lines."""
    # a comment

    import math  # a trailing comment belongs to code


    def f(x):
        """One line."""
        text = """not a docstring:
        a string of code
        """
        return (x,

                math.pi)


    class Box:
        """Of a class."""
        # indented comment
''')


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_each_line_once_by_kind(tool):
    counts = tool.count(SOURCE)
    assert counts == {"code": 8, "docstring": 4, "comment": 2, "blank": 6}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=root, check=True, capture_output=True)


def test_base_reads_the_ref_and_the_change_is_per_module(tool, tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\n# c\n")
    (pkg / "gone.py").write_text('"""Doc."""\n')
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("y = 2\nz = 3\n")

    base = tool.table(tool.modules(tmp_path, "HEAD"))
    here = tool.table(tool.modules(tmp_path))
    assert base["pkg/a.py"] == {"code": 1, "docstring": 0, "comment": 1, "blank": 1}
    assert list(here) == ["pkg/a.py", "pkg/new.py", "total"]
    assert tool.change(base, here) == {
        "pkg/gone.py": {"code": 0, "docstring": -1, "comment": 0, "blank": 0},
        "pkg/a.py": {"code": 0, "docstring": 0, "comment": -1, "blank": -1},
        "pkg/new.py": {"code": 2, "docstring": 0, "comment": 0, "blank": 0},
        "total": {"code": 2, "docstring": -1, "comment": -1, "blank": -1},
    }
