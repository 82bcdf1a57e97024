"""tools/unreached_raises.py finds every raise statement of a module by its
first line, and names the raises whose line another statement shares."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unreached_raises.py"

SOURCE = textwrap.dedent('''\
    """A module whose raises sit at every depth."""
    import math


    def check(x):
        if x < 0:
            raise ValueError(
                f"negative {x}"
            )
        try:
            math.sqrt(x)
        except TypeError:
            raise
        return x


    class Box:
        def __post_init__(self):
            if not self.ok: raise RuntimeError("not ok")
            "raise ValueError('in a string')"  # raise ValueError('in a comment')

        def inner(self):
            def nested():
                raise KeyError("nested") from None
            return nested


    if __name__ == "__main__":
        raise SystemExit(check(1))
''')


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("unreached_raises", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_finds_each_raise_statement_by_its_first_line(tool):
    assert tool.raise_lines(SOURCE) == [7, 13, 19, 24, 29]


def test_names_a_raise_that_shares_its_line(tool):
    assert tool.shared_lines(SOURCE) == [19]


def test_tracer_records_the_lines_run_in_the_given_files(tool, tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran = set()
    previous = sys.gettrace()
    sys.settrace(tool._tracer({module.__file__}, ran))
    try:
        module.check(4.0)
        with pytest.raises(ValueError):
            module.check(-1.0)
    finally:
        sys.settrace(previous)
    lines = {line for file, line in ran if file == module.__file__}
    assert 7 in lines and 13 not in lines and 11 in lines
