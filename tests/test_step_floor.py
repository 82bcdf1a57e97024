"""tools/step_floor.py times three forms of the linear reference step, which
end on the same theta bytes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_floor.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("step_floor", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_each_form(tool, capsys):
    tool.main(["--steps", "20", "--repeat", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["form", "us/step", "x", "checked"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["library", "checked", "unchecked"]
    assert all(float(row[1]) > 0 for row in rows) and rows[1][2] == "1.000"


def test_forms_end_on_the_same_theta(tool):
    inputs = tool.setup(300)
    thetas = [form(*inputs) for form in tool.FORMS.values()]
    assert all(theta.tobytes() == thetas[0].tobytes() for theta in thetas)
    assert np.abs(thetas[0]).max() > 0.1  # the run moved theta away from its zero start


def test_a_form_that_differs_is_refused(tool, monkeypatch):
    def drifted(*inputs):
        return np.nextafter(tool.unchecked(*inputs), np.inf)

    monkeypatch.setitem(tool.FORMS, "unchecked", drifted)
    with pytest.raises(AssertionError, match=r"theta of \['unchecked'\] differs"):
        tool.measure(5, 1)
