"""tools/step_floor.py times three forms of the step of each model kind,
which end on the same theta bytes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_floor.py"
KINDS = ["linear", "softmax", "mlp"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("step_floor", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_each_form_of_each_kind(tool, capsys):
    tool.main(["--steps", "20", "--repeat", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["kind", "form", "us/step", "x", "checked"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [kind, form] for kind in KINDS for form in ("library", "checked", "unchecked")
    ]
    assert all(float(row[2]) > 0 for row in rows)
    assert [row[3] for row in rows if row[1] == "checked"] == ["1.000"] * 3


@pytest.mark.parametrize("kind", KINDS)
def test_forms_end_on_the_same_theta(tool, kind):
    setup, forms = tool.KINDS[kind]
    inputs = setup(300)
    thetas = [form(*inputs) for form in forms.values()]
    assert all(theta.tobytes() == thetas[0].tobytes() for theta in thetas)
    # the run moved theta away from where it started
    assert np.abs(thetas[0] - inputs[0].theta).max() > 0.1


@pytest.mark.parametrize("kind", KINDS)
def test_a_form_that_differs_is_refused(tool, kind, monkeypatch):
    forms = tool.KINDS[kind][1]
    unchecked = forms["unchecked"]

    def drifted(*inputs):
        return np.nextafter(unchecked(*inputs), np.inf)

    monkeypatch.setitem(forms, "unchecked", drifted)
    with pytest.raises(AssertionError, match=rf"{kind}: theta of \['unchecked'\] differs"):
        tool.measure(kind, 5, 1)
