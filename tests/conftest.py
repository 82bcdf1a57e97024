"""Fixtures shared by the library's tests."""

import pytest

from reweightopt import experiment


@pytest.fixture(autouse=True)
def cold_build(monkeypatch):
    """Start each test without a kept build: tests that count the work done
    inside one build, or patch what builds it, then see that work."""
    monkeypatch.setattr(experiment, "_last_build", None)
