"""tools/output_digests.py prints the same digests on every run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digests() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def test_digests_repeat_exactly():
    first, second = _digests(), _digests()
    assert first == second
    lines = first.splitlines()
    names = [line.split()[0] for line in lines]
    assert len(lines) == 3 * 6 * 4 + 12 and len(set(names)) == len(names)
    assert all(len(line.split()[1]) == 64 for line in lines)
