"""tools/output_digests.py prints the same digests on every run, and on any
stack named in the leading ``# `` lines of tools/output_digests.txt it
prints the digests recorded there."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tools" / "output_digests.txt"


def _digests() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


@pytest.fixture(scope="module")
def digests() -> str:
    return _digests()


def test_digests_repeat_exactly(digests):
    assert _digests() == digests
    header, *lines = digests.splitlines()
    assert header.startswith("# numpy ")
    names = [line.split()[0] for line in lines]
    assert len(lines) == 3 * 6 * 4 + 14 + 2 * 2 + 5 + 1 + 5 + 6 and len(set(names)) == len(names)
    assert all(len(line.split()[1]) == 64 for line in lines)


def _recorded():
    """(the stacks on which every recorded line was produced, the lines)."""
    lines = RECORDED.read_text().splitlines()
    stacks = list(itertools.takewhile(lambda line: line.startswith("# "), lines))
    return stacks, lines[len(stacks):]


def test_the_recorded_file_names_its_stacks():
    stacks, recorded = _recorded()
    assert stacks and all(stack.startswith("# numpy ") for stack in stacks)
    assert len(set(stacks)) == len(stacks)
    assert not any(line.startswith("#") for line in recorded)


def test_digests_match_the_recorded_file(digests):
    header, *lines = digests.splitlines()
    stacks, recorded = _recorded()
    if header not in stacks:
        listed = [stack[2:] for stack in stacks]
        pytest.skip(f"digests recorded on {listed!r}, this stack is {header[2:]!r}")
    differ = [
        f"  recorded {want!r}\n  now      {got!r}"
        for want, got in itertools.zip_longest(recorded, lines)
        if want != got
    ]
    assert not differ, "digest lines differ from tools/output_digests.txt:\n" + "\n".join(differ)
