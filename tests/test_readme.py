"""Every python code block in README.md runs as written, and the config
schema section names every key the config schema takes."""

import re
from pathlib import Path

import pytest

from reweightopt.experiment import _GENERATORS, _METHODS, _SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _schema_keys(section):
    for kinds in section:
        for key, kind in kinds.items():
            yield key
            if type(kind) is tuple:
                yield from _schema_keys(kind)


def test_config_notes_name_every_schema_key():
    notes = re.search(r"### Experiment config schema\n(.*?)\n### ", README.read_text(), re.S)[1]
    sections = [_SCHEMA, *_GENERATORS.values(), *_METHODS.values()]
    keys = {key for section in sections for key in _schema_keys(section)}
    undocumented = sorted(key for key in keys if not re.search(rf"\b{key}\b", notes))
    assert undocumented == []
