"""Every python code block in README.md runs as written, and the sections
on configs, sweep files and instance records name every key their schemas take."""

import re
from pathlib import Path

import pytest

from reweightopt.dro import _RECORD
from reweightopt.experiment import _GENERATORS, _METHODS, _MODELS, _SCHEMA
from reweightopt.schema import Choice as _Choice
from reweightopt.sweep import _SPECS

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _schema_keys(section):
    """The keys of a table, of its nested tables and of every table of its choices."""
    for kinds in section:
        for key, kind in kinds.items():
            yield key
            for nested in kind.tables.values() if type(kind) is _Choice else [kind]:
                if type(nested) is tuple:
                    yield from _schema_keys(nested)


def test_config_notes_name_every_schema_key():
    for heading, sections in [
        ("Experiment config schema",
         [_SCHEMA, *_GENERATORS.values(), *_METHODS.values(), *_MODELS.values()]),
        ("Sweep file", _SPECS.values()),
        ("Worst-case-distribution instances", [_RECORD]),
    ]:
        notes = re.search(rf"### {heading}\n(.*?)\n### ", README.read_text(), re.S)[1]
        keys = {key for section in sections for key in _schema_keys(section)}
        undocumented = sorted(key for key in keys if not re.search(rf"\b{key}\b", notes))
        assert undocumented == [], heading
