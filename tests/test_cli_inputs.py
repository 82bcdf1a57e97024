"""Every input the CLI reads ends in one of its three outcomes, never in a
traceback or a RuntimeWarning: exit 0; exit 1 naming the failure (the step a
run diverged at, or a sweep none of whose points finished); or exit 2 with a
config error.

The inputs are valid train configs, sweep files and instance records with one
or two values mutated, and the oracle and gradcheck flags.  The keys to mutate
come from the schema tables themselves and the flags from the parser, so a new
key or flag is fuzzed without an edit here.  Each file is read from a working
directory of its own, where a mutated ``output`` may write its trace.
"""

import argparse
import io
import json
import math
import os
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reweightopt import datagen
from reweightopt.cli import build_parser, cli_main
from reweightopt.dro import _RECORD
from reweightopt.experiment import _GENERATORS, _METHODS, _MODELS, _SCHEMA, _Choice
from reweightopt.sweep import _SPECS

FILE = "input.json"  # the file each case writes and the CLI reads
BIG = 10**400  # a JSON integer of 401 digits, beyond the float range
# wrong kinds, out-of-range numbers, and names that some None-kind key takes
VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, -0.5, 1.5, 1e-300, 1e300, -1e300, 1e308, BIG, -BIG,
    math.nan, math.inf, -math.inf, "", "x", "0.1", [], [1], [0.5, 1.5], ["1"], [True],
    [[1.0]], [BIG], {}, {"x": 1},
    "kl", "none", "sgd", "adam", "constant", "mlp", "softmax", "linear", "rgd", "term",
    "accuracy", "mse", "holdout", "test",
]
METHODS = {
    "rgd": {"name": "rgd", "rule": {"divergence": "kl", "tau": 1.0}},
    "term": {"name": "term", "t_tilt": 1.0},
    "ma": {"name": "ma", "lam": 1.0, "beta_ma": 0.5},
}
REGRESSION = {
    "dataset": {"generator": "rare_feature_regression", "params": {"seed": 0},
                "split": {"seed": 1, "holdout_fraction": 0.2}},
    "model": {"kind": "linear"},
    "method": METHODS["rgd"],
    "train": {"optimizer": "sgd", "lr_base": 1.0, "steps": 3, "batch_size": 32, "seed": 0,
              "schedule": "inv_sqrt_step", "box": [-5.0, 5.0]},
    "metrics": ["mse", "rare_l2"],
    "eval_every": 2,
}
MIXTURE = {
    "dataset": {
        "generator": "gaussian_mixture_classification",
        "params": {"num_classes": 3, "n_per_class": 12, "dim": 3, "separation": 2.0,
                   "seed": 0},
        "subsample": {"n_max": 10, "imbalance_factor": 2.0, "seed": 1},
        "split": {"seed": 2, "test_fraction": 0.2, "holdout_fraction": 0.2},
        "flip_train": {"fraction": 0.2, "seed": 3},
    },
    "model": {"kind": "mlp", "hidden": [4], "init_seed": 0, "init_scale": 0.5},
    "method": METHODS["ma"],
    "train": {"optimizer": "adam", "lr_base": 0.05, "steps": 4, "batch_size": 8, "seed": 0,
              "beta1": 0.9, "beta2": 0.99, "eps": 1e-8},
    "metrics": ["accuracy"],
    "eval_every": 2,
}
CONFIGS = [REGRESSION, MIXTURE,
           {**MIXTURE, "model": {"kind": "softmax"}, "method": METHODS["term"]}]
RECORDS = [
    {"losses": [0.0, 1.0, 2.5], "probs": [0.2, 0.3, 0.5], "rho": 0.1, "divergence": name}
    for name in ("kl", "chi2", "reverse_kl")
]


def _sections(path, table):
    """(path, table) of a schema table and of every table nested in it; a
    choice gives all of its tables, so that the keys of one model kind,
    method or generator are set on the others too."""
    yield path, table
    for kinds in table:
        for key, kind in kinds.items():
            for nested in kind.tables.values() if type(kind) is _Choice else [kind]:
                if type(nested) is tuple:
                    yield from _sections(path + (key,), nested)


def _targets(sections):
    """Every key path the tables name, present in the document or not."""
    return sorted({path + (key,) for path, table in sections for kinds in table
                   for key in kinds}, key=str)


def _has(section, key):
    return (isinstance(section, dict) and key in section
            or isinstance(section, list) and type(key) is int and key < len(section))


def _set(doc, path, value=None, delete=False):
    """A copy of ``doc`` with the key at ``path`` (or, at (), the document)
    set to ``value`` or deleted; unchanged where a parent is missing."""
    holder = {"doc": json.loads(json.dumps(doc))}
    *parents, key = ("doc",) + path
    section = holder
    for name in parents:
        section = section[name] if _has(section, name) else None
    if delete and parents and _has(section, key):
        del section[key]
    elif not delete and (isinstance(section, dict) or _has(section, key)):
        section[key] = value
    return holder["doc"]


@st.composite
def _mutated(draw, doc, sections):
    """``doc`` with one or two mutations at paths from ``sections``: a key, or
    the whole document, set to a value of VALUES; a key deleted; or an unknown
    key added to a section."""
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["set", "set", "delete", "add"]))
        if op == "add":
            path = draw(st.sampled_from(sorted({path for path, _ in sections}, key=str)))
            path += ("banana",)
        else:
            path = draw(st.sampled_from([(), *_targets(sections)]))
        doc = _set(doc, path, draw(st.sampled_from(VALUES)), delete=op == "delete")
    return doc


def _sweep_file(method):
    base = {**REGRESSION, "method": METHODS[method]}
    grid = {axis: [1.0] for axis in _SPECS[method][1]["grid"][1]}
    grid[next(iter(grid))] = [0.5, 1.0]
    return {"base": base, "grid": grid, "select": {"metric": "mse", "split": "holdout"}}


def _inputs():
    """(argv, a valid document, its sections) for each kind of input file;
    a sweep file's base config is fuzzed as a train config."""
    for config in CONFIGS:
        yield ["train", FILE], config, list(_sections((), _SCHEMA))
    for method in sorted(_SPECS):
        sections = [((), ({"base": None}, {})), *_sections((), _SPECS[method])]
        yield ["sweep", FILE], _sweep_file(method), sections
    for record in RECORDS:
        yield ["oracle", "--instances", FILE], [record], list(_sections((0,), _RECORD))


INPUTS = list(_inputs())


def _flag_values(action):
    """Small values only: --n and --grid size what the suites allocate."""
    if action.type is float:
        return ["-1", "0", "0.5", "1e300", "nan", "inf", "-inf"]
    return ["-1", "0", "1", "2", "3"]


def _flag_cases():
    """oracle or gradcheck with one to three of its numeric flags set."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command in ("oracle", "gradcheck"):
        # --flag=value, which argparse does not take for an option when value is "-inf"
        flags = [f"{a.option_strings[0]}={value}" for a in subparsers.choices[command]._actions
                 if a.type in (int, float) for value in _flag_values(a)]
        # each suite runs at most 3 trials of instances of at most 3 atoms on small grids
        small = ["--trials", "1"] + (["--n", "3", "--grid", "51"] if command == "oracle" else [])
        cases.append(st.lists(st.sampled_from(flags), min_size=1, max_size=3).map(
            lambda chosen, argv=[command, *small]: (argv + chosen, None)
        ))
    return st.one_of(cases)


def _check(case, expect=None):
    """Run ``case``, an argv and the JSON document to write to FILE, through
    cli_main and check that it ends in one of the three outcomes (in exit
    code ``expect`` if given)."""
    argv, doc = case
    if FILE in argv:
        os.unlink(FILE)  # a new file each time: some filesystems truncate slowly
        with open(FILE, "w") as fh:
            json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    err = err.getvalue()
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    elif code == 1:
        assert (re.fullmatch(r"run failed: training diverged at step \d+: .*\n", err)
                or argv[0] == "sweep" and err == "no grid point finished; nothing selected\n"), err
    else:
        assert code == 0, (code, err)
    assert expect in (None, code), (code, err)
    return err


@pytest.fixture(scope="module", autouse=True)
def _workdir(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-inputs"))
    open(FILE, "w").close()
    yield
    os.chdir(cwd)


FUZZ = settings(deadline=None, derandomize=True, database=None)


@settings(FUZZ, max_examples=400)
@given(st.sampled_from(INPUTS).flatmap(
    lambda case: _mutated(case[1], case[2]).map(lambda doc: (case[0], doc))
))
def test_mutated_input_file_outcome(case):
    _check(case)


# one key set to one value, for every key of every table: a dropped check fails here
EDGES = [-1, 0.5, True, "1", None, BIG, math.nan]


@pytest.mark.parametrize("argv, doc, sections", INPUTS,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(INPUTS)])
def test_each_key_takes_each_edge_value(argv, doc, sections):
    for path in _targets(sections):
        for value in EDGES:
            _check((argv, _set(doc, path, value)))


# where the keys of each table sit in the inputs, and the fewest key paths that
# each input's sections once gave: a walk that misses a table fails here
MOUNTS = [((), [_SCHEMA, *_SPECS.values()]), (("dataset", "params"), _GENERATORS.values()),
          (("method",), _METHODS.values()), (("model",), _MODELS.values()), ((0,), [_RECORD])]
FEWEST_TARGETS = [39, 42, 41, 8, 7, 7, 4, 4, 4]


def test_fuzz_reaches_every_key():
    reached = {path for _, _, sections in INPUTS for path in _targets(sections)}
    for mount, tables in MOUNTS:
        for table in tables:
            assert set(_targets(_sections(mount, table))) - reached == set(), mount
    counts = [len(_targets(sections)) for _, _, sections in INPUTS]
    assert len(counts) == len(FEWEST_TARGETS)
    assert all(count >= fewest for count, fewest in zip(counts, FEWEST_TARGETS)), counts


@settings(FUZZ, max_examples=60)
@given(_flag_cases())
def test_suite_flags_outcome(case):
    _check(case)


def _probe_sweep(**changes):
    return ["sweep", FILE], {**_sweep_file("rgd"), **changes}


def _probe_record(**changes):
    return ["oracle", "--instances", FILE], [{**RECORDS[0], **changes}]


# train configs that were once run, or reported as `config:` or after a build:
# (the path that the message must start with, a config, the changes to it)
TRAIN_PROBES = [
    ("metrics", MIXTURE, {"metrics": {"accuracy": 1}}),
    ("metrics", MIXTURE, {"metrics": ["accuracy", "accuracy"]}),
    ("eval_every", REGRESSION, {"eval_every": BIG}),
    ("metrics", MIXTURE, {"metrics": 5}),
    ("metrics", MIXTURE, {"metrics": "accuracy"}),
    ("metrics", MIXTURE, {"metrics": [["accuracy"]]}),
    ("dataset.generator", REGRESSION,
     {"dataset": {**REGRESSION["dataset"], "generator": ["x"]}}),
    ("method", REGRESSION, {"method": "rgd"}),
    ("model", MIXTURE, {"model": {"kind": "mlp", "init_seed": 0}}),
    # faults of the config alone that were once found only after the data was drawn
    ("model.kind", MIXTURE, {"model": {"kind": "linear"}}),
    ("model.kind", REGRESSION, {"model": {"kind": "softmax"}}),
    ("metrics", MIXTURE, {"model": {"kind": "softmax"}, "metrics": ["mse"]}),
    ("metrics", REGRESSION, {"metrics": ["accuracy"]}),
    ("metrics", MIXTURE, {"metrics": ["rare_l2"]}),
    ("dataset", REGRESSION,
     {"dataset": {**REGRESSION["dataset"], "flip_train": MIXTURE["dataset"]["flip_train"]}}),
    ("dataset", REGRESSION,
     {"dataset": {**REGRESSION["dataset"], "subsample": MIXTURE["dataset"]["subsample"]}}),
    *(("model.hidden", MIXTURE, {"model": {**MIXTURE["model"], "hidden": hidden}})
      for hidden in ([], [0], [-2], [4, 4, 4])),
    *(("dataset.subsample." + key, MIXTURE, {"dataset": {
        **MIXTURE["dataset"], "subsample": {**MIXTURE["dataset"]["subsample"], key: value}}})
      for key, value in (("n_max", 0), ("imbalance_factor", 0.5))),
]

# inputs that once ended in a traceback or were coerced and solved: each is a config error
PROBES = [(["train", FILE], {**config, **changes}) for _, config, changes in TRAIN_PROBES] + [
    (["sweep", FILE], ["base"]),
    _probe_sweep(select=5),
    _probe_sweep(select="metric"),
    _probe_sweep(grid="tau"),
    _probe_sweep(select={"metric": ["accuracy"]}),
    _probe_sweep(select={"metric": "mse", "split": ["holdout"]}),
    _probe_sweep(grid={"lr_mult": [BIG]}),
    _probe_sweep(grid={"tau": [BIG]}),
    _probe_record(rho=BIG),
    _probe_record(rho="0.1"),
    _probe_record(rho=True),
    _probe_record(losses=["0", "1", "2"]),
    _probe_record(losses=[True, False, True]),
    _probe_record(losses=[[0.0, 1.0, 2.5]]),
    _probe_record(probs=[math.nan, 0.5, 0.5]),
    (["oracle", "--seed", "-1"], None),
    (["gradcheck", "--seed", "-1"], None),
    (["oracle", "--rho-max", "inf"], None),
    (["train", FILE], {**REGRESSION, "output": 5}),
]


@pytest.mark.parametrize("case", PROBES, ids=lambda case: json.dumps(case, default=str)[:60])
def test_probe_is_a_config_error(case):
    _check(case, expect=2)


@pytest.mark.parametrize("path, config, changes", TRAIN_PROBES,
                         ids=[json.dumps(case[2], default=str)[:60] for case in TRAIN_PROBES])
def test_train_probe_names_its_key_before_any_build(monkeypatch, path, config, changes):
    calls = []
    for name in _GENERATORS:
        monkeypatch.setattr(datagen, name, lambda *args, **kwargs: calls.append(args))
    err = _check((["train", FILE], {**config, **changes}), expect=2)
    assert err.startswith(f"config error: {path}: ") and calls == [], err


# Valid records with extreme losses, values the fuzz above does not draw.  The
# oracle cannot yet certify the first: the duality tolerance is absolute (1e-8).
# The second checks that the kl form check fits on scaled losses: polyfit's
# column norms overflow on a loss range near the float limit.  The third checks
# that the reverse-KL fit scales its abscissa: gaps of 1e-300 times weights
# 1/y = 3.8e-151 underflow to a zero column, which polyfit's column scaling
# would divide by.
DEFECT = pytest.mark.xfail(strict=True, reason="the certificate does not scale with the losses")


@pytest.mark.parametrize("changes", [
    pytest.param({"losses": [0.0, 1.0, 1e9]}, marks=DEFECT, id="gap"),
    pytest.param({"losses": [0.0, 1.0, 1e300]}, id="overflow"),
    pytest.param({"losses": [0.0, 1e-300, 1e-300], "rho": 1e300, "divergence": "reverse_kl"},
                 id="lstsq"),
])
def test_known_defect_large_losses(changes):
    _check(_probe_record(**changes), expect=0)
