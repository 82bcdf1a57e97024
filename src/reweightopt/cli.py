"""Command-line interface.

Subcommands:

    train <config.json>      run one experiment, write its trace
    sweep <sweep.json>       run a hyperparameter grid with holdout selection
    oracle                   worst-case-distribution verification suite
    gradcheck                analytic-vs-numeric gradient verification suite
    report <trace...>        tabulate final metrics from exported traces

Exit codes: 0 success, 1 verification/training failure, 2 config error.
Any other exception is a bug in the program and propagates with its
traceback (exit 1); it is never reported as a config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .experiment import (
    _SPLITS, ConfigError, _build, _check_section, _checked, _config_errors, _seed, _trace_format,
    _train, export_trace, parse_trace, validate_config,
)
from .optim import TrainingDivergenceError
from .sweep import _sweep, validate_sweep_spec
from .verify import (
    DUALITY_TOL, GRAD_TOL, _range_error, check_instances, dro_suite, gradcheck_suite,
)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # a number json will not parse, such as an integer of 5000 digits
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_train(args) -> int:
    config, weighter, train_config = _checked(_load_json(args.config))
    if args.seed is not None:
        _seed(args.seed, "train.seed")
        train_config = dataclasses.replace(train_config, seed=args.seed)
    if args.output:
        _trace_format(args.output, "--output")
    output = args.output or config.get("output")
    trace, summary = _train((config, weighter, train_config), _build(config))
    if output:
        export_trace(trace, output)
        print(f"trace written to {output}")
    printable = {k: v for k, v in summary.items() if k != "final_theta"}
    print(json.dumps(printable, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    payload = _load_json(args.spec)
    # the file: a base config and a spec, which the two validators check
    _check_section(payload, "sweep", ({"base": None, "select": None}, {"grid": None}))
    base = validate_config(payload.pop("base"))
    if args.seed is not None:
        _seed(args.seed, "train.seed")
        base["train"]["seed"] = args.seed
    spec = validate_sweep_spec(payload, base)
    best, results = _sweep(spec, base)
    axis_names = tuple(spec.axes.keys())
    header = list(axis_names) + ["status", spec.select_metric]
    print("\t".join(header))
    for res in results:
        cells = [repr(v) for v in res.params]
        cells.append(res.status)
        cells.append("" if res.metric is None else repr(res.metric))
        print("\t".join(cells))
    if best is None:
        print("no grid point finished; nothing selected", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(best, fh, indent=2)
            fh.write("\n")
        print(f"selected config written to {args.output}")
    else:
        print("selected: " + json.dumps(best))
    return 0


# each suite argument's flag and its argparse dest
_FLAGS = {
    "n_max": ("--n", "n"), "grid_points": ("--grid", "grid"), "trials": ("--trials", "trials"),
    "rho_max": ("--rho-max", "rho_max"),
}


def _suite_arguments(args, *names) -> dict:
    """The named suite arguments from their flags, refused as config errors
    under the flag names when the suite would refuse them; --seed >= 0."""
    values = {name: getattr(args, _FLAGS[name][1]) for name in names}
    error = _range_error(**values)
    if error:
        raise ConfigError(f"{_FLAGS[error[0]][0]} {error[1]}")
    if args.seed < 0:
        raise ConfigError(f"--seed must lie in [0, inf), got {args.seed}")
    return values


def _cmd_oracle(args) -> int:
    if args.instances:
        records = _load_json(args.instances)
        if not isinstance(records, list):
            raise ConfigError(f"{args.instances}: expected a JSON array of instances")
        report = check_instances(records)  # malformed records raise ConfigError
        for entry in report["results"]:
            print(f"instance {entry['index']}: {entry['divergence']} "
                  f"value={entry['value']:.12g} duality_gap={entry['duality_gap']:.3e}")
        for line in report["failures"]:
            print(f"FAIL {line}", file=sys.stderr)
        print("oracle instances: " + ("PASS" if report["passed"] else "FAIL"))
        return 0 if report["passed"] else 1
    report = dro_suite(
        **_suite_arguments(args, "n_max", "grid_points", "trials", "rho_max"), seed=args.seed
    )
    print(f"instances           : {report['trials']}")
    print(f"max duality gap     : {report['max_duality_gap']:.3e} (tol {DUALITY_TOL:.0e})")
    print(f"max variant gap     : {report['max_variant_duality_gap']:.3e}")
    print(f"max tilt-form dev   : {report['max_form_dev']:.3e}")
    print(f"grid cross-checks   : {report['grid_checked']}")
    print(f"max grid error      : {report['max_grid_err']:.3e}")
    print(f"max variant griderr : {report['max_variant_grid_err']:.3e}")
    for line in report["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print("oracle suite: " + ("PASS" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


def _cmd_gradcheck(args) -> int:
    report = gradcheck_suite(**_suite_arguments(args, "trials"), seed=args.seed)
    for kind, err in report["max_rel_err"].items():
        print(f"{kind:8s}: max rel err {err:.3e} (tol {GRAD_TOL:.0e})")
    for line in report["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print("gradcheck suite: " + ("PASS" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


def _cmd_report(args) -> int:
    rows = []
    metric_names: list[str] = []
    for path in args.traces:
        with _config_errors(path):
            trace = parse_trace(path)
        for m in trace.metric_names:
            if m not in metric_names:
                metric_names.append(m)
        for split in _SPLITS:
            split_rows = trace.rows(split)
            if split_rows:
                rows.append((Path(path).name, split, split_rows[-1]))
    header = ["run", "split", "step", "objective"] + metric_names
    print("\t".join(header))
    for name, split, rec in rows:
        cells = [name, split, str(rec.step), f"{rec.objective:.6g}"]
        cells += [
            f"{rec.metrics[m]:.6g}" if m in rec.metrics else "" for m in metric_names
        ]
        print("\t".join(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reweightopt",
        description="loss-reweighted training, baselines, and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("config")
    p_train.add_argument("--seed", type=int, help="override train.seed")
    p_train.add_argument("--output", help="trace output path (overrides config)")
    p_train.set_defaults(fn=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a hyperparameter grid")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--seed", type=int, help="override base train.seed")
    p_sweep.add_argument("--output", help="write the selected config as JSON")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="verify the worst-case-distribution solvers")
    p_oracle.add_argument("--n", type=int, default=10, help="max support size")
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--rho-max", type=float, default=0.5, dest="rho_max")
    p_oracle.add_argument("--grid", type=int, default=2001)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument(
        "--instances", help="JSON array of {losses, probs, rho, divergence} records"
    )
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients")
    p_grad.add_argument("--trials", type=int, default=50)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_report = sub.add_parser("report", help="summarize exported traces")
    p_report.add_argument("traces", nargs="+")
    p_report.set_defaults(fn=_cmd_report)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergenceError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
