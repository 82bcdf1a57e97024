"""Interleaved benchmark pairs: a git ref against the working tree.

    python tools/perf_pairs.py --base REF --workload W [--pairs N --seconds S --seed K]

Runs ``perfbench/run.py --workload W --seed K --seconds S`` N times on a
``git archive`` copy of REF and N times on a copy of the working tree
(its tracked and untracked files, not the ignored ones), each made in a
temporary directory so that both sides run from alike locations, in
pairs, flipping which side runs first every pair (the base runs first in
pair 0).  The working tree is read through a temporary index: the
repository's index, stash and files stay as they were.  Each run's
result is the JSON object on the last line of its standard output.  For
each end-to-end metric named in ``BENCHMARK.json``, prints each side's
median and quartiles, the ratio of the change's median to the base's,
and how many pairs each side won by the metric's ``better`` (a tie
counts for neither).  Exits 1 as soon as a run is incorrect or exits
non-zero.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(end_to_end: list[dict], base: list[dict], change: list[dict]) -> list[dict]:
    """One row per end-to-end metric (``BENCHMARK.json``'s entries) of the
    results of paired runs, ``base[i]`` and ``change[i]`` being pair i."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs]
                  for side, runs in zip(SIDES, (base, change))}
        sign = 1 if metric["better"] == "higher" else -1
        wins = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
        row = {"name": name, "unit": metric["unit"], "pairs": len(wins),
               "change_won": sum(w > 0 for w in wins), "base_won": sum(w < 0 for w in wins)}
        for side in SIDES:
            row[side] = quartiles(values[side])
        row["ratio"] = row["change"][1] / row["base"][1]
        rows.append(row)
    return rows


def last_result(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def working_tree(repo: Path) -> str:
    """The id of a git tree of ``repo``'s working tree: its tracked and
    untracked files, not the ignored ones.  Writes objects but leaves the
    index, the stash and the files as they are."""
    with tempfile.TemporaryDirectory(prefix="perf_pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A"], cwd=repo, env=env, check=True)
        return subprocess.run(["git", "write-tree"], cwd=repo, env=env, check=True,
                              capture_output=True, text=True).stdout.strip()


def extract(repo: Path, tree: str, dest: Path) -> None:
    """Write the files of ``tree`` (a commit, ref or tree of ``repo``) into
    the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(root: Path, args) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=root, capture_output=True, text=True,
    )
    return proc, last_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REF", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not args.pairs >= 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, tree in zip(SIDES, (args.base, working_tree(ROOT))):
            extract(ROOT, tree, roots[side])
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                proc, result = run(roots[side], args)
                if proc.returncode != 0 or result is None or not result.get("correct"):
                    print(f"pair {pair} {side}: exit {proc.returncode}, result {result}")
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
                results[side].append(result)
                shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in end_to_end)
                print(f"pair {pair} {side:<6} {shown}", flush=True)
    print(f"{args.workload}: {args.base} (base) against a copy of the working tree (change), "
          f"{args.pairs} pairs of {args.seconds:g} s, seed {args.seed}")
    for row in summarize(end_to_end, results["base"], results["change"]):
        sides = "  ".join("{} {:.6g} [{:.6g}, {:.6g}]".format(side, row[side][1], row[side][0],
                                                              row[side][2]) for side in SIDES)
        print(f"  {row['name']} ({row['unit']}): {sides}  change/base {row['ratio']:.4f}  "
              f"won change {row['change_won']}, base {row['base_won']} of {row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
