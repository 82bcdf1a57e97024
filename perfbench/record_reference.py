"""Record the reference outputs that ``run.py`` checks against.

    python3 perfbench/record_reference.py [--seeds 32]

Runs one repetition of each training workload at full size for seeds
0 .. seeds-1 and rewrites the ``values`` section of reference.json; the
``tolerance`` and ``floor`` sections are kept as they are.  Re-record
only when a change is meant to alter results, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json

import run

KEYS = {"noisy-softmax": "accuracy", "linear-ref": "final_objective", "mlp-sweep": "accuracy"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    run.import_library()
    from workloads import WORKLOADS

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    values = {}
    for name, key in KEYS.items():
        values[name] = {}
        for seed in range(args.seeds):
            wl = WORKLOADS[name](seed)
            inputs = wl.setup()
            rep = wl.rep(inputs)
            failures = rep.failures + wl.check(inputs, rep)
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures[:3]}")
            values[name][str(seed)] = {key: rep.outputs[key]}
        print(name, "recorded", args.seeds, "seeds")
    reference["values"] = values
    path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
