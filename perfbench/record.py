"""Records the correctness gates of run.py into expected.json.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run is checked against what it writes. The analyze16 gate
covers the default seed's graphs; other seeds are gated on
``all_satisfied`` alone.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    expected = {}
    for mode, workloads in run.WORKLOADS.items():
        recorded = expected[mode] = {}
        for name, wl in workloads.items():
            lib = run.fresh_import()
            inputs = wl.setup(lib, run.DEFAULT_SEED)
            result = wl.run(lib, inputs)
            if not all(result.satisfied):
                print(f"{mode} {name}: a bound fails, nothing recorded", file=sys.stderr)
                return 1
            recorded[name] = wl.record(lib, result, run.DEFAULT_SEED)
            if not wl.check_inputs(lib, inputs, recorded):
                print(f"{mode} {name}: {wl.path} is not the recorded catalog", file=sys.stderr)
                return 1
            print(f"{mode} {name}: {len(result.graphs)} graphs recorded")
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="ascii") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
