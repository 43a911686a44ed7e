#!/usr/bin/env python3
"""Write golden_outputs.json: CLI reports that later versions are compared against.

    PYTHONPATH=src python3 tests/write_golden.py

Run from the root of a source checkout.  The fixture holds, for each
argument vector, its exit code and its JSON report:

- `check --json` for every preset of helpers.CANONICAL_CASES and for its
  expression text (Newton inverse), at grids 4096 and 65536 and in
  dimensions 2 and 3;
- `eval --method all --json` on the seeded inputs that the benchmark's
  routes workload draws (perfbench/workloads.py), for GOLDEN_SEED.

The report leaves out wall_time_ms, which no two runs share.

test_golden.py replays each vector and compares with the bounds it states.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]

from helpers import CANONICAL_CASES, cli_report  # noqa: E402
from workloads import routes  # noqa: E402

from mtwcheck import preset  # noqa: E402

FIXTURE = os.path.join(HERE, "golden_outputs.json")
GRIDS = (4096, 65536)
DIMENSIONS = (2, 3)
GOLDEN_SEED = 20261018


def check_argvs():
    out = []
    for name, K, D, eps in CANONICAL_CASES:
        cost = preset(name, D, eps)
        for text in (cost.name, cost.text):
            for grid in GRIDS:
                for n in DIMENSIONS:
                    out.append(["check", f"--cost={text}", "--K", str(K), "--dim", str(n),
                                "--diameter", repr(D), "--grid", str(grid), "--json"])
    return out


def eval_argvs():
    return [list(op.argv) for op in routes(np.random.default_rng(GOLDEN_SEED), None)]


def main():
    entries = []
    for argv in check_argvs() + eval_argvs():
        code, report = cli_report(argv)
        entries.append({"argv": argv, "exit": code, "report": report})
    # one entry a line, so that a regenerated fixture diffs entry by entry
    with open(FIXTURE, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"{len(entries)} entries written to {FIXTURE}")


if __name__ == "__main__":
    main()
