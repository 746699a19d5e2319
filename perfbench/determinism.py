"""Check that the benchmark's quality metrics ignore PYTHONHASHSEED.

Runs each workload once under two hash seeds with the same ``--seed``
and requires bit-identical quality metrics (the flow's determinism
contract).  Run from the repository root::

    python3 perfbench/determinism.py [--seed 1] [--workload NAME ...]

Exits 1 when any metric differs or any run reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_spec  # noqa: E402

QUALITY = ("delay_ratio_pct", "area_ratio_pct", "hpwl_impr_pct",
           "coverage_pct")
HASH_SEEDS = ("0", "1")


def quality(workload: str, seed: int, hash_seed: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        env=env, stdout=subprocess.PIPE, check=True,
    )
    result = json.loads(completed.stdout.decode().strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: failed checks under "
                         f"PYTHONHASHSEED={hash_seed}")
    return {name: result["metrics"][name]["value"] for name in QUALITY}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    workloads = [w["name"] for w in load_spec()["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args()

    mismatches = 0
    for workload in args.workload or workloads:
        runs = [quality(workload, args.seed, seed) for seed in HASH_SEEDS]
        for name in QUALITY:
            values = [run[name] for run in runs]
            same = all(value == values[0] for value in values)
            mismatches += not same
            print(f"{workload:18s} {name:16s} "
                  + "  ".join(repr(value) for value in values)
                  + ("" if same else "  DIFFERS"))
    print("identical" if not mismatches else f"{mismatches} metrics differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
