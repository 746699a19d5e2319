"""Spread of every end-to-end metric over several seeds.

Runs each workload once per seed, alternating workloads inside each
seed (machine speed drifts over minutes, so back-to-back blocks of one
workload would fold that drift into a single workload's spread), then
reports per metric the median and the interquartile range as a share
of the median, next to the metric's bound in ``BENCHMARK.json``.
Run from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...]

Writes the raw results to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_spec  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {
        workload: {name: [] for name in bounds} for workload in workloads
    }
    run_s: dict[str, list[float]] = {workload: [] for workload in workloads}
    for seed in args.seeds:
        for workload in workloads:
            start = time.monotonic()
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, check=True,
            )
            run_s[workload].append(time.monotonic() - start)
            lines = completed.stdout.decode().strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: FAILED CHECKS")
            for name in bounds:
                values[workload][name].append(
                    result["metrics"][name]["value"]
                )
            print(f"{workload} seed {seed}: wall_ref_s "
                  f"{result['metrics']['wall_ref_s']['value']:.3f}, run "
                  f"{run_s[workload][-1]:.1f} s", flush=True)

    print(f"\n{'workload':18s} {'metric':16s} {'median':>12s} "
          f"{'iqr/median':>10s} {'bound':>6s}")
    for workload in workloads:
        for name, bound in bounds.items():
            series = values[workload][name]
            median = statistics.median(series)
            spread = 0.0
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"{workload:18s} {name:16s} {median:12.6g} "
                  f"{spread:10.4f} {bound:6.3f}{flag}")
        mean_run = statistics.mean(run_s[workload])
        print(f"{workload:18s} mean run length {mean_run:.1f} s")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as handle:
        json.dump({"seeds": args.seeds, "values": values, "run_s": run_s},
                  handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
