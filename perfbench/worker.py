"""One pass of one workload in a fresh process, or a set-up probe.

``run.py`` launches this from the repository root; it is not meant to
be called by hand.  Set-up time is measured from the moment the parent
spawned the process (``--spawned-at``, a ``time.monotonic`` reading),
so it covers interpreter start, ``import repro``, ``default_library()``
and the workload's own set-up.  Untraced, every time is also rescaled
to reference seconds by slices of :mod:`calibrate`'s kernel timed
next to it.  The pass prints one JSON object as its last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.library.cells import default_library  # noqa: E402

import workloads  # noqa: E402
from calibrate import REF_SLICE_S, Calibrator, PacedClock  # noqa: E402

OUT_DIR = os.path.join("perfbench", "out")

#: Calibration slices timed right after set-up; their mean gauges it.
SETUP_SLICES = 3


def _quality(ops) -> dict[str, float]:
    """End-to-end quality figures (means over operations, in op order)."""
    measured = [op for op in ops if op.delay_ratio > 0.0]
    if not measured:
        return {}

    def mean(values):
        return sum(values) / len(values)

    return {
        "delay_ratio_pct": mean([op.delay_ratio for op in measured]),
        "area_ratio_pct": mean([op.area_ratio for op in measured]),
        "hpwl_impr_pct": mean([100.0 - op.hpwl_ratio for op in measured]),
        "coverage_pct": mean([op.coverage for op in measured]),
    }


def _modes(ops) -> dict[str, float]:
    """Table-1 columns per mode, printed beside the metrics."""
    columns = {}
    for mode in workloads.MODES:
        rows = [op for op in ops if op.name.endswith("/" + mode)]
        if rows and all(op.delay_ratio > 0.0 for op in rows):
            columns[f"delay_impr_pct.{mode}"] = (
                sum(op.delay_impr for op in rows) / len(rows)
            )
            columns[f"area_delta_pct.{mode}"] = (
                sum(op.area_delta for op in rows) / len(rows)
            )
    return columns


def _unpin(cpus: list[int], *pids: int) -> None:
    """Let *pids* run on every CPU in *cpus* again."""
    for pid in pids if cpus else ():
        os.sched_setaffinity(pid, cpus)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="measure set-up only, then exit")
    parser.add_argument("--cpus", default="",
                        help="CPUs to run on once set-up is measured "
                             "(the parent starts this process pinned)")
    args = parser.parse_args()

    library = default_library()
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(library)
    setup_s = time.monotonic() - args.spawned_at
    cpus = [int(cpu) for cpu in args.cpus.split(",") if cpu]
    if args.trace:
        _unpin(cpus, 0)
        return _pass(args, workload, state, library, setup_s, None)
    with Calibrator() as calibrator:
        # the set-up's slices run on the CPU the set-up ran on
        slices = [calibrator.slice_s() for _ in range(SETUP_SLICES)]
        setup_ref_s = setup_s * REF_SLICE_S / statistics.mean(slices)
        _unpin(cpus, 0, calibrator.process.pid)
        if args.probe:
            print(json.dumps({"setup_s": setup_s,
                              "setup_ref_s": setup_ref_s}))
            return 0
        return _pass(args, workload, state, library, setup_s, calibrator,
                     setup_ref_s=setup_ref_s)


def _pass(args, workload, state, library, setup_s, calibrator,
          setup_ref_s=None) -> int:
    """Run, check and report one pass of *workload*."""
    reference = workload.reference(state)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        root = tracer.open(tracing.ROOT)
    clock = PacedClock(calibrator)
    clock.start()
    outputs = workload.run(state, reference, args.seed, library)
    clock.stop()
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = workload.check(state, reference, outputs, args.seed, library)
    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": clock.wall_s,
        "wall_ref_s": clock.ref_s,
        "slices": clock.slices,
        "peak_rss_mb": peak_rss_mb,
        "quality": _quality(ops),
        "modes": _modes(ops),
        "ops": [{"name": op.name, "failures": op.failures} for op in ops],
    }
    if tracer is not None:
        span_cost, count_cost = tracing.wrapper_costs()
        spans, counted = tracer.invocations()
        report["per_layer"] = tracer.per_layer(
            spans * span_cost + counted * count_cost
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
        )
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "start", "end", "parent"],
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
            }, handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
