"""Flow benchmark: whole Table-1 rows and a partitioned polish, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload table1_quick --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``table1_quick``, ``c5315_full``, ``tiled_partitioned``
(see ``perfbench/README.md`` for what each exercises and why).

Each pass of a workload runs in a fresh worker process; the run
repeats whole passes while another one fits in ``--seconds`` (at
least one).
With ``--trace 0`` it also launches a set-up-only probe and reports
the end-to-end metrics, its times rescaled to reference seconds by a
calibration kernel timed while the program runs (``calibrate.py``);
with ``--trace 1`` it wraps the program's layer entry points and
reports the per-layer metrics instead.  Every
operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Set-up-only processes launched per untraced run, on top of the
#: set-up every measuring pass performs.
SETUP_PROBES = 1

#: ``prctl`` option that makes this process adopt orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: A run never starts another pass that could end past this budget.
RUN_BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def load_spec() -> dict:
    """The benchmark definition: workloads and metrics, names and units."""
    with open(SPEC) as handle:
        return json.load(handle)


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so every one of them can be waited for.

    Pool processes and the shared-memory resource tracker outlive their
    parent by a moment; as a child subreaper (Linux) this process
    inherits them instead of init.  Elsewhere this is a no-op.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_descendants(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for every adopted descendant; kill the worker's group if slow."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                raise WorkerFailed("descendant processes did not exit")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + grace_s
        time.sleep(0.01)


def _pin_to_first_cpu():
    """Worker start-up, pinned to one CPU until its set-up is timed.

    Unpinned, a starting interpreter is moved between the VM's CPUs and
    its set-up takes 0.18 s instead of 0.12 s in some runs and not in
    others.  Returns the ``preexec_fn`` that pins the child and the
    ``--cpus`` argument the worker restores once set-up is measured.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, []
    cpus = sorted(os.sched_getaffinity(0))
    return (
        lambda: os.sched_setaffinity(0, cpus[:1]),
        ["--cpus", ",".join(map(str, cpus))],
    )


def spawn(arguments: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    # peak RSS depends on the hash seed's dict layout (table1_quick takes
    # one of three values 8% apart); a caller's own setting still wins
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    pin, restore = _pin_to_first_cpu()
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, WORKER, *arguments, *restore,
         "--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        start_new_session=True,
        env=env,
        preexec_fn=pin,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    finally:
        _reap_descendants(process.pid)
    lines = out.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with status {process.returncode}")
    return json.loads(lines[-1])


def _warm_bytecode() -> None:
    """Compile the sources once so no set-up sample pays for it."""
    import compileall

    for directory in ("src", HERE):
        compileall.compile_dir(directory, quiet=2)


def _metrics(declared: list[dict], values: dict[str, float]) -> dict:
    """*values* as the JSON metric block, in ``BENCHMARK.json`` order."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise WorkerFailed(f"no value for {', '.join(missing)}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def measure(
    spec: dict, workload: str, seed: int, seconds: float, trace: bool
) -> dict:
    """Probes and passes of one run; checked operations and metrics."""
    start = time.monotonic()
    _become_subreaper()
    _warm_bytecode()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(["--workload", workload, "--probe"], RUN_BUDGET_S)
            setups.append(probe)
    passes = []
    first = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        report = spawn(
            ["--workload", workload, "--seed", str(seed),
             "--trace", str(int(trace))],
            RUN_BUDGET_S - elapsed,
        )
        passes.append(report)
        setups.append(report)
        elapsed = time.monotonic() - start
        pass_s = (time.monotonic() - first) / len(passes)
        if elapsed + pass_s > min(seconds, RUN_BUDGET_S):
            break

    ops = [op for report in passes for op in report["ops"]]
    failed = [op for op in ops if op["failures"]]
    qualities = [report["quality"] for report in passes]
    if any(quality != qualities[0] for quality in qualities):
        failed.append({"name": "quality", "failures": ["passes disagree"]})
    if trace:
        values = {
            name: statistics.median(r["per_layer"][name] for r in passes)
            for name in passes[0]["per_layer"]
        }
        metrics = _metrics(spec["per_layer"], values)
    else:
        values = {
            "wall_ref_s": statistics.median(r["wall_ref_s"] for r in passes),
            "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in passes
            ),
            **qualities[0],
        }
        metrics = _metrics(spec["end_to_end"], values)
    return {
        "ops": ops,
        "failed": failed,
        "passes": passes,
        "setups": setups,
        "metrics": metrics,
    }


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        result = measure(spec, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except WorkerFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    attempted, failed = len(result["ops"]), len(result["failed"])
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result['passes'])} pass(es), {attempted} operations, "
          f"{failed} failed (fail_ratio {failed / attempted:g})")
    for op in result["failed"]:
        print(f"  FAILED {op['name']}: {'; '.join(op['failures'])}")
    if not args.trace:
        passes, setups = result["passes"], result["setups"]
        slices = [t for report in passes for t in report["slices"]]
        wall = statistics.median(r["wall_s"] for r in passes)
        setup = statistics.median(r["setup_s"] for r in setups)
        print(f"  measured: wall {wall:.4f} s, set-up {setup:.4f} s, "
              f"calibration slice {statistics.median(slices):.4f} s "
              f"(median of {len(slices)})")
        for name, value in passes[0]["modes"].items():
            print(f"  {name} = {value:.4f} %")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
