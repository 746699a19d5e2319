"""The benchmark's workloads, driven through the flow's public API.

A workload has a set-up (anything done before the first measured
operation), a measured ``run`` and a ``check`` that validates every
operation's output with :mod:`checker` after the clock stops.  One
operation is one (circuit, mode) optimization with its polish, or one
partitioned polish pass.  The load model is a closed loop with one
client: each operation starts when the previous one returned.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field

import checker
import repro.rapids.engine as engine_mod
import repro.rapids.partition as partition_mod
import repro.suite.flow as flow_mod
import repro.verify.equiv as equiv_mod
from repro.place.placement import grid_placement
from repro.rapids.engine import MODES
from repro.suite.registry import build_benchmark
from repro.synth.mapper import map_network, network_area
from repro.timing.sta import TimingEngine


@dataclass
class Op:
    """One measured operation: its name, outputs and check failures."""

    name: str
    failures: list[str] = field(default_factory=list)
    #: quality ratios (final / initial, in percent) of this operation
    delay_ratio: float = 0.0
    area_ratio: float = 0.0
    hpwl_ratio: float = 0.0
    #: supergate coverage of the operation's input, in percent
    coverage: float = 0.0
    #: mode-level figures shown next to the metrics (Table-1 columns)
    delay_impr: float = 0.0
    area_delta: float = 0.0


def _failed(name: str, error: BaseException) -> Op:
    """A failed operation; the traceback goes to standard error."""
    traceback.print_exception(error, file=sys.stderr)
    lines = traceback.format_exception_only(type(error), error)
    return Op(name, failures=["program raised: " + lines[-1].strip()])


class Table1Rows:
    """Whole Table-1 rows: prepare, then every mode with its polish.

    The rows run through ``run_benchmark``; a thin hook on the
    flow's ``run_rapids`` keeps each mode's returned netlist so the
    checker can compare it with the prepared input afterwards.
    """

    def __init__(self, circuits, scale, workers, check_equivalence):
        self.circuits = tuple(circuits)
        self.scale = scale
        self.workers = workers
        self.check_equivalence = check_equivalence

    def setup(self, library):
        return None

    def reference(self, state):
        return None

    def run(self, state, reference, seed, library) -> list[tuple]:
        captured = []
        run_rapids = flow_mod.run_rapids

        def keep(network, placement, *args, **kwargs):
            result = run_rapids(network, placement, *args, **kwargs)
            captured.append((network, placement, result))
            return result

        flow_mod.run_rapids = keep
        rows = []
        try:
            for name in self.circuits:
                config = flow_mod.FlowConfig(
                    scale=self.scale, workers=self.workers,
                    check_equivalence=self.check_equivalence,
                )
                first = len(captured)
                try:
                    outcome = flow_mod.run_benchmark(name, config, library)
                except Exception as error:  # reported as failed operations
                    rows.append((name, None, error))
                    continue
                modes = captured[first:][-len(config.modes):]
                rows.append((name, outcome, dict(zip(config.modes, modes))))
        finally:
            flow_mod.run_rapids = run_rapids
        return rows

    def check(self, state, reference, rows, seed, library) -> list[Op]:
        ops = []
        for name, outcome, detail in rows:
            if outcome is None:
                ops.extend(_failed(f"{name}/{mode}", detail) for mode in MODES)
                continue
            for index, mode in enumerate(MODES):
                ops.append(self._check_mode(
                    name, mode, outcome, detail.get(mode),
                    seed * 1000 + index, library,
                ))
        return ops

    def _check_mode(self, name, mode, outcome, captured, seed, library):
        op = Op(f"{name}/{mode}")
        if captured is None or captured[2] is not outcome.results.get(mode):
            op.failures.append("mode result missing")
            return op
        network, placement, result = captured
        opt, polish = result.optimize, result.wirelength
        if self.check_equivalence and result.equivalent is not True:
            op.failures.append(f"program verify said {result.equivalent!r}")
        op.failures += checker.equivalence_failures(
            outcome.network, network, seed
        )
        op.failures += checker.placement_failures(
            outcome.network, outcome.placement, placement
        )
        if mode == "gsg":
            op.failures += checker.cell_failures(outcome.network, network)
        op.failures += checker.delay_failures(
            network, placement, library, opt.initial_delay, opt.final_delay
        )
        if polish is None:
            op.failures.append("wirelength polish did not run")
            return op
        op.delay_ratio = 100.0 * opt.final_delay / opt.initial_delay
        op.area_ratio = 100.0 * opt.final_area / opt.initial_area
        op.hpwl_ratio = 100.0 * polish.final_hpwl / polish.initial_hpwl
        op.coverage = outcome.stats["coverage_percent"]
        op.delay_impr = opt.improvement_percent
        op.area_delta = opt.area_delta_percent
        return op


class TiledPartitioned:
    """One timing-aware partitioned polish pass over a grid-placed netlist.

    Set-up builds, maps and grid-places ``tiled100k``; the measured
    operation is supergate extraction, a full STA, one partitioned
    wirelength pass and the program's equivalence check.
    """

    name = "tiled100k/partitioned"

    def __init__(self, scale, max_gates, workers):
        self.scale = scale
        self.max_gates = max_gates
        self.workers = workers

    def setup(self, library):
        network = build_benchmark("tiled100k", scale=self.scale)
        map_network(network, library)
        return network, grid_placement(network)

    def reference(self, state):
        network, placement = state
        return network.copy(), placement.copy()

    def run(self, state, reference, seed, library):
        network, placement = state
        try:
            sgn = engine_mod.SUPERGATE_STORE.get_or_extract(network)
            timing = TimingEngine(network, placement, library)
            timing.analyze()
            initial_delay = timing.max_delay
            result = partition_mod.reduce_wirelength_partitioned(
                network, placement, max_gates=self.max_gates, max_passes=1,
                timing_engine=timing, workers=self.workers, library=library,
            )
            timing.refresh()
            equivalent = equiv_mod.networks_equivalent(
                reference[0], network
            )
        except Exception as error:  # reported as a failed operation
            return error
        return (
            sgn.coverage() * 100.0, initial_delay, timing.max_delay,
            result, equivalent,
        )

    def check(self, state, reference, outputs, seed, library) -> list[Op]:
        if isinstance(outputs, Exception):
            return [_failed(self.name, outputs)]
        network, placement = state
        before, start_placement = reference
        coverage, initial_delay, final_delay, result, equivalent = outputs
        op = Op(self.name, coverage=coverage)
        if equivalent is not True:
            op.failures.append(f"program verify said {equivalent!r}")
        if result.boundary_conflicts:
            op.failures.append(
                f"{result.boundary_conflicts} boundary conflicts"
            )
        if result.final_hpwl > result.initial_hpwl:
            op.failures.append(
                f"hpwl rose: {result.initial_hpwl!r} -> {result.final_hpwl!r}"
            )
        op.failures += checker.equivalence_failures(before, network, seed)
        op.failures += checker.placement_failures(
            before, start_placement, placement
        )
        op.failures += checker.delay_failures(
            network, placement, library, initial_delay, final_delay
        )
        op.delay_ratio = 100.0 * final_delay / initial_delay
        op.area_ratio = 100.0 * (
            network_area(network, library) / network_area(before, library)
        )
        op.hpwl_ratio = 100.0 * result.final_hpwl / result.initial_hpwl
        return [op]


WORKLOADS = {
    "table1_quick": Table1Rows(
        ("alu2", "c432", "c499", "k2"), scale=0.35, workers=1,
        check_equivalence=True,
    ),
    "c5315_full": Table1Rows(
        ("c5315",), scale=0.5, workers=2, check_equivalence=False,
    ),
    "tiled_partitioned": TiledPartitioned(
        scale=0.04, max_gates=2500, workers=2,
    ),
}
