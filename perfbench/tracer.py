"""Spans and counters recorded from outside the program.

The flow binds most names at import time, so every wrapper is
installed where the *caller* looks the name up (for example
``repro.suite.flow.place``, not ``repro.place.placer.place``).
Layer boundaries record spans (name, start, end, parent) kept in
memory; high-frequency pricing calls record counts only.  A layer's
self time is its spans' durations minus the time their child spans
cover, so the self times plus the root's unattributed time add up to
the traced wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import wraps

import repro.parallel.pool as pool_mod
import repro.parallel.regions as regions_mod
import repro.rapids.engine as engine_mod
import repro.rapids.partition as partition_mod
import repro.rapids.wirelength as wirelength_mod
import repro.suite.flow as flow_mod
import repro.verify.equiv as equiv_mod
from repro.timing.sta import TimingEngine

ROOT = "workload"


class Tracer:
    """In-memory span list plus named counters for one traced pass."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or None), in start order
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.exact_keys: set = set()
        self.pools: list = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, func, after=None):
        """*func* wrapped in a span; *after(result)* updates counters."""
        tracer = self

        @wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, func):
        """*func* wrapped to count its calls."""
        counts = self.counts

        @wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark measures."""
        span, counter, counts = self.span, self.counter, self.counts

        def optimized(result):
            counts["sizing.rounds"] += result.rounds
            counts["sizing.moves_applied"] += result.moves_applied
            counts["timing.node_updates"] += result.timing_stats.get(
                "node_updates", 0
            )

        def polished(result):
            counts["rapids.candidates_scored"] += result.candidates_scored
            counts["rapids.swaps_applied"] += (
                result.swaps_applied + result.cross_swaps_applied
                + result.class_swaps_applied
            )
            counts["rapids.timing_rejected"] += result.timing_rejected
            counts["rapids.drift_repricings"] += result.drift_repricings

        def partitioned(result):
            polished(result)
            counts["rapids.partition.regions"] += result.regions
            counts["rapids.partition.rounds"] += result.rounds
            counts["rapids.partition.deferred_timing_conflicts"] += (
                result.deferred_timing_conflicts
            )
            counts["rapids.partition.boundary_conflicts"] += (
                result.boundary_conflicts
            )

        self.patch(flow_mod, "prepare_benchmark",
                   span("suite.prepare", flow_mod.prepare_benchmark))
        self.patch(flow_mod, "script_rugged",
                   span("synth.script_rugged", flow_mod.script_rugged))
        self.patch(flow_mod, "map_network",
                   span("synth.map", flow_mod.map_network))
        self.patch(flow_mod, "place", span("place.anneal", flow_mod.place))
        self.patch(flow_mod, "run_rapids",
                   span("rapids.run", flow_mod.run_rapids))
        self.patch(engine_mod, "optimize",
                   span("sizing.optimize", engine_mod.optimize, optimized))
        self.patch(wirelength_mod, "reduce_wirelength",
                   span("rapids.polish", wirelength_mod.reduce_wirelength,
                        polished))
        self.patch(partition_mod, "reduce_wirelength_partitioned",
                   span("rapids.partitioned_polish",
                        partition_mod.reduce_wirelength_partitioned,
                        partitioned))
        for module in (engine_mod, equiv_mod):
            self.patch(module, "networks_equivalent",
                       span("verify.equiv", module.networks_equivalent))
        self.patch(equiv_mod, "BddManager",
                   counter("verify.bdd_managers", equiv_mod.BddManager))
        self.patch(equiv_mod, "network_bdds",
                   counter("verify.full_cone_fallbacks",
                           equiv_mod.network_bdds))

        store = engine_mod.SUPERGATE_STORE
        extract = span("symmetry.extract", store.get_or_extract)

        def get_or_extract(network):
            hits = store.hits
            result = extract(network)
            counts["symmetry.store_hits"] += store.hits > hits
            return result

        self.patch(store, "get_or_extract", get_or_extract)

        self.patch(TimingEngine, "analyze",
                   span("timing.analyze", TimingEngine.analyze))
        self.patch(TimingEngine, "swap_gain",
                   counter("timing.swap_gain_calls", TimingEngine.swap_gain))
        self.patch(TimingEngine, "resize_gain",
                   counter("timing.resize_gain_calls",
                           TimingEngine.resize_gain))
        project = TimingEngine.project_swap_slacks
        exact_keys = self.exact_keys

        @wraps(project)
        def project_swap_slacks(engine, batch, exact=False):
            counts["timing.project_calls"] += 1
            if not exact:
                counts["timing.frontier_projections"] += len(batch)
                return project(engine, batch, exact=exact)
            start = time.perf_counter()
            result = project(engine, batch, exact=exact)
            counts["timing.exact_projection_s"] += time.perf_counter() - start
            counts["timing.exact_projections"] += len(batch)
            exact_keys.update((id(engine), tuple(b)) for b in batch)
            return result

        self.patch(TimingEngine, "project_swap_slacks", project_swap_slacks)

        pools = self.pools
        pool_init = pool_mod.EvalPool.__init__

        @wraps(pool_init)
        def init(pool, *args, **kwargs):
            pool_init(pool, *args, **kwargs)
            pools.append(pool)

        self.patch(pool_mod.EvalPool, "__init__", init)
        self.patch(pool_mod.EvalPool, "evaluate",
                   span("parallel.evaluate", pool_mod.EvalPool.evaluate))
        self.patch(regions_mod.RegionEvalSession, "select_round",
                   span("parallel.select_round",
                        regions_mod.RegionEvalSession.select_round))

    def uninstall(self) -> None:
        for owner, attr, had, original in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reporting ---------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name (children's durations subtracted)."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_rest), value in zip(self.spans, own):
            totals[name] += value
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, *_rest in self.spans:
            totals[name] += 1
        return totals

    def per_layer(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of the benchmark, zero where unused."""
        own, calls, counts = self.self_times(), self.calls(), self.counts
        root = next(span for span in self.spans if span[0] == ROOT)
        wall = root[2] - root[1]
        health = defaultdict(int)
        for pool in self.pools:
            for key, value in pool.health.as_dict().items():
                if isinstance(value, int):
                    health[key] += value
        extract_calls = calls["symmetry.extract"]
        scored = counts["rapids.candidates_scored"]
        exact = counts["timing.exact_projections"]
        return {
            "suite.prepare_s": own["suite.prepare"],
            "synth.script_rugged_s": own["synth.script_rugged"],
            "synth.map_s": own["synth.map"],
            "place.anneal_s": own["place.anneal"],
            "place.anneal_calls": calls["place.anneal"],
            "sizing.optimize_s": own["sizing.optimize"],
            "sizing.optimize_calls": calls["sizing.optimize"],
            "sizing.rounds": counts["sizing.rounds"],
            "sizing.moves_applied": counts["sizing.moves_applied"],
            "timing.analyze_s": own["timing.analyze"],
            "timing.analyze_calls": calls["timing.analyze"],
            "timing.node_updates": counts["timing.node_updates"],
            "timing.swap_gain_calls": counts["timing.swap_gain_calls"],
            "timing.resize_gain_calls": counts["timing.resize_gain_calls"],
            "timing.frontier_projections":
                counts["timing.frontier_projections"],
            "timing.exact_projections": exact,
            "timing.exact_projection_s": counts["timing.exact_projection_s"],
            "timing.exact_unique_ratio":
                len(self.exact_keys) / exact if exact else 0.0,
            "rapids.run_s": own["rapids.run"],
            "rapids.polish_s": own["rapids.polish"],
            "rapids.candidates_scored": scored,
            "rapids.swaps_applied": counts["rapids.swaps_applied"],
            "rapids.accept_ratio":
                counts["rapids.swaps_applied"] / scored if scored else 0.0,
            "rapids.timing_rejected": counts["rapids.timing_rejected"],
            "rapids.drift_repricings": counts["rapids.drift_repricings"],
            "rapids.partitioned_polish_s": own["rapids.partitioned_polish"],
            "rapids.partition.regions": counts["rapids.partition.regions"],
            "rapids.partition.rounds": counts["rapids.partition.rounds"],
            "rapids.partition.deferred_timing_conflicts":
                counts["rapids.partition.deferred_timing_conflicts"],
            "rapids.partition.boundary_conflicts":
                counts["rapids.partition.boundary_conflicts"],
            "symmetry.extract_s": own["symmetry.extract"],
            "symmetry.extract_calls": extract_calls,
            "symmetry.store_hit_ratio":
                counts["symmetry.store_hits"] / extract_calls
                if extract_calls else 0.0,
            "verify.equiv_s": own["verify.equiv"],
            "verify.equiv_calls": calls["verify.equiv"],
            "verify.bdd_managers": counts["verify.bdd_managers"],
            "verify.full_cone_fallbacks": counts["verify.full_cone_fallbacks"],
            "parallel.evaluate_s": own["parallel.evaluate"],
            "parallel.evaluate_calls": calls["parallel.evaluate"],
            "parallel.select_round_s": own["parallel.select_round"],
            "parallel.select_round_calls": calls["parallel.select_round"],
            "parallel.shard_retries": health["shard_retries"],
            "parallel.inline_fallbacks": health["inline_fallbacks"],
            "parallel.pool_rebuilds": health["pool_rebuilds"],
            "trace.wall_s": wall,
            "trace.unattributed_s": own[ROOT],
            "trace.unattributed_pct": 100.0 * own[ROOT] / wall,
            "trace.overhead_est_s": overhead_s,
            "trace.spans": len(self.spans),
        }

    def invocations(self) -> tuple[int, int]:
        """(span wrapper calls, counting wrapper calls) this pass made."""
        counted = sum(
            self.counts[name] for name in (
                "verify.bdd_managers", "verify.full_cone_fallbacks",
                "timing.swap_gain_calls", "timing.resize_gain_calls",
                "timing.project_calls",
            )
        )
        return len(self.spans), int(counted)


def wrapper_costs(repeat: int = 20000) -> tuple[float, float]:
    """Measured seconds per span-wrapper and per counting-wrapper call."""
    probe = Tracer()

    def noop():
        return None

    costs = []
    for wrapped in (probe.span("probe", noop), probe.counter("probe", noop)):
        start = time.perf_counter()
        for _ in range(repeat):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeat):
            wrapped()
        costs.append(max(0.0, time.perf_counter() - start - bare) / repeat)
    return costs[0], costs[1]
