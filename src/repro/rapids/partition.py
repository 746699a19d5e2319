"""Partitioned wirelength rewiring: FM-carved regions, frozen boundaries.

Monolithic batched rewiring (:mod:`repro.rapids.wirelength`) enumerates
and scores the whole netlist's candidate set every iteration — fine to
a few thousand gates, hopeless at 1e5-1e6.  This module makes the flow
divide-and-conquer:

1. **Carve once.**  :func:`repro.place.regions.carve_regions` bisects
   the placed netlist (geometry-seeded FM) into regions of at most
   ``max_gates`` gates.  Nets spanning regions are *boundary* nets.
2. **Freeze boundaries.**  A candidate is admissible only when every
   net it rebinds is internal to a single region — boundary candidates
   are dropped at enumeration, so cross-region moves are never even
   proposed and boundary pin bindings survive the run untouched.
   Internality is invariant under intra-region moves (see
   :mod:`repro.place.regions`), so the carve stays truthful forever.
3. **Select per region, against round-start state.**  Each round runs
   the shared read-only selector
   (:func:`repro.rapids.wirelength._select_batch`) over every region's
   candidates.  Selection mutates nothing, so regions may be evaluated
   in any order — or concurrently on ``EvalPool`` workers against
   ``soa_full`` shared-memory snapshots
   (:mod:`repro.parallel.regions`) — and produce bit-identical
   selections.
4. **Commit serially, in region order.**  The parent replays accepted
   moves region by region.  HPWL footprints of different regions are
   disjoint by construction (all internal nets); timing ``touched``
   neighborhoods are *not* (timing cones cross boundaries), so the
   committer keeps a global claimed-net set and defers any move whose
   exact projection overlaps an earlier region's — deferred moves are
   re-scored next round against the refreshed state.  One timing
   refold per round.

Determinism: the carve, the per-region candidate order, the selection
and the region-ordered commit are all ``PYTHONHASHSEED``-independent
and worker-count-invariant, so the trajectory is bit-identical for
every ``workers`` value — and, with one region, bit-identical to the
unpartitioned batched path (both properties are locked by
``tests/test_partitioned_rewiring.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..network.netlist import Network, Pin
from ..place.hpwl import WirelengthEngine
from ..place.placement import Placement
from ..place.regions import RegionSet, carve_regions
from ..timing.sta import TimingEngine
from .wirelength import (
    WirelengthResult,
    _TimingGate,
    _apply_batch,
    _attach_timing_stats,
    _leaf_pairs,
    _pure_crosses,
    _select_batch,
    verified_class_swaps,
)

#: Opt-in to the determinism lint (rule D of ``python -m tools.lint``).
__deterministic__ = True


@dataclass
class PartitionedResult(WirelengthResult):
    """Outcome of a partitioned run (extends the monolithic report)."""

    #: Regions the carve produced / largest region / frozen nets.
    regions: int = 0
    max_region_gates: int = 0
    boundary_nets: int = 0
    #: Select+commit rounds executed across all passes.
    rounds: int = 0
    #: Moves deferred because their timing neighborhood crossed into
    #: an earlier region's claim this round (re-scored next round).
    deferred_timing_conflicts: int = 0
    #: Moves dropped for overlapping HPWL footprints across regions —
    #: impossible under the frozen-boundary contract; must stay 0.
    boundary_conflicts: int = 0
    #: Parallelism actually achieved (see repro.parallel.regions).
    workers: int = 1
    parallel_rounds: int = 0
    fallback_reason: str | None = None
    #: Recovery-ladder counters of the session's pool (empty when the
    #: run was serial); see :class:`repro.parallel.pool.PoolHealth`.
    health: dict = field(default_factory=dict)


def _region_tasks(
    network: Network,
    regions: RegionSet,
    pairs,
    crosses,
    klass=(),
) -> list[tuple[int, list, list, list]]:
    """Group candidates by region, dropping boundary candidates.

    A leaf pair is admissible iff both driving nets are internal to
    the same region (their sink gates then are too); a cross exchange
    iff every net its bindings read or write is; a coloring class swap
    iff its whole cone-wide footprint is.  Returns one
    ``(region_index, pairs, crosses, klass)`` task per region with any
    admissible candidate, ordered by region index.
    """
    net_region = regions.net_region
    by_region: dict[int, tuple[list, list, list]] = {}
    for root, pin_a, pin_b in pairs:
        home = net_region.get(network.fanin_net(pin_a))
        if home is None or net_region.get(network.fanin_net(pin_b)) != home:
            continue
        by_region.setdefault(
            home, ([], [], [])
        )[0].append((root, pin_a, pin_b))
    for cross, bindings in crosses:
        nets = {network.fanin_net(pin) for pin, _ in bindings}
        nets.update(net for _, net in bindings)
        homes = {net_region.get(net) for net in nets}
        if len(homes) != 1 or None in homes:
            continue
        by_region.setdefault(
            next(iter(homes)), ([], [], [])
        )[1].append((cross, bindings))
    for pin_a, pin_b, footprint in klass:
        homes = {net_region.get(net) for net in footprint}
        if len(homes) != 1 or None in homes:
            continue
        by_region.setdefault(
            next(iter(homes)), ([], [], [])
        )[2].append((pin_a, pin_b, footprint))
    return [
        (index, task[0], task[1], task[2])
        for index, task in sorted(by_region.items())
    ]


def reduce_wirelength_partitioned(
    network: Network,
    placement: Placement,
    max_gates: int = 2500,
    max_passes: int = 4,
    min_gain: float = 1e-9,
    include_cross: bool = True,
    class_swaps: bool = False,
    timing_engine: TimingEngine | None = None,
    slack_margin: float = 0.0,
    workers: int = 1,
    library=None,
    balance: float = 0.55,
    refine_passes: int = 3,
    carve_seed: int = 0,
    checkpoint=None,
    resume_data: dict | None = None,
) -> PartitionedResult:
    """Region-bounded wirelength rewiring (see module docstring).

    Semantics match :func:`repro.rapids.wirelength.reduce_wirelength`
    (batched path) restricted to moves internal to one carved region;
    with *max_gates* >= the gate count the restriction vanishes and
    the trajectory is bit-identical to the monolithic path.  With
    *timing_engine* every commit is slack-guarded exactly as there.
    *class_swaps* admits coloring-derived cross-supergate candidates
    (see :func:`repro.rapids.wirelength.verified_class_swaps`) on each
    pass's first round, restricted to candidates whose entire
    cone-wide footprint is internal to one region.

    *workers* > 1 evaluates regions concurrently on ``EvalPool``
    processes; snapshots ship through the engine passed as
    *timing_engine* or, on the timing-blind objective, one built from
    *library* — without either, evaluation silently stays inline and
    the result records ``fallback_reason``.  The committed trajectory
    is identical for every worker count.

    *checkpoint* (a :class:`repro.checkpoint.CheckpointManager`) saves
    a ``"wl_partition"`` cursor after every applied round.  To resume,
    the caller grafts the saved state back into *network* /
    *placement* / *timing_engine* first (see
    :func:`repro.checkpoint.graft_state` /
    :func:`~repro.checkpoint.engine_from_state`) and passes the loaded
    payload as *resume_data*; the run re-enters the interrupted pass
    mid-flight — resumed rounds are leaf-pair-only by construction
    (cross exchanges ride only a pass's first round) — with the saved
    carve, counters and slack-gate statistics, and finishes
    bit-identically to the uninterrupted run.
    """
    from .engine import SupergateCache

    start = time.perf_counter()
    resuming = resume_data is not None
    placement.ensure_covered(network)
    engine = WirelengthEngine(network, placement)
    gate = (
        _TimingGate(timing_engine, slack_margin)
        if timing_engine is not None else None
    )
    cache = SupergateCache(network)
    if resuming:
        # the carve is geometry-seeded on the *initial* netlist; the
        # resumed (rewired) netlist could carve differently, so the
        # original RegionSet rides in the checkpoint
        regions = resume_data["regions"]
    else:
        regions = carve_regions(
            network, placement, max_gates, balance=balance,
            refine_passes=refine_passes, seed=carve_seed,
        )
    session = None
    fallback_reason = None
    if workers > 1:
        carrier = gate.engine if gate is not None else None
        if carrier is None and library is not None:
            carrier = TimingEngine(network, placement, library)
            carrier.analyze()
        if carrier is None:
            fallback_reason = "no timing engine or library for snapshots"
        else:
            from ..parallel.regions import RegionEvalSession

            session = RegionEvalSession(
                workers, carrier,
                timing_aware=gate is not None, margin=slack_margin,
                min_gain=min_gain, gate=gate,
            )

    initial = engine.total_hpwl()
    leaf_applied = 0
    cross_applied = 0
    klass_applied = 0
    klass_verified = 0
    klass_rejected = 0
    passes = 0
    rounds = 0
    parallel_rounds = 0
    deferred = 0
    boundary_conflicts = 0
    health: dict = {}
    scored_before = engine.candidates_scored
    remote_scored = 0
    pass_applied = 0
    tasks: list[tuple[int, list, list, list]] = []
    if resuming:
        initial = resume_data["initial_hpwl"]
        leaf_applied = resume_data["leaf_applied"]
        cross_applied = resume_data["cross_applied"]
        klass_applied = resume_data.get("klass_applied", 0)
        klass_verified = resume_data.get("klass_verified", 0)
        klass_rejected = resume_data.get("klass_rejected", 0)
        passes = resume_data["passes"]
        rounds = resume_data["rounds"]
        parallel_rounds = resume_data["parallel_rounds"]
        deferred = resume_data["deferred"]
        boundary_conflicts = resume_data["boundary_conflicts"]
        pass_applied = resume_data["pass_applied"]
        remote_scored = resume_data["remote_scored"]
        scored_before = engine.candidates_scored - resume_data["local_scored"]
        tasks = [
            (index, list(task_pairs), [], [])
            for index, task_pairs in resume_data["tasks_pairs"]
        ]
        if gate is not None and resume_data["gate_stats"] is not None:
            stats = resume_data["gate_stats"]
            gate.rejected_keys = {tuple(key) for key in stats["rejected"]}
            gate.max_drift = stats["max_drift"]
            gate.repricings = stats["repricings"]

    def select_inline(task):
        _index, pairs, crosses, klass = task
        return _select_batch(
            network, engine, pairs, crosses, klass, min_gain, gate
        )

    def cursor() -> dict:
        """Round-boundary resume payload (see the *checkpoint* doc)."""
        from ..checkpoint import pack_eval_state, pack_network

        return {
            "regions": regions,
            "initial_hpwl": initial,
            "leaf_applied": leaf_applied,
            "cross_applied": cross_applied,
            "klass_applied": klass_applied,
            "klass_verified": klass_verified,
            "klass_rejected": klass_rejected,
            "passes": passes,
            "rounds": rounds,
            "parallel_rounds": parallel_rounds,
            "deferred": deferred,
            "boundary_conflicts": boundary_conflicts,
            "pass_applied": pass_applied,
            "remote_scored": remote_scored,
            "local_scored": engine.candidates_scored - scored_before,
            "tasks_pairs": [
                (index, list(task_pairs))
                for index, task_pairs, _crosses, _klass in tasks
            ],
            "gate_stats": None if gate is None else {
                "rejected": sorted(gate.rejected_keys),
                "max_drift": gate.max_drift,
                "repricings": gate.repricings,
            },
            "timing_aware": gate is not None,
            "engine_state": (
                pack_eval_state(gate.engine.export_eval_state())
                if gate is not None
                else pack_network(network, placement)
            ),
        }

    try:
        mid_pass = resuming
        while passes < max_passes or mid_pass:
            if mid_pass:
                mid_pass = False
                sgn = cache.get()
                first_round = False
            else:
                passes += 1
                sgn = cache.get()
                pairs = _leaf_pairs(sgn, network)
                crosses = _pure_crosses(sgn) if include_cross else []
                klass: list = []
                if class_swaps:
                    # class candidates are re-verified (by simulation)
                    # every pass against the current netlist
                    klass, rejected = verified_class_swaps(network)
                    klass_verified += len(klass)
                    klass_rejected += rejected
                tasks = _region_tasks(
                    network, regions, pairs, crosses, klass
                )
                pass_applied = 0
                first_round = True
            while True:
                rounds += 1
                round_tasks = tasks if first_round else [
                    (index, task_pairs, [], [])
                    for index, task_pairs, _crosses, _klass in tasks
                ]
                first_round = False
                if session is not None and session.active:
                    selections, scored = session.select_round(
                        round_tasks, select_inline
                    )
                    remote_scored += scored
                    if session.parallel_last_round:
                        parallel_rounds += 1
                else:
                    selections = [
                        select_inline(task) for task in round_tasks
                    ]
                # serial conflict-free commit, in region order: HPWL
                # footprints cannot collide across regions (internal
                # nets only — counted defensively all the same); exact
                # timing neighborhoods can, so later regions defer
                claimed_nets: set[str] = set()
                claimed_timing: set[str] = set()
                committed_projections: list = []
                leaves = crossings = klasses = 0
                for (_index, _p, _c, _k), accepted in zip(
                    round_tasks, selections
                ):
                    kept = []
                    for kind, payload, projection, footprint in accepted:
                        if footprint & claimed_nets:
                            boundary_conflicts += 1
                            continue
                        if projection is not None and (
                            projection.touched & claimed_timing
                        ):
                            deferred += 1
                            continue
                        kept.append((kind, payload, projection, footprint))
                        claimed_nets |= footprint
                        if projection is not None:
                            claimed_timing |= projection.touched
                            committed_projections.append(projection)
                    batch_leaves, batch_crosses, batch_klass = _apply_batch(
                        network, sgn, kept
                    )
                    leaves += batch_leaves
                    crossings += batch_crosses
                    klasses += batch_klass
                if gate is not None and committed_projections:
                    gate.refold(committed_projections)
                leaf_applied += leaves
                cross_applied += crossings
                klass_applied += klasses
                pass_applied += leaves + crossings + klasses
                if leaves + crossings + klasses == 0:
                    break
                if checkpoint is not None:
                    checkpoint.boundary("wl_partition", cursor)
            if pass_applied == 0:
                break
    finally:
        if session is not None:
            if fallback_reason is None:
                fallback_reason = session.fallback_reason
            health = session.pool.health.as_dict()
            session.close()

    result = PartitionedResult(
        initial_hpwl=initial,
        final_hpwl=engine.total_hpwl(),
        swaps_applied=leaf_applied,
        passes=passes,
        mode="partitioned",
        cross_swaps_applied=cross_applied,
        class_swaps_applied=klass_applied,
        class_candidates_verified=klass_verified,
        class_candidates_rejected=klass_rejected,
        candidates_scored=(
            engine.candidates_scored - scored_before + remote_scored
        ),
        regions=len(regions.regions),
        max_region_gates=regions.max_region_gates,
        boundary_nets=len(regions.boundary_nets),
        rounds=rounds,
        deferred_timing_conflicts=deferred,
        boundary_conflicts=boundary_conflicts,
        workers=workers,
        parallel_rounds=parallel_rounds,
        fallback_reason=fallback_reason,
        health=health,
        runtime_seconds=time.perf_counter() - start,
    )
    _attach_timing_stats(result, gate)
    return result
