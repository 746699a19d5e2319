"""Wirelength-driven rewiring (Section 5, optimization use (1)).

"If two signals a and b come from geometrically fixed locations and all
gates have been placed, swapping of a and b can clearly reduce the wire
length" — this module does exactly that: symmetric non-inverting leaf
swaps (and inverter-free cross-supergate fanin-group exchanges)
accepted whenever they shorten the estimated wiring, with the
placement frozen.

Two execution paths share one candidate-pricing contract (candidates
are **never** priced by mutating the network — pricing fires zero
events into subscribed engines; see ``docs/architecture.md``):

* **batched** (the default): every pass enumerates the full candidate
  set once — leaf swaps of every non-trivial supergate plus pure
  cross swaps — scores it as one vectorized batch against a
  :class:`~repro.place.hpwl.WirelengthEngine`, and commits a maximal
  conflict-free subset (no two accepted moves sharing a net, so the
  priced deltas are exactly additive).  Scoring-and-committing repeats
  within the pass until no candidate improves: non-inverting leaf
  swaps preserve the supergate partition, so the pin-pair set stays
  valid and only the driving nets need re-reading.  Supergates are
  refreshed *incrementally* between passes through the PR-1
  :class:`~repro.rapids.engine.SupergateCache`.
* **greedy** (the reference): the historical interpreted trajectory —
  supergates re-extracted per pass, candidates priced and applied one
  at a time in enumeration order.  Deltas are bit-identical to the
  old trial-apply-and-revert implementation (pure extrema selection),
  minus the two mutation events it fired per candidate.

With a *timing_engine* the polish becomes **timing-aware**: a swap is
committed only when its HPWL delta improves **and** its projected
slack neighborhood stays inside a guard band (*slack_margin*, default
0.0 — never eat into the critical path; negative margins trade bounded
delay for wire).  Candidates are pre-filtered by the engine's
vectorized frontier projection
(:meth:`~repro.timing.sta.TimingEngine.project_swap_slacks`), then
verified by the exact full-cone projection, whose ``touched`` sets
gate conflict-freedom: accepted moves may share neither a bounding-box
net (HPWL deltas add exactly) nor a timing-neighborhood net (slack
projections add exactly).  After every committed batch the timing
engine re-folds incrementally (``apply_and_update``); the realized
slacks are compared against the projections, and drift beyond
:data:`~repro.timing.sta.PROJECTION_DRIFT_TOL` falls back to
re-pricing the remaining candidates from the refreshed state (the
fixed-point loop re-scores every iteration, so nothing stale is ever
reused).  The engine's timing target is pinned to the pre-polish
critical delay when no period is set, so "no worse than the guard
band" means "no worse than the netlist we started polishing".

The batched path must end at a total HPWL no worse than greedy's on
the quick set (``benchmarks/bench_wirelength.py`` asserts it, along
with zero delay degradation for the timing-aware default) and is
function-preserving by construction (every accepted move is a legal
symmetry application; the property tests sweep random networks ×
random placements through ``networks_equivalent``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import AbstractSet

from ..contracts import projection_only
from ..network.netlist import Network, Pin
from ..place.hpwl import WirelengthEngine
from ..place.placement import Placement, net_terminals, total_hpwl
from ..symmetry.cross import (
    CrossSwap,
    apply_cross_swap,
    cross_swap_bindings,
    find_cross_swaps,
)
from ..symmetry.supergate import extract_supergates
from ..symmetry.swap import apply_swap, enumerate_swaps
from ..timing.sta import PROJECTION_DRIFT_TOL, TimingEngine

#: Opt-in to the determinism lint (rule D of ``python -m tools.lint``):
#: this module's float accumulations and tie-breaks must never follow
#: set-iteration (= PYTHONHASHSEED) order.
__deterministic__ = True


@dataclass
class WirelengthResult:
    """Outcome of a wirelength-rewiring run."""

    initial_hpwl: float
    final_hpwl: float
    swaps_applied: int
    passes: int
    mode: str = "greedy"
    cross_swaps_applied: int = 0
    candidates_scored: int = 0
    #: True when a timing engine gated every commit on projected slack.
    timing_aware: bool = False
    #: Guard band the slack gate enforced (ns; only with timing_aware).
    slack_margin: float = 0.0
    #: Unique wirelength-improving candidates the slack gate refused on
    #: their projected slacks: by the frontier prefilter, or by an exact
    #: projection that ran to completion.  A candidate whose exact walk
    #: was abandoned on a timing conflict is not counted (its
    #: admissibility is never computed).
    timing_rejected: int = 0
    #: Worst |projected - realized| slack disagreement seen post-commit.
    projection_drift: float = 0.0
    #: Batches whose drift exceeded the tolerance and fell back to
    #: re-pricing from the refreshed engine.
    drift_repricings: int = 0
    #: Coloring-sourced cross-supergate swaps committed (class_swaps).
    class_swaps_applied: int = 0
    #: Class candidates that passed the simulation gate into batches.
    class_candidates_verified: int = 0
    #: Class candidates the simulation gate refuted (never batched).
    class_candidates_rejected: int = 0
    #: Wall time of the whole polish run (s).
    runtime_seconds: float = 0.0

    @property
    def improvement_percent(self) -> float:
        if self.initial_hpwl <= 0:
            return 0.0
        return 100.0 * (
            self.initial_hpwl - self.final_hpwl
        ) / self.initial_hpwl


def _hpwl_of(terminals: list[tuple[float, float]]) -> float:
    if len(terminals) < 2:
        return 0.0
    xs = [t[0] for t in terminals]
    ys = [t[1] for t in terminals]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _exchanged(
    terminals: list[tuple[float, float]],
    removed: tuple[float, float],
    added: tuple[float, float],
) -> list[tuple[float, float]]:
    edited = list(terminals)
    edited.remove(removed)
    edited.append(added)
    return edited


@projection_only
def swap_hpwl_delta(
    network: Network, placement: Placement, swap
) -> float:
    """Wirelength change (negative = shorter) of a candidate swap.

    Footprint-only: the affected nets' terminal multisets are edited
    arithmetically, so pricing never mutates the network — no version
    bump, no mutation events into subscribed engines.  The returned
    value is bit-identical to the historical trial-apply-and-revert
    computation (extrema of the same multisets).
    """
    net_a = network.fanin_net(swap.pin_a)
    net_b = network.fanin_net(swap.pin_b)
    if net_a == net_b:
        return 0.0
    loc_a = placement.locations[swap.pin_a.gate]
    loc_b = placement.locations[swap.pin_b.gate]
    terms_a = net_terminals(network, placement, net_a)
    terms_b = net_terminals(network, placement, net_b)
    before = _hpwl_of(terms_a) + _hpwl_of(terms_b)
    after = _hpwl_of(_exchanged(terms_a, loc_a, loc_b)) + _hpwl_of(
        _exchanged(terms_b, loc_b, loc_a)
    )
    return after - before


def swap_bindings(
    network: Network, pin_a: Pin, pin_b: Pin
) -> tuple[tuple[Pin, str], tuple[Pin, str]]:
    """Rebinding view of a non-inverting pin swap (for slack projection)."""
    return (
        (pin_a, network.fanin_net(pin_b)),
        (pin_b, network.fanin_net(pin_a)),
    )


class _TimingGate:
    """Slack guard for wirelength commits, wrapping one timing engine.

    Pins the engine's timing target to the pre-polish critical delay
    when no period is set, so every projected slack is measured
    against the netlist the polish started from.  Collects the
    rejection / drift statistics reported on the result: a candidate
    counts as rejected when the frontier prefilter or a *completed*
    exact projection finds it inadmissible.  An exact walk abandoned
    on a claimed timing neighborhood (see :meth:`verify`) refuses its
    candidate without counting it.
    """

    def __init__(self, engine: TimingEngine, margin: float) -> None:
        engine.refresh()
        if engine.period is None:
            engine.period = engine.max_delay
        self.engine = engine
        self.margin = margin
        #: unique rejected candidates — the fixed-point loop re-scores
        #: (and re-rejects) the same candidate every iteration, so a
        #: plain counter would inflate with the iteration count
        self.rejected_keys: set[tuple] = set()
        self.max_drift = 0.0
        self.repricings = 0

    @property
    def rejected(self) -> int:
        return len(self.rejected_keys)

    def prefilter(self, bindings_batch: list) -> list[bool]:
        """Vectorized frontier projection over the whole candidate set."""
        projections = self.engine.project_swap_slacks(bindings_batch)
        return [p.admissible(self.margin) for p in projections]

    def reject(self, bindings) -> None:
        self.rejected_keys.add(tuple(bindings))

    def verify(self, bindings, stop: AbstractSet[str] = frozenset()):
        """Exact full-cone projection, or ``None`` when refused.

        *stop* holds the timing neighborhoods a selection has already
        claimed; the walk is abandoned once it meets one of them (see
        :meth:`~repro.timing.sta.TimingEngine.project_rebind_bounded`).
        """
        projection = self.engine.project_rebind_bounded(bindings, stop)
        if projection is None:
            return None
        if not projection.admissible(self.margin):
            self.reject(bindings)
            return None
        return projection

    def refold(self, committed: list) -> None:
        """Post-commit ``apply_and_update`` + projected-vs-realized check.

        With pairwise-disjoint ``touched`` sets the projections must
        realize exactly (to float noise); measurable drift means an
        assumption broke, so the batch falls back to re-pricing —
        structurally, the next commit iteration re-scores everything
        from the engine state this refresh just made truthful.
        """
        self.engine.refresh()
        drift = 0.0
        for projection in committed:
            for net, value in projection.projected.items():
                realized = self.engine.slack.get(net)
                if realized is not None:
                    drift = max(drift, abs(realized - value))
        self.max_drift = max(self.max_drift, drift)
        if drift > PROJECTION_DRIFT_TOL:
            self.repricings += 1


def reduce_wirelength(
    network: Network,
    placement: Placement,
    max_passes: int = 4,
    min_gain: float = 1e-9,
    batched: bool = True,
    include_cross: bool = True,
    engine: WirelengthEngine | None = None,
    timing_engine: TimingEngine | None = None,
    slack_margin: float = 0.0,
    class_swaps: bool = False,
) -> WirelengthResult:
    """Shorten estimated wiring by symmetry-based rewiring.

    Only non-inverting swaps and inverter-free cross exchanges are
    used (a move that adds cells is never justified by wirelength
    alone), so the placement is untouched and the gate count constant.
    *batched* selects the vectorized conflict-free path (see module
    docstring); ``batched=False`` runs the serial greedy reference.
    *engine* lets callers reuse a prebuilt
    :class:`~repro.place.hpwl.WirelengthEngine` across runs.

    With *timing_engine* every commit is additionally gated on its
    projected slack neighborhood staying above *slack_margin* (ns)
    relative to the engine's timing target — pinned to the pre-polish
    critical delay when the engine has no explicit period — so the
    default margin of 0.0 guarantees the polish never degrades the
    re-timed delay.  Negative margins permit bounded degradation,
    positive margins keep a safety band.

    *class_swaps* (batched path only, default off) adds the
    whole-netlist coloring candidate source: pins reading structurally
    identical nets (:mod:`repro.symmetry.coloring`) become swap
    candidates the per-supergate enumeration cannot see.  Each is
    verified by simulation
    (:func:`~repro.symmetry.verify.nets_functionally_equal`) before it
    may enter a batch, carries a cone-wide conflict footprint, and is
    considered on the first commit iteration of each pass only —
    trajectories with the knob off are unchanged.
    """
    start = time.perf_counter()
    gate = (
        _TimingGate(timing_engine, slack_margin)
        if timing_engine is not None else None
    )
    if batched:
        result = _reduce_batched(
            network, placement, max_passes, min_gain, include_cross,
            engine, gate, class_swaps,
        )
    else:
        result = _reduce_greedy(
            network, placement, max_passes, min_gain, gate
        )
    result.runtime_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# greedy reference path (the historical trajectory)
# ----------------------------------------------------------------------
def _reduce_greedy(
    network: Network,
    placement: Placement,
    max_passes: int,
    min_gain: float,
    gate: _TimingGate | None,
) -> WirelengthResult:
    initial = total_hpwl(network, placement)
    applied = 0
    passes = 0
    scored = 0
    for _ in range(max_passes):
        passes += 1
        improved = 0
        sgn = extract_supergates(network)
        for sg in sgn.nontrivial():
            for swap in enumerate_swaps(
                sg, leaves_only=True, include_inverting=False,
                network=network,
            ):
                delta = swap_hpwl_delta(network, placement, swap)
                scored += 1
                if delta < -min_gain:
                    if gate is not None and gate.verify(
                        swap_bindings(network, swap.pin_a, swap.pin_b)
                    ) is None:
                        continue
                    apply_swap(network, swap)
                    improved += 1
        applied += improved
        if not improved:
            break
    result = WirelengthResult(
        initial_hpwl=initial,
        final_hpwl=total_hpwl(network, placement),
        swaps_applied=applied,
        passes=passes,
        mode="greedy",
        candidates_scored=scored,
    )
    _attach_timing_stats(result, gate)
    return result


# ----------------------------------------------------------------------
# batched engine path
# ----------------------------------------------------------------------
def _reduce_batched(
    network: Network,
    placement: Placement,
    max_passes: int,
    min_gain: float,
    include_cross: bool,
    engine: WirelengthEngine | None,
    gate: _TimingGate | None,
    class_swaps: bool = False,
) -> WirelengthResult:
    from .engine import SupergateCache

    placement.ensure_covered(network)
    if engine is None:
        engine = WirelengthEngine(network, placement)
    cache = SupergateCache(network)
    initial = engine.total_hpwl()
    leaf_applied = 0
    cross_applied = 0
    klass_applied = 0
    klass_verified = 0
    klass_rejected = 0
    passes = 0
    scored_before = engine.candidates_scored
    for _ in range(max_passes):
        passes += 1
        sgn = cache.get()
        pairs = _leaf_pairs(sgn, network)
        crosses = (
            _pure_crosses(sgn) if include_cross else []
        )
        klass: list[tuple[Pin, Pin, frozenset[str]]] = []
        if class_swaps:
            # re-verified every pass: the premise (identical cone
            # functions) must hold on the *current* netlist
            klass, rejected = verified_class_swaps(network)
            klass_verified += len(klass)
            klass_rejected += rejected
        pass_applied = 0
        first_iteration = True
        while True:
            leaves, crossings, klasses = _commit_batch(
                network, engine, sgn, pairs,
                crosses if first_iteration else [],
                klass if first_iteration else [], min_gain, gate,
            )
            first_iteration = False
            leaf_applied += leaves
            cross_applied += crossings
            klass_applied += klasses
            pass_applied += leaves + crossings + klasses
            if leaves + crossings + klasses == 0:
                break
        if pass_applied == 0:
            break
    result = WirelengthResult(
        initial_hpwl=initial,
        final_hpwl=engine.total_hpwl(),
        swaps_applied=leaf_applied,
        passes=passes,
        mode="batched",
        cross_swaps_applied=cross_applied,
        candidates_scored=engine.candidates_scored - scored_before,
        class_swaps_applied=klass_applied,
        class_candidates_verified=klass_verified,
        class_candidates_rejected=klass_rejected,
    )
    _attach_timing_stats(result, gate)
    return result


def _attach_timing_stats(
    result: WirelengthResult, gate: _TimingGate | None
) -> None:
    if gate is None:
        return
    result.timing_aware = True
    result.slack_margin = gate.margin
    result.timing_rejected = gate.rejected
    result.projection_drift = gate.max_drift
    result.drift_repricings = gate.repricings


def _leaf_pairs(sgn, network: Network) -> list[tuple[str, Pin, Pin]]:
    """Deduplicated, deterministically ordered leaf-swap candidates.

    Supergate iteration follows the partition's insertion order and
    pin pairing follows leaf-extraction order — no set/dict-hash
    iteration anywhere, so the candidate list (and therefore the
    batched trajectory) is ``PYTHONHASHSEED``-independent.  Same-net
    pairs are dropped at the source rather than priced-then-discarded.
    """
    pairs: list[tuple[str, Pin, Pin]] = []
    seen: set[tuple[Pin, Pin]] = set()
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=network
        ):
            key = (swap.pin_a, swap.pin_b)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((sg.root, swap.pin_a, swap.pin_b))
    return pairs


def verified_class_swaps(
    network: Network,
    cap: int = 32,
    coloring=None,
) -> tuple[list[tuple[Pin, Pin, frozenset[str]]], int]:
    """Simulation-verified cross-supergate class-swap candidates.

    Generates class-mate pin pairs from whole-netlist cone coloring
    (:func:`~repro.symmetry.coloring.class_swap_candidates`) and keeps
    only the pairs whose nets a simulation sweep confirms functionally
    identical — the verification gate the differential test harness
    pins down.  Returns ``(candidates, rejected)`` where each
    candidate is ``(pin_a, pin_b, cone-wide footprint)``; applying one
    is a plain ``swap_fanins``, so pricing and slack projection reuse
    the leaf-swap machinery unchanged.
    """
    from ..symmetry.coloring import class_swap_candidates, color_network
    from ..symmetry.verify import nets_functionally_equal

    if coloring is None:
        coloring = color_network(network)
    verified: list[tuple[Pin, Pin, frozenset[str]]] = []
    rejected = 0
    for cand in class_swap_candidates(network, coloring, cap=cap):
        if nets_functionally_equal(network, cand.net_a, cand.net_b):
            verified.append((cand.pin_a, cand.pin_b, cand.footprint))
        else:
            rejected += 1
    return verified, rejected


def _pure_crosses(sgn) -> list[tuple[CrossSwap, list[tuple[Pin, str]]]]:
    """Cross swaps that move wires only (no inverter is ever added)."""
    pure: list[tuple[CrossSwap, list[tuple[Pin, str]]]] = []
    for cross in find_cross_swaps(sgn):
        bindings = cross_swap_bindings(sgn, cross)
        if bindings is not None:
            pure.append((cross, bindings))
    return pure


def _select_batch(
    network: Network,
    engine: WirelengthEngine,
    pairs: list[tuple[str, Pin, Pin]],
    crosses: list[tuple[CrossSwap, list[tuple[Pin, str]]]],
    klass: list[tuple[Pin, Pin, frozenset[str]]],
    min_gain: float,
    gate: _TimingGate | None,
) -> list[tuple[int, object, object, frozenset[str]]]:
    """Score every candidate, select a maximal conflict-free subset.

    Read-only: pricing, slack projection and conflict resolution never
    mutate the network, so a selection computed against a frozen
    replica (a worker's snapshot rebuild) is bit-identical to one
    computed against the live engine — the property the partitioned
    pipeline's concurrent region evaluation rests on.

    Accepted moves may not share a net: each net's bounding box is
    then edited by at most one move, the priced deltas add exactly,
    and total HPWL drops by their sum.  Ties are broken by a
    deterministic canonical key (kind, supergate roots, pins).

    With a timing *gate*, selection is two-phase: candidates are
    filtered by the batched frontier slack projection, the survivors
    verified (in priced order) by the exact full-cone projection, and
    conflict-freedom additionally requires pairwise-disjoint timing
    neighborhoods (``touched``) so the projected slacks of the
    accepted subset realize exactly.  Each exact walk is bounded by
    the neighborhoods already claimed and abandoned on meeting one,
    which refuses exactly the candidates a full walk would refuse.

    Returns ``(kind, payload, projection, footprint)`` per accepted
    move — everything :func:`_apply_batch` and the cross-region
    committer need, and nothing tied to this process (pins, nets and
    projections name gates/nets, so selections pickle across workers).
    """
    deltas = engine.score_swaps(
        [(pin_a, pin_b) for _, pin_a, pin_b in pairs]
    )
    candidates: list[tuple[float, int, tuple, set[str], object, tuple]] = []
    for (root, pin_a, pin_b), delta in zip(pairs, deltas):
        if delta < -min_gain:
            footprint = engine.footprint_nets([pin_a, pin_b])
            candidates.append(
                (delta, 0, (root, pin_a, pin_b), footprint,
                 (pin_a, pin_b),
                 swap_bindings(network, pin_a, pin_b))
            )
    for cross, bindings in crosses:
        delta = engine.rebind_delta(bindings)
        if delta < -min_gain:
            footprint = engine.footprint_nets(
                [pin for pin, _ in bindings]
            ) | {net for _, net in bindings}
            candidates.append(
                (delta, 1,
                 (cross.parent_root, cross.sg1_root, cross.sg2_root),
                 footprint, (cross, bindings), tuple(bindings))
            )
    # coloring-sourced class swaps: priced exactly like leaf swaps
    # (the move *is* a swap_fanins), but carrying the cone-wide
    # footprint that protects their verified functional premise
    klass_deltas = engine.score_swaps(
        [(pin_a, pin_b) for pin_a, pin_b, _ in klass]
    ) if klass else []
    for (pin_a, pin_b, footprint), delta in zip(klass, klass_deltas):
        if delta < -min_gain:
            candidates.append(
                (delta, 2, (pin_a, pin_b), set(footprint),
                 (pin_a, pin_b),
                 swap_bindings(network, pin_a, pin_b))
            )
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    admissible = (
        gate.prefilter([item[5] for item in candidates])
        if gate is not None and candidates else []
    )
    touched: set[str] = set()
    timing_touched: set[str] = set()
    accepted: list[tuple[int, object, object, frozenset[str]]] = []
    for index, (_delta, kind, _key, footprint, payload, bindings) in (
        enumerate(candidates)
    ):
        if footprint & touched:
            continue
        if gate is not None:
            if not admissible[index]:
                gate.reject(bindings)
                continue
            projection = gate.verify(bindings, timing_touched)
            if projection is None:
                continue
            timing_touched |= projection.touched
            accepted.append((kind, payload, projection, frozenset(footprint)))
        else:
            accepted.append((kind, payload, None, frozenset(footprint)))
        touched |= footprint
    return accepted


def _apply_batch(
    network: Network,
    sgn,
    accepted: list[tuple[int, object, object, frozenset[str]]],
) -> tuple[int, int, int]:
    """Commit an accepted selection in order.

    Returns ``(leaves, crosses, class_swaps)``.  The only mutation
    point of the batched path: everything upstream
    (:func:`_select_batch`) is projection-only.  Callers that batch
    multiple selections per timing refold (the partitioned round
    committer) invoke ``gate.refold`` themselves.
    """
    leaves = crossings = klasses = 0
    for kind, payload, _projection, _footprint in accepted:
        if kind == 0:
            pin_a, pin_b = payload
            network.swap_fanins(pin_a, pin_b)
            leaves += 1
        elif kind == 2:
            pin_a, pin_b = payload
            network.swap_fanins(pin_a, pin_b)
            klasses += 1
        else:
            cross, _bindings = payload
            apply_cross_swap(network, sgn, cross)
            crossings += 1
    return leaves, crossings, klasses


def _commit_batch(
    network: Network,
    engine: WirelengthEngine,
    sgn,
    pairs: list[tuple[str, Pin, Pin]],
    crosses: list[tuple[CrossSwap, list[tuple[Pin, str]]]],
    klass: list[tuple[Pin, Pin, frozenset[str]]],
    min_gain: float,
    gate: _TimingGate | None,
) -> tuple[int, int, int]:
    """One select + apply + refold iteration (see :func:`_select_batch`).

    All accepted moves are committed and the engine re-folds once,
    with the drift fallback documented on :class:`_TimingGate`.
    """
    accepted = _select_batch(
        network, engine, pairs, crosses, klass, min_gain, gate
    )
    leaves, crossings, klasses = _apply_batch(network, sgn, accepted)
    if gate is not None and accepted:
        gate.refold([p for _, _, p, _ in accepted if p is not None])
    return leaves, crossings, klasses
