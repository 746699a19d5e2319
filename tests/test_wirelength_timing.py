"""Timing-aware wirelength rewiring: slack projections and guard bands.

Covers the cross-layer contract between
:meth:`repro.timing.sta.TimingEngine.project_swap_slacks` and the
batched committer in :mod:`repro.rapids.wirelength`:

* exact projections realize bit-near-identically (1e-9) once the swap
  batch is committed and the engine re-folds incrementally;
* the guard band rejects wire-motivated swaps that would eat critical
  slack at margin 0 and admits them again at a negative margin;
* a larger guard band always admits a subset of the moves a smaller
  one admits (monotonicity);
* the conflict-bounded exact walk returns ``None`` exactly when the
  unbounded projection's ``touched`` meets its stop set, and the
  unbounded projection otherwise;
* the Table-1 flow runs the slack-guarded polish by default.
"""

import random

import pytest

from repro.network.builder import NetworkBuilder
from repro.network.netlist import Pin
from repro.place.placement import Placement
from repro.place.placer import place
from repro.rapids.engine import run_rapids
from repro.rapids.wirelength import (
    _pure_crosses,
    reduce_wirelength,
    swap_bindings,
)
from repro.suite.flow import FlowConfig
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import enumerate_swaps
from repro.synth.mapper import map_network
from repro.timing.sta import TimingEngine
from repro.verify.equiv import networks_equivalent

from helpers import random_network


def _prepared(seed, library, gates=60):
    net = random_network(seed, num_gates=gates, num_outputs=4)
    map_network(net, library)
    placement = place(net, library, seed=seed, anneal_moves=2000)
    return net, placement


def _pinned_engine(network, placement, library) -> TimingEngine:
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    engine.period = engine.max_delay
    return engine


def _leaf_swap_bindings(network):
    """All non-inverting leaf-swap candidates as rebinding tuples."""
    sgn = extract_supergates(network)
    bindings = []
    for sg in sgn.nontrivial():
        for swap in enumerate_swaps(
            sg, leaves_only=True, include_inverting=False, network=network
        ):
            bindings.append(
                swap_bindings(network, swap.pin_a, swap.pin_b)
            )
    return bindings


# ----------------------------------------------------------------------
# a hand-built circuit where the best wirelength swap eats critical slack
# ----------------------------------------------------------------------
def _critical_tradeoff_case():
    """Wire-improving swap on the critical path: HPWL -30 um, delay up.

    ``root = AND(inner, c)`` with ``inner = AND(a, b)`` makes pins
    ``a`` (on inner) and ``c`` (on root) non-inverting swappable.  Net
    ``a`` also feeds ``tap`` whose output pad sits far away — the
    critical path.  Swapping moves net a's other sink from ``inner``
    (y=50) to ``root`` (y=80): net a's bounding box is unchanged (the
    sink is interior) but its star center drifts from the source, so
    the Elmore delay to the critical ``tap`` sink grows; net c
    meanwhile shrinks from 35 um to 5 um.  Total HPWL improves while
    the critical path slows — exactly what the margin-0 guard must
    reject and a sufficiently negative margin must re-admit.
    """
    builder = NetworkBuilder("tradeoff")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    inner = builder.and_(a, b, name="inner")
    root = builder.and_(inner, c, name="root")
    tap = builder.buf(a, name="tap")
    builder.output(root)
    builder.output(tap)
    network = builder.build()
    placement = Placement(
        die_width=200.0,
        die_height=600.0,
        locations={
            "inner": (0.0, 50.0),
            "root": (0.0, 80.0),
            "tap": (0.0, 100.0),
        },
        input_pads={
            "a": (0.0, 0.0),
            "b": (0.0, 50.0),
            "c": (0.0, 45.0),
        },
        output_pads={
            0: (0.0, 80.0),     # root's pad, right at the gate
            1: (0.0, 500.0),    # tap's pad, far: the critical path
        },
    )
    return network, placement


def test_critical_path_swap_rejected_at_margin_zero(library):
    network, placement = _critical_tradeoff_case()
    engine = _pinned_engine(network, placement, library)
    # precondition: the projection itself sees the trade-off
    bindings = _leaf_swap_bindings(network)
    improving = [
        binding for binding in bindings
        if _hpwl_delta(network, placement, binding) < -1e-9
    ]
    assert improving, "construction lost its wirelength-improving swap"
    projection = engine.project_swap_slacks(improving, exact=True)[0]
    assert projection.projected_min < -1e-12, (
        "construction lost its critical-path degradation"
    )

    reference = network.copy()
    result = reduce_wirelength(
        network, placement, timing_engine=engine, slack_margin=0.0,
    )
    assert result.timing_aware
    assert result.swaps_applied == 0 and result.cross_swaps_applied == 0
    assert result.timing_rejected >= 1
    assert result.final_hpwl == pytest.approx(result.initial_hpwl)
    assert networks_equivalent(reference, network)


def test_critical_path_swap_accepted_at_negative_margin(library):
    network, placement = _critical_tradeoff_case()
    reference = network.copy()
    engine = _pinned_engine(network, placement, library)
    baseline_delay = engine.max_delay
    result = reduce_wirelength(
        network, placement, timing_engine=engine, slack_margin=-1.0,
    )
    assert result.swaps_applied >= 1
    assert result.final_hpwl < result.initial_hpwl - 1e-9
    assert networks_equivalent(reference, network)
    # the admitted swap really did spend delay for wire
    retimed = TimingEngine(network, placement, library)
    retimed.analyze()
    assert retimed.max_delay > baseline_delay + 1e-12
    assert retimed.max_delay <= baseline_delay + 1.0 + 1e-9


def _hpwl_delta(network, placement, binding):
    from repro.rapids.wirelength import swap_hpwl_delta
    from repro.symmetry.swap import PinSwap

    (pin_a, _), (pin_b, _) = binding
    return swap_hpwl_delta(
        network, placement,
        PinSwap(root="", pin_a=pin_a, pin_b=pin_b, inverting=False),
    )


# ----------------------------------------------------------------------
# projected == applied under random swap batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 7, 11, 19])
def test_projected_slacks_agree_with_applied(seed, library):
    """Exact batch projections realize to 1e-9 after the re-fold.

    Builds random conflict-free batches (pairwise-disjoint ``touched``
    sets — the committer's rule), applies them, lets the engine update
    incrementally, and compares every projected slack with the
    engine's realized value.
    """
    network, placement = _prepared(seed, library)
    engine = _pinned_engine(network, placement, library)
    bindings = _leaf_swap_bindings(network)
    if not bindings:
        pytest.skip("no leaf-swap candidates on this seed")
    checked = 0
    while bindings and checked < 3:
        projections = engine.project_swap_slacks(bindings, exact=True)
        touched: set[str] = set()
        batch = []
        for binding, projection in zip(bindings, projections):
            if projection.touched & touched:
                continue
            touched |= projection.touched
            batch.append((binding, projection))
        for (pin_a, _), (pin_b, _) in (b for b, _ in batch):
            network.swap_fanins(pin_a, pin_b)
        engine.refresh()
        for _binding, projection in batch:
            for net, projected in projection.projected.items():
                assert engine.slack[net] == pytest.approx(
                    projected, abs=1e-9
                ), (seed, net)
        checked += 1
        # recompute candidates against the new wiring for the next round
        bindings = _leaf_swap_bindings(network)


def test_fast_projection_matches_scalar_fallback(library, monkeypatch):
    """The one-numpy-pass star rebinding equals the build_star fallback."""
    import repro.timing.sta as sta

    network, placement = _prepared(5, library)
    engine = _pinned_engine(network, placement, library)
    bindings = _leaf_swap_bindings(network)
    assert bindings
    vectorized = engine.project_swap_slacks(bindings)
    monkeypatch.setattr(sta, "_np", None)
    scalar = engine.project_swap_slacks(bindings)
    for fast, slow in zip(vectorized, scalar):
        assert set(fast.projected) == set(slow.projected)
        for net in fast.projected:
            assert fast.projected[net] == pytest.approx(
                slow.projected[net], abs=1e-12
            )


# ----------------------------------------------------------------------
# the conflict-bounded exact walk
# ----------------------------------------------------------------------
def _random_placement(network, library, rng) -> Placement:
    """Pads from the placer, cells scattered uniformly over the die."""
    placement = place(network, library, seed=rng.randrange(100))
    for name in sorted(placement.locations):
        placement.locations[name] = (
            rng.uniform(0.0, placement.die_width),
            rng.uniform(0.0, placement.die_height),
        )
    return placement


def _random_bindings(network, rng, count):
    """Leaf swaps, cross exchanges, PI rebindings and no-op bindings."""
    candidates = list(_leaf_swap_bindings(network))
    candidates += [
        tuple(bindings)
        for _cross, bindings in _pure_crosses(extract_supergates(network))
    ]
    pins = [
        Pin(name, index)
        for name in sorted(network.gate_names())
        for index in range(len(network.gate(name).fanins))
    ]
    for _ in range(count):
        pin = rng.choice(pins)
        # rebinding to a primary input can never close a cycle
        candidates.append(((pin, rng.choice(network.inputs)),))
    candidates.append(((pins[0], network.fanin_net(pins[0])),))
    rng.shuffle(candidates)
    return candidates[:count]


def _random_stops(projection, nets, rng):
    touched = sorted(projection.touched)
    outside = [net for net in nets if net not in projection.touched]
    stops = [frozenset(), set(rng.sample(nets, min(3, len(nets))))]
    if touched:
        stops.append({rng.choice(touched)})
        stops.append(set(rng.sample(touched, (len(touched) + 1) // 2)))
        stops.append({touched[0], touched[-1]} | set(outside[:2]))
    if outside:
        stops.append(set(rng.sample(outside, (len(outside) + 1) // 2)))
    return stops


@pytest.mark.parametrize("seed", range(6))
def test_bounded_projection_matches_unbounded(seed, library):
    """``None`` exactly when ``touched`` meets *stop*, else identical."""
    rng = random.Random(seed)
    network = random_network(
        100 + seed, num_inputs=6, num_gates=rng.randint(30, 70),
        num_outputs=rng.randint(2, 5),
    )
    map_network(network, library)
    placement = _random_placement(network, library, rng)
    engine = _pinned_engine(network, placement, library)
    nets = sorted(network.nets())
    bindings = _random_bindings(network, rng, 30)
    unbounded = engine.project_swap_slacks(bindings, exact=True)
    aborted = completed = 0
    for binding, full in zip(bindings, unbounded):
        for stop in _random_stops(full, nets, rng):
            bounded = engine.project_rebind_bounded(binding, stop)
            if full.touched & stop:
                assert bounded is None, (binding, sorted(stop))
                aborted += 1
            else:
                assert bounded == full, (binding, sorted(stop))
                completed += 1
    assert aborted and completed


# ----------------------------------------------------------------------
# guard-band monotonicity
# ----------------------------------------------------------------------
def test_guard_band_monotone(library):
    """A larger margin admits a subset of what a smaller margin admits."""
    network, placement = _prepared(13, library)
    engine = _pinned_engine(network, placement, library)
    bindings = _leaf_swap_bindings(network)
    assert bindings
    projections = engine.project_swap_slacks(bindings, exact=True)
    margins = [-0.5, -0.1, 0.0, 0.05, 0.2]
    admitted = [
        {index for index, p in enumerate(projections) if p.admissible(m)}
        for m in margins
    ]
    for smaller, larger in zip(admitted, admitted[1:]):
        assert larger <= smaller
    assert admitted[0]  # a deeply negative margin admits everything left


def test_timing_aware_polish_never_degrades_delay(library):
    for seed in (22, 23, 24, 31):
        network, placement = _prepared(seed, library, gates=80)
        reference = network.copy()
        engine = _pinned_engine(network, placement, library)
        baseline_delay = engine.max_delay
        result = reduce_wirelength(
            network, placement, timing_engine=engine,
        )
        assert networks_equivalent(reference, network), seed
        assert result.projection_drift <= 1e-9, seed
        retimed = TimingEngine(network, placement, library)
        retimed.analyze()
        assert retimed.max_delay <= baseline_delay + 1e-9, seed


def test_greedy_path_honors_the_guard(library):
    network, placement = _critical_tradeoff_case()
    engine = _pinned_engine(network, placement, library)
    result = reduce_wirelength(
        network, placement, batched=False, timing_engine=engine,
    )
    assert result.mode == "greedy"
    assert result.timing_aware
    assert result.swaps_applied == 0
    assert result.timing_rejected >= 1


# ----------------------------------------------------------------------
# flow plumbing
# ----------------------------------------------------------------------
def test_table1_flow_defaults_to_guarded_polish():
    config = FlowConfig()
    assert config.wl_passes == 1
    assert config.wl_timing_aware is True
    assert config.wl_slack_margin == 0.0


def test_run_rapids_reports_guarded_wirelength(library):
    net, placement = _prepared(17, library, gates=45)
    reference = net.copy()
    result = run_rapids(
        net, placement, library, mode="gsg", wl_passes=1,
        check_equivalence=True,
    )
    assert result.equivalent is True
    assert result.wirelength is not None
    assert result.wirelength.timing_aware is True
    assert result.wirelength.projection_drift <= 1e-9
    assert networks_equivalent(reference, net)
    # the reported delay describes the polished netlist
    retimed = TimingEngine(net, placement, library)
    retimed.analyze()
    assert result.optimize.final_delay == pytest.approx(
        retimed.max_delay, abs=1e-9
    )
