"""The cut-point-sweeping BDD equivalence check against its oracle.

``repro.verify.equiv._bdd_equivalent`` shares one budgeted BDD manager
per check: it sweeps the nets the two networks share, turns each net
whose BDDs agree into a cut variable, and composes those variables back
on a mismatch.  The oracle below is the per-output check it replaced —
a fresh manager per dirty output over the clean cut, then a full-input
comparison — kept here as the reference the sweep must match.

Pairs come from random networks and generated benchmarks, mutated by
legal supergate swaps (both kinds; the network stays equivalent) and
by gate-type flips or cross-gate pin swaps (which usually break it).
The sweep must give the oracle's answer on every pair, never fall back
to full-input BDDs more often than the oracle does, and do both with
its node budget cut so small that the per-output path runs.
"""

from __future__ import annotations

import random

import pytest

import repro.verify.equiv as equiv
from repro.library.cells import default_library
from repro.network.gatetype import GateType
from repro.network.netlist import Network, NetworkError, Pin
from repro.suite.flow import FlowConfig, run_benchmark
from repro.suite.registry import build_benchmark
from repro.symmetry.supergate import extract_supergates
from repro.symmetry.swap import apply_swap, enumerate_swaps
from repro.verify.equiv import find_counterexample

from helpers import random_network


def oracle_bdd_equivalent(before: Network, after: Network) -> bool:
    """Per-output reference: fresh manager per dirty output, clean cut
    first, then the full-input comparison.  ``BddManager`` and
    ``network_bdds`` are read from ``repro.verify.equiv`` at call time,
    so a counter patched there sees the oracle's calls too."""
    clean = equiv._clean_nets(before, after)
    for old, new in zip(before.outputs, after.outputs):
        if old == new and (old in clean or before.is_input(old)):
            continue
        manager = equiv.BddManager()
        if equiv._cut_cone_bdd(
            before, manager, old, clean
        ) == equiv._cut_cone_bdd(after, manager, new, clean):
            continue
        full = equiv.BddManager(list(before.inputs))
        _, funcs_before = equiv.network_bdds(before, manager=full, nets=[old])
        _, funcs_after = equiv.network_bdds(after, manager=full, nets=[new])
        if funcs_before[old] != funcs_after[new]:
            return False
    return True


_FLIPS = {
    GateType.AND: GateType.OR,
    GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR,
    GateType.NOR: GateType.NAND,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
}


def _legal_swap(network: Network, rng: random.Random) -> None:
    """Apply one random function-preserving supergate swap, if any."""
    sgn = extract_supergates(network)
    swaps = [
        swap
        for root in sorted(sgn.supergates)
        for swap in enumerate_swaps(
            sgn.supergates[root], leaves_only=False, network=network
        )
    ]
    if swaps:
        apply_swap(network, rng.choice(swaps))


def _breaking_change(network: Network, rng: random.Random) -> None:
    """Flip one gate's type, or exchange two pins of different gates."""
    gates = [gate for gate in network.gates() if gate.fanins]
    if rng.random() < 0.5:
        flippable = [gate for gate in gates if gate.gtype in _FLIPS]
        if flippable:
            gate = rng.choice(flippable)
            network.set_gate_type(gate.name, _FLIPS[gate.gtype])
        return
    for _ in range(10):
        gate_a, gate_b = rng.sample(gates, 2)
        pin_a = Pin(gate_a.name, rng.randrange(len(gate_a.fanins)))
        pin_b = Pin(gate_b.name, rng.randrange(len(gate_b.fanins)))
        network.swap_fanins(pin_a, pin_b)
        try:
            network.topo_order()
            return
        except NetworkError:  # the exchange closed a cycle: undo it
            network.swap_fanins(pin_a, pin_b)


def _mutated(network: Network, rng: random.Random) -> Network:
    after = network.copy()
    for _ in range(rng.randint(1, 3)):
        _legal_swap(after, rng)
    if rng.random() < 0.5:
        _breaking_change(after, rng)
        _legal_swap(after, rng)
    return after


def _random_pairs(count: int):
    rng = random.Random(1)
    for seed in range(count):
        before = random_network(
            seed, num_inputs=8, num_gates=rng.randint(20, 40),
            num_outputs=4,
        )
        yield before, _mutated(before, rng)


def _benchmark_pairs(per_circuit: int):
    rng = random.Random(2)
    for name in ("alu2", "c432", "k2"):
        before = build_benchmark(name, scale=0.35)
        for _ in range(per_circuit):
            yield before, _mutated(before, rng)


@pytest.fixture
def fallbacks(monkeypatch):
    """Count full-input ``network_bdds`` calls made through the module."""
    calls = [0]
    real = equiv.network_bdds

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(equiv, "network_bdds", counting)
    return calls


def _agrees_with_oracle(pairs, fallbacks) -> list[bool]:
    verdicts = []
    for before, after in pairs:
        fallbacks[0] = 0
        expected = oracle_bdd_equivalent(before, after)
        oracle_fallbacks = fallbacks[0]
        fallbacks[0] = 0
        assert equiv._bdd_equivalent(before, after) == expected
        assert fallbacks[0] <= oracle_fallbacks
        verdicts.append(expected)
    return verdicts


@pytest.mark.parametrize("limit", [None, 60, 3])
def test_sweep_matches_oracle_on_random_networks(monkeypatch, fallbacks, limit):
    if limit is not None:
        monkeypatch.setattr(equiv, "SWEEP_NODE_LIMIT", limit)
    pairs = list(_random_pairs(120))
    verdicts = _agrees_with_oracle(pairs, fallbacks)
    # the oracle itself is exact: check it against exhaustive search
    for (before, after), verdict in zip(pairs, verdicts):
        assert verdict == (find_counterexample(before, after) is None)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("limit", [None, 3])
def test_sweep_matches_oracle_on_benchmarks(monkeypatch, fallbacks, limit):
    if limit is not None:
        monkeypatch.setattr(equiv, "SWEEP_NODE_LIMIT", limit)
    verdicts = _agrees_with_oracle(_benchmark_pairs(15), fallbacks)
    assert 0 < sum(verdicts) < len(verdicts)


def test_c499_check_stays_within_node_budget(monkeypatch):
    """Work units of one whole-row check: the c499 gsg row at scale
    0.35 verifies through the BDD path (41 inputs) with at most 50k BDD
    nodes summed over every manager it creates; one manager per dirty
    output built about 195k nodes for each of them."""
    managers = []
    real = equiv.BddManager

    def recording(*args, **kwargs):
        manager = real(*args, **kwargs)
        managers.append(manager)
        return manager

    monkeypatch.setattr(equiv, "BddManager", recording)
    config = FlowConfig(scale=0.35, modes=("gsg",), check_equivalence=True)
    outcome = run_benchmark("c499", config, default_library())
    assert outcome.results["gsg"].equivalent is True
    assert managers
    assert sum(len(manager) - 2 for manager in managers) <= 50_000
