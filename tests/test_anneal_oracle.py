"""The placer's annealer against its ``net_hpwl``-priced oracle.

``repro.place.placer._anneal`` prices moves from per-net terminal
tables and an HPWL cache.  :func:`_reference_anneal` below is the
implementation it replaced: both sides of every move priced with the
interpreted :func:`~repro.place.placement.net_hpwl`.  The two must
make the same accept/reject decision at every step, so ``place``
returns byte-identical coordinates.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.place.placement import Placement, net_hpwl, total_hpwl
from repro.place.placer import place
from repro.synth.mapper import map_network

from helpers import random_network


def _reference_anneal(network, placement: Placement, seed: int, moves: int):
    """Low-temperature pairwise-swap polish, priced with ``net_hpwl``."""
    rng = random.Random(seed)
    names = list(network.gate_names())
    if len(names) < 2:
        return
    nets_of: dict[str, list[str]] = {name: [name] for name in names}
    for gate in network.gates():
        for net in gate.fanins:
            nets_of[gate.name].append(net)
    current = total_hpwl(network, placement)
    temperature = max(current / max(len(names), 1), 1.0)
    for _ in range(moves):
        a, b = rng.sample(names, 2)
        affected = sorted(
            net for net in set(nets_of[a]) | set(nets_of[b])
            if net in placement.locations or network.is_input(net)
        )
        before = sum(
            net_hpwl(network, placement, net) for net in affected
        )
        loc_a, loc_b = placement.locations[a], placement.locations[b]
        placement.locations[a], placement.locations[b] = loc_b, loc_a
        after = sum(net_hpwl(network, placement, net) for net in affected)
        delta = after - before
        if delta > 0 and rng.random() >= math.exp(
            -delta / max(temperature, 1e-9)
        ):
            placement.locations[a], placement.locations[b] = loc_a, loc_b
        temperature *= 0.999


def _network(seed: int, library):
    """Random mapped network with multi-PO nets and a PI driving a PO."""
    rng = random.Random(seed)
    network = random_network(
        seed, num_inputs=6, num_gates=rng.randint(20, 70),
        num_outputs=rng.randint(2, 6),
    )
    # a net listed as several primary outputs gets one pad per listing
    for net in rng.sample(network.outputs, min(2, len(network.outputs))):
        network.add_output(net)
    network.add_output(network.outputs[0])
    # a PI that feeds gates directly and also drives two PO pads
    fed = [net for net in network.inputs if network.fanout(net)]
    pi_out = rng.choice(fed)
    network.add_output(pi_out)
    network.add_output(pi_out)
    map_network(network, library)
    return network


def _coordinates(placement: Placement) -> str:
    return repr(sorted(placement.locations.items()))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("moves", [1, 50, 1500])
def test_anneal_matches_net_hpwl_oracle(seed, moves, library):
    network = _network(seed, library)
    assert any(
        network.is_input(net) and network.fanout(net)
        for net in network.outputs
    ), "fixture must keep a PI that feeds gates and drives PO pads"
    assert len(network.outputs) > len(set(network.outputs))
    place_seed = 3 * seed + moves
    expected = place(network, library, seed=place_seed, anneal_moves=0)
    _reference_anneal(network, expected, seed=place_seed, moves=moves)
    annealed = place(
        network, library, seed=place_seed, anneal_moves=moves
    )
    assert _coordinates(annealed) == _coordinates(expected)
    assert annealed.input_pads == expected.input_pads
    assert annealed.output_pads == expected.output_pads


def test_anneal_oracle_moves_cells(library):
    # the comparison above means something only if moves are accepted
    network = _network(11, library)
    legal = place(network, library, seed=2, anneal_moves=0)
    annealed = place(network, library, seed=2, anneal_moves=1500)
    assert _coordinates(annealed) != _coordinates(legal)
    assert total_hpwl(network, annealed) < total_hpwl(network, legal)
