"""Wirelength-driven placer: recursive FM bisection plus legalization.

Substitute for the paper's "commercial timing-driven placer".  The
pipeline is the classic late-90s recipe:

1. recursive min-cut bisection of the cell hypergraph (FM refinement at
   every level, alternating cut directions) assigns every cell a die
   region;
2. region-ordered legalization packs cells into standard-cell rows;
3. an optional low-temperature annealing pass polishes HPWL with
   pairwise swaps (seeded, deterministic).

Net weights bias the cut toward keeping timing-critical nets short,
which is all the "timing-driven" part of a min-cut placer amounts to.
"""

from __future__ import annotations

import math
import random

from ..library.cells import Library, ROW_HEIGHT_UM
from ..network.netlist import Network
from .fm import bipartition
from .placement import Placement, die_for, output_pad_points, total_hpwl

#: Opt-in to the determinism lint (rule D of ``python -m tools.lint``):
#: this module's float accumulations and tie-breaks must never follow
#: set-iteration (= PYTHONHASHSEED) order.
__deterministic__ = True


def place(
    network: Network,
    library: Library,
    seed: int = 0,
    net_weights: dict[str, float] | None = None,
    anneal_moves: int = 0,
    utilization: float = 0.60,
) -> Placement:
    """Place a mapped network; returns coordinates for every gate.

    ``anneal_moves`` > 0 enables the annealing polish with that move
    budget (useful for small designs and tests; the Table 1 flow leaves
    it off for speed, as bisection quality suffices for delay trends).
    """
    die_width, die_height = die_for(network, library, utilization)
    placement = Placement(die_width=die_width, die_height=die_height)
    _place_pads(network, placement)
    names = list(network.gate_names())
    if not names:
        return placement
    regions = _recursive_bisect(
        network, library, names, seed, net_weights
    )
    _legalize(network, library, placement, names, regions)
    if anneal_moves > 0:
        _anneal(network, placement, seed=seed, moves=anneal_moves)
    return placement


def _place_pads(network: Network, placement: Placement) -> None:
    """Input pads on the left/top edge, output pads on the right edge."""
    width, height = placement.die_width, placement.die_height
    num_inputs = max(len(network.inputs), 1)
    for index, net in enumerate(network.inputs):
        fraction = (index + 0.5) / num_inputs
        if fraction < 0.75:
            placement.input_pads[net] = (0.0, height * fraction / 0.75)
        else:
            placement.input_pads[net] = (
                width * (fraction - 0.75) / 0.25, height,
            )
    num_outputs = max(len(network.outputs), 1)
    for index in range(len(network.outputs)):
        fraction = (index + 0.5) / num_outputs
        placement.output_pads[index] = (width, height * fraction)


def _recursive_bisect(
    network: Network,
    library: Library,
    names: list[str],
    seed: int,
    net_weights: dict[str, float] | None,
) -> dict[str, tuple[float, float]]:
    """Assign every gate a normalized (x, y) region center in [0, 1]^2."""
    index_of = {name: i for i, name in enumerate(names)}
    weights = []
    for name in names:
        gate = network.gate(name)
        if gate.cell is not None:
            weights.append(library.cell(gate.cell).area)
        else:
            weights.append(ROW_HEIGHT_UM)
    hyperedges: list[list[int]] = []
    edge_weight: list[float] = []
    for net in network.nets():
        members = set()
        if net in index_of:
            members.add(index_of[net])
        for pin in network.fanout(net):
            members.add(index_of[pin.gate])
        if len(members) > 1:
            hyperedges.append(sorted(members))
            weight = (net_weights or {}).get(net, 1.0)
            edge_weight.append(weight)
    # weighted nets are replicated (integer weight) so FM favours them
    weighted_edges: list[list[int]] = []
    for edge, weight in zip(hyperedges, edge_weight):
        copies = max(1, min(4, round(weight)))
        weighted_edges.extend([edge] * copies)

    regions: dict[str, tuple[float, float]] = {}

    def split(
        cell_ids: list[int],
        x0: float, y0: float, x1: float, y1: float,
        vertical: bool,
        level: int,
    ) -> None:
        if len(cell_ids) <= 4 or level > 24:
            for rank, cell_id in enumerate(sorted(cell_ids)):
                offset = (rank + 0.5) / max(len(cell_ids), 1)
                regions[names[cell_id]] = (
                    x0 + (x1 - x0) * offset,
                    (y0 + y1) / 2.0,
                )
            return
        id_set = set(cell_ids)
        local_index = {cell: i for i, cell in enumerate(cell_ids)}
        local_nets = []
        for edge in weighted_edges:
            local = [local_index[c] for c in edge if c in id_set]
            if len(local) > 1:
                local_nets.append(local)
        local_weights = [weights[c] for c in cell_ids]
        result = bipartition(
            len(cell_ids), local_nets, local_weights,
            seed=seed + level * 7919 + len(cell_ids),
        )
        left = [c for c, s in zip(cell_ids, result.side) if s == 0]
        right = [c for c, s in zip(cell_ids, result.side) if s == 1]
        if not left or not right:
            half = len(cell_ids) // 2
            left, right = cell_ids[:half], cell_ids[half:]
        if vertical:
            xm = (x0 + x1) / 2.0
            split(left, x0, y0, xm, y1, False, level + 1)
            split(right, xm, y0, x1, y1, False, level + 1)
        else:
            ym = (y0 + y1) / 2.0
            split(left, x0, y0, x1, ym, True, level + 1)
            split(right, x0, ym, x1, y1, True, level + 1)

    split(list(range(len(names))), 0.0, 0.0, 1.0, 1.0, True, 0)
    return regions


def _legalize(
    network: Network,
    library: Library,
    placement: Placement,
    names: list[str],
    regions: dict[str, tuple[float, float]],
) -> None:
    """Pack cells into rows following their region assignment."""
    num_rows = max(2, int(placement.die_height / ROW_HEIGHT_UM))
    rows: list[list[str]] = [[] for _ in range(num_rows)]
    for name in names:
        rx, ry = regions[name]
        row = min(num_rows - 1, int(ry * num_rows))
        rows[row].append(name)
    for row_index, row in enumerate(rows):
        row.sort(key=lambda name: regions[name][0])
        y = (row_index + 0.5) * ROW_HEIGHT_UM
        widths = []
        for name in row:
            gate = network.gate(name)
            if gate.cell is not None:
                widths.append(library.cell(gate.cell).width)
            else:
                widths.append(1.0)
        used = sum(widths)
        # pack tightly (small routing gap), centering the row block:
        # spreading cells across all whitespace would triple wirelength
        gap = min(
            2.0,
            max(0.0, (placement.die_width - used) / (len(row) + 1)),
        )
        block = used + gap * (len(row) + 1)
        x = max(0.0, (placement.die_width - block) / 2.0) + gap
        for name, width in zip(row, widths):
            # clamp overfull rows to the die; slight overlap is an
            # accepted abstraction (the timing model only needs
            # coordinates, not DRC-clean rows)
            center = min(x + width / 2.0, placement.die_width)
            placement.set_location(name, center, y)
            x += width + gap


def _anneal(
    network: Network,
    placement: Placement,
    seed: int,
    moves: int,
) -> None:
    """Low-temperature pairwise-swap polish of the legal placement.

    Connectivity is frozen while annealing, so every net's terminals
    are resolved once (:func:`_terminal_table`) and each net's HPWL is
    cached: a step prices only the *after* side of its move and
    commits those values to the cache when the move is accepted.  The
    cached values are exactly what :func:`net_hpwl` returns for the
    current placement, so every accept/reject decision matches
    pricing both sides with :func:`net_hpwl`.
    """
    rng = random.Random(seed)
    names = list(network.gate_names())
    if len(names) < 2:
        return
    locations = placement.locations
    nets_of: dict[str, list[str]] = {name: [name] for name in names}
    for gate in network.gates():
        for net in gate.fanins:
            nets_of[gate.name].append(net)
    pads = output_pad_points(network, placement)
    tables: dict[str, tuple[list, list[str], list]] = {}
    for nets in nets_of.values():
        for net in nets:
            if net not in tables and (
                net in locations or network.is_input(net)
            ):
                tables[net] = _terminal_table(network, placement, net, pads)
    affects = {
        name: {net for net in nets if net in tables}
        for name, nets in nets_of.items()
    }

    def hpwl(net: str) -> float:
        head, gates, tail = tables[net]
        terminals = head + [locations[gate] for gate in gates] + tail
        if len(terminals) < 2:
            return 0.0
        xs = [t[0] for t in terminals]
        ys = [t[1] for t in terminals]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    cached = {net: hpwl(net) for net in tables}
    current = total_hpwl(network, placement)
    temperature = max(current / max(len(names), 1), 1.0)
    for _ in range(moves):
        a, b = rng.sample(names, 2)
        # sorted: HPWL deltas are float sums, and summing in set
        # iteration order would make accept/reject decisions (and the
        # whole trajectory) depend on PYTHONHASHSEED
        affected = sorted(affects[a] | affects[b])
        before = sum(cached[net] for net in affected)
        loc_a, loc_b = locations[a], locations[b]
        locations[a], locations[b] = loc_b, loc_a
        after_values = [hpwl(net) for net in affected]
        delta = sum(after_values) - before
        if delta > 0 and rng.random() >= math.exp(
            -delta / max(temperature, 1e-9)
        ):
            locations[a], locations[b] = loc_a, loc_b
        else:
            cached.update(zip(affected, after_values))
        temperature *= 0.999


def _terminal_table(
    network: Network,
    placement: Placement,
    net: str,
    pads: dict[str, list[tuple[float, float]]],
) -> tuple[list, list[str], list]:
    """A net's terminals in :func:`net_terminals` order, split by kind.

    Returns ``(head, gates, tail)``: the input pad of a PI-driven net
    (else empty), the gates whose locations are terminals (the driver
    first, then one per fanout pin), and the output pads.  Joined with
    the gates' current locations they list exactly the coordinates
    :func:`net_terminals` returns.
    """
    gates = [pin.gate for pin in network.fanout(net)]
    if network.is_input(net):
        return [placement.input_pads[net]], gates, pads.get(net, [])
    return [], [net] + gates, pads.get(net, [])
