"""Independent output checker for the flow benchmark.

Nothing here reuses the program's simulators: the reference simulator
below evaluates the ten gate types bit-parallel over Python integers,
reading the netlist only through ``Network``'s public API (``inputs``,
``outputs``, ``topo_order``, ``gate``).  The only program component
the checker calls is a *fresh* ``TimingEngine``, to re-time the
returned netlist and compare it with the delay the flow reported.

Every check returns a list of failure messages; an empty list means
the operation passed.
"""

from __future__ import annotations

import random

from repro.network.gatetype import GateType
from repro.timing.sta import TimingEngine

#: Random patterns simulated per equivalence check (one Python int
#: per net holds all of them).
PATTERNS = 2048

#: Tolerance for delay comparisons (ns).
DELAY_TOL = 1e-9


def _reduce(op, words: list[int]) -> int:
    value = words[0]
    for word in words[1:]:
        value = op(value, word)
    return value


def simulate(network, stimulus: dict[str, int], mask: int) -> list[int]:
    """Primary-output words of *network* under bit-parallel *stimulus*."""
    values = dict(stimulus)
    for name in network.topo_order():
        gate = network.gate(name)
        gtype = gate.gtype
        words = [values[net] for net in gate.fanins]
        if gtype in (GateType.AND, GateType.NAND):
            value = _reduce(int.__and__, words)
        elif gtype in (GateType.OR, GateType.NOR):
            value = _reduce(int.__or__, words)
        elif gtype in (GateType.XOR, GateType.XNOR):
            value = _reduce(int.__xor__, words)
        elif gtype in (GateType.BUF, GateType.INV):
            value = words[0]
        elif gtype is GateType.CONST0:
            value = 0
        elif gtype is GateType.CONST1:
            value = mask
        else:
            raise ValueError(f"gate {name!r}: unsupported type {gtype!r}")
        if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.INV):
            value = ~value & mask
        values[name] = value
    return [values[net] for net in network.outputs]


def equivalence_failures(before, after, seed: int) -> list[str]:
    """Compare primary outputs of *before* and *after* on random patterns."""
    if list(before.inputs) != list(after.inputs):
        return ["primary inputs differ"]
    if len(before.outputs) != len(after.outputs):
        return ["primary output count differs"]
    rng = random.Random(seed)
    mask = (1 << PATTERNS) - 1
    stimulus = {net: rng.getrandbits(PATTERNS) for net in before.inputs}
    failures = []
    for index, (old, new) in enumerate(
        zip(simulate(before, stimulus, mask), simulate(after, stimulus, mask))
    ):
        if old != new:
            failures.append(
                f"output {index} ({before.outputs[index]}) differs on "
                f"{bin(old ^ new).count('1')} of {PATTERNS} patterns"
            )
    return failures


def placement_failures(before_net, before_pl, after_pl) -> list[str]:
    """Every cell of the input keeps its location (rewiring moves none)."""
    moved = [
        name for name in before_net.gate_names()
        if after_pl.locations.get(name) != before_pl.locations.get(name)
    ]
    if moved:
        return [f"{len(moved)} cells moved (first: {moved[0]})"]
    return []


def cell_failures(before_net, after_net) -> list[str]:
    """Every gate of the input keeps its library cell (no resizing)."""
    resized = [
        name for name in before_net.gate_names()
        if name in after_net and after_net.gate(name).cell
        != before_net.gate(name).cell
    ]
    if resized:
        return [f"{len(resized)} cells resized (first: {resized[0]})"]
    return []


def delay_failures(
    network, placement, library, initial: float, reported: float
) -> list[str]:
    """Delay never rises, and a fresh re-time matches the report."""
    failures = []
    if reported > initial + DELAY_TOL:
        failures.append(f"delay rose: {initial!r} -> {reported!r}")
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    if abs(engine.max_delay - reported) > DELAY_TOL:
        failures.append(
            f"fresh re-time {engine.max_delay!r} != reported {reported!r}"
        )
    return failures
