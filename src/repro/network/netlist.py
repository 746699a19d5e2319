"""Mapped Boolean network: a DAG of single-output gates.

Section 2.0 of the paper models the circuit as a directed acyclic graph
whose vertices are logic gates and whose edges are interconnects.  Every
gate has in-pins and a single out-pin, and "we do not distinguish
between the name of the gate and its out-pin" — the same convention is
used here: the *net* driven by gate ``g`` is simply named ``g``.
Primary inputs are nets with no driving gate.

The structure is deliberately string-keyed: a pin is the pair
``(gate name, fanin index)``, and rewiring operations are nothing more
than assignments into ``Gate.fanins``.  A monotonically increasing
``version`` counter lets analyses (fanout maps, topological orders,
timing graphs) cache against a network snapshot and detect staleness.

Incremental analyses additionally need to know *what* changed, not
just *that* something changed: every mutating method therefore emits a
typed mutation event to subscribed listeners (held weakly, so a
forgotten engine never leaks).  Event kinds and operand schemas are
declared once in :mod:`repro.network.events`; emission sites here pass
those constants and are statically checked against the registry by
``python -m tools.lint``.  A mutation performed outside these methods
still bumps the version through :meth:`Network._touch`, which then
emits the catch-all :data:`repro.network.events.UNKNOWN` event —
listeners treat it as a full invalidation, so bypassing the typed
mutators is safe, merely slower.  The event taxonomy and each engine's
invalidation rules are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import weakref

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Protocol

from . import events
from .gatetype import (
    CONST_TYPES,
    GateType,
    eval_gate,
    max_arity,
    min_arity,
)


class Pin(NamedTuple):
    """An in-pin of a gate, addressed as (gate name, fanin index)."""

    gate: str
    index: int

    def __str__(self) -> str:
        return f"{self.gate}[{self.index}]"


class NetworkError(Exception):
    """Raised on structurally invalid network operations."""


class NetworkListener(Protocol):
    """Anything that wants to observe network mutations.

    ``kind`` names the mutation (``"add_gate"``, ``"replace_fanin"``,
    ...); ``data`` carries its operands.  The ``"unknown"`` kind means
    an untracked mutation happened and all cached state derived from
    the network must be considered stale.
    """

    def notify_network_event(self, kind: str, data: dict) -> None: ...


@dataclass
class Gate:
    """A single-output logic gate.

    ``fanins`` holds *net names* in pin order; the out-pin net carries
    the gate's own name.  ``cell`` names the bound library cell once the
    network is technology-mapped (``None`` for a generic logic network).
    """

    name: str
    gtype: GateType
    fanins: list[str] = field(default_factory=list)
    cell: str | None = None

    def arity(self) -> int:
        """Number of in-pins."""
        return len(self.fanins)

    def eval(self, input_words: list[int], mask: int = 1) -> int:
        """Evaluate the gate over bit-parallel words (see ``eval_gate``)."""
        return eval_gate(self.gtype, input_words, mask)

    def pins(self) -> Iterator[Pin]:
        """Iterate over this gate's in-pins."""
        for index in range(len(self.fanins)):
            yield Pin(self.name, index)


class Network:
    """A combinational Boolean network.

    The class offers the queries every later stage needs — drivers,
    fanout maps, topological order, cones — and the primitive mutations
    rewiring is built from.  Mutations bump :attr:`version`; cached
    derived structures are recomputed lazily when the version moves.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._input_set: set[str] = set()
        self.version = 0
        self._fanout_cache: dict[str, list[Pin]] | None = None
        self._fanout_version = -1
        self._po_count_cache: dict[str, int] | None = None
        self._po_count_version = -1
        self._topo_cache: list[str] | None = None
        self._topo_version = -1
        self._listeners: weakref.WeakSet[NetworkListener] = weakref.WeakSet()

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def subscribe(self, listener: NetworkListener) -> None:
        """Register a mutation listener (held weakly)."""
        self._listeners.add(listener)

    def unsubscribe(self, listener: NetworkListener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        self._listeners.discard(listener)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self._input_set:
            raise NetworkError(f"duplicate primary input {name!r}")
        if name in self._gates:
            raise NetworkError(f"net {name!r} already driven by a gate")
        self.inputs.append(name)
        self._input_set.add(name)
        self._touch((events.ADD_INPUT, {"net": name}))
        return name

    def add_output(self, net: str) -> str:
        """Declare *net* a primary output (it may also feed other gates)."""
        self.outputs.append(net)
        self._touch((events.ADD_OUTPUT, {"net": net}))
        return net

    def add_gate(
        self,
        name: str,
        gtype: GateType,
        fanins: Iterable[str] = (),
        cell: str | None = None,
    ) -> Gate:
        """Create a gate driving net *name*; fanin nets need not exist yet."""
        if name in self._gates:
            raise NetworkError(f"duplicate gate {name!r}")
        if name in self._input_set:
            raise NetworkError(f"net {name!r} is a primary input")
        fanin_list = list(fanins)
        lo, hi = min_arity(gtype), max_arity(gtype)
        if len(fanin_list) < lo or (hi is not None and len(fanin_list) > hi):
            raise NetworkError(
                f"gate {name!r}: {gtype.name} cannot take {len(fanin_list)} fanins"
            )
        gate = Gate(name=name, gtype=gtype, fanins=fanin_list, cell=cell)
        self._gates[name] = gate
        self._touch((
            events.ADD_GATE, {"gate": name, "fanins": tuple(fanin_list)}
        ))
        return gate

    def remove_gate(self, name: str) -> None:
        """Delete a gate; fails if its output net still has consumers."""
        if name not in self._gates:
            raise NetworkError(f"no gate {name!r}")
        # read a current fanout map, but never rebuild it for one net:
        # a removal sweep would rebuild it after every removal
        if self._fanout_cache is not None and (
            self._fanout_version == self.version
        ):
            consumers = len(self._fanout_cache.get(name, ()))
        else:
            consumers = sum(
                net == name
                for gate in self._gates.values()
                for net in gate.fanins
            )
        if consumers:
            raise NetworkError(f"gate {name!r} still drives {consumers} pins")
        if name in self.outputs:
            raise NetworkError(f"gate {name!r} is a primary output")
        fanins = tuple(self._gates[name].fanins)
        del self._gates[name]
        self._touch((events.REMOVE_GATE, {"gate": name, "fanins": fanins}))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, net: str) -> bool:
        return net in self._gates or net in self._input_set

    def __len__(self) -> int:
        return len(self._gates)

    def gate(self, name: str) -> Gate:
        """Return the gate driving net *name*."""
        try:
            return self._gates[name]
        except KeyError:
            raise NetworkError(f"no gate drives net {name!r}") from None

    def gates(self) -> Iterator[Gate]:
        """Iterate over all gates in insertion order."""
        return iter(self._gates.values())

    def gate_names(self) -> Iterator[str]:
        """Iterate over all gate (= internal net) names."""
        return iter(self._gates.keys())

    def nets(self) -> Iterator[str]:
        """Iterate over every net: primary inputs then gate outputs."""
        yield from self.inputs
        yield from self._gates.keys()

    def is_input(self, net: str) -> bool:
        """True if *net* is a primary input."""
        return net in self._input_set

    def driver(self, net: str) -> Gate | None:
        """Gate driving *net*, or ``None`` for a primary input."""
        gate = self._gates.get(net)
        if gate is None and net not in self._input_set:
            raise NetworkError(f"unknown net {net!r}")
        return gate

    def fanin_net(self, pin: Pin) -> str:
        """Net connected to *pin*."""
        return self.gate(pin.gate).fanins[pin.index]

    def fanout(self, net: str) -> list[Pin]:
        """All in-pins the net drives (primary-output use not included)."""
        return self._fanout_map().get(net, [])

    def fanout_degree(self, net: str) -> int:
        """Number of sink pins plus one per primary-output listing."""
        if (
            self._po_count_cache is None
            or self._po_count_version != self.version
        ):
            counts: dict[str, int] = {}
            for output in self.outputs:
                counts[output] = counts.get(output, 0) + 1
            self._po_count_cache = counts
            self._po_count_version = self.version
        return len(self.fanout(net)) + self._po_count_cache.get(net, 0)

    def _fanout_map(self) -> dict[str, list[Pin]]:
        if self._fanout_cache is None or self._fanout_version != self.version:
            fanout: dict[str, list[Pin]] = {}
            for gate in self._gates.values():
                for index, net in enumerate(gate.fanins):
                    fanout.setdefault(net, []).append(Pin(gate.name, index))
            self._fanout_cache = fanout
            self._fanout_version = self.version
        return self._fanout_cache

    def topo_order(self) -> list[str]:
        """Gate names in topological order (fanins before fanouts).

        Raises :class:`NetworkError` when the network contains a
        combinational cycle.
        """
        if self._topo_cache is not None and self._topo_version == self.version:
            return self._topo_cache
        indegree: dict[str, int] = {}
        for gate in self._gates.values():
            count = 0
            for net in gate.fanins:
                if net in self._gates:
                    count += 1
                elif net not in self._input_set:
                    raise NetworkError(
                        f"gate {gate.name!r} references unknown net {net!r}"
                    )
            indegree[gate.name] = count
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        fanout = self._fanout_map()
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for pin in fanout.get(name, ()):
                indegree[pin.gate] -= 1
                if indegree[pin.gate] == 0:
                    ready.append(pin.gate)
        if len(order) != len(self._gates):
            raise NetworkError("network contains a combinational cycle")
        self._topo_cache = order
        self._topo_version = self.version
        return order

    def levels(self) -> dict[str, int]:
        """Logic level of every net (PIs at level 0)."""
        level = {net: 0 for net in self.inputs}
        for name in self.topo_order():
            gate = self._gates[name]
            if gate.gtype in CONST_TYPES:
                level[name] = 0
            else:
                level[name] = 1 + max(level[f] for f in gate.fanins)
        return level

    def depth(self) -> int:
        """Maximum logic level over all nets (0 for an empty network)."""
        levels = self.levels()
        return max(levels.values(), default=0)

    def fanin_cone(self, net: str) -> set[str]:
        """Transitive fanin of *net*, including *net*, excluding PIs."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone or current in self._input_set:
                continue
            cone.add(current)
            stack.extend(self._gates[current].fanins)
        return cone

    def cone_inputs(self, net: str) -> list[str]:
        """Primary inputs feeding the cone of *net*, in PI order."""
        cone = self.fanin_cone(net)
        support: set[str] = set()
        if net in self._input_set:
            return [net]
        for name in cone:
            for fanin in self._gates[name].fanins:
                if fanin in self._input_set:
                    support.add(fanin)
        return [pi for pi in self.inputs if pi in support]

    def fanout_cone(self, net: str) -> set[str]:
        """Transitive fanout of *net* (gate names), excluding *net* itself."""
        cone: set[str] = set()
        stack = [pin.gate for pin in self.fanout(net)]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(pin.gate for pin in self.fanout(current))
        return cone

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _touch(self, event: tuple[str, dict] | None = None) -> None:
        self.version += 1
        if self._listeners:
            kind, data = event if event is not None else (events.UNKNOWN, {})
            for listener in tuple(self._listeners):
                listener.notify_network_event(kind, data)

    def replace_fanin(self, pin: Pin, net: str) -> str:
        """Reconnect *pin* to *net*; returns the previously connected net."""
        gate = self.gate(pin.gate)
        if net not in self:
            raise NetworkError(f"unknown net {net!r}")
        old = gate.fanins[pin.index]
        gate.fanins[pin.index] = net
        self._touch((
            events.REPLACE_FANIN, {"pin": pin, "old": old, "new": net}
        ))
        return old

    def swap_fanins(self, pin_a: Pin, pin_b: Pin) -> None:
        """Exchange the nets feeding two pins (a non-inverting swap)."""
        net_a = self.fanin_net(pin_a)
        net_b = self.fanin_net(pin_b)
        self.gate(pin_a.gate).fanins[pin_a.index] = net_b
        self.gate(pin_b.gate).fanins[pin_b.index] = net_a
        self._touch((
            events.SWAP_FANINS,
            {"pin_a": pin_a, "pin_b": pin_b, "net_a": net_a, "net_b": net_b},
        ))

    def replace_output(self, old: str, new: str) -> None:
        """Retarget every primary-output reference from *old* to *new*."""
        if new not in self:
            raise NetworkError(f"unknown net {new!r}")
        self.outputs = [new if net == old else net for net in self.outputs]
        self._touch((events.REPLACE_OUTPUT, {"old": old, "new": new}))

    def set_gate_type(self, name: str, gtype: GateType) -> None:
        """Change a gate's logic type in place (arity must stay legal)."""
        gate = self.gate(name)
        lo, hi = min_arity(gtype), max_arity(gtype)
        if gate.arity() < lo or (hi is not None and gate.arity() > hi):
            raise NetworkError(
                f"gate {name!r}: {gtype.name} cannot take {gate.arity()} fanins"
            )
        gate.gtype = gtype
        gate.cell = None
        self._touch((
            events.SET_GATE_TYPE, {"gate": name, "fanins": tuple(gate.fanins)}
        ))

    def set_cell(self, name: str, cell: str | None) -> None:
        """Rebind a gate to a library cell (``None`` unbinds)."""
        gate = self.gate(name)
        gate.cell = cell
        self._touch((
            events.SET_CELL, {"gate": name, "fanins": tuple(gate.fanins)}
        ))

    def set_fanins(self, name: str, fanins: Iterable[str]) -> None:
        """Replace a gate's whole fanin list.

        Arity is not validated against the current gate type: callers
        that shrink a gate (constant folding) fix the type right after.
        """
        gate = self.gate(name)
        old = tuple(gate.fanins)
        gate.fanins = list(fanins)
        self._touch((
            events.SET_FANINS,
            {"gate": name, "old": old, "new": tuple(gate.fanins)},
        ))

    def recent_gates(self, count: int) -> list[str]:
        """Names of the *count* most recently added gates (oldest first).

        Gate insertion order is preserved by the underlying dict; used
        by the optimizer to find inverters a rewiring move just created.
        """
        if count <= 0:
            return []
        names = list(self._gates.keys())
        return names[-count:]

    def fresh_name(self, prefix: str) -> str:
        """Return an unused net name starting with *prefix*."""
        if prefix not in self:
            return prefix
        counter = 0
        while True:
            candidate = f"{prefix}_{counter}"
            if candidate not in self:
                return candidate
            counter += 1

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Picklable view: listeners and derived caches stay behind.

        Subscribed listeners (timing engines, supergate caches) belong
        to *this* process; a pickled copy shipped to an evaluation
        worker must arrive unobserved.  The fanout/topo caches are
        cheap to rebuild and would only fatten the payload.
        """
        state = self.__dict__.copy()
        state["_listeners"] = None
        state["_fanout_cache"] = None
        state["_fanout_version"] = -1
        state["_topo_cache"] = None
        state["_topo_version"] = -1
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._listeners = weakref.WeakSet()

    def copy(self, name: str | None = None) -> "Network":
        """Deep-copy the network (gate objects are duplicated)."""
        other = Network(name or self.name)
        other.inputs = list(self.inputs)
        other._input_set = set(self._input_set)
        other.outputs = list(self.outputs)
        for gate in self._gates.values():
            other._gates[gate.name] = Gate(
                name=gate.name,
                gtype=gate.gtype,
                fanins=list(gate.fanins),
                cell=gate.cell,
            )
        other.version = 0
        return other

    def stats(self) -> dict[str, int]:
        """Simple size statistics used in reports."""
        by_type: dict[str, int] = {}
        for gate in self._gates.values():
            by_type[gate.gtype.name] = by_type.get(gate.gtype.name, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self._gates),
            "depth": self.depth(),
            **{f"n_{key.lower()}": val for key, val in sorted(by_type.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, pi={len(self.inputs)}, "
            f"po={len(self.outputs)}, gates={len(self._gates)})"
        )
