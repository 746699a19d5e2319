"""Combinational equivalence checking.

Rewiring must never change a primary output's function; every optimizer
run in this repository ends with this check.  Strategy: fast random
bit-parallel simulation as a filter (differences are almost always
caught within 64 patterns), then exact confirmation — exhaustive
truth tables for narrow networks, BDDs otherwise.  The BDD stage costs
what the rewiring changed, not what the circuit holds: nets identical
in both networks are free variables, one budgeted manager per check
sweeps the remaining shared nets and turns each one proven equal into
a cut point, and only outputs that stay different over the unchanged
nets pay for a full-input comparison (see :func:`_bdd_equivalent`).
``BddManager`` and ``network_bdds`` are looked up on this module at
call time, so a caller may wrap them to count managers and fallbacks.

All simulation rides on :mod:`repro.logic.simcore`: the historical
four 64-bit random rounds collapse into one 256-pattern block swept by
the compiled vectorized engine (the patterns applied are identical, so
the filter decision is too), and the exhaustive stage reads whole
truth-table blocks out of the same engine.  ``backend`` selects the
evaluation strategy (``"auto"`` prefers numpy, ``"bigint"`` is the
reference); results are identical across backends by construction.
"""

from __future__ import annotations

from typing import Iterator

from ..logic.bdd import BddLimitError, BddManager, network_bdds
from ..logic.simcore import SimEngine
from ..network.netlist import Network


class EquivalenceError(AssertionError):
    """Raised by :func:`assert_equivalent` with a counterexample report."""


def networks_equivalent(
    before: Network,
    after: Network,
    exhaustive_limit: int = 14,
    random_rounds: int = 4,
    backend: str = "auto",
) -> bool:
    """True when both networks compute identical primary outputs.

    The networks must agree on primary-input and primary-output
    ordering (rewiring never changes the interface).
    """
    if list(before.inputs) != list(after.inputs):
        return False
    if len(before.outputs) != len(after.outputs):
        return False
    engine_before = SimEngine(before, backend)
    engine_after = SimEngine(after, backend)
    try:
        if engine_before.random_output_words(rounds=random_rounds) != (
            engine_after.random_output_words(rounds=random_rounds)
        ):
            return False
        if len(before.inputs) <= exhaustive_limit:
            engine_before.set_exhaustive_patterns()
            engine_after.set_exhaustive_patterns(list(before.inputs))
            return (
                engine_before.output_words() == engine_after.output_words()
            )
    finally:
        engine_before.detach()
        engine_after.detach()
    return _bdd_equivalent(before, after)


#: Node budget of the one sweep manager a check shares across outputs.
#: Past it the outputs not yet resolved take the per-output path, so no
#: check pays more than this on top of that path's cost.
SWEEP_NODE_LIMIT = 100_000


def _bdd_equivalent(before: Network, after: Network) -> bool:
    """BDD comparison proportional to the *changed* logic.

    One topological sweep marks every **clean** net — same name, gate
    type and ordered fanins in both networks, with every fanin clean —
    so the work is O(network) regardless of output count.  Outputs
    driven by clean nets are equivalent by construction.  Every other
    (*dirty*) output is decided by the ladder below; each rung is sound
    and only an inconclusive answer moves an output down.

    1. **Sweep** (:class:`_CutSweep`): one budgeted manager builds every
       dirty net that is a gate in both networks over the current cut —
       the clean nets plus the nets already proven — and a net whose two
       BDDs are identical joins the cut as a fresh variable.  A dirty
       output equal over this cut is equivalent.
    2. **Compose**: on a mismatch the proven variables are substituted
       back, latest first, until the two sides agree or none is left;
       the last function is the output's function over the clean cut.
    3. **Per output**, once the sweep exceeds :data:`SWEEP_NODE_LIMIT`:
       the output's cone rebuilt over the clean cut in a fresh manager.
    4. **Full input**: cut disagreement is inconclusive — two cones can
       differ over a free cut yet agree over the real inputs — so only
       that rare case pays for a full-input per-cone comparison.
    """
    clean = _clean_nets(before, after)
    dirty = [
        (old, new)
        for old, new in zip(before.outputs, after.outputs)
        if not (old == new and (old in clean or before.is_input(old)))
    ]
    resolved = 0
    for verdict in _swept_verdicts(before, after, clean, dirty):
        if not verdict:
            return False
        resolved += 1
    for old, new in dirty[resolved:]:
        manager = BddManager()
        if _cut_cone_bdd(before, manager, old, clean) != _cut_cone_bdd(
            after, manager, new, clean
        ) and not _full_inputs_equal(before, after, old, new):
            return False
    return True


def _swept_verdicts(
    before: Network,
    after: Network,
    clean: set[str],
    dirty: list[tuple[str, str]],
) -> Iterator[bool]:
    """Verdict per dirty output, in order, until the sweep budget runs out."""
    if not dirty:
        return
    try:
        sweep = _CutSweep(before, after, clean)
        for old, new in dirty:
            yield sweep.equal(old, new) or _full_inputs_equal(
                before, after, old, new
            )
    except BddLimitError:
        return


def _full_inputs_equal(
    before: Network, after: Network, old: str, new: str
) -> bool:
    """Exact comparison of one output pair over the primary inputs."""
    full = BddManager(list(before.inputs))
    _, funcs_before = network_bdds(before, manager=full, nets=[old])
    _, funcs_after = network_bdds(after, manager=full, nets=[new])
    return funcs_before[old] == funcs_after[new]


class _CutSweep:
    """Cut-point sweep of two networks in one budgeted BDD manager.

    Visits the dirty nets in :func:`_joint_topo_order` and builds each
    one that is a gate in both networks over the current cut, with one
    memo per network.  When the two BDDs are identical the net becomes
    a cut variable in both memos, and its BDD is kept as the
    *definition* :meth:`equal` composes back.  Sound because every cut
    variable names a net with the same function of the primary inputs
    in both networks: substituting those functions preserves equality.
    """

    def __init__(
        self, before: Network, after: Network, clean: set[str]
    ) -> None:
        self.manager = BddManager(limit=SWEEP_NODE_LIMIT)
        self.before = before
        self.after = after
        self.clean = clean
        self.memo_before: dict[str, int] = {}
        self.memo_after: dict[str, int] = {}
        #: (net, definition over the cut before it), in proof order
        self.proven: list[tuple[str, int]] = []
        for net in _joint_topo_order(before, after, clean):
            if net not in before or net not in after:
                continue
            func = self._build_before(net)
            if func == self._build_after(net):
                self.proven.append((net, func))
                variable = self.manager.var(net)
                self.memo_before[net] = self.memo_after[net] = variable

    def _build_before(self, net: str) -> int:
        return _cut_cone_bdd(
            self.before, self.manager, net, self.clean, self.memo_before
        )

    def _build_after(self, net: str) -> int:
        return _cut_cone_bdd(
            self.after, self.manager, net, self.clean, self.memo_after
        )

    def equal(self, old: str, new: str) -> bool:
        """Output *old* of ``before`` equals *new* of ``after`` over a cut.

        ``False`` means the two differ over the clean cut as well.
        """
        manager = self.manager
        func_before = self._build_before(old)
        func_after = self._build_after(new)
        if func_before == func_after:
            return True
        support = manager.support(func_before) | manager.support(func_after)
        for net, definition in reversed(self.proven):
            if net not in support:
                continue
            func_before = manager.compose(func_before, net, definition)
            func_after = manager.compose(func_after, net, definition)
            if func_before == func_after:
                return True
            support = manager.support(func_before) | manager.support(
                func_after
            )
        return False


def _joint_topo_order(
    before: Network, after: Network, clean: set[str]
) -> list[str]:
    """Dirty gate nets of either network, each after its fanins in both.

    A rewired net can read a net that comes later in ``before``'s own
    order, so neither network's order alone serves.  Nets on a cycle of
    the union of the two fanin graphs are left out.
    """
    fanins: dict[str, dict[str, None]] = {}
    for network in (before, after):
        for gate in network.gates():
            if gate.name not in clean:
                fanins.setdefault(gate.name, {}).update(
                    dict.fromkeys(gate.fanins)
                )
    waiting: dict[str, int] = {}
    users: dict[str, list[str]] = {}
    for net, sources in fanins.items():
        dirty_sources = [source for source in sources if source in fanins]
        waiting[net] = len(dirty_sources)
        for source in dirty_sources:
            users.setdefault(source, []).append(net)
    order = [net for net, count in waiting.items() if count == 0]
    for net in order:  # grows while it is walked
        for user in users.get(net, ()):
            waiting[user] -= 1
            if not waiting[user]:
                order.append(user)
    return order


def _clean_nets(before: Network, after: Network) -> set[str]:
    """Nets whose whole driving cone is gate-for-gate identical."""
    clean: set[str] = {
        net for net in before.inputs if after.is_input(net)
    }
    for net in before.topo_order():
        gate_before = before.driver(net)
        if gate_before is None:
            continue
        if net not in after:
            continue  # deleted (e.g. redundancy removal): not clean
        gate_after = after.driver(net)
        if (
            gate_after is not None
            and gate_before.gtype == gate_after.gtype
            and list(gate_before.fanins) == list(gate_after.fanins)
            and all(f in clean for f in gate_before.fanins)
        ):
            clean.add(net)
    return clean


def _cut_cone_bdd(
    network: Network,
    manager: BddManager,
    root: str,
    cut: set[str],
    funcs: dict[str, int] | None = None,
) -> int:
    """BDD of *root*'s cone with cut (and input) nets as variables.

    *funcs* memoizes net BDDs across calls; an entry there wins over
    the cut.
    """
    from ..network.gatetype import GateType, base_type, is_inverted

    if funcs is None:
        funcs = {}
    stack = [root]
    while stack:
        net = stack.pop()
        if net in funcs:
            continue
        if net in cut or network.is_input(net):
            funcs[net] = manager.var(net)
            continue
        gate = network.gate(net)
        if gate.gtype is GateType.CONST0:
            funcs[net] = 0
            continue
        if gate.gtype is GateType.CONST1:
            funcs[net] = 1
            continue
        pending = [f for f in gate.fanins if f not in funcs]
        if pending:
            stack.append(net)
            stack.extend(pending)
            continue
        operands = [funcs[f] for f in gate.fanins]
        base = base_type(gate.gtype)
        if base is GateType.AND:
            value = manager.apply_many(manager.and_, operands)
        elif base is GateType.OR:
            value = manager.apply_many(manager.or_, operands)
        elif base is GateType.XOR:
            value = manager.apply_many(manager.xor, operands)
        else:  # BUF base
            value = operands[0]
        if is_inverted(gate.gtype):
            value = manager.not_(value)
        funcs[net] = value
    return funcs[root]


def find_counterexample(
    before: Network, after: Network, max_vars: int = 20, backend: str = "auto"
) -> dict[str, int] | None:
    """Input assignment on which the networks disagree, or ``None``.

    Only supports networks narrow enough for exhaustive search.
    """
    num_vars = len(before.inputs)
    if num_vars > max_vars:
        raise ValueError(f"too many inputs ({num_vars}) for exhaustive search")
    engine_before = SimEngine(before, backend)
    engine_after = SimEngine(after, backend)
    try:
        engine_before.set_exhaustive_patterns()
        engine_after.set_exhaustive_patterns(list(before.inputs))
        outs_before = engine_before.output_words()
        outs_after = engine_after.output_words()
    finally:
        engine_before.detach()
        engine_after.detach()
    for word_before, word_after in zip(outs_before, outs_after):
        diff = word_before ^ word_after
        if diff:
            minterm = (diff & -diff).bit_length() - 1
            return {
                net: (minterm >> index) & 1
                for index, net in enumerate(before.inputs)
            }
    return None


def assert_equivalent(
    before: Network, after: Network, backend: str = "auto"
) -> None:
    """Raise :class:`EquivalenceError` with diagnostics on mismatch."""
    if networks_equivalent(before, after, backend=backend):
        return
    detail = ""
    if len(before.inputs) <= 20:
        example = find_counterexample(before, after, backend=backend)
        detail = f"; counterexample {example}"
    raise EquivalenceError(
        f"networks {before.name!r} and {after.name!r} differ{detail}"
    )
