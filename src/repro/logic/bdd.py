"""A compact reduced ordered binary decision diagram (ROBDD) package.

The paper's verification needs — combinational equivalence of rewired
networks and symmetry ground truth on cones too wide for exhaustive
truth tables — are served by this self-contained BDD manager.  Nodes
are hash-consed triples ``(level, low, high)`` referenced by integer
ids; 0 and 1 are the terminal ids.  Complement edges are not used; the
structure favours clarity over raw capacity, which suits the cone sizes
the rewiring engine produces.
"""

from __future__ import annotations

from typing import Callable

from ..network.gatetype import GateType, base_type, is_inverted
from ..network.netlist import Network

ZERO = 0
ONE = 1

_TERMINAL_LEVEL = 1 << 30


class BddLimitError(RuntimeError):
    """A manager built with a node ``limit`` was asked for more nodes."""


class BddManager:
    """Hash-consed ROBDD node store with an ITE-based apply.

    With a node ``limit`` the manager raises :class:`BddLimitError`
    instead of creating more than that many nodes (terminals included),
    which lets a caller abandon a build that grew past its budget.
    """

    def __init__(
        self, var_names: list[str] | None = None, limit: int | None = None
    ) -> None:
        # nodes[id] = (level, low, high); ids 0/1 are terminals
        self._nodes: list[tuple[int, int, int]] = [
            (_TERMINAL_LEVEL, 0, 0),
            (_TERMINAL_LEVEL, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self.var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self.limit = limit
        for name in var_names or []:
            self.declare(name)

    # ------------------------------------------------------------------
    # variables and raw nodes
    # ------------------------------------------------------------------
    def declare(self, name: str) -> int:
        """Declare a variable (appended to the order); returns its level."""
        if name in self._var_index:
            return self._var_index[name]
        level = len(self.var_names)
        self.var_names.append(name)
        self._var_index[name] = level
        return level

    def var(self, name: str) -> int:
        """BDD for the positive literal of *name* (declared on demand)."""
        level = self.declare(name)
        return self._mk(level, ZERO, ONE)

    def nvar(self, name: str) -> int:
        """BDD for the negative literal of *name*."""
        level = self.declare(name)
        return self._mk(level, ONE, ZERO)

    def level_of(self, node: int) -> int:
        """Variable level of *node* (terminals sort last)."""
        return self._nodes[node][0]

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._nodes)
        if self.limit is not None and node_id >= self.limit:
            raise BddLimitError(f"BDD node limit {self.limit} reached")
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # boolean operations (all via ITE)
    # ------------------------------------------------------------------
    def ite(self, cond: int, then_: int, else_: int) -> int:
        """If-then-else: the universal binary-operation kernel."""
        if cond == ONE:
            return then_
        if cond == ZERO:
            return else_
        if then_ == else_:
            return then_
        if then_ == ONE and else_ == ZERO:
            return cond
        key = (cond, then_, else_)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(
            self.level_of(cond), self.level_of(then_), self.level_of(else_)
        )
        c0, c1 = self._split(cond, level)
        t0, t1 = self._split(then_, level)
        e0, e1 = self._split(else_, level)
        low = self.ite(c0, t0, e0)
        high = self.ite(c1, t1, e1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def _split(self, node: int, level: int) -> tuple[int, int]:
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    def not_(self, node: int) -> int:
        return self.ite(node, ZERO, ONE)

    def and_(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, rhs, ZERO)

    def or_(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, ONE, rhs)

    def xor(self, lhs: int, rhs: int) -> int:
        return self.ite(lhs, self.not_(rhs), rhs)

    def apply_many(
        self, op: Callable[[int, int], int], operands: list[int]
    ) -> int:
        """Left fold of a binary operation over *operands*."""
        if not operands:
            raise ValueError("apply_many needs at least one operand")
        acc = operands[0]
        for operand in operands[1:]:
            acc = op(acc, operand)
        return acc

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def restrict(self, node: int, name: str, phase: int) -> int:
        """Cofactor of *node* with variable *name* fixed to *phase*."""
        level = self._var_index[name]
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            node_level, low, high = self._nodes[current]
            if node_level > level:
                return current
            cached = cache.get(current)
            if cached is not None:
                return cached
            if node_level == level:
                result = high if phase else low
            else:
                result = self._mk(node_level, walk(low), walk(high))
            cache[current] = result
            return result

        return walk(node)

    def compose(self, node: int, name: str, replacement: int) -> int:
        """Substitute *replacement* for variable *name* in *node*."""
        positive = self.restrict(node, name, 1)
        negative = self.restrict(node, name, 0)
        return self.ite(replacement, positive, negative)

    def support(self, node: int) -> set[str]:
        """Names of variables the function depends on."""
        seen: set[int] = set()
        names: set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (ZERO, ONE) or current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            names.add(self.var_names[level])
            stack.append(low)
            stack.append(high)
        return names

    def sat_count(self, node: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over the declared variables."""
        total_vars = num_vars if num_vars is not None else len(self.var_names)
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            # counts assignments over variables below current's level
            if current == ZERO:
                return 0
            if current == ONE:
                return 1
            cached = cache.get(current)
            if cached is not None:
                return cached
            level, low, high = self._nodes[current]
            low_level = min(self.level_of(low), total_vars)
            high_level = min(self.level_of(high), total_vars)
            count = walk(low) * (1 << (low_level - level - 1)) + walk(
                high
            ) * (1 << (high_level - level - 1))
            cache[current] = count
            return count

        top_level = min(self.level_of(node), total_vars)
        return walk(node) * (1 << top_level)

    def any_sat(self, node: int) -> dict[str, int] | None:
        """One satisfying assignment, or ``None`` for the zero function."""
        if node == ZERO:
            return None
        assignment: dict[str, int] = {}
        current = node
        while current != ONE:
            level, low, high = self._nodes[current]
            name = self.var_names[level]
            if high != ZERO:
                assignment[name] = 1
                current = high
            else:
                assignment[name] = 0
                current = low
        return assignment

    def node_count(self, node: int) -> int:
        """Number of distinct internal nodes reachable from *node*."""
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (ZERO, ONE) or current in seen:
                continue
            seen.add(current)
            _, low, high = self._nodes[current]
            stack.extend((low, high))
        return len(seen)


def network_bdds(
    network: Network,
    manager: BddManager | None = None,
    nets: list[str] | None = None,
) -> tuple[BddManager, dict[str, int]]:
    """Build BDDs for every net (or the cones of *nets*) of a network.

    Primary inputs become BDD variables in PI order.  Returns the
    manager and a map net -> BDD id.
    """
    if manager is None:
        manager = BddManager(list(network.inputs))
    funcs: dict[str, int] = {}
    for pi in network.inputs:
        funcs[pi] = manager.var(pi)
    needed: set[str] | None = None
    if nets is not None:
        needed = set()
        stack = list(nets)
        while stack:
            current = stack.pop()
            if current in needed or network.is_input(current):
                continue
            needed.add(current)
            stack.extend(network.gate(current).fanins)
    for name in network.topo_order():
        if needed is not None and name not in needed:
            continue
        gate = network.gate(name)
        if gate.gtype is GateType.CONST0:
            funcs[name] = ZERO
            continue
        if gate.gtype is GateType.CONST1:
            funcs[name] = ONE
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
        funcs[name] = value
    return manager, funcs


def bdd_nes(manager: BddManager, func: int, var_i: str, var_j: str) -> bool:
    """NES check on a BDD: f(xi=1,xj=0) == f(xi=0,xj=1)."""
    lhs = manager.restrict(manager.restrict(func, var_i, 1), var_j, 0)
    rhs = manager.restrict(manager.restrict(func, var_i, 0), var_j, 1)
    return lhs == rhs


def bdd_es(manager: BddManager, func: int, var_i: str, var_j: str) -> bool:
    """ES check on a BDD: f(xi=1,xj=1) == f(xi=0,xj=0)."""
    lhs = manager.restrict(manager.restrict(func, var_i, 1), var_j, 1)
    rhs = manager.restrict(manager.restrict(func, var_i, 0), var_j, 0)
    return lhs == rhs
