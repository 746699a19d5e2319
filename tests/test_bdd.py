"""ROBDD package: canonicity, operations, network construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.logic.bdd import (
    BddLimitError,
    BddManager,
    ONE,
    ZERO,
    bdd_es,
    bdd_nes,
    network_bdds,
)
from repro.logic.simulate import table_mask, truth_tables
from repro.logic.truthtable import is_es, is_nes

from helpers import random_network


def bdd_from_table(manager: BddManager, table: int, names: list[str]) -> int:
    """Shannon-expand a truth table into a BDD (test helper)."""
    num_vars = len(names)

    def build(prefix: int, depth: int) -> int:
        if depth == num_vars:
            return ONE if (table >> prefix) & 1 else ZERO
        low = build(prefix, depth + 1)
        high = build(prefix | (1 << depth), depth + 1)
        return manager.ite(manager.var(names[depth]), high, low)

    return build(0, 0)


def test_terminals_and_literals():
    manager = BddManager(["a"])
    a = manager.var("a")
    na = manager.nvar("a")
    assert manager.not_(a) == na
    assert manager.and_(a, na) == ZERO
    assert manager.or_(a, na) == ONE
    assert manager.xor(a, a) == ZERO


def test_canonicity_same_function_same_node():
    manager = BddManager(["a", "b", "c"])
    a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
    lhs = manager.or_(manager.and_(a, b), manager.and_(a, c))
    rhs = manager.and_(a, manager.or_(b, c))
    assert lhs == rhs


@given(
    st.integers(min_value=0, max_value=table_mask(3)),
    st.integers(min_value=0, max_value=table_mask(3)),
)
@settings(max_examples=100)
def test_operations_match_table_algebra(table_f, table_g):
    names = ["a", "b", "c"]
    manager = BddManager(names)
    f = bdd_from_table(manager, table_f, names)
    g = bdd_from_table(manager, table_g, names)
    mask = table_mask(3)
    assert manager.and_(f, g) == bdd_from_table(
        manager, table_f & table_g, names
    )
    assert manager.or_(f, g) == bdd_from_table(
        manager, table_f | table_g, names
    )
    assert manager.xor(f, g) == bdd_from_table(
        manager, table_f ^ table_g, names
    )
    assert manager.not_(f) == bdd_from_table(
        manager, ~table_f & mask, names
    )


@given(st.integers(min_value=0, max_value=table_mask(4)))
@settings(max_examples=80)
def test_sat_count_matches_popcount(table):
    names = ["a", "b", "c", "d"]
    manager = BddManager(names)
    f = bdd_from_table(manager, table, names)
    assert manager.sat_count(f) == bin(table).count("1")


@given(st.integers(min_value=1, max_value=table_mask(4)))
@settings(max_examples=60)
def test_any_sat_satisfies(table):
    names = ["a", "b", "c", "d"]
    manager = BddManager(names)
    f = bdd_from_table(manager, table, names)
    model = manager.any_sat(f)
    assert model is not None
    minterm = sum(
        (model.get(name, 0) << index) for index, name in enumerate(names)
    )
    assert (table >> minterm) & 1


def test_any_sat_of_zero_is_none():
    manager = BddManager(["a"])
    assert manager.any_sat(ZERO) is None


def test_restrict_and_compose():
    manager = BddManager(["a", "b"])
    a, b = manager.var("a"), manager.var("b")
    f = manager.xor(a, b)
    assert manager.restrict(f, "a", 1) == manager.not_(b)
    assert manager.restrict(f, "a", 0) == b
    # compose a := b gives xor(b, b) = 0
    assert manager.compose(f, "a", b) == ZERO


def test_support():
    manager = BddManager(["a", "b", "c"])
    a, c = manager.var("a"), manager.var("c")
    f = manager.and_(a, c)
    assert manager.support(f) == {"a", "c"}


def test_network_bdds_agree_with_truth_tables():
    for seed in range(10):
        net = random_network(seed, num_gates=15)
        manager, funcs = network_bdds(net)
        tables = truth_tables(net)
        for out in net.outputs:
            rebuilt = bdd_from_table(
                manager, tables[out], list(net.inputs)
            )
            assert funcs[out] == rebuilt, seed


def test_bdd_symmetry_checks_match_tables():
    for seed in range(8):
        net = random_network(seed, num_gates=12, num_outputs=1)
        out = net.outputs[0]
        manager, funcs = network_bdds(net)
        tables = truth_tables(net)
        num_vars = len(net.inputs)
        for i in range(num_vars):
            for j in range(i + 1, num_vars):
                name_i, name_j = net.inputs[i], net.inputs[j]
                assert bdd_nes(manager, funcs[out], name_i, name_j) == (
                    is_nes(tables[out], num_vars, i, j)
                ), (seed, i, j)
                assert bdd_es(manager, funcs[out], name_i, name_j) == (
                    is_es(tables[out], num_vars, i, j)
                ), (seed, i, j)


def test_cone_scoped_construction():
    net = random_network(2, num_gates=20, num_outputs=2)
    out = net.outputs[0]
    manager, funcs = network_bdds(net, nets=[out])
    assert out in funcs


def test_node_limit_raises_past_budget():
    # terminals count: a limit of 4 leaves room for two internal nodes
    manager = BddManager(limit=4)
    a, b = manager.var("a"), manager.var("b")
    assert len(manager) == 4
    assert manager.or_(a, a) == a  # no new node, no error
    with pytest.raises(BddLimitError):
        manager.and_(a, b)
    assert len(manager) == 4
    unlimited = BddManager()
    unlimited.and_(unlimited.var("a"), unlimited.var("b"))
    assert len(unlimited) == 5
