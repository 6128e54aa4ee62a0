"""Transaction model: layer partitioning against an independent
longest-path oracle, scope computation, and the reference execution."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from xchainsim import (Address, CrossChainTransaction, CyclicOrderError,
                       IndexedAction, ScenarioError, World, ideal_execute,
                       layer_partition, scope_union, validate_transaction)


def make_txn(n_actions, prec, chain="c"):
    actions = [IndexedAction(i, Address(chain, "x%d" % i), "m", ())
               for i in range(n_actions)]
    return CrossChainTransaction("t", actions, set(prec),
                                 Address(chain, "origin"))


def oracle_layer(action_id, prec):
    """Independent longest-path depth: 1 + deepest predecessor."""
    preds = [b for (b, a) in prec if a == action_id]
    if not preds:
        return 0
    return 1 + max(oracle_layer(p, prec) for p in preds)


def test_no_constraints_single_layer():
    assert layer_partition(make_txn(3, [])) == [[0, 1, 2]]


def test_chain_of_three_layers():
    assert layer_partition(make_txn(3, [(0, 1), (1, 2)])) == \
        [[0], [1], [2]]


def test_diamond_layers_match_hand_computation():
    # a=0, b=1, c=2, d=3: a<b, a<c, b<d, c<d
    prec = [(0, 1), (0, 2), (1, 3), (2, 3)]
    # hand Kahn traversal: wave0={a}, wave1={b,c}, wave2={d}
    assert [oracle_layer(i, prec) for i in range(4)] == [0, 1, 1, 2]
    assert layer_partition(make_txn(4, prec)) == [[0], [1, 2], [3]]


def test_cycle_rejected():
    with pytest.raises(CyclicOrderError):
        make_txn(2, [(0, 1), (1, 0)])
    with pytest.raises(CyclicOrderError):
        make_txn(1, [(0, 0)])


def test_unknown_action_reference_rejected():
    with pytest.raises(ScenarioError):
        make_txn(2, [(0, 7)])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.data())
def test_layering_sound_on_random_dags(n, data):
    # edges only go from lower to higher ids, so the graph is acyclic
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=len(pairs)))
    txn = make_txn(n, edges)
    layers = layer_partition(txn)
    layer_of = {aid: k for k, layer in enumerate(layers) for aid in layer}
    # soundness: precedence implies strictly increasing layers
    for before, after in edges:
        assert layer_of[before] < layer_of[after]
    # longest-path choice matches the independent oracle
    for aid in range(n):
        assert layer_of[aid] == oracle_layer(aid, edges)
    # partition: every action in exactly one layer
    seen = sorted(aid for layer in layers for aid in layer)
    assert seen == list(range(n))
    # within-layer independence under transitive closure
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closure), repeat=2):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    for layer in layers:
        for a, b in itertools.combinations(layer, 2):
            assert (a, b) not in closure and (b, a) not in closure


@pytest.fixture
def swap_world():
    world = World(seed=0)
    world.add_chain("c1")
    world.add_chain("c2")
    world.add_contract("c1", "tok", "token", owner="alice",
                       init={"bal:alice": 10, "bal:bob": 0})
    world.add_contract("c2", "tok", "token", owner="bob",
                       init={"bal:alice": 0, "bal:bob": 10})
    return world


def swap_txn(amount_back=4):
    return CrossChainTransaction(
        "swap", [
            IndexedAction(0, Address("c1", "tok"), "transfer",
                          (b"alice", b"bob", 3)),
            IndexedAction(1, Address("c2", "tok"), "transfer",
                          (b"bob", b"alice", amount_back)),
        ], set(), Address("c1", "origin"))


def test_scope_union_per_chain(swap_world):
    txn = swap_txn()
    assert scope_union(txn, "c1") == [Address("c1", "tok")]
    assert scope_union(txn, "c2") == [Address("c2", "tok")]


def test_validation_rejects_same_layer_scope_overlap(swap_world):
    def txn_with(prec):
        return CrossChainTransaction(
            "t", [
                IndexedAction(0, Address("c1", "tok"), "transfer",
                              (b"alice", b"bob", 1)),
                IndexedAction(1, Address("c1", "tok"), "transfer",
                              (b"bob", b"alice", 1)),
            ], prec, Address("c1", "origin"))
    txn = txn_with(set())
    with pytest.raises(ScenarioError):
        validate_transaction(txn, swap_world)
    # a transaction is frozen: its layers are computed once
    with pytest.raises(dataclasses.FrozenInstanceError):
        txn.prec = {(0, 1)}
    # ordering the two actions makes the overlap legal
    validate_transaction(txn_with({(0, 1)}), swap_world)


def test_ideal_execute_success_applies_both_legs(swap_world):
    # hand-applied: c1 alice 10-3, bob 0+3; c2 bob 10-4, alice 0+4
    report = ideal_execute(swap_txn(), swap_world)
    assert report.ok
    assert swap_world.chains["c1"].contract(Address("c1", "tok")).vars == \
        {"bal:alice": 7, "bal:bob": 3}
    assert swap_world.chains["c2"].contract(Address("c2", "tok")).vars == \
        {"bal:alice": 4, "bal:bob": 6}


def test_ideal_execute_failure_restores_scoped_state(swap_world):
    before = swap_world.state()
    report = ideal_execute(swap_txn(amount_back=99), swap_world)
    assert not report.ok
    assert report.failed_action == 1
    assert report.failure_reason == "InsufficientFunds"
    assert swap_world.state() == before


def test_ideal_execute_records_nothing(swap_world):
    # the reference execution steps contracts, not chains: no event in
    # the trace and no record in an open block for a later seal to count
    for txn in (swap_txn(), swap_txn(amount_back=99)):
        ideal_execute(txn, swap_world)
        assert swap_world.trace.events == []
        assert not any(c.pending for c in swap_world.chains.values())
        assert not swap_world.open_chains


def test_ideal_execute_missing_target_fails_and_restores(swap_world):
    # action 1 names a chain the world lacks: an unknown target, and
    # action 0's transfer rolls back
    txn = swap_txn()
    txn = CrossChainTransaction(txn.txid, txn.actions + [
        IndexedAction(2, Address("c3", "tok"), "transfer",
                      (b"bob", b"alice", 1))], {(0, 2)}, txn.originator)
    before = swap_world.state()
    report = ideal_execute(txn, swap_world)
    assert (report.ok, report.failed_action, report.failure_reason) == \
        (False, 2, "UnknownTarget")
    assert swap_world.state() == before


def test_ideal_execute_empty_transaction_is_success(swap_world):
    txn = CrossChainTransaction("empty", [], set(), Address("c1", "origin"))
    before = swap_world.state()
    report = ideal_execute(txn, swap_world)
    assert report.ok
    assert swap_world.state() == before


def test_within_layer_order_insensitive_when_scopes_disjoint(swap_world):
    # two actions on one chain, disjoint contracts: both execution orders
    # end in the same state
    swap_world.add_contract("c1", "tok2", "token", owner="bob",
                            init={"bal:alice": 5, "bal:bob": 5})
    start = swap_world.state()
    base_actions = [
        IndexedAction(0, Address("c1", "tok"), "transfer",
                      (b"alice", b"bob", 2)),
        IndexedAction(1, Address("c1", "tok2"), "transfer",
                      (b"bob", b"alice", 2)),
    ]
    finals = []
    for order in ([0, 1], [1, 0]):
        actions = [base_actions[i] for i in order]
        # renumber so ids stay ascending within the layer
        actions = [IndexedAction(i, a.target, a.method, a.params)
                   for i, a in enumerate(actions)]
        txn = CrossChainTransaction("t", actions, set(),
                                    Address("c1", "origin"))
        swap_world.restore(start)
        assert ideal_execute(txn, swap_world).ok
        finals.append(swap_world.state())
    assert finals[0] == finals[1] != start
