"""Checker soundness: every checker passes its conforming runs and fails
its hand-built violating fixtures with the right violation kind."""

import dataclasses
import random

import pytest

from xchainsim import (Address, BudgetExceededError, Injection,
                       MissingOutcomeError, World, build_world,
                       check_all_or_nothing, check_secure_transfer,
                       check_strict_serializability, extract_metrics,
                       load_scenario, parse_scenario)
from xchainsim import verify
from xchainsim.bridge import ADVERSARIAL, Ack, BridgeId
from xchainsim.chain import vars_key
from xchainsim.trace import (INVOKE, LOCK, OUTCOME, UNLOCK,
                             ContractSnapshot)
from xchainsim.verify import (ALL_OR_NOTHING, EXACTLY_ONCE, LIVENESS, SAFETY,
                              SERIALIZABILITY)

from oracles import (assert_valid_witness, brute_force_serializable,
                     exhaustive_serializable, witness_rules)
from test_golden import CASES, eve, run


def run_bundled(name, seed=0, injections=(), lock_order=None):
    """Run a bundled scenario; `injections` is a list, or a function of
    the built world that returns one, such as eve."""
    scenario = load_scenario(name)
    world = build_world(scenario, seed=seed, lock_order=lock_order)
    if callable(injections):
        injections = injections(world)
    for injection in injections:
        world.add_injection(injection)
    trace = world.run(scenario.stop)
    txns = list(world.transactions.values())
    return world, trace, txns


# --------------------------------------------------------------------------
# Secure transfer


def test_secure_transfer_passes_honest_run():
    _, trace, _ = run_bundled("swap", seed=5)
    assert check_secure_transfer(trace).passed


def test_secure_transfer_flags_forge_as_safety():
    _, trace, _ = run_bundled("adversary-forge", seed=5)
    verdict = check_secure_transfer(trace)
    assert not verdict.passed
    assert {v.prop for v in verdict.violations} == {SAFETY}


def test_secure_transfer_flags_drop_as_liveness():
    _, trace, _ = run_bundled("adversary-drop", seed=5)
    verdict = check_secure_transfer(trace)
    assert not verdict.passed
    assert {v.prop for v in verdict.violations} == {LIVENESS}


def test_secure_transfer_flags_corrupt_payload():
    scenario = load_scenario("adversary-drop")  # adversarial outbound bridge
    world = build_world(scenario, seed=5)
    world.injections.clear()
    from xchainsim.bridge import BridgeId, Rcall
    world.add_injection(Injection(
        tick=1, op="corrupt", bridge=BridgeId("fantom", "mumbai"),
        queue_index=0,
        payload=Rcall(target=Address("mumbai", "exec"), method="lock_scope",
                      params=(b"swap1", b"mumbai/token"), seq=77)))
    trace = world.run(scenario.stop)
    verdict = check_secure_transfer(trace)
    assert not verdict.passed
    assert any(v.prop == SAFETY and "altered" in v.explanation
               for v in verdict.violations)


def corrupt_first_ack(payload):
    """Run adversary-drop at seed 5 without its drop, over an adversarial
    return bridge, and replace the first acknowledgement (message 2, sent
    at tick 3 as ack(seq=0, ok, result=True), delivered at tick 5) with
    `payload` while it is in flight.  Returns the trace and the send and
    recv events of that message."""
    scenario = load_scenario("adversary-drop")
    for bridge in scenario.bridges:
        bridge.mode = ADVERSARIAL
    world = build_world(scenario, seed=5)
    world.injections.clear()
    world.add_injection(Injection(
        tick=4, op="corrupt", bridge=BridgeId("mumbai", "fantom"),
        msg_id=2, payload=payload))
    trace = world.run(scenario.stop)
    send, recv = (e for e in trace.events
                  if e.kind in ("send", "recv") and e.data["msgid"] == 2)
    return trace, send, recv


def test_secure_transfer_compares_payload_text_not_value():
    # ack(result=i1) == ack(result=b1) as values, but not as text.
    trace, send, recv = corrupt_first_ack(Ack(seq=0, ok=True, result=1))
    assert send.data["payload"] == Ack(seq=0, ok=True, result=True)
    assert recv.data["payload"] == send.data["payload"]
    verdict = check_secure_transfer(trace)
    assert [v.prop for v in verdict.violations] == [SAFETY]
    assert "altered" in verdict.violations[0].explanation


def test_secure_transfer_accepts_an_equal_copy_of_the_payload():
    # A distinct object with the same text is not an alteration.
    trace, send, recv = corrupt_first_ack(Ack(seq=0, ok=True, result=True))
    assert recv.data["payload"] is not send.data["payload"]
    assert check_secure_transfer(trace).passed


def test_secure_transfer_flags_duplicate_delivery():
    world, trace, _ = run_bundled("swap", seed=5)
    recv = next(e for e in trace.events if e.kind == "recv")
    trace.events.append(recv)  # duplicated delivery of the same message
    verdict = check_secure_transfer(trace)
    assert any(v.prop == EXACTLY_ONCE for v in verdict.violations)


def test_forged_ack_does_not_break_atomicity():
    # the forged delivery is flagged, but the protocol ignores the
    # unknown sequence number and the transaction still lands exactly
    world, trace, txns = run_bundled("adversary-forge", seed=3)
    assert world.machines[0].outcome == "Committed"
    assert not check_secure_transfer(trace).passed
    assert check_all_or_nothing(trace, txns).passed


# --------------------------------------------------------------------------
# All or nothing


def test_all_or_nothing_passes_committed_swap():
    _, trace, txns = run_bundled("swap", seed=5)
    assert check_all_or_nothing(trace, txns).passed


def test_all_or_nothing_passes_aborted_runs():
    for name in ("swap-lockfail", "swap-updatefail"):
        _, trace, txns = run_bundled(name, seed=5)
        assert check_all_or_nothing(trace, txns).passed


def test_all_or_nothing_fails_on_half_applied_fixture():
    # corrupted final snapshot: the mumbai leg looks reverted while the
    # fantom leg stayed applied
    _, trace, txns = run_bundled("swap", seed=5)
    doctored = []
    for snap in trace.final:
        if snap.chain == "mumbai" and snap.local == "token":
            initial = next(s for s in trace.initial
                           if s.chain == "mumbai" and s.local == "token")
            snap = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                    snap.owner, snap.trusted,
                                    dict(initial.vars))
        doctored.append(snap)
    trace.final = doctored
    verdict = check_all_or_nothing(trace, txns)
    assert not verdict.passed
    assert any(v.prop == ALL_OR_NOTHING and "mumbai/token" in v.explanation
               for v in verdict.violations)


def test_all_or_nothing_names_a_scoped_contract_missing_from_initial():
    # a trace whose initial snapshot lacks a scoped contract gets a
    # verdict from every checker, not an exception
    _, trace, txns = run_bundled("swap", seed=0)
    trace.initial = [s for s in trace.initial
                     if (s.chain, s.local) != ("fantom", "token")]
    assert not check_strict_serializability(trace, txns).passed
    verdict = check_all_or_nothing(trace, txns)
    assert not verdict.passed
    assert any(v.prop == ALL_OR_NOTHING and v.explanation ==
               "scoped contract fantom/token has no initial snapshot in "
               "the trace" for v in verdict.violations)


def test_all_or_nothing_requires_outcome():
    _, trace, txns = run_bundled("adversary-drop", seed=5)
    with pytest.raises(MissingOutcomeError):
        check_all_or_nothing(trace, txns)


def test_all_or_nothing_with_symmetric_conflict_composition():
    for lock_order, committed in (("declared", 0), ("canonical", 1)):
        world, trace, txns = run_bundled("symmetric-conflict", seed=9,
                                         lock_order=lock_order)
        assert check_all_or_nothing(trace, txns).passed
        outcomes = [m.outcome for m in world.machines]
        assert outcomes.count("Committed") == committed


# --------------------------------------------------------------------------
# Strict serializability


def test_serial_trace_gets_identity_witness():
    _, trace, txns = run_bundled("swap", seed=5)
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed
    assert verdict.witness == sorted(verdict.witness)


def test_witness_found_under_interference():
    world, trace, txns = run_bundled(
        "swap", seed=7, injections=eve)
    assert world.machines[0].outcome == "Committed"
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed, verdict.violations


def test_budget_exceeded_raises():
    # the budget bounds only the search, so the doctored balance makes
    # the lock-point order fail and the search run
    injections = [Injection(tick=t, op="invoke", chain="fantom",
                            caller=Address("fantom", "eve"),
                            target=Address("fantom", "side"),
                            method="incr", params=[1])
                  for t in range(12)]
    _, trace, txns = run_bundled("swap", seed=1, injections=injections)
    assert check_strict_serializability(trace, txns, budget=14).passed
    doctor_balance(trace)
    with pytest.raises(BudgetExceededError):
        check_strict_serializability(trace, txns, budget=14)
    assert not check_strict_serializability(trace, txns, budget=20).passed


def replay_inputs(trace, txns):
    """The mutating events, the transaction windows, a fresh replay world,
    its initial state and the final vars keys, as
    check_strict_serializability hands them to each of its two stages."""
    events, windows = verify._extract_mutating(trace, txns)
    world = verify.build_replay_world(trace)
    final = {key: vars_key(v) for key, v in trace.final_vars().items()}
    return events, windows, world, world.state(), final


def search(trace, txns, budget=14):
    """The exhaustive search alone, as check_strict_serializability runs
    it when the lock-point order fails."""
    events, windows, world, initial, final = replay_inputs(trace, txns)
    return verify._search(events, windows, txns, world, initial, final,
                          budget)


def lock_point_order(trace, txns):
    """The lock-point order's witness, or None where it fails."""
    return verify._lock_point_order(*replay_inputs(trace, txns))


def _deep_trace():
    """1200 writes by one actor to one counter, 10 per tick."""
    world = World(seed=0)
    world.add_chain("a")
    world.add_contract("a", "reg", "counter")
    caller, reg = Address("a", "eve"), Address("a", "reg")
    for n in range(1200):
        world.add_injection(Injection(tick=n // 10, op="invoke", chain="a",
                                      caller=caller, target=reg,
                                      method="incr", params=[1]))
    return world.run()


def test_deep_trace_returns_a_verdict():
    # the search holds one frame per placed event, so a trace deeper than
    # the interpreter's recursion limit must still be checked
    trace = _deep_trace()
    verdict = check_strict_serializability(trace, [], budget=10**6)
    assert verdict.passed
    assert len(verdict.witness) == 1200
    assert verdict.witness == sorted(verdict.witness)

    trace.final = [ContractSnapshot(s.chain, s.local, s.kind, s.owner,
                                    s.trusted, {"count": 1199})
                   for s in trace.final]
    assert not check_strict_serializability(trace, [], budget=10**6).passed


def test_fixture_final_state_mismatch_fails():
    _, trace, txns = run_bundled("swap", seed=5)
    doctored = []
    for snap in trace.final:
        if snap.chain == "mumbai" and snap.local == "token":
            vars_ = dict(snap.vars)
            vars_["bal:alice"] += 1  # money from nowhere
            snap = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                    snap.owner, snap.trusted, vars_)
        doctored.append(snap)
    trace.final = doctored
    verdict = check_strict_serializability(trace, txns)
    assert not verdict.passed
    assert verdict.violations[0].prop == SERIALIZABILITY


def sequential_sets():
    """Two sequential single-chain transactions: first sets a/reg to 1 at
    tick 0, second sets it to 2 at tick 10."""
    raw = {
        "name": "rt",
        "chains": [{"id": "a", "contracts": [
            {"local": "reg", "kind": "counter", "init": {"count": 0}}]},
            {"id": "b", "contracts": [
                {"local": "reg", "kind": "counter", "init": {"count": 0}}]}],
        "bridges": [{"src": "a", "dst": "b", "max_delay": 1},
                    {"src": "b", "dst": "a", "max_delay": 1}],
        "transactions": [
            {"txid": "first", "proposer": "a", "tick": 0, "actions": [
                {"chain": "a", "target": "reg", "method": "set",
                 "params": [1]}]},
            {"txid": "second", "proposer": "a", "tick": 10, "actions": [
                {"chain": "a", "target": "reg", "method": "set",
                 "params": [2]}]},
        ],
    }
    scenario = parse_scenario(raw)
    world = build_world(scenario, seed=0)
    trace = world.run(scenario.stop)
    return trace, [world.transactions[t] for t in ("first", "second")]


def test_fixture_real_time_order_violation_fails():
    # the doctored final state is only reachable by replaying the two
    # transactions against their real-time order
    trace, txns = sequential_sets()
    assert check_strict_serializability(trace, txns).passed
    # doctor the final state to the value only the forbidden order yields
    doctored = []
    for snap in trace.final:
        if snap.chain == "a" and snap.local == "reg":
            snap = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                    snap.owner, snap.trusted, {"count": 1})
        doctored.append(snap)
    trace.final = doctored
    verdict = check_strict_serializability(trace, txns)
    assert not verdict.passed


def test_lock_point_order_keeps_real_time_order():
    # first's propose moved past second's outcome: real time now puts
    # second first, though first still locks first in the trace.  Only
    # the lock-point order reaches the final 2, so no witness exists
    trace, txns = sequential_sets()
    propose = next(e for e in trace.events if e.kind == INVOKE
                   and e.data["method"] == "propose"
                   and e.data.get("txid") == "first")
    outcome = [e for e in trace.events if e.kind == OUTCOME]
    assert [e.data["txid"] for e in outcome] == ["first", "second"]
    propose.tick = outcome[1].tick + 1
    assert lock_point_order(trace, txns) is None
    assert not check_strict_serializability(trace, txns).passed
    assert not brute_force_serializable(trace, txns)


def test_aborted_transactions_serialize_as_empty_blocks():
    _, trace, txns = run_bundled("symmetric-conflict", seed=3)
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed


def test_abort_after_locking_a_contract_without_variables_serializes():
    # the counter has no variables, so its lock checkpoint is empty; the
    # abort rolls back to it and the replay must do the same
    raw = {
        "name": "empty-checkpoint",
        "chains": [
            {"id": "a", "contracts": [{"local": "reg", "kind": "counter"}]},
            {"id": "b", "contracts": [{"local": "bad", "kind": "faulty"}]}],
        "bridges": [{"src": "a", "dst": "b", "max_delay": 1},
                    {"src": "b", "dst": "a", "max_delay": 1}],
        "transactions": [{"txid": "t", "proposer": "a", "tick": 0,
                          "actions": [
                              {"chain": "a", "target": "reg",
                               "method": "incr", "params": [1]},
                              {"chain": "b", "target": "bad",
                               "method": "fail", "params": []}]}],
    }
    scenario = parse_scenario(raw)
    world = build_world(scenario, seed=0)
    trace = world.run(scenario.stop)
    txns = list(world.transactions.values())
    assert (world.machines[0].outcome, world.machines[0].reason) == \
        ("Aborted", "OpFailed")
    assert check_all_or_nothing(trace, txns).passed
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed
    assert verdict.witness == [1, 7, 13, 29, 35]


def test_serializability_replay_keeps_no_records(monkeypatch):
    # the search replays on one world; what replay records there must not
    # pile up with the number of search steps
    worlds = []
    original = verify.build_replay_world

    def build(*args, **kwargs):
        worlds.append(original(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(verify, "build_replay_world", build)
    _, trace, txns = run_bundled(
        "swap", seed=7, injections=eve)
    assert check_strict_serializability(trace, txns).passed
    (world,) = worlds
    assert world.trace.events == []
    assert not any(chain.pending for chain in world.chains.values())


def test_state_round_trip_keeps_lock_owner_and_empty_checkpoint():
    world = World(seed=0)
    world.add_chain("a")
    world.add_contract("a", "reg", "counter")
    world.add_contract("a", "tok", "token", init={"bal:alice": 3})
    chain, reg = world.chains["a"], Address("a", "reg")
    executor = chain.executor_addr
    unlocked = world.state()
    assert [entry[0] for entry in unlocked] == [reg, Address("a", "tok")]
    empty = ((),)                    # no items, so no bool
    assert unlocked[0] == (reg, empty, None, None)

    assert chain.lock(executor, reg).ok
    locked = world.state()
    assert locked[0] == (reg, empty, executor, empty)   # {} is not None
    assert chain.invoke(executor, reg, "incr", [2]).ok
    assert world.state()[0] == (reg, ((("count", 2),),), executor, empty)
    hash(world.state())

    world.restore(unlocked)
    contract = chain.contract(reg)
    assert not contract.locked and contract.locked_by is None
    assert contract.checkpoint is None and contract.vars == {}
    assert world.state() == unlocked

    world.restore(locked)
    assert contract.locked and contract.locked_by == executor
    assert contract.checkpoint == empty and contract.vars == {}
    assert world.state() == locked
    assert chain.invoke(executor, reg, "incr", [5]).ok
    assert chain.unlock(executor, reg, True).ok    # back to the {} checkpoint
    assert world.state() == unlocked


@pytest.mark.parametrize(
    "case", CASES + ["mesh6-reorder@%d" % seed for seed in range(3, 6)])
def test_returned_witness_is_valid(case):
    trace, txns = run(case)
    verdict = check_strict_serializability(trace, txns,
                                           budget=len(trace.events))
    if verdict.passed:
        assert_valid_witness(trace, txns, verdict.witness)


def run_repeat(seed, prec):
    """A transaction on swap's chains that runs one transfer twice, with
    an increment between: actions 0 and 2 are equal, and `prec` orders
    the three actions in a chain."""
    transfer = {"chain": "fantom", "target": "token", "method": "transfer",
                "params": ["alice", "bob", 1]}
    raw = {
        "name": "repeat",
        "chains": [
            {"id": "fantom", "contracts": [
                {"local": "token", "kind": "token", "owner": "alice",
                 "init": {"alice": 50, "bob": 10}},
                {"local": "side", "kind": "counter", "owner": "alice",
                 "init": {"count": 0}}]},
            {"id": "mumbai", "contracts": [
                {"local": "token", "kind": "token", "owner": "bob",
                 "init": {"alice": 5, "bob": 40}}]}],
        "bridges": [
            {"src": "fantom", "dst": "mumbai", "max_delay": 3,
             "reorder": True},
            {"src": "mumbai", "dst": "fantom", "max_delay": 3,
             "reorder": True}],
        "transactions": [{
            "txid": "repeat", "proposer": "fantom", "originator": "alice",
            "tick": 0, "prec": prec, "actions": [
                dict(transfer, id=0),
                {"id": 1, "chain": "fantom", "target": "side",
                 "method": "incr", "params": [1]},
                dict(transfer, id=2)]}],
    }
    scenario = parse_scenario(raw)
    world = build_world(scenario, seed=seed)
    trace = world.run(scenario.stop)
    assert world.machines[0].outcome == "Committed"
    return trace, [world.transactions["repeat"]]


@pytest.mark.parametrize("prec", [[[0, 1], [1, 2]], [[2, 1], [1, 0]]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repeated_action_serializes(seed, prec):
    # each run of the repeated transfer takes the layer of its own action,
    # not of the first equal one, so the layer order has no cycle
    trace, txns = run_repeat(seed, prec)
    assert check_secure_transfer(trace).passed
    assert check_all_or_nothing(trace, txns).passed
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed, verdict.violations
    assert_valid_witness(trace, txns, verdict.witness)


def disjoint_swaps(count, seed=0):
    """`count` concurrent two-chain swaps on disjoint chain pairs, all
    proposed at tick 0, run at `seed`."""
    chains, bridges, transactions = [], [], []
    for n in range(count):
        a, b = "a%d" % n, "b%d" % n
        for chain in (a, b):
            chains.append({"id": chain, "contracts": [
                {"local": "token", "kind": "token",
                 "init": {"alice": 10, "bob": 10}}]})
        bridges += [{"src": a, "dst": b, "max_delay": 2},
                    {"src": b, "dst": a, "max_delay": 2}]
        transactions.append({"txid": "swap%d" % n, "proposer": a, "tick": 0,
                             "actions": [
                                 {"chain": a, "target": "token",
                                  "method": "transfer",
                                  "params": ["alice", "bob", 1]},
                                 {"chain": b, "target": "token",
                                  "method": "transfer",
                                  "params": ["bob", "alice", 2]}]})
    scenario = parse_scenario({"name": "disjoint", "chains": chains,
                               "bridges": bridges,
                               "transactions": transactions})
    world = build_world(scenario, seed=seed)
    trace = world.run(scenario.stop)
    return trace, list(world.transactions.values())


def run_swap_prec(seed, prec):
    """swap.yaml with its two transfers, one per chain, ordered by `prec`:
    a transaction whose layers lie on different chains."""
    scenario = load_scenario("swap")
    at, txn = scenario.transactions[0]
    scenario.transactions[0] = (at, dataclasses.replace(txn, prec=set(prec)))
    world = build_world(scenario, seed=seed)
    trace = world.run(scenario.stop)
    assert world.machines[0].outcome == "Committed"
    return trace, [world.transactions["swap1"]]


def run_forged_ack(seed, tick, chains):
    """adversary-forge's swap in two layers whose return bridge forges an
    ok ack for seq 1, the proposer's first run_action rcall, at `tick`:
    the second round can start before the first has run.  With `chains`
    "two", the mumbai transfer precedes the fantom one; with "one", both
    layers are mumbai transfers."""
    scenario = load_scenario("adversary-forge")
    scenario.bridges[0].max_delay = 6     # fantom -> mumbai, reordering
    at, txn = scenario.transactions[0]
    if chains == "one":
        second = txn.actions[1]
        bob, alice, _ = second.params
        txn = dataclasses.replace(txn, prec={(0, 1)}, actions=[
            dataclasses.replace(second, action_id=0),
            dataclasses.replace(second, params=(alice, bob, 1))])
    else:
        txn = dataclasses.replace(txn, prec={(1, 0)})
    scenario.transactions[0] = (at, txn)
    world = build_world(scenario, seed=seed)
    world.injections.clear()
    world.add_injection(Injection(
        tick=tick, op="forge", bridge=BridgeId("mumbai", "fantom"),
        payload=Ack(seq=1, ok=True)))
    trace = world.run(scenario.stop)
    return trace, [world.transactions["swap1"]]


def doctor_balance(trace):
    """Bump the first token balance of the final snapshot by 1, money from
    nowhere, so that no ordering reproduces the final state."""
    for n, snap in enumerate(trace.final):
        balances = sorted(k for k in snap.vars if k.startswith("bal:"))
        if balances:
            vars_ = dict(snap.vars)
            vars_[balances[0]] += 1
            trace.final[n] = ContractSnapshot(snap.chain, snap.local,
                                              snap.kind, snap.owner,
                                              snap.trusted, vars_)
            return
    raise AssertionError("no balance to doctor")


def test_each_step_replays_once(monkeypatch):
    # a step depends only on its event and its target's entry; with
    # disjoint swaps each event meets one target entry, so the exhaustive
    # search replays each event once (the lock-point order is not run)
    calls = []
    original = verify._replay_one

    def replay_one(world, ev):
        calls.append(ev.index)
        return original(world, ev)

    monkeypatch.setattr(verify, "_replay_one", replay_one)
    trace, txns = disjoint_swaps(3)
    doctor_balance(trace)
    mutating, _, _ = witness_rules(trace, txns)
    verdict = search(trace, txns, budget=len(mutating))
    assert not verdict.passed
    assert sorted(calls) == mutating


def set_then_incr():
    """zed sets a counter to 5, then amy increments it.  The final 6 needs
    zed first, but the search tries amy first and backtracks, so it
    tries amy's increment on two different counter entries."""
    world = World(seed=0)
    world.add_chain("a")
    world.add_contract("a", "reg", "counter")
    reg = Address("a", "reg")
    world.add_injection(Injection(tick=1, op="invoke", chain="a",
                                  caller=Address("a", "zed"), target=reg,
                                  method="set", params=[5]))
    world.add_injection(Injection(tick=2, op="invoke", chain="a",
                                  caller=Address("a", "amy"), target=reg,
                                  method="incr", params=[1]))
    return world.run(), []


def test_step_memo_keys_on_the_target_entry():
    # the lock-point order is trace order here and passes at once, so the
    # search is run alone to reach its backtrack
    trace, txns = set_then_incr()
    verdict = search(trace, txns)
    assert verdict.passed
    assert_valid_witness(trace, txns, verdict.witness)
    assert verdict.witness == check_strict_serializability(trace, txns).witness


@pytest.mark.parametrize("case,doctored", [
    (case, doctored)
    for case in ["conflict@%d" % seed for seed in range(3)]
    + ["repeat@0", "swap-updatefail@0"] for doctored in (False, True)]
    + [("set-then-incr@0", False)])
def test_exhaustive_oracle_agrees_with_brute_force(case, doctored):
    trace, txns = small_case(case)
    if doctored:
        doctor_balance(trace)
    assert exhaustive_serializable(trace, txns) == \
        brute_force_serializable(trace, txns)


def set_final_vars(trace, chain, local, vars_):
    """Replace one contract's final vars in the trace's final snapshot."""
    for n, snap in enumerate(trace.final):
        if (snap.chain, snap.local) == (chain, local):
            trace.final[n] = ContractSnapshot(snap.chain, snap.local,
                                              snap.kind, snap.owner,
                                              snap.trusted, vars_)
            return
    raise AssertionError("no contract %s/%s" % (chain, local))


def counter_scenario(init, adversary=(), transactions=()):
    """One chain `a` holding the counter `side` at `init`."""
    return parse_scenario({
        "name": "counter", "chains": [{"id": "a", "contracts": [
            {"local": "side", "kind": "counter", "init": init}]}],
        "transactions": list(transactions), "adversary": list(adversary)})


def test_a_write_that_changes_only_a_type_is_recorded_and_replayed():
    # count goes from True to 1: equal by ==, but incr refuses the one
    # and counts from the other, so the replay must start from 1
    scenario = counter_scenario({"count": True}, adversary=[
        {"tick": tick, "op": "invoke", "chain": "a", "caller": "eve",
         "target": "side", "method": method, "params": [1]}
        for tick, method in ((1, "set"), (2, "incr"))])
    world = build_world(scenario)
    trace = world.run(scenario.stop)
    set_, incr = [e for e in trace.events if e.kind == INVOKE]
    assert (set_.tick, set_.data["writes"]) == (1, [Address("a", "side")])
    assert incr.data["ok"] and trace.final_vars()[("a", "side")] == \
        {"count": 2}
    assert check_secure_transfer(trace).passed
    assert check_all_or_nothing(trace, []).passed
    verdict = check_strict_serializability(trace, [])
    assert verdict.passed
    assert verdict.witness == [trace.events.index(set_),
                               trace.events.index(incr)]


def test_a_final_value_of_another_type_fails_both_state_checkers():
    # the transaction sets count to 1; a final True equals 1 by ==, yet
    # neither the reference execution nor any order ends there
    scenario = counter_scenario({"count": 0}, transactions=[
        {"txid": "t", "proposer": "a", "actions": [
            {"chain": "a", "target": "side", "method": "set",
             "params": [1]}]}])
    world = build_world(scenario)
    trace = world.run(scenario.stop)
    txns = [world.transactions["t"]]
    assert check_all_or_nothing(trace, txns).passed
    assert check_strict_serializability(trace, txns).passed
    set_final_vars(trace, "a", "side", {"count": True})
    verdict = check_all_or_nothing(trace, txns)
    assert [v.explanation for v in verdict.violations] == [
        "scoped contract a/side ended at [[count,b1]], reference says "
        "[[count,i1]]"]
    assert not check_strict_serializability(trace, txns).passed
    assert not brute_force_serializable(trace, txns)
    assert not exhaustive_serializable(trace, txns)


def test_untouched_contract_mismatch_fails_without_replay(monkeypatch):
    # no mutating event targets fantom/side, so no order can change it:
    # the search fails before it replays anything
    calls = []
    original = verify._replay_one

    def replay_one(world, ev):
        calls.append(ev.index)
        return original(world, ev)

    monkeypatch.setattr(verify, "_replay_one", replay_one)
    _, trace, txns = run_bundled("swap")
    set_final_vars(trace, "fantom", "side", {"count": 1})
    mutating, _, _ = witness_rules(trace, txns)
    assert all(trace.events[i].data["target"] != Address("fantom", "side")
               for i in mutating)
    verdict = check_strict_serializability(trace, txns)
    assert not verdict.passed
    assert calls == []
    (violation,) = verdict.violations
    assert violation.prop == SERIALIZABILITY
    assert violation.events == mutating
    assert violation.explanation.startswith("no serial ordering")


def test_mismatch_on_a_contract_only_locked_and_unlocked_fails():
    # the transfer on mumbai fails, so the aborted swap's only mutating
    # events there are its lock and its rolling-back unlock; the search
    # checks the contract once the unlock is placed
    _, trace, txns = run_bundled("swap-updatefail")
    token = Address("mumbai", "token")
    mutating, _, _ = witness_rules(trace, txns)
    assert [(trace.events[i].kind, trace.events[i].data.get("failure"))
            for i in mutating
            if trace.events[i].data["target"] == token] == \
        [(LOCK, None), (UNLOCK, True)]
    # honest, fantom's transfer is rolled back by the unlock after it
    assert check_strict_serializability(trace, txns).passed
    vars_ = dict(trace.final_vars()[("mumbai", "token")])
    vars_["bal:bob"] += 1
    set_final_vars(trace, "mumbai", "token", vars_)
    verdict = check_strict_serializability(trace, txns)
    assert not verdict.passed
    assert not brute_force_serializable(trace, txns)


# The witnesses the search returned on honest disjoint_swaps(3, seed)
# before it checked a contract at its last event; pruning cuts only
# branches with no witness, so the first witness found is the same.  The
# checker returns the lock-point order instead, which differs at seeds 0,
# 4, 5 and 7.
DISJOINT3_WITNESS = [
    [1, 24, 44, 60, 95, 109, 5, 27, 47, 63, 85, 112, 9, 19, 35, 55, 75, 99],
    [1, 19, 33, 48, 80, 103, 5, 22, 42, 60, 90, 113, 9, 29, 52, 63, 93, 106],
    [1, 19, 44, 55, 85, 97, 5, 22, 35, 58, 90, 107, 9, 25, 47, 61, 93, 113],
    [1, 19, 45, 65, 96, 113, 5, 22, 33, 41, 68, 86, 9, 29, 57, 75, 99, 107],
    [1, 19, 39, 55, 96, 107, 5, 29, 42, 58, 99, 113, 9, 22, 45, 61, 75, 91],
    [1, 24, 39, 55, 85, 101, 5, 27, 42, 58, 88, 109, 9, 19, 45, 65, 91, 112],
    [1, 19, 31, 41, 80, 97, 5, 24, 45, 60, 90, 113, 9, 27, 54, 63, 93, 107],
    [1, 24, 45, 53, 90, 113, 5, 19, 31, 41, 70, 97, 9, 27, 60, 73, 93, 107],
    [1, 19, 31, 41, 80, 99, 5, 24, 47, 60, 90, 109, 9, 27, 50, 63, 95, 112],
    [1, 19, 39, 60, 80, 94, 5, 22, 42, 63, 101, 113, 9, 25, 45, 55, 90, 105],
]


@pytest.mark.parametrize("seed", range(10))
def test_three_disjoint_swaps_agree_with_exhaustive_oracle(seed):
    # 18 mutating events are too many to permute, so the oracle is the
    # memoized one, itself checked against brute force above
    trace, txns = disjoint_swaps(3, seed)
    verdict = search(trace, txns, budget=18)
    assert verdict.passed and exhaustive_serializable(trace, txns)
    assert verdict.witness == DISJOINT3_WITNESS[seed]
    assert_valid_witness(trace, txns, verdict.witness)
    checked = check_strict_serializability(trace, txns, budget=0)
    assert checked.passed
    assert_valid_witness(trace, txns, checked.witness)
    doctor_balance(trace)
    assert not search(trace, txns, budget=18).passed
    assert not check_strict_serializability(trace, txns, budget=18).passed
    assert not exhaustive_serializable(trace, txns)


def small_case(case):
    name, seed = case.rsplit("@", 1)
    if name == "repeat":
        return run_repeat(int(seed), [[0, 1], [1, 2]])
    if name == "set-then-incr":
        return set_then_incr()
    if name == "swap-prec01":
        return run_swap_prec(int(seed), [(0, 1)])
    if name == "swap-prec10":
        return run_swap_prec(int(seed), [(1, 0)])
    if name == "conflict":
        return disjoint_swaps(1, int(seed))
    if name.startswith("forged-"):
        chains = name[len("forged-"):]
        return run_forged_ack(int(seed), FORGED_TICK[chains], chains)
    return run(case)


# Seeds and ticks at which the forged ack puts the second layer's
# transfer in the trace before the first layer's, which moves 7.
FORGED_TICK = {"one": 1, "two": 4}
FORGED_CASES = ["forged-one@1", "forged-two@0"]


@pytest.mark.parametrize("case", FORGED_CASES)
def test_forged_ack_round_keeps_layer_order(case):
    trace, txns = small_case(case)
    amounts = [e.data["params"][2] for e in trace.events
               if e.kind == INVOKE and e.data.get("txid") == "swap1"
               and e.data["method"] == "transfer"]
    assert len(amounts) == 2 and amounts[1] == 7
    verdict = check_strict_serializability(trace, txns)
    if case.startswith("forged-one"):
        # one chain: its order and the layer order cannot both hold
        assert not verdict.passed
        assert {v.prop for v in verdict.violations} == {SERIALIZABILITY}
    else:
        # two chains: the steps commute, and the witness puts layer 0 first
        assert verdict.passed
        assert_valid_witness(trace, txns, verdict.witness)


def random_case(seed):
    """A small random scenario: a transaction proposed on chain a, of one
    or two actions on distinct contracts of chains a and b under a random
    precedence order; bridges that may reorder and may be adversarial,
    with forge, drop and corrupt injections, mostly forged acks for the
    proposer's rcalls; and a write by eve."""
    rng = random.Random(seed)
    chains = [{"id": c, "contracts": [
        {"local": "token", "kind": "token",
         "init": {"alice": 20, "bob": 20, "eve": 5}},
        {"local": "side", "kind": "counter", "init": {"count": 0}}]}
        for c in "ab"]
    bridges, adversary = [], []
    for src, dst, odds in (("a", "b", 0.25), ("b", "a", 0.75)):
        adversarial = rng.random() < odds
        bridges.append({"src": src, "dst": dst, "reorder": rng.random() < 0.5,
                        "max_delay": rng.randint(1, 6),
                        "mode": "adversarial" if adversarial else "honest"})
        for _ in range(rng.randint(1, 3) if adversarial else 0):
            op = rng.choice(["forge", "forge", "drop", "corrupt"])
            ack = {"type": "ack", "seq": rng.choice([0, 1, 1, 2]),
                   "ok": rng.random() < 0.9}
            adversary.append(dict({"tick": rng.randint(1, 5), "op": op,
                                   "src": src, "dst": dst},
                                  **({"payload": ack} if op != "drop"
                                     else {})))
    actions = []
    for n, (chain, target) in enumerate(
            rng.sample([(c, t) for c in "ab" for t in ("token", "side")],
                       rng.choice([1, 2, 2, 2]))):
        if target == "side":
            method, params = "incr", [rng.randint(1, 3)]
        else:
            method, params = "transfer", rng.sample(["alice", "bob"], 2) + \
                [rng.randint(1, 9)]
        actions.append({"id": n, "chain": chain, "target": target,
                        "method": method, "params": params})
    prec = [[0, 1]] if len(actions) == 2 and rng.random() < 0.8 else []
    if rng.random() < 0.5:
        adversary.append({"tick": rng.randint(0, 10), "op": "invoke",
                          "chain": rng.choice("ab"), "caller": "eve",
                          "target": "side", "method": "incr", "params": [1]})
    scenario = parse_scenario({
        "name": "random", "chains": chains, "bridges": bridges,
        "transactions": [{"txid": "t", "proposer": "a",
                          "tick": rng.randint(0, 3), "actions": actions,
                          "prec": prec}],
        "adversary": adversary})
    world = build_world(scenario, seed=seed)
    return world.run(scenario.stop), [world.transactions["t"]]


# The golden cases with at most 8 mutating events, the repeated action,
# swap with its two chains in two layers either way, the conflict family
# at one swap, the rounds run early by a forged ack and the set before an
# increment; each case but the last also with a doctored final balance.
SMALL = [(case, doctored)
         for case in CASES + FORGED_CASES +
         ["%s@%d" % (name, seed) for seed in range(3)
          for name in ("repeat", "swap-prec01", "swap-prec10", "conflict")]
         if case.rsplit("@", 1)[0] not in
         ("mesh6-reorder", "three-exchange", "three-exchange+eve")
         for doctored in (False, True)] + [("set-then-incr@0", False)]


@pytest.mark.parametrize("case,doctored", SMALL)
def test_search_agrees_with_brute_force(case, doctored):
    trace, txns = small_case(case)
    if doctored:
        doctor_balance(trace)
    # the budget is the oracle's limit: the search raises above it
    verdict = check_strict_serializability(trace, txns, budget=8)
    assert verdict.passed == brute_force_serializable(trace, txns)
    if verdict.passed:
        assert_valid_witness(trace, txns, verdict.witness)


def test_search_agrees_with_brute_force_on_random_scenarios():
    # at seed 21 a forged ack starts the second round before the first
    # has run, on the other chain
    for seed in range(300):
        trace, txns = random_case(seed)
        for doctored in (False, True):
            if doctored:
                doctor_balance(trace)
            verdict = check_strict_serializability(trace, txns, budget=8)
            assert verdict.passed == brute_force_serializable(trace, txns), \
                (seed, doctored)
            if verdict.passed:
                assert_valid_witness(trace, txns, verdict.witness)


def assert_lock_point_order_is_sound(trace, txns):
    """If the lock-point order passes, the oracle passes with it: the
    order keeps every rule of witness_rules and replays to the final
    vars, so brute_force_serializable accepts it as well."""
    witness = lock_point_order(trace, txns)
    if witness is not None:
        assert_valid_witness(trace, txns, witness)


@pytest.mark.parametrize("case,doctored", SMALL)
def test_lock_point_order_never_passes_where_the_oracle_fails(case, doctored):
    trace, txns = small_case(case)
    if doctored:
        doctor_balance(trace)
    assert_lock_point_order_is_sound(trace, txns)


def test_lock_point_order_never_passes_where_the_oracle_fails_on_random():
    for seed in range(300):
        trace, txns = random_case(seed)
        for doctored in (False, True):
            if doctored:
                doctor_balance(trace)
            assert_lock_point_order_is_sound(trace, txns)


def test_forged_round_reaches_the_search(monkeypatch):
    # the forged ack puts layer 1's transfer in the trace before layer
    # 0's, so the lock-point order breaks layer order; the search finds
    # a witness that keeps it
    searched = []
    original = verify._search

    def spy(*args):
        searched.append(original(*args))
        return searched[-1]

    monkeypatch.setattr(verify, "_search", spy)
    trace, txns = small_case("forged-two@0")
    assert lock_point_order(trace, txns) is None
    verdict = check_strict_serializability(trace, txns)
    assert searched == [verdict] and verdict.passed
    assert_valid_witness(trace, txns, verdict.witness)


def test_search_starts_from_the_initial_state_after_a_failed_order():
    # zed sets a/reg to 5 after t's increments; the doctored final 6 is
    # reached only with zed first.  The lock-point order puts t first, so
    # its replay fails with both counters moved, and the search must
    # start again from the initial state to find zed's order
    raw = {
        "name": "restart",
        "chains": [{"id": c, "contracts": [
            {"local": "reg", "kind": "counter", "init": {"count": 0}}]}
            for c in "ab"],
        "bridges": [{"src": "a", "dst": "b", "max_delay": 1},
                    {"src": "b", "dst": "a", "max_delay": 1}],
        "transactions": [{"txid": "t", "proposer": "a", "tick": 0,
                          "actions": [
                              {"chain": c, "target": "reg", "method": "incr",
                               "params": [n]} for n, c in ((1, "a"),
                                                           (2, "b"))]}],
        "adversary": [{"tick": 30, "op": "invoke", "chain": "a",
                       "caller": "zed", "target": "reg", "method": "set",
                       "params": [5]}],
    }
    scenario = parse_scenario(raw)
    world = build_world(scenario, seed=0)
    trace = world.run(scenario.stop)
    txns = list(world.transactions.values())
    assert world.machines[0].outcome == "Committed"
    assert trace.final_vars()[("a", "reg")] == {"count": 5}
    set_final_vars(trace, "a", "reg", {"count": 6})
    assert lock_point_order(trace, txns) is None
    verdict = check_strict_serializability(trace, txns)
    assert verdict.passed
    assert_valid_witness(trace, txns, verdict.witness)


# The witness the search alone returns on every backtrack case: it tries
# amy's set (event 15) first, misses the final count and backtracks to
# zed's (event 7).  The checker returns the lock-point order instead,
# which keeps trace order and needs no backtrack.
BACKTRACK_WITNESS = [7, 15, 1, 9, 18, 24, 34, 40]


@pytest.mark.parametrize("case", ["backtrack@%d" % seed for seed in range(3)])
def test_search_backtracks_on_the_backtrack_case(case):
    trace, txns = run(case)
    verdict = search(trace, txns, budget=len(trace.events))
    assert verdict.witness == BACKTRACK_WITNESS
    assert_valid_witness(trace, txns, verdict.witness)


# --------------------------------------------------------------------------
# Metrics


def test_metrics_match_table_counts():
    expectations = {
        "swap": {"fantom": (3, 4), "mumbai": (3, 3)},
        "swap-lockfail": {"fantom": (2, 3), "mumbai": (2, 2)},
        "swap-updatefail": {"fantom": (3, 4), "mumbai": (3, 3)},
        "three-exchange": {"fantom": (6, 4), "mumbai1": (3, 3),
                           "mumbai2": (3, 3)},
    }
    for name, expected in expectations.items():
        _, trace, _ = run_bundled(name, seed=0)
        report = extract_metrics(trace)
        got = {chain: (row["xc_msgs"], row["tx_count"])
               for chain, row in report.per_chain.items()}
        assert got == expected, name


def test_metrics_transaction_rows():
    _, trace, _ = run_bundled("swap-lockfail", seed=0)
    report = extract_metrics(trace)
    row = report.per_transaction["swap1"]
    assert row["outcome"] == "Aborted"
    assert row["reason"] == "LockConflict"
    assert row["rounds"] == 0


def test_metrics_seed_independent():
    rows = set()
    for seed in range(10):
        _, trace, _ = run_bundled("three-exchange", seed=seed)
        report = extract_metrics(trace)
        rows.add(tuple(sorted((c, r["xc_msgs"], r["tx_count"])
                              for c, r in report.per_chain.items())))
    assert len(rows) == 1
