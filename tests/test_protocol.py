"""Two-phase protocol behavior: the swap message narrative, abort paths,
symmetric conflicts, executor authorization, and adversary resistance."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from xchainsim import (Address, CrossChainTransaction, IndexedAction,
                       Injection, MissingOutcomeError, ScenarioError,
                       StopCondition, Verdict, World, build_world,
                       check_all_or_nothing, check_secure_transfer,
                       check_strict_serializability, extract_metrics,
                       load_scenario, parse_scenario)
from xchainsim.adapter import PENDING
from xchainsim.bridge import ADVERSARIAL, BridgeId, Rcall
from xchainsim.executor import ABORTED, COMMITTED, LOCK_CONFLICT, OP_FAILED
from xchainsim.trace import FUTURE, INVOKE, LOCK, OUTCOME, SEND, UNLOCK

from test_memory import swaps


def run_bundled(name, seed=0, lock_order=None):
    scenario = load_scenario(name)
    world = build_world(scenario, seed=seed, lock_order=lock_order)
    trace = world.run(scenario.stop)
    return world, trace


def initial_vars(trace):
    return {(s.chain, s.local): s.vars for s in trace.initial}


def test_swap_commits_and_moves_balances():
    world, trace = run_bundled("swap", seed=11)
    machine = world.machines[0]
    assert machine.outcome == COMMITTED
    left = world.chains["fantom"].contract(Address("fantom", "token")).vars
    right = world.chains["mumbai"].contract(Address("mumbai", "token")).vars
    # hand-applied legs: 50-5/10+5 and 40-7/5+7
    assert left["bal:alice"] == 45 and left["bal:bob"] == 15
    assert right["bal:bob"] == 33 and right["bal:alice"] == 12


def test_swap_six_messages_in_protocol_order():
    world, trace = run_bundled("swap", seed=2)
    sends = [e for e in trace.events if e.kind == SEND]
    assert len(sends) == 6
    # alternating directions: request out, acknowledgement back, three times
    dirs = [e.chain for e in sends]
    assert dirs == ["fantom", "mumbai"] * 3
    kinds = [e.data["payload"].__class__.__name__ for e in sends]
    assert kinds == ["Rcall", "Ack"] * 3
    methods = [e.data["payload"].method for e in sends
               if kinds[sends.index(e)] == "Rcall"]
    assert methods == ["lock_scope", "run_action", "unlock_scope"]


def test_swap_locks_before_actions_before_unlocks():
    world, trace = run_bundled("swap", seed=9)
    for chain_id in ("fantom", "mumbai"):
        kinds = [e.kind for e in trace.events
                 if e.chain == chain_id and e.kind in (LOCK, UNLOCK)
                 and e.data["ok"]]
        assert kinds == [LOCK, UNLOCK]
        lock_tick = next(e.tick for e in trace.events
                         if e.chain == chain_id and e.kind == LOCK)
        action_tick = next(e.tick for e in trace.events
                           if e.chain == chain_id and e.kind == INVOKE
                           and e.data["method"] == "transfer")
        unlock_tick = next(e.tick for e in trace.events
                           if e.chain == chain_id and e.kind == UNLOCK)
        assert lock_tick <= action_tick <= unlock_tick


def test_lockfail_aborts_with_noop_unlock_on_refusing_chain():
    world, trace = run_bundled("swap-lockfail", seed=4)
    machine = world.machines[0]
    assert machine.outcome == ABORTED and machine.reason == LOCK_CONFLICT
    # the refusing chain still answers the unlock walk, as a no-op
    mumbai_unlocks = [e for e in trace.events
                      if e.chain == "mumbai" and e.kind == INVOKE
                      and e.data["method"] == "unlock_scope"]
    assert len(mumbai_unlocks) == 1 and mumbai_unlocks[0].data["ok"]
    assert not any(e.kind == UNLOCK and e.chain == "mumbai"
                   and e.data["ok"] for e in trace.events)
    # the rival executor still holds its lock afterwards
    token = world.chains["mumbai"].contract(Address("mumbai", "token"))
    assert token.locked and token.locked_by == Address("mumbai", "exec2")


def test_updatefail_restores_both_chains():
    world, trace = run_bundled("swap-updatefail", seed=6)
    machine = world.machines[0]
    assert machine.outcome == ABORTED and machine.reason == OP_FAILED
    initial = initial_vars(trace)
    final = trace.final_vars()
    for key in (("fantom", "token"), ("mumbai", "token")):
        assert final[key] == initial[key]
    # the proposer-side transfer did run before being rolled back
    local_transfer = [e for e in trace.events
                      if e.chain == "fantom" and e.kind == INVOKE
                      and e.data["method"] == "transfer"]
    assert local_transfer and local_transfer[0].data["ok"]


def test_lock_hygiene_no_protocol_locks_survive():
    for name in ("swap", "swap-updatefail", "three-exchange"):
        world, _ = run_bundled(name, seed=8)
        for chain in world.chains.values():
            for contract in chain.contracts.values():
                assert contract.locked_by != chain.executor_addr


def test_three_exchange_commits_with_expected_counts():
    world, trace = run_bundled("three-exchange", seed=1)
    assert world.machines[0].outcome == COMMITTED
    report = extract_metrics(trace)
    assert report.per_chain["fantom"]["xc_msgs"] == 6
    assert report.per_chain["fantom"]["tx_count"] == 4
    for chain_id in ("mumbai1", "mumbai2"):
        assert report.per_chain[chain_id]["xc_msgs"] == 3
        assert report.per_chain[chain_id]["tx_count"] == 3


def test_symmetric_conflict_declared_both_abort():
    for seed in (0, 3, 17):
        world, _ = run_bundled("symmetric-conflict", seed=seed)
        outcomes = {m.txn.txid: (m.outcome, m.reason)
                    for m in world.machines}
        assert outcomes == {"tx-alpha": (ABORTED, LOCK_CONFLICT),
                            "tx-beta": (ABORTED, LOCK_CONFLICT)}


def test_symmetric_conflict_canonical_exactly_one_commits():
    for seed in (0, 3, 17):
        world, _ = run_bundled("symmetric-conflict", seed=seed,
                               lock_order="canonical")
        outcomes = sorted(m.outcome for m in world.machines)
        assert outcomes == [ABORTED, COMMITTED]


def test_sequential_transactions_share_one_executor():
    world = World(seed=5)
    world.add_chain("a")
    world.add_chain("b")
    world.add_contract("a", "tok", "token", owner="o",
                       init={"bal:x": 10, "bal:y": 0})
    world.add_contract("b", "tok", "token", owner="o",
                       init={"bal:x": 10, "bal:y": 0})
    world.add_bridge("a", "b", max_delay=1)
    world.add_bridge("b", "a", max_delay=1)
    for i, tick in enumerate((0, 30)):
        txn = CrossChainTransaction(
            "t%d" % i,
            [IndexedAction(0, Address("a", "tok"), "transfer",
                           (b"x", b"y", 1)),
             IndexedAction(1, Address("b", "tok"), "transfer",
                           (b"x", b"y", 1))],
            set(), Address("a", "user"))
        world.add_transaction(txn, tick=tick)
    world.run(StopCondition(quiesce=True, max_ticks=100))
    assert [m.outcome for m in world.machines] == [COMMITTED, COMMITTED]
    assert world.chains["a"].contract(Address("a", "tok")).vars == \
        {"bal:x": 8, "bal:y": 2}


def test_empty_transaction_commits_vacuously():
    world = World(seed=0)
    world.add_chain("a")
    world.add_contract("a", "tok", "token", owner="o", init={"bal:x": 3})
    txn = CrossChainTransaction("empty", [], set(), Address("a", "user"))
    world.add_transaction(txn, tick=0)
    trace = world.run(StopCondition(quiesce=True, max_ticks=20))
    assert world.machines[0].outcome == COMMITTED
    [outcome] = [e for e in trace.events if e.kind == OUTCOME]
    assert outcome.data["rounds"] == 0
    assert initial_vars(trace) == trace.final_vars()


def test_local_failure_waits_for_the_remote_action_of_its_round(
        two_chain_world):
    world = two_chain_world
    # One round: the proposer's own leg overdraws, the remote leg runs.
    world.add_transaction(CrossChainTransaction(
        "t",
        [IndexedAction(0, Address("left", "token"), "transfer",
                       (b"eve", b"bob", 1)),
         IndexedAction(1, Address("right", "token"), "transfer",
                       (b"bob", b"alice", 7))],
        set(), Address("left", "alice")))
    trace = world.run(StopCondition(quiesce=True, max_ticks=100))
    machine = world.machines[0]
    assert (machine.outcome, machine.reason) == (ABORTED, OP_FAILED)
    [outcome] = [e for e in trace.events if e.kind == OUTCOME]
    assert outcome.data["rounds"] == 1
    remote = [e for e in trace.events if e.chain == "right"
              and e.kind == INVOKE and e.data["method"] == "transfer"]
    assert len(remote) == 1 and remote[0].data["ok"]
    # The unlock request leaves only after the run_action ack resolved.
    calls = [e for e in trace.events if e.kind == SEND
             and e.chain == "left"]
    assert [e.data["payload"].method for e in calls] == \
        ["lock_scope", "run_action", "unlock_scope"]
    run_action_seq = calls[1].data["payload"].seq
    resolved = next(i for i, e in enumerate(trace.events)
                    if e.kind == FUTURE and e.data["seq"] == run_action_seq
                    and e.data["state"] != PENDING)
    assert resolved < trace.events.index(calls[2])
    assert trace.final_vars() == initial_vars(trace)


def test_transaction_on_its_proposer_chain_commits_in_its_propose_tick():
    world = World(seed=0)
    world.add_chain("a")
    world.add_contract("a", "tok", "token", owner="o",
                       init={"bal:x": 10, "bal:y": 0})
    token = Address("a", "tok")
    world.add_transaction(CrossChainTransaction(
        "local",
        [IndexedAction(0, token, "transfer", (b"x", b"y", 3)),
         IndexedAction(1, token, "transfer", (b"y", b"x", 1))],
        {(0, 1)}, Address("a", "user")), tick=3)
    trace = world.run(StopCondition(quiesce=True, max_ticks=20))
    assert world.machines[0].outcome == COMMITTED
    [outcome] = [e for e in trace.events if e.kind == OUTCOME]
    assert outcome.tick == 3 and outcome.data["rounds"] == 2
    assert not any(e.kind in (SEND, FUTURE) for e in trace.events)
    assert world.chains["a"].contract(token).vars == \
        {"bal:x": 8, "bal:y": 2}


def test_propose_while_busy_is_executor_busy():
    world = World(seed=5)
    world.add_chain("a")
    world.add_chain("b")
    world.add_contract("a", "tok", "token", owner="o", init={"bal:x": 10})
    world.add_contract("b", "tok", "token", owner="o", init={"bal:x": 10})
    world.add_bridge("a", "b", max_delay=3)
    world.add_bridge("b", "a", max_delay=3)
    for i in range(2):
        txn = CrossChainTransaction(
            "t%d" % i,
            [IndexedAction(0, Address("a", "tok"), "mint", (b"x", 1)),
             IndexedAction(1, Address("b", "tok"), "mint", (b"x", 1))],
            set(), Address("a", "user"))
        world.add_transaction(txn, tick=0)  # both at tick 0: second is busy
    trace = world.run(StopCondition(quiesce=True, max_ticks=100))
    proposes = [e for e in trace.events
                if e.kind == INVOKE and e.data["method"] == "propose"]
    assert [e.data["ok"] for e in proposes] == [True, False]
    assert proposes[1].data["err"] == "ExecutorBusy"
    assert len(world.machines) == 1


def test_executor_methods_require_trusted_caller(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    eve = Address("left", "eve")
    for method, params in (
            ("lock_scope", [b"tx", b"left/token"]),
            ("run_action", [b"tx", b"left/token", b"transfer"]),
            ("unlock_scope", [b"tx", False])):
        outcome = chain.invoke(eve, chain.executor_addr, method, params)
        assert not outcome.ok and outcome.reason == "NotTrusted"


def test_run_action_outside_locked_scope_is_refused(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    executor = chain.executor_addr
    token = chain.contract(Address("left", "token"))
    before = dict(token.vars)
    outcome = chain.invoke(executor, executor, "run_action",
                           [b"tx", b"left/token", b"transfer",
                            b"alice", b"bob", 1])
    assert not outcome.ok and outcome.reason == "ScopeNotLocked"
    assert token.vars == before


def test_adversary_interference_does_not_break_atomicity():
    scenario = load_scenario("swap")
    world = build_world(scenario, seed=13)
    eve = Address("mumbai", "eve")
    world.add_injection(Injection(
        tick=4, op="invoke", chain="mumbai", caller=eve,
        target=Address("mumbai", "token"), method="transfer",
        params=[b"eve", b"alice", 1]))
    world.add_injection(Injection(
        tick=4, op="lock", chain="mumbai", caller=eve,
        target=Address("mumbai", "token")))
    world.add_injection(Injection(
        tick=2, op="invoke", chain="fantom",
        caller=Address("fantom", "eve"), target=Address("fantom", "side"),
        method="incr", params=[5]))
    trace = world.run(scenario.stop)
    assert world.machines[0].outcome == COMMITTED
    verdict = check_all_or_nothing(
        trace, [world.transactions["swap1"]])
    assert verdict.passed, verdict.violations
    attempts = [e for e in trace.events
                if e.kind == INVOKE and e.data.get("actor") == "mumbai/eve"]
    assert attempts and not attempts[0].data["ok"]
    foreign_locks = [e for e in trace.events
                     if e.kind == LOCK and e.data["caller"] == eve]
    assert foreign_locks and not foreign_locks[0].data["ok"]
    assert foreign_locks[0].data["err"] in ("NotTrusted", "AlreadyLocked")
    side = world.chains["fantom"].contract(Address("fantom", "side"))
    assert side.vars["count"] == 5  # out-of-scope op landed untouched


def test_unlock_scope_is_idempotent(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    executor = chain.executor_addr
    assert chain.invoke(executor, executor, "lock_scope",
                        [b"tx", b"left/token"]).ok
    assert chain.invoke(executor, executor, "unlock_scope",
                        [b"tx", False]).ok
    second = chain.invoke(executor, executor, "unlock_scope", [b"tx", False])
    assert second.ok  # nothing held: answered as a no-op
    assert not any(e.kind == UNLOCK and e.data["ok"] is False
                   for e in world.trace.events[-1:])


def test_lock_scope_empty_scope_acks_trivially(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    executor = chain.executor_addr
    outcome = chain.invoke(executor, executor, "lock_scope", [b"tx"])
    assert outcome.ok
    assert not any(c.locked for c in chain.contracts.values())


def test_lock_scope_partial_failure_releases_acquired(two_chain_world):
    world = two_chain_world
    world.add_contract("left", "tok2", "token", owner="alice",
                       init={"bal:alice": 1})
    chain = world.chains["left"]
    executor = chain.executor_addr
    # pre-lock the second contract through a rival trusted address
    rival = Address("left", "rival")
    chain.contract(Address("left", "tok2")).trusted_executors.add(rival)
    chain.lock(rival, Address("left", "tok2"))
    outcome = chain.invoke(executor, executor, "lock_scope",
                           [b"tx", b"left/token", b"left/tok2"])
    assert not outcome.ok and outcome.reason == LOCK_CONFLICT
    assert not chain.contract(Address("left", "token")).locked
    assert chain.contract(Address("left", "tok2")).locked_by == rival


def test_lock_scope_of_a_missing_contract_is_a_lock_conflict(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    executor = chain.executor_addr
    outcome = chain.invoke(executor, executor, "lock_scope",
                           [b"tx", b"left/token", b"left/nope"])
    assert not outcome.ok and outcome.reason == LOCK_CONFLICT
    assert not chain.contract(Address("left", "token")).locked
    refused = [e for e in world.trace.events
               if e.kind == LOCK and not e.data["ok"]]
    assert [(e.data["target"], e.data["err"]) for e in refused] == [
        (Address("left", "nope"), "UnknownTarget")]


def test_a_contract_cannot_take_the_executors_address(two_chain_world):
    world = two_chain_world
    with pytest.raises(ScenarioError, match="duplicate contract left/exec"):
        world.add_contract("left", "exec", "counter")


def test_adversary_lock_of_the_executor_is_an_unknown_target(
        two_chain_world):
    world = two_chain_world
    eve, executor = Address("left", "eve"), Address("left", "exec")
    world.add_injection(Injection(tick=1, op="lock", chain="left",
                                  caller=eve, target=executor))
    world.add_injection(Injection(tick=2, op="unlock", chain="left",
                                  caller=eve, target=executor, failure=True))
    trace = world.run(StopCondition(quiesce=True, max_ticks=10))
    assert [(e.kind, e.data["target"], e.data["ok"], e.data["err"])
            for e in trace.events if e.kind in (LOCK, UNLOCK)] == [
        (LOCK, executor, False, "UnknownTarget"),
        (UNLOCK, executor, False, "UnknownTarget")]


@pytest.fixture(scope="module")
def adversarial_swap():
    swap = load_scenario("swap")
    return dataclasses.replace(swap, bridges=[
        dataclasses.replace(b, mode=ADVERSARIAL) for b in swap.bridges])


def outcomes(trace):
    return [e.data["outcome"] for e in trace.events if e.kind == OUTCOME]


def executor_calls(trace, chain, method):
    return [(e.tick, e.data["caller"], e.data["ok"], e.data.get("err"))
            for e in trace.events if e.kind == INVOKE and e.chain == chain
            and e.data["method"] == method]


def alices_fantom_balance(world):
    token = world.chains["fantom"].contract(Address("fantom", "token"))
    return token.vars["bal:alice"]


@pytest.mark.parametrize("caller,err", [("eve", "NotOriginator"),
                                        ("alice", "AlreadyProposed")])
def test_a_finished_transaction_is_not_run_again(caller, err):
    # swap1 commits long before tick 30; a second run would make alice
    # pay 5 more fantom tokens
    scenario = load_scenario("swap")
    world = build_world(scenario, seed=0)
    replayer = Address("fantom", caller)
    world.add_injection(Injection(
        tick=30, op="invoke", chain="fantom", caller=replayer,
        target=Address("fantom", "exec"), method="propose",
        params=[b"swap1"]))
    trace = world.run(scenario.stop)
    assert outcomes(trace) == [COMMITTED]
    assert executor_calls(trace, "fantom", "propose") == [
        (0, Address("fantom", "alice"), True, None),
        (30, replayer, False, err)]
    assert alices_fantom_balance(world) == 45
    assert len(world.machines) == 1


@pytest.mark.parametrize("tick", [15, 20])
def test_a_forged_propose_is_refused(adversarial_swap, tick):
    world = build_world(adversarial_swap, seed=0)
    world.add_injection(Injection(
        tick=tick, op="forge", bridge=BridgeId("mumbai", "fantom"),
        payload=Rcall(target=Address("fantom", "exec"), method="propose",
                      params=(b"swap1",), seq=9)))
    trace = world.run(adversarial_swap.stop)
    assert outcomes(trace) == [COMMITTED]
    [_, forged] = executor_calls(trace, "fantom", "propose")
    assert forged[1:] == (Address("fantom", "adapter:mumbai"), False,
                          "NotOriginator")
    assert alices_fantom_balance(world) == 45


@pytest.mark.parametrize("tick", range(6))
def test_a_forged_lock_scope_strands_no_lock(adversarial_swap, tick):
    world = build_world(adversarial_swap, seed=0)
    world.add_injection(Injection(
        tick=tick, op="forge", bridge=BridgeId("fantom", "mumbai"),
        payload=Rcall(target=Address("mumbai", "exec"), method="lock_scope",
                      params=(b"swap1",), seq=9)))
    trace = world.run(adversarial_swap.stop)
    assert world.quiesced
    assert not [c.addr for chain in world.chains.values()
                for c in chain.contracts.values() if c.locked]
    # the honest request and the forged one: whichever comes second is
    # refused, and the other one is served
    calls = executor_calls(trace, "mumbai", "lock_scope")
    assert sorted(err or "" for _, _, _, err in calls) == ["",
                                                          "AlreadyLocked"]


@pytest.mark.parametrize("scenario", [
    load_scenario("swap"), parse_scenario(swaps(4, 20, seed=0))],
    ids=["swap", "swaps-k4"])
def test_a_contract_is_one_object_in_every_event_that_targets_it(scenario):
    # executors decode each distinct address once, so the lock, the
    # action and the unlock of a contract, over all transactions, carry
    # the very same target object (whose text is formatted once)
    trace = build_world(scenario, seed=0).run(scenario.stop)
    objects = {}
    for e in trace.events:
        if e.kind in (LOCK, UNLOCK, INVOKE):
            objects.setdefault(e.data["target"], set()).add(
                id(e.data["target"]))
    locked = {e.data["target"] for e in trace.events if e.kind == LOCK}
    assert len(locked) >= 2
    assert all(len(ids) == 1 for ids in objects.values()), objects


@pytest.mark.parametrize("bad", [7, True, [b"mumbai/token"], b"\xff"],
                         ids=["int", "bool", "list", "not-utf8"])
@pytest.mark.parametrize("method,params", [
    ("lock_scope", ("bad",)),
    ("lock_scope", (b"swap1", "bad")),
    ("run_action", ("bad", b"mumbai/token", b"transfer")),
    ("run_action", (b"swap1", "bad", b"transfer")),
    ("run_action", (b"swap1", b"mumbai/token", "bad"))])
def test_a_request_field_that_is_not_text_is_a_bad_request(
        adversarial_swap, method, params, bad):
    params = tuple(bad if p == "bad" else p for p in params)
    world = build_world(adversarial_swap, seed=0)
    world.add_injection(Injection(
        tick=1, op="forge", bridge=BridgeId("fantom", "mumbai"),
        payload=Rcall(target=Address("mumbai", "exec"), method=method,
                      params=params, seq=9)))
    trace = world.run(adversarial_swap.stop)
    [forged] = [e for e in trace.events if e.kind == INVOKE
                and e.data["method"] == method
                and e.data["params"] == list(params)]
    assert " ok=b0 err=BadRequest" in forged.render()
    assert world.quiesced and outcomes(trace) == [COMMITTED]


# The executor's four methods, the library's, and two it has none of.
FORGED_METHODS = ["propose", "lock_scope", "run_action", "unlock_scope",
                  "transfer", "mint", "incr", "set", "notification", "noop",
                  "fail", "__dispatch__", "nope"]


@st.composite
def forged_rcalls(draw):
    """One rcall forged onto a bridge of the swap: to the executor, a
    contract of the destination chain or a missing one, calling any
    method with params taken from the swap (for an executor method: a
    txid, an address and a method name first)."""
    src, dst = draw(st.sampled_from([("fantom", "mumbai"),
                                     ("mumbai", "fantom")]))
    locals_ = st.sampled_from(["exec", "token", "side", "nope"])
    params = [draw(st.sampled_from([b"swap1", b"nope"])),
              ("%s/%s" % (dst, draw(locals_))).encode(),
              draw(st.sampled_from(FORGED_METHODS)).encode()]
    params += draw(st.lists(st.sampled_from(
        [b"alice", b"bob", 5, 7, True, False]), max_size=3))
    return Injection(
        tick=draw(st.integers(0, 8)), op="forge", bridge=BridgeId(src, dst),
        payload=Rcall(target=Address(dst, draw(locals_)),
                      method=draw(st.sampled_from(FORGED_METHODS)),
                      params=tuple(params[:draw(st.integers(0, 6))]),
                      seq=draw(st.integers(0, 3))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(injection=forged_rcalls())
@example(injection=Injection(
    tick=1, op="forge", bridge=BridgeId("fantom", "mumbai"),
    payload=Rcall(target=Address("mumbai", "exec"), method="run_action",
                  params=(b"swap1", b"mumbai/exec", b"__dispatch__"),
                  seq=0)))
def test_one_forged_rcall_never_stops_a_run_or_a_checker(adversarial_swap,
                                                         injection):
    world = build_world(adversarial_swap, seed=0)
    world.add_injection(injection)
    trace = world.run(adversarial_swap.stop)
    txns = list(world.transactions.values())
    assert isinstance(check_secure_transfer(trace), Verdict)
    assert isinstance(check_strict_serializability(trace, txns), Verdict)
    try:
        assert isinstance(check_all_or_nothing(trace, txns), Verdict)
    except MissingOutcomeError:
        pass    # a forged ack can leave the swap without an outcome


# The protocol's cost (README "Protocol cost"): one transaction on n
# fully bridged chains with one counter incr per chain in each of L
# layers, every action of a layer after every action of the one before,
# over honest bridges that deliver in the next tick, in order.

def cost_scenario(n: int, layers: int) -> dict:
    chains = ["c%d" % i for i in range(n)]
    actions, prec = [], []
    for layer in range(layers):
        for i, chain in enumerate(chains):
            actions.append({"id": layer * n + i, "chain": chain,
                            "target": "reg", "method": "incr",
                            "params": [1]})
            prec += [[(layer - 1) * n + j, layer * n + i]
                     for j in range(n) if layer]
    return {"name": "cost", "stop": {"quiesce": True, "max_ticks": 100},
            "chains": [{"id": c, "contracts": [
                {"local": "reg", "kind": "counter"}]} for c in chains],
            "bridges": [{"src": a, "dst": b, "max_delay": 1,
                         "reorder": False}
                        for a in chains for b in chains if a != b],
            "transactions": [{"txid": "t", "proposer": "c0", "tick": 3,
                              "actions": actions, "prec": prec}]}


def protocol_cost(n: int, layers: int) -> tuple:
    """(outcome tick - propose tick, send events, outcome, rounds)."""
    scenario = parse_scenario(cost_scenario(n, layers))
    trace = build_world(scenario, seed=0).run(scenario.stop)
    propose, = [e for e in trace.events
                if e.kind == INVOKE and e.data["method"] == "propose"]
    outcome, = [e for e in trace.events if e.kind == OUTCOME]
    sends = sum(e.kind == SEND for e in trace.events)
    return (outcome.tick - propose.tick, sends, outcome.data["outcome"],
            outcome.data["rounds"])


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_protocol_cost_is_2_2n_minus_2_plus_l_ticks(n, layers):
    # n-1 round trips to lock, one per layer, n-1 to unlock; each round
    # trip is two ticks and two bridge messages
    assert protocol_cost(n, layers) == (
        2 * (2 * (n - 1) + layers), 2 * (n - 1) * (layers + 2),
        COMMITTED, layers)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_a_one_chain_transaction_commits_in_its_propose_tick(layers):
    # every call is on the proposer's own chain: no round trip at all
    assert protocol_cost(1, layers) == (0, 0, COMMITTED, layers)
