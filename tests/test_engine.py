"""Engine behavior: determinism, quiescence, block-rate skew, delivery
from active bridges, scenario loading and validation."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from xchainsim import (Address, Injection, ScenarioError, StopCondition,
                       ValidationError, World, build_world, bundled_scenarios,
                       load_scenario, parse_scenario)
from xchainsim.bridge import Ack, BridgeId
from xchainsim.trace import INVOKE, OUTCOME, RECV, SEND

BUNDLED = ["adversary-drop", "adversary-forge", "swap", "swap-lockfail",
           "swap-updatefail", "symmetric-conflict", "three-exchange"]


def test_bundled_scenarios_present():
    assert bundled_scenarios() == BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_same_seed_bit_identical_traces(name):
    scenario = load_scenario(name)
    first = build_world(scenario, seed=42).run(scenario.stop).render()
    second = build_world(scenario, seed=42).run(scenario.stop).render()
    assert first == second


def test_different_seed_changes_schedule_not_outcome():
    scenario = load_scenario("swap")
    ticks = set()
    for seed in range(8):
        world = build_world(scenario, seed=seed)
        world.run(scenario.stop)
        assert world.machines[0].outcome == "Committed"
        ticks.add(world.end_tick)
    assert len(ticks) > 1  # delays actually vary with the seed


def test_quiesce_waits_for_everything():
    scenario = load_scenario("swap")
    world = build_world(scenario, seed=0)
    world.run(scenario.stop)
    assert world.quiesced
    assert all(not b.queue for b in world.bridges.values())
    assert all(m.outcome is not None for m in world.machines)
    # an adapter keeps a future only while it is pending
    assert all(a.futures == {} for a in world.adapters.values())


def test_max_ticks_stop_leaves_quiesced_false():
    scenario = load_scenario("adversary-drop")
    world = build_world(scenario, seed=0)
    world.run(scenario.stop)
    assert not world.quiesced
    assert world.machines[0].outcome is None


# Chain "a" seals every second tick, so block indices lag the tick.
SKEWED = {
    "name": "skewed",
    "chains": [
        {"id": "a", "seal_every": 2, "contracts": [
            {"local": "tok", "kind": "token", "owner": "o",
             "init": {"x": 9, "y": 0}}]},
        {"id": "b", "contracts": [
            {"local": "tok", "kind": "token", "owner": "o",
             "init": {"x": 9, "y": 0}}]},
    ],
    "bridges": [
        {"src": "a", "dst": "b", "max_delay": 2},
        {"src": "b", "dst": "a", "max_delay": 2},
    ],
    "transactions": [
        {"txid": "t", "proposer": "a", "actions": [
            {"chain": "a", "target": "tok", "method": "transfer",
             "params": ["x", "y", 1]},
            {"chain": "b", "target": "tok", "method": "transfer",
             "params": ["x", "y", 1]},
        ]},
    ],
}


def test_seal_skew_still_commits():
    scenario = parse_scenario(SKEWED)
    world = build_world(scenario, seed=3)
    world.run(scenario.stop)
    assert world.quiesced
    assert world.machines[0].outcome == "Committed"
    assert world.chains["a"].contract(Address("a", "tok")).vars == \
        {"bal:x": 8, "bal:y": 1}


def mesh(k: int) -> dict:
    """k fully bridged reordering chains, paired off; both chains of a
    pair propose a swap with each other at tick 0, so several bridges
    deliver in the same tick, some of them several messages at once."""
    chains = ["m%d" % i for i in range(k)]

    def swap(i: int, j: int) -> dict:
        return {"txid": "s%d" % i, "proposer": chains[i], "tick": 0,
                "originator": "alice", "actions": [
                    {"chain": c, "target": "token", "method": "transfer",
                     "params": [src, dst, i + 1]}
                    for c, src, dst in ((chains[i], "alice", "bob"),
                                        (chains[j], "bob", "alice"))]}

    return {"name": "mesh%d-reorder" % k,
            "chains": [{"id": c, "contracts": [
                {"local": "token", "kind": "token", "owner": "alice",
                 "init": {"alice": 100, "bob": 100}}]} for c in chains],
            "bridges": [{"src": a, "dst": b, "max_delay": 3,
                         "reorder": True}
                        for a in chains for b in chains if a != b],
            "transactions": [swap(i, i ^ 1) for i in range(k)]}


def test_pending_future_count_matches_a_scan():
    # quiescence reads the world's count of unresolved futures; it must
    # agree with a scan of every adapter's futures at every tick
    scenario = parse_scenario(mesh(6))
    world = build_world(scenario, seed=0)
    quiescent, counts = world.quiescent, []

    def checked() -> bool:
        scan = sum(len(adapter.futures) for adapter in world.adapters.values())
        assert world.pending_futures == scan, world.trace.tick
        counts.append(scan)
        return quiescent()

    world.quiescent = checked
    world.run(scenario.stop)
    assert world.quiesced and len(counts) == world.end_tick + 1
    assert max(counts) > 0 and counts[-1] == 0


@pytest.mark.parametrize("name", ["mesh6"] + BUNDLED)
@pytest.mark.parametrize("seed", range(3))
def test_no_pending_future_means_every_machine_is_done(name, seed):
    # quiescence asks no machine: one that has not finished waits on a
    # remote future, which is still pending at the check.  Every run
    # checks for quiescence, adversary-drop's too, which never quiesces.
    if name == "mesh6":
        scenario = parse_scenario(mesh(6))
    else:
        scenario = load_scenario(name)
    world = build_world(scenario, seed=seed)
    quiescent, checks = world.quiescent, []

    def checked() -> bool:
        done = all(m.outcome is not None for m in world.machines)
        assert done or world.pending_futures, world.trace.tick
        checks.append(done)
        return quiescent()

    world.quiescent = checked
    world.run(StopCondition(quiesce=True, max_ticks=scenario.stop.max_ticks))
    assert checks and world.machines


def unpaired(bridges: list, chains: tuple) -> dict:
    """Chains a, b and c with a token each, `bridges`, and a transaction
    proposed on a with a transfer on each of `chains`."""
    return {"name": "unpaired",
            "chains": [{"id": c, "contracts": [
                {"local": "token", "init": {"alice": 5}}]}
                for c in ("a", "b", "c")],
            "bridges": bridges,
            "transactions": [{"txid": "t1", "proposer": "a",
                              "originator": "alice", "actions": [
                                  {"chain": c, "target": "token",
                                   "method": "transfer",
                                   "params": ["alice", "bob", 1]}
                                  for c in chains]}]}


def pair(src: str, dst: str, tag: int = 0) -> list:
    return [{"src": src, "dst": dst, "tag": tag},
            {"src": dst, "dst": src, "tag": tag}]


@pytest.mark.parametrize("bridges,chains,missing", [
    ([], ("a", "b"), "b"),
    (pair("a", "b")[:1], ("a", "b"), "b"),
    (pair("a", "b")[1:], ("a", "b"), "b"),
    (pair("a", "b", tag=1), ("a", "b"), "b"),
    (pair("a", "b") + pair("b", "c"), ("a", "b", "c"), "c"),
    (pair("a", "c"), ("b", "a", "c"), "b"),
    ([], ("a",), None),
    (pair("a", "b") + pair("a", "c"), ("a", "b", "c"), None),
], ids=["no-bridge", "a-to-b-only", "b-to-a-only", "tag-1-pair-only",
        "pair-beyond-the-proposer", "one-of-two-pairs", "proposer-only",
        "every-pair"])
def test_a_transaction_needs_the_adapter_pair_to_each_chain_it_touches(
        bridges, chains, missing):
    # the pair its proposer calls through is checked at build, so no
    # ScenarioError comes from the run
    scenario = parse_scenario(unpaired(bridges, chains))
    if missing is not None:
        with pytest.raises(ScenarioError, match="^t1: no adapter pair "
                           "between a and %s$" % missing):
            build_world(scenario)
        return
    world = build_world(scenario)
    world.run(scenario.stop)
    assert world.quiesced and world.machines[0].outcome == "Committed"


@pytest.mark.parametrize("tick", [0, 30])
def test_a_name_that_is_not_utf8_is_bad_params(tick):
    # no injection stops a run with an exception
    scenario = load_scenario("swap")
    world = build_world(scenario, seed=0)
    eve, token = Address("fantom", "eve"), Address("fantom", "token")
    for method, params in (("transfer", [b"\xff", b"bob", 1]),
                           ("mint", [b"\xff", 1])):
        world.add_injection(Injection(tick=tick, op="invoke", chain="fantom",
                                      caller=eve, target=token,
                                      method=method, params=params))
    trace = world.run(scenario.stop)
    assert world.quiesced and world.machines[0].outcome == "Committed"
    assert [(e.tick, e.data["method"], e.data["err"])
            for e in trace.events
            if e.kind == INVOKE and e.data["caller"] == eve] == [
        (tick, "transfer", "BadParams"), (tick, "mint", "BadParams")]


def _adversarial_world() -> World:
    """Two chains, honest left>right, adversarial right>left, no traffic."""
    world = World(seed=5)
    for chain_id in ("left", "right"):
        world.add_chain(chain_id)
        world.add_contract(chain_id, "token", "token", owner="alice",
                           init={"bal:alice": 50, "bal:bob": 50})
    world.add_bridge("left", "right")
    world.add_bridge("right", "left", mode="adversarial")
    return world


FORGE = Injection(tick=0, op="forge", bridge=BridgeId("right", "left"),
                  payload=Ack(seq=999, ok=True))


def test_forge_onto_empty_bridge_is_delivered():
    world = _adversarial_world()
    world.add_injection(FORGE)
    world.run()
    recvs = [e for e in world.trace.events if e.kind == RECV]
    assert [e.data["msgid"] for e in recvs] == [1]
    assert world.quiesced and not world.active_bridges


def test_forge_with_no_route_back_needs_a_dest():
    # a forge with no dest goes to the adapter of the reverse pair, so
    # with no reverse bridge it is rejected before the run starts
    world = World(seed=0)
    world.add_chain("a")
    world.add_chain("b")
    world.add_bridge("a", "b", mode="adversarial")
    forge = Injection(tick=1, op="forge", bridge=BridgeId("a", "b"),
                      payload=Ack(seq=0, ok=True))
    with pytest.raises(ScenarioError, match=re.escape(
            "adversary forge at tick 1: no adapter pair between b and a, "
            "so the forge needs a dest")):
        world.add_injection(forge)
    assert world.injections == []
    forge.dest = Address("b", "token")
    world.add_injection(forge)
    world.run()
    assert world.quiesced


def test_adapter_between_finds_the_adapter_of_each_tagged_pair():
    world = World(seed=0)
    for chain in ("a", "b", "c"):
        world.add_chain(chain)
    for tag in (0, 1):
        world.add_bridge("a", "b", tag=tag)
        world.add_bridge("b", "a", tag=tag)
    world.add_bridge("a", "c")
    assert world.adapter_between("a", "b").addr == Address("a", "adapter:b")
    assert world.adapter_between("b", "a", 1).addr == \
        Address("b", "adapter:a#1")
    for local, remote, tag in (("a", "c", 0), ("c", "a", 0), ("a", "b", 2)):
        with pytest.raises(ScenarioError, match="^no adapter pair between "
                           "%s and %s$" % (local, remote)):
            world.adapter_between(local, remote, tag)


def test_forge_with_no_dest_goes_to_the_adapter_of_its_tagged_pair():
    world = World(seed=0)
    world.add_chain("a")
    world.add_chain("b")
    for tag in (0, 1):
        world.add_bridge("a", "b", mode="adversarial", tag=tag)
        world.add_bridge("b", "a", mode="adversarial", tag=tag)
    world.add_injection(Injection(tick=1, op="forge",
                                  bridge=BridgeId("a", "b", 1),
                                  payload=Ack(seq=0, ok=True)))
    world.run()
    [recv] = [e for e in world.trace.events if e.kind == RECV]
    assert recv.data["bridge"] == BridgeId("a", "b", 1)
    assert recv.data["dest"] == Address("b", "adapter:a#1")


def test_drop_that_empties_a_queue_still_quiesces():
    world = _adversarial_world()
    drop = Injection(tick=0, op="drop", bridge=FORGE.bridge, queue_index=0)
    world._apply_injection(FORGE)
    world._apply_injection(drop)
    # The bridge stays listed as active with an empty queue until the
    # next delivery phase; quiescence must not be fooled either way.
    assert world.active_bridges == {FORGE.bridge}
    assert world.quiescent() == all(not b.queue
                                    for b in world.bridges.values())

    world = _adversarial_world()
    world.add_injection(FORGE)
    world.add_injection(drop)
    world.run()
    assert world.quiesced and world.end_tick == 0
    assert not world.active_bridges
    assert not any(e.kind == RECV for e in world.trace.events)


@pytest.mark.parametrize("seed", range(4))
def test_send_cites_count_of_earlier_seal_ticks(seed):
    scenario = parse_scenario(SKEWED)
    world = build_world(scenario, seed=seed)
    trace = world.run(scenario.stop)
    sends = [e for e in trace.events if e.kind == SEND]
    assert {e.chain for e in sends} == {"a", "b"}
    for event in sends:
        every = world.chains[event.chain].seal_every
        earlier = sum(1 for tick in range(event.tick) if tick % every == 0)
        assert event.data["block"] == earlier


def test_unknown_chain_reference_names_location():
    raw = {"name": "bad", "chains": [{"id": "a"}],
           "bridges": [{"src": "a", "dst": "ghost"}]}
    with pytest.raises(ValidationError, match="ghost"):
        parse_scenario(raw)


def named_scenario(**names) -> dict:
    """A two-chain scenario with a transaction, an adversary invoke and
    two forged payloads, whose names are the defaults below unless given
    in `names`."""
    n = dict(name="names", chain="a", executor="exec", local="tok",
             owner="alice",
             trusted="exec", holder="alice", txid="t", originator="alice",
             target="tok", action_method="transfer", caller="eve",
             method="transfer", rcall_chain="b", rcall_target="tok",
             rcall_method="transfer", anotify_chain="b", anotify_dest="tok",
             origin_chain="a", origin="eve")
    n.update(names)
    return {
        "name": n["name"],
        "chains": [{"id": n["chain"], "executor": n["executor"],
                    "contracts": [{"local": n["local"], "kind": "token",
                                   "owner": n["owner"],
                                   "trusted": [n["trusted"]],
                                   "init": {n["holder"]: 5}}]},
                   {"id": "b", "contracts": [{"local": "tok"}]}],
        "bridges": [{"src": n["chain"], "dst": "b", "mode": "adversarial"},
                    {"src": "b", "dst": n["chain"]}],
        "transactions": [{"txid": n["txid"], "proposer": n["chain"],
                          "originator": n["originator"], "actions": [
                              {"chain": n["chain"], "target": n["target"],
                               "method": n["action_method"],
                               "params": ["alice", "bob", 1]}]}],
        "adversary": [
            {"tick": 1, "op": "invoke", "chain": n["chain"],
             "caller": n["caller"], "target": n["target"],
             "method": n["method"]},
            {"tick": 1, "op": "forge", "src": n["chain"], "dst": "b",
             "payload": {"type": "rcall", "chain": n["rcall_chain"],
                         "target": n["rcall_target"],
                         "method": n["rcall_method"]}},
            {"tick": 1, "op": "forge", "src": n["chain"], "dst": "b",
             "payload": {"type": "anotify", "chain": n["anotify_chain"],
                         "dest": n["anotify_dest"],
                         "origin_chain": n["origin_chain"],
                         "origin": n["origin"]}}],
    }


# Where each name of `named_scenario` is read.  A name used in several
# places is rejected at its first, in file order.
CONTRACT = "names.chains[0].contracts[0]"
ACTION = "names.transactions[0].actions[0]"
NAME_KINDS = {"name": "scenario.name", "chain": "names.chains[0].id",
              "executor": "names.chains[0].executor",
              "local": CONTRACT + ".local", "owner": CONTRACT + ".owner",
              "trusted": CONTRACT + ".trusted[0]",
              "holder": CONTRACT + ".init[0]",
              "txid": "names.transactions[0].txid",
              "originator": "names.transactions[0].originator",
              "target": ACTION + ".target",
              "action_method": ACTION + ".method",
              "caller": "names.adversary[0].caller",
              "method": "names.adversary[0].method",
              "rcall_chain": "names.adversary[1].payload.chain",
              "rcall_target": "names.adversary[1].payload.target",
              "rcall_method": "names.adversary[1].payload.method",
              "anotify_chain": "names.adversary[2].payload.chain",
              "anotify_dest": "names.adversary[2].payload.dest",
              "origin_chain": "names.adversary[2].payload.origin_chain",
              "origin": "names.adversary[2].payload.origin"}


@pytest.mark.parametrize("key", sorted(NAME_KINDS))
def test_names_that_would_break_the_trace_are_rejected(key):
    build_world(parse_scenario(named_scenario()))
    for bad in ["al ice", "a\tb", "x=y", "a,b", "a/b", "adapter:x", "a#1",
                "a>b", "[a]", "{a}", "(a)", ""]:
        with pytest.raises(ValidationError,
                           match=re.escape("%s: %r must"
                                           % (NAME_KINDS[key], bad))):
            parse_scenario(named_scenario(**{key: bad}))


def fuzz_base() -> dict:
    """The bundled swap with adversarial bridges, a precedence pair and
    one injection of every op, each payload type among them."""
    def token(owner, balances):
        return {"local": "token", "kind": "token", "owner": owner,
                "init": balances, "trusted": ["exec"]}
    return {
        "name": "fuzz", "lock_order": "canonical",
        "stop": {"quiesce": True, "max_ticks": 60},
        "chains": [
            {"id": "fantom", "seal_every": 1, "executor": "exec",
             "contracts": [token("alice", {"alice": 50, "bob": 10}),
                           {"local": "side", "kind": "counter",
                            "init": {"count": 0}}]},
            {"id": "mumbai", "contracts": [token("bob", {"bob": 40}),
                                           {"local": "box", "kind": "inbox",
                                            "init": {"note_count": 0}}]}],
        "bridges": [{"src": a, "dst": b, "max_delay": 3, "reorder": True,
                     "mode": "adversarial", "tag": 0}
                    for a, b in [("fantom", "mumbai"), ("mumbai", "fantom")]],
        "transactions": [{
            "txid": "swap1", "proposer": "fantom", "originator": "alice",
            "tick": 0, "prec": [[0, 1]], "actions": [
                {"id": 0, "chain": "fantom", "target": "token",
                 "method": "transfer", "params": ["alice", "bob", 5]},
                {"id": 1, "chain": "mumbai", "target": "token",
                 "method": "transfer", "params": ["bob", "alice", 7]}]}],
        "adversary": [
            {"tick": 2, "op": "invoke", "chain": "fantom", "caller": "eve",
             "target": "side", "method": "incr", "params": [1]},
            {"tick": 3, "op": "lock", "chain": "mumbai", "caller": "eve",
             "target": "token"},
            {"tick": 4, "op": "unlock", "chain": "mumbai", "caller": "eve",
             "target": "token", "failure": True},
            {"tick": 1, "op": "forge", "src": "mumbai", "dst": "fantom",
             "fake_block": 0, "dest": "exec",
             "payload": {"type": "ack", "seq": 9, "ok": True, "result": 1}},
            {"tick": 2, "op": "corrupt", "src": "fantom", "dst": "mumbai",
             "index": 0, "payload": {"type": "rcall", "chain": "mumbai",
                                     "target": "token", "method": "mint",
                                     "params": ["eve", 3], "seq": 0}},
            {"tick": 2, "op": "forge", "src": "fantom", "dst": "mumbai",
             "payload": {"type": "anotify", "chain": "mumbai",
                         "dest": "box", "origin_chain": "fantom",
                         "origin": "eve", "data": "x", "seq": 4}},
            {"tick": 3, "op": "drop", "src": "mumbai", "dst": "fantom",
             "msgid": 5}]}


def node_paths(node, path=()):
    """The path of every node below `node`: its keys and list indexes."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


FUZZ_PATHS = list(node_paths(fuzz_base()))
OTHER_VALUES = st.one_of(
    st.integers(0, 9), st.integers(-9, -1), st.floats(allow_nan=False),
    st.sampled_from(["", "x", "a b", "false", "fantom", "token", "1"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["x", "tick"]), st.integers(0, 3),
                    max_size=1),
    st.none(), st.booleans())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_PATHS), OTHER_VALUES)
def test_a_mistyped_node_is_a_scenario_error_or_runs(path, value):
    raw = fuzz_base()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        scenario = parse_scenario(raw)
        world = build_world(scenario, seed=0)
    except ScenarioError:
        return
    world.run(scenario.stop)
    assert world.quiesced or world.end_tick == scenario.stop.max_ticks - 1


def test_unknown_contract_in_transaction_rejected():
    raw = {
        "name": "bad",
        "chains": [{"id": "a", "contracts": []}],
        "transactions": [{"txid": "t", "proposer": "a", "actions": [
            {"chain": "a", "target": "ghost", "method": "transfer"}]}],
    }
    scenario = parse_scenario(raw)
    with pytest.raises(ScenarioError, match="ghost"):
        build_world(scenario)


def test_worlds_built_from_one_scenario_share_its_transactions():
    # a transaction is built and layered once, when the file is read, so
    # every seed of a sweep runs the very same object
    scenario = load_scenario("three-exchange")
    worlds = [build_world(scenario, seed=seed) for seed in range(3)]
    assert scenario.transactions
    for tick, txn in scenario.transactions:
        for world in worlds:
            assert world.transactions[txn.txid] is txn
            assert (tick, txn.txid) in world.tx_schedule


def test_cyclic_precedence_rejected_at_parse():
    raw = {
        "name": "bad",
        "chains": [{"id": "a", "contracts": [
            {"local": "tok", "kind": "token", "owner": "o",
             "init": {"x": 5}}]}],
        "transactions": [{"txid": "t", "proposer": "a",
                          "actions": [
                              {"id": 0, "chain": "a", "target": "tok",
                               "method": "mint", "params": ["x", 1]},
                              {"id": 1, "chain": "a", "target": "tok",
                               "method": "mint", "params": ["x", 1]}],
                          "prec": [[0, 1], [1, 0]]}],
    }
    with pytest.raises(ScenarioError, match="t: precedence is cyclic"):
        parse_scenario(raw)


def test_missing_scenario_file_is_validation_error():
    with pytest.raises(ValidationError):
        load_scenario("/nonexistent/path.yaml")


def test_layered_transaction_runs_round_per_layer():
    # a diamond across two chains: layer count 3, rounds 3
    raw = {
        "name": "diamond",
        "chains": [
            {"id": "a", "contracts": [
                {"local": "t1", "kind": "counter", "init": {"count": 0}},
                {"local": "t2", "kind": "counter", "init": {"count": 0}}]},
            {"id": "b", "contracts": [
                {"local": "t1", "kind": "counter", "init": {"count": 0}},
                {"local": "t2", "kind": "counter", "init": {"count": 0}}]},
        ],
        "bridges": [
            {"src": "a", "dst": "b", "max_delay": 2, "reorder": True},
            {"src": "b", "dst": "a", "max_delay": 2, "reorder": True},
        ],
        "transactions": [
            {"txid": "d", "proposer": "a", "actions": [
                {"id": 0, "chain": "a", "target": "t1", "method": "incr",
                 "params": [1]},
                {"id": 1, "chain": "b", "target": "t1", "method": "incr",
                 "params": [2]},
                {"id": 2, "chain": "a", "target": "t2", "method": "incr",
                 "params": [3]},
                {"id": 3, "chain": "b", "target": "t2", "method": "incr",
                 "params": [4]},
            ], "prec": [[0, 1], [0, 2], [1, 3], [2, 3]]}],
    }
    scenario = parse_scenario(raw)
    world = build_world(scenario, seed=2)
    trace = world.run(scenario.stop)
    machine = world.machines[0]
    assert machine.outcome == "Committed"
    [outcome] = [e for e in trace.events if e.kind == OUTCOME]
    assert outcome.data["rounds"] == 3
    for chain_id, local, count in (("a", "t1", 1), ("b", "t1", 2),
                                   ("a", "t2", 3), ("b", "t2", 4)):
        assert world.chains[chain_id].contract(
            Address(chain_id, local)).vars["count"] == count
