"""Adapter layer: notify, notify-with-ack, remote call, futures, and
dispatch of incoming traffic."""

import pytest

from xchainsim import Address, ScenarioError, StopCondition, World
from xchainsim.adapter import COMPLETED, DELIVERED, PENDING
from xchainsim.trace import ANOMALY, FUTURE, SEND


@pytest.fixture
def notify_world():
    world = World(seed=3)
    world.add_chain("c")
    world.add_chain("d")
    world.add_contract("d", "inbox", "inbox", owner="dora",
                       init={"note_count": 0})
    world.add_contract("d", "token", "token", owner="dora",
                       init={"bal:alice": 8, "bal:bob": 0})
    world.add_bridge("c", "d", max_delay=2, reorder=True)
    world.add_bridge("d", "c", max_delay=2, reorder=True)
    return world


def run_quiet(world):
    return world.run(StopCondition(quiesce=True, max_ticks=100))


def sends(trace):
    return [e for e in trace.events if e.kind == SEND]


def test_notify_one_message_no_future(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    adapter.notify(Address("c", "caller"), b"hi", Address("d", "inbox"))
    trace = run_quiet(world)
    assert world.quiesced
    assert len(sends(trace)) == 1
    assert adapter.futures == {}
    inbox = world.chains["d"].contract(Address("d", "inbox"))
    assert inbox.vars["note_count"] == 1
    assert inbox.vars["note_last"] == b"hi"


def test_notify_to_missing_dest_recorded_not_crashing(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    adapter.notify(Address("c", "caller"), b"hi", Address("d", "ghost"))
    trace = run_quiet(world)
    failed = [e for e in trace.events
              if e.kind == "invoke" and not e.data["ok"]]
    assert failed and failed[0].data["err"] == "UnknownTarget"


def test_anotify_two_messages_future_delivered(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    future = adapter.anotify(Address("c", "caller"), b"ping",
                             Address("d", "inbox"))
    assert adapter.futures == {future.seq: future}
    assert future.state == PENDING
    trace = run_quiet(world)
    assert adapter.futures == {} and future.state == DELIVERED
    assert len(sends(trace)) == 2


def test_rcall_completes_with_remote_result(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    future = adapter.rcall(Address("c", "caller"), Address("d", "token"),
                           "transfer", [b"alice", b"bob", 3])
    run_quiet(world)
    assert future.state == COMPLETED and future.ok
    token = world.chains["d"].contract(Address("d", "token"))
    assert token.vars["bal:alice"] == 5 and token.vars["bal:bob"] == 3


def test_rcall_failure_is_result_not_lost_message(notify_world):
    world = notify_world
    # lock the remote token so the guard rejects the adapter's invocation
    chain = world.chains["d"]
    chain.lock(chain.executor_addr, Address("d", "token"))
    adapter = world.adapter_between("c", "d")
    future = adapter.rcall(Address("c", "caller"), Address("d", "token"),
                           "transfer", [b"alice", b"bob", 3])
    run_quiet(world)
    assert future.state == COMPLETED
    assert future.ok is False
    assert future.result == b"LockedByOther"


def test_rcall_unknown_method_completes_not_ok(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    future = adapter.rcall(Address("c", "caller"), Address("d", "token"),
                           "mystery", [])
    run_quiet(world)
    assert future.state == COMPLETED and future.ok is False
    assert future.result == b"UnknownMethod"


def test_seq_matching_under_reorder(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    futures = [adapter.anotify(Address("c", "caller"), b"m%d" % i,
                               Address("d", "inbox")) for i in range(4)]
    trace = run_quiet(world)
    assert all(f.state == DELIVERED for f in futures)
    # each future resolved exactly once, by its own sequence number
    resolutions = [e for e in trace.events
                   if e.kind == FUTURE and e.data["state"] == DELIVERED]
    assert sorted(e.data["seq"] for e in resolutions) == [0, 1, 2, 3]


def test_futures_are_monotone(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    adapter.anotify(Address("c", "caller"), b"x", Address("d", "inbox"))
    adapter.rcall(Address("c", "caller"), Address("d", "token"),
                  "transfer", [b"alice", b"bob", 1])
    trace = run_quiet(world)
    seen = {}
    rank = {PENDING: 0, DELIVERED: 1, COMPLETED: 1}
    for event in trace.events:
        if event.kind != FUTURE:
            continue
        key = (event.data["adapter"].canon(), event.data["seq"])
        state = rank[event.data["state"]]
        assert seen.get(key, -1) <= state
        seen[key] = state


def test_wrong_chain_rejected(notify_world):
    world = notify_world
    adapter = world.adapter_between("c", "d")
    with pytest.raises(ScenarioError):
        adapter.notify(Address("c", "caller"), b"x", Address("c", "inbox"))
    with pytest.raises(ScenarioError):
        adapter.rcall(Address("c", "caller"), Address("c", "token"),
                      "transfer", [])


def test_unknown_ack_seq_is_anomaly_and_ignored(notify_world):
    world = notify_world
    from xchainsim.bridge import Ack, BridgeMessage
    adapter = world.adapter_between("c", "d")
    future = adapter.anotify(Address("c", "caller"), b"x",
                             Address("d", "inbox"))
    stray = BridgeMessage(999, Ack(seq=555, ok=True), adapter.addr, 0)
    adapter.on_recv(stray)
    anomalies = [e for e in world.trace.events if e.kind == ANOMALY]
    assert anomalies and anomalies[0].data["seq"] == 555
    assert future.state == PENDING


def test_resolved_future_is_dropped_and_still_answered(notify_world):
    world = notify_world
    from xchainsim.bridge import Ack, BridgeMessage
    adapter = world.adapter_between("c", "d")
    future = adapter.anotify(Address("c", "caller"), b"x",
                             Address("d", "inbox"))
    assert adapter.futures == {future.seq: future}
    run_quiet(world)
    assert adapter.futures == {} and world.pending_futures == 0
    assert future.state == DELIVERED
    # a duplicate ack for it is an unknown sequence number, as before
    late = BridgeMessage(999, Ack(seq=future.seq, ok=False), adapter.addr, 0)
    adapter.on_recv(late)
    anomalies = [e for e in world.trace.events if e.kind == ANOMALY]
    assert [(e.data["what"], e.data["seq"]) for e in anomalies] == \
        [("UnknownAckSeq", future.seq)]
    assert future.state == DELIVERED and future.ok
