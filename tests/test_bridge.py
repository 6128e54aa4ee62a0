"""Bridge behavior: seal-time binding of origin blocks, delays, FIFO vs
reorder delivery, and adversarial injections."""

import random

import pytest

from xchainsim import Address, NotAdversarialBridge, ScenarioError
from xchainsim.bridge import Ack, Bridge, BridgeId, BridgeMessage, BridgePolicy


def msg(i):
    return BridgeMessage(i, Ack(seq=i, ok=True), Address("b", "q"), 0)


def test_origin_block_bound_at_seal(two_chain_world):
    world = two_chain_world
    adapter = world.adapter_between("left", "right")
    chain = world.chains["left"]
    chain.invoke(Address("left", "alice"), Address("left", "token"),
                 "transfer", [b"alice", b"bob", 1])
    chain.seal_block(0)   # no sends
    adapter.notify(Address("left", "alice"), b"one", Address("right", "token"))
    adapter.notify(Address("left", "alice"), b"two", Address("right", "token"))
    world._seal_chain(chain, 1)  # block 1 carries both sends
    queued = world.bridges[BridgeId("left", "right")].queue
    assert [q.message.origin_block for q in queued] == [1, 1]


def test_send_to_wrong_chain_rejected(two_chain_world):
    world = two_chain_world
    bridge = world.bridges[BridgeId("left", "right")]
    with pytest.raises(ScenarioError):
        bridge.validate_send(Address("left", "p"), Address("left", "q"))


def test_delay_within_bounds_and_fifo_no_overtake():
    rng = random.Random(1)
    bridge = Bridge(BridgeId("a", "b"), BridgePolicy(max_delay=3))
    for i in range(20):
        due = bridge.enqueue(msg(i), now=0, rng=rng)
        assert 1 <= due <= 3
    # head-of-line blocking: nothing overtakes an undelivered head
    delivered = []
    for now in range(1, 5):
        delivered += [m.msg_id for m in bridge.take_due(now, rng)]
    assert delivered == list(range(20))


def test_reorder_delivers_due_in_seeded_permutation():
    rng = random.Random(7)
    bridge = Bridge(BridgeId("a", "b"),
                    BridgePolicy(max_delay=1, allow_reorder=True))
    for i in range(6):
        bridge.enqueue(msg(i), now=0, rng=rng)
    batch = [m.msg_id for m in bridge.take_due(1, rng)]
    assert sorted(batch) == list(range(6))
    rng2 = random.Random(7)
    bridge2 = Bridge(BridgeId("a", "b"),
                     BridgePolicy(max_delay=1, allow_reorder=True))
    for i in range(6):
        bridge2.enqueue(msg(i), now=0, rng=rng2)
    assert [m.msg_id for m in bridge2.take_due(1, rng2)] == batch
    assert not bridge.take_due(2, rng)  # queue drained


def test_honest_bridge_refuses_injections():
    rng = random.Random(0)
    bridge = Bridge(BridgeId("a", "b"), BridgePolicy())
    with pytest.raises(NotAdversarialBridge):
        bridge.forge(msg(9), 0, rng)
    with pytest.raises(NotAdversarialBridge):
        bridge.drop(1)
    with pytest.raises(NotAdversarialBridge):
        bridge.corrupt(1, Ack(seq=0, ok=False))


def test_adversarial_drop_and_corrupt():
    rng = random.Random(0)
    bridge = Bridge(BridgeId("a", "b"),
                    BridgePolicy(max_delay=1, mode="adversarial"))
    bridge.enqueue(msg(1), 0, rng)
    bridge.enqueue(msg(2), 0, rng)
    assert bridge.drop(1).msg_id == 1
    assert bridge.queued_ids() == [2]
    new_payload = Ack(seq=99, ok=False)
    assert bridge.corrupt(2, new_payload).payload is new_payload
    assert bridge.drop(42) is None


def test_corrupt_replaces_only_the_payload():
    rng = random.Random(0)
    bridge = Bridge(BridgeId("a", "b"),
                    BridgePolicy(max_delay=1, mode="adversarial"))
    old = BridgeMessage(7, Ack(seq=7, ok=True), Address("b", "adapter:a"), 3)
    bridge.enqueue(old, 0, rng)
    new_payload = Ack(seq=99, ok=False)
    new = bridge.corrupt(7, new_payload)
    assert bridge.queue[0].message is new
    assert new == old._replace(payload=new_payload)
    assert old.payload == Ack(seq=7, ok=True)   # the old message is intact
