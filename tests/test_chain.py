"""Chain-core behavior: guarded invocation, lock/unlock with
checkpoints, block sealing, and the lock-discipline stress test."""

import random

import pytest

from xchainsim import Address, MethodFailure, Trace, World
from xchainsim.chain import Chain, same_vars, vars_key
from xchainsim.methods import build_contract
from xchainsim.trace import INVOKE, SEAL


ALICE = Address("one", "alice")
BOB = Address("one", "bob")
EVE = Address("one", "eve")
TOKEN = Address("one", "token")


@pytest.fixture
def world():
    w = World(seed=0)
    w.add_chain("one")
    w.add_contract("one", "token", "token", owner="alice",
                   init={"bal:alice": 10, "bal:bob": 0, "bal:eve": 0})
    return w


def chain_of(world):
    return world.chains["one"]


def test_transfer_success_applies_balances(world):
    # hand-applied: 10-5=5 for alice, 0+5=5 for bob
    chain = chain_of(world)
    outcome = chain.invoke(ALICE, TOKEN, "transfer", [b"alice", b"bob", 5])
    assert outcome.ok
    assert chain.contract(TOKEN).vars["bal:alice"] == 5
    assert chain.contract(TOKEN).vars["bal:bob"] == 5


def test_transfer_insufficient_funds_is_recorded_noop(world):
    chain = chain_of(world)
    before = dict(chain.contract(TOKEN).vars)
    outcome = chain.invoke(BOB, TOKEN, "transfer", [b"bob", b"alice", 5])
    assert not outcome.ok and outcome.reason == "InsufficientFunds"
    assert chain.contract(TOKEN).vars == before
    assert chain.pending == 1   # the failed invoke is in the open block


def test_locked_contract_rejects_other_callers(world):
    chain = chain_of(world)
    executor = chain.executor_addr
    assert chain.lock(executor, TOKEN).ok
    outcome = chain.invoke(ALICE, TOKEN, "transfer", [b"alice", b"bob", 1])
    assert not outcome.ok and outcome.reason == "LockedByOther"
    # the lock owner can still run the method
    assert chain.invoke(executor, TOKEN, "transfer", [b"alice", b"bob", 1]).ok


def test_unknown_target_and_method_are_failures(world):
    chain = chain_of(world)
    assert chain.invoke(ALICE, Address("one", "nope"), "transfer",
                        []).reason == "UnknownTarget"
    assert chain.invoke(ALICE, TOKEN, "nope", []).reason == "UnknownMethod"


def test_lock_saves_checkpoint_and_requires_trust(world):
    chain = chain_of(world)
    executor = chain.executor_addr
    pre = dict(chain.contract(TOKEN).vars)
    assert chain.lock(executor, TOKEN).ok
    assert chain.contract(TOKEN).checkpoint == vars_key(pre)
    assert chain.contract(TOKEN).locked_by == executor
    # double lock, even by the owner of the lock, is refused
    assert chain.lock(executor, TOKEN).reason == "AlreadyLocked"
    # untrusted callers are refused on an unlocked contract too
    chain.unlock(executor, TOKEN, failure=False)
    assert chain.lock(EVE, TOKEN).reason == "NotTrusted"


def test_unlock_failure_restores_state_byte_for_byte(world):
    chain = chain_of(world)
    executor = chain.executor_addr
    pre = dict(chain.contract(TOKEN).vars)
    chain.lock(executor, TOKEN)
    chain.invoke(executor, TOKEN, "transfer", [b"alice", b"bob", 7])
    assert chain.contract(TOKEN).vars != pre
    assert chain.unlock(executor, TOKEN, failure=True).ok
    assert chain.contract(TOKEN).vars == pre
    assert not chain.contract(TOKEN).locked
    assert chain.contract(TOKEN).checkpoint is None


def test_unlock_success_keeps_mutations(world):
    chain = chain_of(world)
    executor = chain.executor_addr
    chain.lock(executor, TOKEN)
    chain.invoke(executor, TOKEN, "transfer", [b"alice", b"bob", 7])
    after = dict(chain.contract(TOKEN).vars)
    assert chain.unlock(executor, TOKEN, failure=False).ok
    assert chain.contract(TOKEN).vars == after


def test_unlock_unlocked_or_foreign_is_rejected(world):
    chain = chain_of(world)
    executor = chain.executor_addr
    assert chain.unlock(executor, TOKEN, failure=True).reason == "NotLockOwner"
    chain.lock(executor, TOKEN)
    assert chain.unlock(EVE, TOKEN, failure=True).reason == "NotLockOwner"


def test_lock_and_unlock_of_a_missing_contract_are_refused(world):
    chain = chain_of(world)
    executor, nope = chain.executor_addr, Address("one", "nope")
    events = world.trace.events
    assert chain.lock(executor, nope).reason == "UnknownTarget"
    assert chain.unlock(executor, nope, failure=True).reason == "UnknownTarget"
    assert [(e.kind, e.data["target"], e.data["ok"], e.data["err"])
            for e in events] == [("lock", nope, False, "UnknownTarget"),
                                 ("unlock", nope, False, "UnknownTarget")]
    assert chain.pending == 2   # both attempts are in the open block
    assert nope not in chain.contracts


def test_seal_block_indices_and_counts(two_chain_world):
    world = two_chain_world
    chain = world.chains["left"]
    alice, token = Address("left", "alice"), Address("left", "token")
    for _ in range(3):
        chain.invoke(alice, token, "transfer", [b"alice", b"bob", 1])
    assert chain.seal_block(0) == []
    assert world.open_chains == set()
    # a refused lock, a refused unlock and a send count like invokes
    assert not chain.lock(alice, token).ok
    assert not chain.unlock(alice, token, failure=False).ok
    world.adapter_between("left", "right").notify(
        alice, b"x", Address("right", "token"))
    assert world.open_chains == {"left"}
    [send] = chain.seal_block(1)
    assert send[0].canon() == "left>right#0"
    assert chain.pending == 0 and chain.sends == []
    assert world.open_chains == set()
    assert chain.seal_block(2) == []   # empty: no seal event
    assert [e.data for e in world.trace.events if e.kind == SEAL] == [
        {"block": 0, "count": 3}, {"block": 1, "count": 3}]


def last_invoke(world):
    return [e for e in world.trace.events if e.kind == INVOKE][-1]


def test_setting_a_counter_to_its_value_lists_no_writes(world):
    counter = Address("one", "counter")
    world.add_contract("one", "counter", "counter", init={"count": 3})
    chain = chain_of(world)
    before = world.state()
    outcome = chain.invoke(ALICE, counter, "set", [3])
    assert outcome.ok and outcome.result == 3
    event = last_invoke(world)
    assert event.data["ok"] and "writes" not in event.data
    assert chain.contract(counter).vars == {"count": 3}
    assert world.state() == before


@pytest.mark.parametrize("start", [True, False])
def test_a_call_that_changes_only_a_value_type_writes(world, start):
    # True == 1 and False == 0, yet incr refuses a bool: setting the int
    # is a write, and World.state() tells the two states apart
    world.add_contract("one", "counter", "counter", init={"count": start})
    counter = chain_of(world).contract(Address("one", "counter"))
    before = world.state()
    assert counter.call(ALICE, "set", [int(start)]) == (int(start), True)
    assert type(counter.vars["count"]) is int
    assert world.state() != before
    assert counter.call(ALICE, "incr", [1]) == (int(start) + 1, True)


def test_same_vars_and_vars_key_compare_types():
    assert same_vars({"a": 1, "b": b"x"}, {"b": b"x", "a": 1})
    assert vars_key({"a": 1, "b": b"x"}) == vars_key({"b": b"x", "a": 1})
    for a, b in (({"a": True}, {"a": 1}), ({"a": 0}, {"a": False}),
                 ({"a": 1}, {"a": 1, "b": 1})):
        assert not same_vars(a, b) and not same_vars(b, a)
        assert vars_key(a) != vars_key(b)
    assert vars_key({"b": True, "a": 1}) == \
        ((("a", 1), ("b", True)), (int, bool))
    assert vars_key({"a": 1}) == ((("a", 1),),)   # no bool, no types


def test_transfer_writes_exactly_its_target(world):
    chain = chain_of(world)
    assert chain.invoke(ALICE, TOKEN, "transfer", [b"alice", b"bob", 2]).ok
    event = last_invoke(world)
    assert event.data["writes"] == [TOKEN]
    assert event.render().endswith(" writes=[one/token]")


def test_failed_body_restores_its_target_and_records_no_writes(world):
    chain = chain_of(world)

    def spend_then_fail(vars_, params):
        vars_["bal:alice"] = 0
        vars_["bal:mallory"] = 10
        raise MethodFailure("Changed")

    token = chain.contract(TOKEN)
    token.methods["spend"] = spend_then_fail
    before, state = dict(token.vars), world.state()
    outcome = chain.invoke(ALICE, TOKEN, "spend", [])
    assert not outcome.ok and outcome.reason == "Changed"
    assert token.vars == before and world.state() == state
    event = last_invoke(world)
    assert event.data["err"] == "Changed" and "writes" not in event.data
    # the library is untouched: another token has no such method
    world.add_contract("one", "other", "token")
    assert "spend" not in chain.contract(Address("one", "other")).methods


def test_aborting_unlock_drops_a_holder_added_under_the_lock(world):
    # vars, writes and World.state() as recorded from the implementation
    # that checkpoints a locked contract's whole vars
    chain = chain_of(world)
    executor = chain.executor_addr
    start = {"bal:alice": 10, "bal:bob": 0, "bal:eve": 0}
    # an entry's vars: the sorted items, and no types, as no value is
    # a bool
    start_entry = (tuple(sorted(start.items())),)
    assert chain.lock(executor, TOKEN).ok
    assert world.state() == ((TOKEN, start_entry, executor, start_entry),)
    assert chain.invoke(executor, TOKEN, "transfer",
                        [b"alice", b"carol", 4]).ok
    assert last_invoke(world).data["writes"] == [TOKEN]
    assert chain.contract(TOKEN).vars == {
        "bal:alice": 6, "bal:bob": 0, "bal:eve": 0, "bal:carol": 4}
    assert world.state() == ((TOKEN, ((("bal:alice", 6), ("bal:bob", 0),
                                       ("bal:carol", 4), ("bal:eve", 0)),),
                              executor, start_entry),)
    assert chain.unlock(executor, TOKEN, failure=True).ok
    assert chain.contract(TOKEN).vars == start
    assert world.state() == ((TOKEN, start_entry, None, None),)


# ---------------------------------------------------------------------------
# Lock-discipline stress: random operation sequences against a shadow
# model.  Guard safety means state only moves when the caller may move
# it; checkpoint fidelity means a failed unlock lands exactly on the
# state saved by the matching lock.


def _stress_once(seed: int) -> None:
    rng = random.Random(seed)
    world = World(seed=0)
    world.add_chain("s")
    world.add_contract("s", "tok", "token", owner="alice",
                       init={"bal:alice": 20, "bal:bob": 20})
    chain = world.chains["s"]
    token = Address("s", "tok")
    executor = chain.executor_addr
    second = Address("s", "exec2")
    chain.contract(token).trusted_executors.add(second)
    callers = [executor, second, Address("s", "alice"), Address("s", "eve")]

    shadow = dict(chain.contract(token).vars)
    shadow_checkpoint = None
    shadow_locked_by = None

    for _ in range(rng.randint(1, 14)):
        op = rng.choice(("lock", "unlock", "unlock_keep", "transfer"))
        caller = rng.choice(callers)
        if op == "lock":
            outcome = chain.lock(caller, token)
            may = shadow_locked_by is None and caller in (executor, second)
            assert outcome.ok == may
            if may:
                shadow_locked_by = caller
                shadow_checkpoint = dict(shadow)
        elif op in ("unlock", "unlock_keep"):
            failure = op == "unlock"
            outcome = chain.unlock(caller, token, failure=failure)
            may = shadow_locked_by is not None and caller == shadow_locked_by
            assert outcome.ok == may
            if may:
                if failure:
                    shadow = dict(shadow_checkpoint)
                shadow_locked_by = None
                shadow_checkpoint = None
        else:
            amount = rng.randint(0, 25)
            src, dst = rng.sample(("alice", "bob"), 2)
            outcome = chain.invoke(caller, token, "transfer",
                                   [src.encode(), dst.encode(), amount])
            guard_ok = shadow_locked_by is None or caller == shadow_locked_by
            funded = shadow["bal:" + src] >= amount
            assert outcome.ok == (guard_ok and funded)
            if outcome.ok:
                shadow["bal:" + src] -= amount
                shadow["bal:" + dst] += amount
        assert chain.contract(token).vars == shadow
        locked_by = chain.contract(token).locked_by
        assert locked_by == shadow_locked_by
        if shadow_locked_by is None:
            assert chain.contract(token).checkpoint is None
        else:
            assert chain.contract(token).checkpoint == \
                vars_key(shadow_checkpoint)


def test_lock_discipline_stress_10k_sequences():
    for seed in range(10_000):
        _stress_once(seed)


def test_standalone_chain_stamps_events_with_its_traces_tick():
    trace = Trace()
    chain = Chain("one", trace)
    chain.add_contract(build_contract(TOKEN, "token", ALICE,
                                      {"bal:alice": 10}, {ALICE}))
    chain.invoke(ALICE, TOKEN, "transfer", [b"alice", b"bob", 1])
    trace.tick = 7
    chain.lock(ALICE, TOKEN)
    chain.unlock(ALICE, TOKEN, failure=True)
    trace.tick = 9
    chain.seal_block(0)
    assert [(e.tick, e.kind) for e in trace.events] == [
        (0, "invoke"), (7, "lock"), (7, "unlock"), (9, "seal")]
    assert trace.events[-1].render() == \
        "tick=9 kind=seal chain=one block=i0 count=i3"
