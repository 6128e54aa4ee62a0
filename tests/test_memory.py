"""What a run keeps alive: a world holds no reference cycle, so dropping
it frees it at once by reference counting, and an adapter keeps only its
pending futures.

The cyclic collector is switched off around the work in each test, so
anything freed here was freed by reference counting alone."""

import gc
import weakref

import pytest

from xchainsim import (Address, MissingOutcomeError, build_world,
                       bundled_scenarios, check_all_or_nothing,
                       check_secure_transfer, check_strict_serializability,
                       load_scenario)
from xchainsim.adapter import PENDING
from xchainsim.trace import FUTURE

from test_golden import eve


def cyclic_garbage(work) -> int:
    """Run work() with the cyclic collector off, then return the number
    of unreachable objects a full collection finds."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def components(world) -> list:
    return [world, world.trace, *world.chains.values(),
            *world.bridges.values(), *world.adapters.values(),
            *world.executors.values(), *world.machines]


@pytest.mark.parametrize("name,run", [("swap", True),
                                      ("adversary-drop", True),
                                      ("three-exchange", False)])
def test_dropped_world_is_freed_at_once(name, run):
    scenario = load_scenario(name)
    refs = []

    def work():
        world = build_world(scenario, seed=0)
        if run:
            world.run(scenario.stop)
            # adversary-drop stops on its tick limit, mid-transaction
            assert world.quiesced == (name != "adversary-drop")
        refs.extend(weakref.ref(c) for c in components(world))
        del world
        assert all(ref() is None for ref in refs)

    assert cyclic_garbage(work) == 0
    assert len(refs) > 4


@pytest.mark.parametrize("name", bundled_scenarios())
@pytest.mark.parametrize("interfere", [False, True], ids=["", "eve"])
def test_run_and_checkers_leave_no_cyclic_garbage(name, interfere):
    def work():
        scenario = load_scenario(name)
        world = build_world(scenario, seed=0)
        if interfere:
            for injection in eve(world):
                world.add_injection(injection)
        trace = world.run(scenario.stop)
        txns = [world.transactions[txid] for _, txid in world.tx_schedule]
        check_secure_transfer(trace)
        try:
            check_all_or_nothing(trace, txns)
        except MissingOutcomeError:
            pass
        # unbounded, so the replay world is built and searched
        check_strict_serializability(trace, txns, budget=10 ** 6)

    assert cyclic_garbage(work) == 0


def test_component_outliving_its_world_raises():
    world = build_world(load_scenario("swap"), seed=0)
    adapter = world.adapter_between("fantom", "mumbai")
    del world
    with pytest.raises(ReferenceError):
        adapter.notify(Address("fantom", "alice"), b"hi",
                       Address("mumbai", "token"))


def test_quiesced_run_keeps_no_future():
    for name in ("swap", "three-exchange", "symmetric-conflict"):
        scenario = load_scenario(name)
        world = build_world(scenario, seed=0)
        world.run(scenario.stop)
        assert world.quiesced
        assert world.pending_futures == 0
        assert all(a.futures == {} for a in world.adapters.values())


def test_unfinished_run_keeps_exactly_the_pending_futures():
    scenario = load_scenario("adversary-drop")
    world = build_world(scenario, seed=0)
    trace = world.run(scenario.stop)
    last = {}                       # (adapter, seq) -> its last state
    for event in trace.events:
        if event.kind == FUTURE:
            last[(event.data["adapter"], event.data["seq"])] = \
                event.data["state"]
    pending = {key for key, state in last.items() if state == PENDING}
    kept = {(a.addr, seq) for a in world.adapters.values()
            for seq in a.futures}
    assert pending and kept == pending
    assert world.pending_futures == len(pending)
