"""What a run keeps alive: a world holds no reference cycle, so dropping
it frees it at once by reference counting, an adapter keeps only its
pending futures, and what a run holds besides its trace grows no faster
than its transactions.

The cyclic collector is switched off around the work in each test, so
anything freed here was freed by reference counting alone."""

import gc
import random
import tracemalloc
import weakref

import pytest

from xchainsim import (Address, MissingOutcomeError, build_world,
                       bundled_scenarios, check_all_or_nothing,
                       check_secure_transfer, check_strict_serializability,
                       load_scenario, parse_scenario)
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
        txns = list(world.transactions.values())
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


def swaps(k: int, t: int, seed: int) -> dict:
    """k fully bridged chains and t two-chain token swaps, one every five
    ticks, each between a pair of chains drawn from the seed."""
    rng = random.Random(seed)
    chains = ["c%d" % i for i in range(k)]
    transactions = []
    for i in range(t):
        a, b = rng.sample(chains, 2)
        transactions.append({
            "txid": "s%d" % i, "proposer": a, "tick": 5 * i, "actions": [
                {"chain": c, "target": "token", "method": "transfer",
                 "params": [src, dst, 1]}
                for c, src, dst in ((a, "alice", "bob"),
                                    (b, "bob", "alice"))]})
    return {"name": "swaps",
            "stop": {"quiesce": True, "max_ticks": 5 * t + 400},
            "chains": [{"id": c, "contracts": [
                {"local": "token", "kind": "token", "owner": "alice",
                 "init": {"alice": 10 ** 6, "bob": 10 ** 6}}]}
                for c in chains],
            "bridges": [{"src": a, "dst": b, "max_delay": 3,
                         "reorder": True}
                        for a in chains for b in chains if a != b],
            "transactions": transactions}


def held_bytes_per_transaction(t: int) -> float:
    """Bytes that building and running an honest K=8 world of t swaps
    leaves allocated once the trace's events are cleared, per swap."""
    scenario = parse_scenario(swaps(8, t, seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = build_world(scenario, seed=0)
        world.run(scenario.stop)
        assert world.quiesced
        world.trace.events.clear()
        return (tracemalloc.get_traced_memory()[0] - before) / t
    finally:
        tracemalloc.stop()


def test_memory_beside_the_trace_is_flat_per_transaction():
    # Measured on CPython 3.11: about 2.1 KB per swap at T=250 and 1.7 KB
    # at T=1000 (the world's fixed part is spread thinner), a ratio of
    # 0.82; seeds 0-3 gave 0.82-0.98.  The 1.1 bound fails a run whose
    # memory per transaction grows with its length.
    held = {}

    def work():
        for t in (250, 1000):
            held[t] = held_bytes_per_transaction(t)

    assert cyclic_garbage(work) == 0
    assert held[1000] <= 1.1 * held[250], held


def test_honest_scale_trace_passes_serializability_in_little_memory():
    # K=8, T=2000 at seed 0: 7,766 mutating events, far above the default
    # budget of 14, so only the lock-point order can pass it.  Measured on
    # CPython 3.11, the check's traced peak was 2.1-2.2 MB at seeds 0-3,
    # where the run's world and trace hold about 22 MB and the search
    # alone peaked at 27 MB.  The 5 MB bound fails a check that keeps
    # more than a few small objects per event.
    scenario = parse_scenario(swaps(8, 2000, seed=0))
    world = build_world(scenario, seed=0)
    trace = world.run(scenario.stop)
    txns = list(world.transactions.values())
    tracemalloc.start()
    try:
        verdict = check_strict_serializability(trace, txns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and len(verdict.witness) == 7766
    assert peak < 5 * 2 ** 20, peak
