"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

The sweeps here are the heavyweight checks: a thousand seeded honest
runs with reordering bridges for the message-authenticity and atomicity
audits, and another thousand with adversary interference for the
serializability witness search.
"""

import time

import pytest

from xchainsim import (build_world, check_all_or_nothing,
                       check_secure_transfer, check_strict_serializability,
                       extract_metrics, load_scenario)
from xchainsim.trace import INVOKE, SEND, ContractSnapshot
from xchainsim.verify import LIVENESS, SAFETY

import test_chain
from test_golden import eve

HONEST_SCENARIOS = ("swap", "swap-lockfail", "swap-updatefail",
                    "three-exchange", "symmetric-conflict")
SEEDS_PER_SCENARIO = 200     # 5 scenarios x 200 seeds = 1000 runs
MAX_DELAY = 3                # every bundled scenario uses this
SERIALIZABILITY_BUDGET = 14


def _report(criterion, ok, detail=""):
    print("ACCEPTANCE %s: %s%s" % ("PASS" if ok else "FAIL", criterion,
                                   " (%s)" % detail if detail else ""))
    assert ok, "%s %s" % (criterion, detail)


def _run(name, seed, lock_order=None, injections=()):
    return _run_loaded(load_scenario(name), seed, lock_order, injections)


def _run_loaded(scenario, seed, lock_order=None, injections=()):
    world = build_world(scenario, seed=seed, lock_order=lock_order)
    for injection in injections:
        world.add_injection(injection)
    trace = world.run(scenario.stop)
    txns = list(world.transactions.values())
    return world, trace, txns


@pytest.fixture(scope="module")
def honest_sweep():
    """1000 honest runs; returns per-run checker verdicts and elapsed."""
    started = time.monotonic()
    results = []
    for name in HONEST_SCENARIOS:
        scenario = load_scenario(name)   # parsed once, as `sweep` does
        for seed in range(SEEDS_PER_SCENARIO):
            world, trace, txns = _run_loaded(scenario, seed)
            # only a forged ack can run an action on an unlocked scope
            assert not any(e.kind == INVOKE and
                           e.data.get("err") == "ScopeNotLocked"
                           for e in trace.events), (name, seed)
            results.append({
                "name": name, "seed": seed,
                "quiesced": world.quiesced,
                "end_tick": world.end_tick,
                "st": check_secure_transfer(trace),
                "aon": check_all_or_nothing(trace, txns),
            })
    return results, time.monotonic() - started


@pytest.fixture(scope="module")
def interference_sweep():
    started = time.monotonic()
    results = []
    for name in HONEST_SCENARIOS:
        scenario = load_scenario(name)
        for seed in range(SEEDS_PER_SCENARIO):
            world = build_world(scenario, seed=seed)
            for injection in eve(world):
                world.add_injection(injection)
            trace = world.run(scenario.stop)
            txns = list(world.transactions.values())
            results.append({
                "name": name, "seed": seed,
                "st": check_secure_transfer(trace),
                "aon": check_all_or_nothing(trace, txns),
                "ser": check_strict_serializability(
                    trace, txns, budget=SERIALIZABILITY_BUDGET),
            })
    return results, time.monotonic() - started


# -- Criterion 1: message and transaction count reproduction ----------------

EXPECTED_COUNTS = {
    "swap": {"fantom": (3, 4), "mumbai": (3, 3)},
    "swap-lockfail": {"fantom": (2, 3), "mumbai": (2, 2)},
    "swap-updatefail": {"fantom": (3, 4), "mumbai": (3, 3)},
    "three-exchange": {"fantom": (6, 4), "mumbai1": (3, 3),
                       "mumbai2": (3, 3)},
}


def test_criterion_1_count_reproduction():
    started = time.monotonic()
    _run("swap", seed=0)
    swap_runtime = time.monotonic() - started
    ok = swap_runtime < 1.0
    for name, expected in EXPECTED_COUNTS.items():
        for seed in (0, 17, 123):
            _, trace, _ = _run(name, seed=seed)
            report = extract_metrics(trace)
            got = {c: (r["xc_msgs"], r["tx_count"])
                   for c, r in report.per_chain.items()}
            if got != expected:
                _report("criterion 1 (counts)", False,
                        "%s seed %d: %s != %s" % (name, seed, got, expected))
    _report("criterion 1 (counts)", ok,
            "all four scenarios exact; swap runtime %.3fs" % swap_runtime)


# -- Criterion 2: six messages for the successful swap ----------------------


def test_criterion_2_six_message_swap():
    for seed in (0, 5, 99):
        _, trace, _ = _run("swap", seed=seed)
        sends = [e for e in trace.events if e.kind == SEND]
        if len(sends) != 6:
            _report("criterion 2 (six messages)", False,
                    "seed %d produced %d sends" % (seed, len(sends)))
    _report("criterion 2 (six messages)", True)


# -- Criterion 3: theorem-as-property suites ---------------------------------


def test_criterion_3_secure_transfer(honest_sweep):
    results, elapsed = honest_sweep
    bad = [r for r in results if not r["st"].passed]
    forge_verdict = check_secure_transfer(_run("adversary-forge", 0)[1])
    drop_verdict = check_secure_transfer(_run("adversary-drop", 0)[1])
    forge_ok = (not forge_verdict.passed and
                {v.prop for v in forge_verdict.violations} == {SAFETY})
    drop_ok = (not drop_verdict.passed and
               {v.prop for v in drop_verdict.violations} == {LIVENESS})
    ok = not bad and forge_ok and drop_ok and elapsed < 60.0
    _report("criterion 3 (secure transfer)", ok,
            "%d runs in %.1fs; forge->safety %s, drop->liveness %s, "
            "failures %d" % (len(results), elapsed, forge_ok, drop_ok,
                             len(bad)))


def test_criterion_3_all_or_nothing(honest_sweep):
    results, elapsed = honest_sweep
    bad = [r for r in results if not r["aon"].passed]
    _report("criterion 3 (all-or-nothing)", not bad,
            "%d runs, %d failures, sweep %.1fs"
            % (len(results), len(bad), elapsed))


def test_criterion_3_strict_serializability(interference_sweep):
    results, elapsed = interference_sweep
    missing = [r for r in results if not r["ser"].passed]
    # the interference runs must also stay clean for the other checkers
    side_bad = [r for r in results
                if not (r["st"].passed and r["aon"].passed)]
    fixtures_fail = (_fixture_state_mismatch_fails()
                     and _fixture_realtime_violation_fails())
    ok = not missing and not side_bad and fixtures_fail and elapsed < 120.0
    _report("criterion 3 (strict serializability)", ok,
            "%d runs in %.1fs; no witness in %d; other checkers failed in "
            "%d; violating fixtures fail: %s"
            % (len(results), elapsed, len(missing), len(side_bad),
               fixtures_fail))


def _fixture_state_mismatch_fails() -> bool:
    _, trace, txns = _run("swap", seed=5)
    doctored = []
    for snap in trace.final:
        if snap.chain == "mumbai" and snap.local == "token":
            vars_ = dict(snap.vars)
            vars_["bal:alice"] += 1
            snap = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                    snap.owner, snap.trusted, vars_)
        doctored.append(snap)
    trace.final = doctored
    return not check_strict_serializability(trace, txns).passed


def _fixture_realtime_violation_fails() -> bool:
    from xchainsim import parse_scenario
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
    txns = [world.transactions[t] for t in ("first", "second")]
    doctored = []
    for snap in trace.final:
        if snap.chain == "a" and snap.local == "reg":
            snap = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                    snap.owner, snap.trusted, {"count": 1})
        doctored.append(snap)
    trace.final = doctored
    return not check_strict_serializability(trace, txns).passed


# -- Criterion 4: lock discipline property test ------------------------------


def test_criterion_4_lock_discipline():
    for seed in range(10_000):
        test_chain._stress_once(seed)
    _report("criterion 4 (lock discipline)", True,
            "10000 random sequences, guard safety and checkpoint fidelity "
            "exact")


# -- Criterion 5: symmetric conflict ----------------------------------------


def test_criterion_5_symmetric_conflict():
    for seed in (0, 1, 2, 3, 4, 50, 500):
        world, _, _ = _run("symmetric-conflict", seed=seed,
                           lock_order="declared")
        outcomes = {m.txn.txid: (m.outcome, m.reason)
                    for m in world.machines}
        both_aborted = all(o == ("Aborted", "LockConflict")
                           for o in outcomes.values())
        if not (both_aborted and len(outcomes) == 2):
            _report("criterion 5 (symmetric conflict)", False,
                    "declared order, seed %d: %s" % (seed, outcomes))
        world, _, _ = _run("symmetric-conflict", seed=seed,
                           lock_order="canonical")
        committed = [m.txn.txid for m in world.machines
                     if m.outcome == "Committed"]
        if len(committed) != 1:
            _report("criterion 5 (symmetric conflict)", False,
                    "canonical order, seed %d committed %s"
                    % (seed, committed))
    _report("criterion 5 (symmetric conflict)", True,
            "declared: both abort; canonical: exactly one commits")


# -- Criterion 6: determinism ------------------------------------------------


def test_criterion_6_determinism():
    from xchainsim import bundled_scenarios
    for name in bundled_scenarios():
        scenario = load_scenario(name)
        first = build_world(scenario, seed=42).run(scenario.stop).render()
        second = build_world(scenario, seed=42).run(scenario.stop).render()
        if first != second:
            _report("criterion 6 (determinism)", False, name)
    _report("criterion 6 (determinism)", True,
            "all bundled scenarios bit-identical at fixed seed")


# -- Criterion 7: termination bound ------------------------------------------


def test_criterion_7_termination_bound(honest_sweep):
    results, _ = honest_sweep
    layers = 1   # every bundled transaction is a single layer
    bound = 4 * (layers + 2) * 2 * (MAX_DELAY + 2)
    late = [r for r in results
            if not r["quiesced"] or r["end_tick"] > bound]
    _report("criterion 7 (termination bound)", not late,
            "bound %d ticks; %d/%d runs quiesced in time"
            % (bound, len(results) - len(late), len(results)))
