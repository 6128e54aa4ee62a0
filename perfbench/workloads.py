"""The benchmark's workloads: the inputs each makes from its seed, the
timed op, and what the op's outputs are checked against.

An op calls the program's public entry points through `call(name, fn,
*args)`, which a traced run turns into a span per call.  Each op returns
the verdict triple (secure transfer, all-or-nothing, serializability),
the trace it produced or audited, and that trace's rendering.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from xchainsim import (build_world, bundled_scenarios, check_all_or_nothing,
                       check_secure_transfer, check_strict_serializability,
                       load_scenario, parse_scenario)
from xchainsim.trace import (ADVERSARY, ANOMALY, FUTURE, INVOKE, LOCK,
                             OUTCOME, RECV, SEAL, SEND, UNLOCK)
from xchainsim.verify import BudgetExceededError, MissingOutcomeError

import gen

PASS, FAIL = "pass", "fail"
NO_OUTCOME = "no-outcome"   # all-or-nothing raised MissingOutcomeError
BUDGET = "budget"           # serializability raised BudgetExceededError
CHECKER_RAISED = (NO_OUTCOME, BUDGET)

CLI_BUDGET = 14             # `xchainsim check --budget` default
HONEST = ("swap", "swap-lockfail", "swap-updatefail", "three-exchange",
          "symmetric-conflict")
# Verdicts the bundled adversarial scenarios are built to produce.
ADVERSARIAL_OWED = {
    "adversary-drop": (FAIL, NO_OUTCOME, PASS),
    "adversary-forge": (FAIL, PASS, PASS),
}
SCALE_K, SCALE_T = 32, 150
SER_PASS_K, SER_FAIL_K = 16, 5
SER_TRACES = 4              # conflict traces per seed, audited in turn

# Trace-derived counts, in the order the expected files store them.
COUNTS = ("engine.events", "engine.ticks", "verify.mutating_events",
          "chain.invokes", "chain.invokes_failed", "chain.locks",
          "chain.locks_refused", "chain.seals", "bridge.sends",
          "bridge.recvs", "bridge.max_in_flight", "adapter.futures",
          "adapter.anomalies", "executor.committed", "executor.aborted",
          "executor.rejected_busy", "executor.latency_p50_ticks",
          "executor.latency_max_ticks")


@dataclass
class Input:
    variant: str         # key of the expected record within a seed
    owed: frozenset      # verdict triples accepted where no record exists
    args: tuple          # what the op needs


@dataclass
class Output:
    verdicts: tuple
    trace: object
    txns: list
    text: str


@dataclass
class Workload:
    name: str
    inputs: Callable     # seed -> list of Input
    op: Callable         # (args, call) -> Output
    # Op time goes as the reference kernel's time to this power when the
    # host's speed drifts (run.HostSpeed; fitted in README.md).
    speed_exponent: float = 1.0


def _verdict(verdict) -> str:
    return PASS if verdict.passed else FAIL


def _check_cli(call, world, trace, budget):
    """The three checkers as `xchainsim check` runs them; budget None
    leaves serializability out."""
    txns = [world.transactions[txid] for _, txid in world.tx_schedule]
    st = _verdict(call("verify.secure_transfer", check_secure_transfer,
                       trace))
    try:
        aon = _verdict(call("verify.all_or_nothing", check_all_or_nothing,
                            trace, txns))
    except MissingOutcomeError:
        aon = NO_OUTCOME
    ser = None
    if budget is not None:
        try:
            ser = _verdict(call("verify.serializability",
                                check_strict_serializability, trace, txns,
                                budget=budget))
        except BudgetExceededError:
            ser = BUDGET
    return (st, aon, ser), txns


# bundled-check ------------------------------------------------------------

def bundled_inputs(seed: int) -> list:
    out = []
    for sim_seed in (2 * seed, 2 * seed + 1):
        for name in bundled_scenarios():
            owed = ADVERSARIAL_OWED.get(name, (PASS, PASS, PASS))
            out.append(Input("%s@%d" % (name, sim_seed), frozenset([owed]),
                             (name, False, sim_seed)))
        for name in HONEST:
            out.append(Input("%s+eve@%d" % (name, sim_seed),
                             frozenset([(PASS, PASS, PASS)]),
                             (name, True, sim_seed)))
    return out


def bundled_op(args, call) -> Output:
    name, interfere, sim_seed = args
    scenario = call("scenario.load", load_scenario, name)
    world = call("scenario.build", build_world, scenario, sim_seed)
    if interfere:
        for injection in gen.interference(world):
            world.add_injection(injection)
    trace = call("engine.run", world.run, scenario.stop)
    text = call("trace.render", trace.render)
    verdicts, txns = _check_cli(call, world, trace, CLI_BUDGET)
    return Output(verdicts, trace, txns, text)


# scale-engine -------------------------------------------------------------

def scale_inputs(seed: int) -> list:
    # All-or-nothing owes a pass, but proposals that reach a busy executor
    # never get an outcome; that known defect is accepted and counted.
    owed = frozenset([(PASS, PASS, None), (PASS, NO_OUTCOME, None)])
    return [Input("scale@%d" % seed, owed,
                  (gen.scale_scenario(SCALE_K, SCALE_T, seed), seed))]


def scale_op(args, call) -> Output:
    raw, sim_seed = args
    scenario = call("scenario.parse", parse_scenario, raw)
    world = call("scenario.build", build_world, scenario, sim_seed)
    trace = call("engine.run", world.run, scenario.stop)
    text = call("trace.render", trace.render)
    verdicts, txns = _check_cli(call, world, trace, None)
    return Output(verdicts, trace, txns, text)


# ser-pass and ser-fail ----------------------------------------------------

def conflict_inputs(seed: int, k: int, doctored: bool) -> list:
    """Prebuilt conflict-family traces; building them is set-up work."""
    out = []
    for j in range(SER_TRACES):
        sub = seed * SER_TRACES + j
        scenario = parse_scenario(gen.conflict_scenario(k, sub))
        world = build_world(scenario, seed=sub)
        trace = world.run(scenario.stop)
        if doctored:
            gen.doctor(trace, sub)
        txns = [world.transactions[txid] for _, txid in world.tx_schedule]
        owed = (None, None, FAIL if doctored else PASS)
        budget = max(CLI_BUDGET, mutating_events(trace))
        out.append(Input("conflict%d#%d" % (k, j), frozenset([owed]),
                         (trace, txns, trace.render(), budget)))
    return out


def ser_op(args, call) -> Output:
    trace, txns, text, budget = args
    verdict = call("verify.serializability", check_strict_serializability,
                   trace, txns, budget=budget)
    return Output((None, None, _verdict(verdict)), trace, txns, text)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("bundled-check", bundled_inputs, bundled_op),
    Workload("scale-engine", scale_inputs, scale_op),
    Workload("ser-pass",
             lambda seed: conflict_inputs(seed, SER_PASS_K, False), ser_op,
             0.5),
    Workload("ser-fail",
             lambda seed: conflict_inputs(seed, SER_FAIL_K, True), ser_op,
             0.5),
)}


# Trace-derived counts -----------------------------------------------------

def mutating_events(trace) -> int:
    """Events the serializability checker reorders: writing invokes and
    successful locks and unlocks."""
    return sum(1 for e in trace.events
               if (e.kind == INVOKE and e.data.get("writes"))
               or (e.kind in (LOCK, UNLOCK) and e.data["ok"]))


def trace_stats(trace, txns) -> tuple:
    """Counts of one trace (keyed as in COUNTS), the propose-to-outcome
    latency in ticks of each finished transaction, and the number of
    declared transactions that have no outcome event."""
    c = dict.fromkeys(COUNTS, 0)
    c["engine.events"] = len(trace.events)
    c["engine.ticks"] = trace.end_tick + 1
    c["verify.mutating_events"] = mutating_events(trace)
    proposed, latencies = {}, []
    in_flight = 0
    for e in trace.events:
        d = e.data
        if e.kind == INVOKE:
            c["chain.invokes"] += 1
            if not d["ok"]:
                c["chain.invokes_failed"] += 1
                if d["method"] == "propose" and d.get("err") == "ExecutorBusy":
                    c["executor.rejected_busy"] += 1
            elif d["method"] == "propose" and "txid" in d:
                proposed.setdefault(d["txid"], e.tick)
        elif e.kind == LOCK:
            c["chain.locks"] += 1
            c["chain.locks_refused"] += not d["ok"]
        elif e.kind == SEAL:
            c["chain.seals"] += 1
        elif e.kind == SEND:
            c["bridge.sends"] += 1
            in_flight += 1
        elif e.kind == RECV:
            c["bridge.recvs"] += 1
            in_flight -= 1
        elif e.kind == ADVERSARY and d["op"] == "forge":
            in_flight += 1
        elif e.kind == ADVERSARY and d["op"] == "drop" and "msgid" in d:
            in_flight -= 1
        elif e.kind == FUTURE:
            c["adapter.futures"] += d["state"] == "pending"
        elif e.kind == ANOMALY:
            c["adapter.anomalies"] += 1
            in_flight -= d["what"] == "NoSuchAdapter"
        elif e.kind == OUTCOME:
            key = "executor.committed" if d["outcome"] == "Committed" \
                else "executor.aborted"
            c[key] += 1
            if d["txid"] in proposed:
                latencies.append(e.tick - proposed[d["txid"]])
        c["bridge.max_in_flight"] = max(c["bridge.max_in_flight"], in_flight)
    if latencies:
        c["executor.latency_p50_ticks"] = statistics.median(latencies)
        c["executor.latency_max_ticks"] = max(latencies)
    outcomes = {e.data["txid"] for e in trace.events if e.kind == OUTCOME}
    lost = sum(1 for t in txns if t.txid not in outcomes)
    return c, latencies, lost
