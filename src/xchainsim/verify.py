"""Post-hoc trace checkers.

All checkers consume a finished Trace (events plus the initial and final
contract snapshots the engine embeds in it) and return a Verdict.  The
secure-transfer audit joins deliveries against sealed send records; the
all-or-nothing audit replays committed transactions through the
sequential reference execution and compares scoped state byte for byte;
the strict-serializability checker searches exhaustively for a
reordering of the mutating events into non-overlapping transaction
blocks that replays to the observed final state.

Replay uses one world rebuilt from the initial snapshot.  The search
gives every mutating event one bit and a need mask, the events that
program, layer, actor and real-time order put before it; its progress is
one mask of placed events plus the open transaction.  It replays each
event on its target contract alone, which records nothing.

A search step costs one contract, not the whole world.  A state is one
interned number per contract_entry(), in World.state() order.  A step's
result depends only on the event and its target's entry: lock and
unlock read and write only their target, and a call touches its target
and nothing else, since a method body sees only the target's vars and
the params, and is a pure function of them.  So the search
keeps one table from (event, target entry number) to the target's entry
number after the step, or None when the step is refused or fails.  A
step seen before is a dict lookup and needs no world.  Only before a
step not seen yet does World.restore() bring the replay world to the
frame's state, writing back only the entries that differ from the state
the search remembers the world is in; after the replay only the
target's entry is rebuilt.  The memo key of a search state is the
tuple of entry numbers, the placed mask and the open transaction.  The
search keeps an explicit stack with one frame per placed event, so a
trace of any depth is checked without recursion.

The same fact prunes the search.  A contract's entry changes only
through events that target it, so once the last of them is placed its
variables are final on every extension of the branch.  The step that
places it cuts the branch when they differ from the observed final
variables, and a contract that no mutating event touches must equal
them before the search starts.  A branch that places every event is
then a witness, and no branch with one is cut, so the search meets its
witnesses in the same order as one that compares only at the leaves.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .chain import (Address, Chain, MethodFailure, ScenarioError,
                    contract_entry, same_vars, vars_key)
from .engine import World
from .methods import build_contract
from .trace import (INVOKE, LOCK, OUTCOME, RECV, SEND, UNLOCK, Trace, canon)
from .txn import ideal_execute

SAFETY = "secure-transfer-safety"
LIVENESS = "secure-transfer-liveness"
EXACTLY_ONCE = "exactly-once"
ALL_OR_NOTHING = "all-or-nothing"
SERIALIZABILITY = "strict-serializability"


class MissingOutcomeError(Exception):
    """Trace lacks an outcome event for a transaction under audit."""


class BudgetExceededError(Exception):
    """Trace has more mutating events than the search budget allows."""


@dataclass
class Violation:
    prop: str
    events: list
    explanation: str

    def render(self) -> str:
        ids = ",".join(str(i) for i in self.events)
        return "violation prop=%s events=[%s] note=%s" % (
            self.prop, ids, self.explanation.replace(" ", "_"))


@dataclass
class Verdict:
    passed: bool
    violations: list = field(default_factory=list)
    witness: Optional[list] = None

    @staticmethod
    def from_violations(violations: list,
                        witness: Optional[list] = None) -> "Verdict":
        return Verdict(passed=not violations, violations=violations,
                       witness=witness)

    def render(self, name: str) -> str:
        lines = ["verdict check=%s pass=%s" % (name, canon(self.passed))]
        lines += [v.render() for v in self.violations]
        if self.witness is not None:
            lines.append("witness events=[%s]"
                         % ",".join(str(i) for i in self.witness))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Secure transfer


def check_secure_transfer(trace: Trace) -> Verdict:
    violations = []
    sends = {}
    for index, event in enumerate(trace.events):
        if event.kind == SEND:
            sends[event.data["msgid"]] = (index, event)
    delivered: dict[int, int] = {}
    for index, event in enumerate(trace.events):
        if event.kind != RECV:
            continue
        msg_id = event.data["msgid"]
        if msg_id in delivered:
            violations.append(Violation(
                EXACTLY_ONCE, [delivered[msg_id], index],
                "message %d delivered more than once" % msg_id))
            continue
        delivered[msg_id] = index
        if msg_id not in sends:
            violations.append(Violation(
                SAFETY, [index],
                "delivery of message %d without a recorded send" % msg_id))
            continue
        send_index, send = sends[msg_id]
        sent, got = send.data["payload"], event.data["payload"]
        if send.data["block"] != event.data["origin_block"]:
            violations.append(Violation(
                SAFETY, [send_index, index],
                "message %d claims origin block %d but was sealed in %d"
                % (msg_id, event.data["origin_block"], send.data["block"])))
        # The payload is compared by text, never by ==: Ack(0, True, True)
        # == Ack(0, True, 1), but the two texts differ.  The very object
        # the send recorded has the same text (trace module docstring).
        elif sent is not got and canon(sent) != canon(got):
            violations.append(Violation(
                SAFETY, [send_index, index],
                "message %d payload altered in transit" % msg_id))
    for msg_id, (send_index, _) in sorted(sends.items()):
        if msg_id not in delivered:
            violations.append(Violation(
                LIVENESS, [send_index],
                "message %d was sent but never delivered" % msg_id))
    return Verdict.from_violations(violations)


# --------------------------------------------------------------------------
# Replay-world reconstruction


def build_replay_world(trace: Trace) -> World:
    """Rebuild the trace's initial contracts in a world of bare chains.

    Replay steps contracts directly, so its chains have no executor, and
    a contract may hold any name, the one the run's executor had
    included.  Contracts must come from the built-in method library;
    other method bodies cannot be rebuilt from a trace.
    """
    world = World(seed=0, scenario_name=trace.scenario + ":replay")
    for chain_id in sorted({s.chain for s in trace.initial}):
        world.chains[chain_id] = Chain(chain_id, world.trace)
    for snap in trace.initial:
        try:
            contract = build_contract(
                Address(snap.chain, snap.local), snap.kind, snap.owner,
                snap.vars, snap.trusted)
        except KeyError:
            raise ScenarioError(
                "cannot replay contract kind %r (%s/%s); checkers support "
                "library kinds only" % (snap.kind, snap.chain, snap.local))
        world.chains[snap.chain].add_contract(contract)
    return world


def _outcomes(trace: Trace) -> dict:
    out = {}
    for index, event in enumerate(trace.events):
        if event.kind == OUTCOME:
            out[event.data["txid"]] = (index, event)
    return out


# --------------------------------------------------------------------------
# All or nothing


def check_all_or_nothing(trace: Trace, transactions: list) -> Verdict:
    """Committed transactions must land exactly on the reference result,
    aborted ones must leave no mark: the final scoped state has to equal
    the reference execution of the committed subset, applied in commit
    order to the initial state."""
    outcomes = _outcomes(trace)
    for txn in transactions:
        if txn.txid not in outcomes:
            raise MissingOutcomeError(txn.txid)

    committed = [(index, txn) for txn in transactions
                 for index, event in [outcomes[txn.txid]]
                 if event.data["outcome"] == "Committed"]
    committed.sort(key=lambda pair: pair[0])

    world = build_replay_world(trace)
    violations = []
    for index, txn in committed:
        report = ideal_execute(txn, world)
        if not report.ok:
            violations.append(Violation(
                ALL_OR_NOTHING, [index],
                "%s committed but the reference execution fails at action "
                "%s (%s)" % (txn.txid, report.failed_action,
                             report.failure_reason)))

    # A transaction's scope is its action targets.  The final vars are
    # keyed by (chain, local) tuples, which an Address equals.
    final = trace.final_vars()
    outcome_ids = sorted(i for i, _ in outcomes.values())
    for addr in sorted({a.target for t in transactions for a in t.actions}):
        contract, observed = world.contract(addr), final.get(addr)
        if contract is None:
            note = "has no initial snapshot in the trace"
        elif observed is None or not same_vars(observed, contract.vars):
            note = "ended at %s, reference says %s" % (
                canon(sorted((observed or {}).items())),
                canon(sorted(contract.vars.items())))
        else:
            continue
        violations.append(Violation(ALL_OR_NOTHING, outcome_ids,
                                    "scoped contract %s %s"
                                    % (addr.canon(), note)))
    return Verdict.from_violations(violations)


# --------------------------------------------------------------------------
# Strict serializability


@dataclass
class _MutEvent:
    index: int            # position in trace.events
    chain: str
    kind: str             # invoke | lock | unlock
    caller: Address
    target: Address
    method: Optional[str]
    params: tuple
    failure: bool
    txid: Optional[str]
    actor: Optional[str]
    layer: Optional[int] = None


def _actions_by_method(txn) -> dict:
    """A transaction's actions by method, as (target, params, layer),
    layer by layer: the order in which an honest run invokes them."""
    runs: dict = {}
    for layer, actions in enumerate(txn.layers):
        for a in actions:
            runs.setdefault(a.method, []).append(
                (a.target, tuple(a.params), layer))
    return runs


def _match_action(runs: list, data: dict) -> Optional[int]:
    """The layer of the first unmatched action of the invoke's method
    that it runs, which it then consumes; None if it runs none of them.
    Matching one to one, writing or not, gives a repeated action the
    layer of its own run, not of the first."""
    for n, (target, params, layer) in enumerate(runs):
        if target == data["target"] and params == tuple(data["params"]):
            del runs[n]
            return layer
    return None


def _extract_mutating(trace: Trace, transactions: list) -> tuple:
    """The mutating events, each action invoke with the layer of the
    action it runs, and per transaction its propose and outcome ticks
    (for the real-time order between non-overlapping transactions), in
    one pass over the trace."""
    unmatched = {t.txid: _actions_by_method(t) for t in transactions}
    windows = {t.txid: [None, None] for t in transactions}
    events = []
    for index, event in enumerate(trace.events):
        data = event.data
        window = windows.get(data.get("txid"))
        layer = None
        if window is not None:
            if event.kind == OUTCOME:
                window[1] = event.tick
            elif event.kind == INVOKE:
                if window[0] is None and data.get("method") == "propose":
                    window[0] = event.tick
                runs = unmatched[data["txid"]].get(data["method"])
                if runs:
                    layer = _match_action(runs, data)
        if event.kind == INVOKE:
            if not data.get("writes"):
                continue
            ev = _MutEvent(index, event.chain, "invoke", data["caller"],
                           data["target"], data["method"],
                           tuple(data["params"]), False,
                           data.get("txid"), data.get("actor"), layer)
        elif event.kind == LOCK and data["ok"]:
            ev = _MutEvent(index, event.chain, "lock", data["caller"],
                           data["target"], None, (), False,
                           data.get("txid"), None)
        elif event.kind == UNLOCK and data["ok"]:
            ev = _MutEvent(index, event.chain, "unlock", data["caller"],
                           data["target"], None, (), bool(data["failure"]),
                           data.get("txid"), None)
        else:
            continue
        if ev.txid is not None and ev.txid not in windows:
            ev.txid, ev.actor = None, ev.txid
        if ev.txid is None and ev.actor is None:
            ev.actor = ev.caller.canon()
        events.append(ev)
    return events, windows


def _replay_one(contract, ev: _MutEvent) -> bool:
    """Step the event's target; False if refused or failed."""
    if ev.kind == "lock":
        return contract.lock(ev.caller) is None
    if ev.kind == "unlock":
        return contract.unlock(ev.caller, ev.failure) is None
    try:
        contract.call(ev.caller, ev.method, ev.params)
    except MethodFailure:
        return False
    return True


def check_strict_serializability(trace: Trace, transactions: list,
                                 budget: int = 14) -> Verdict:
    """Exhaustive witness search over placed-event masks, memoized.

    A witness is an ordering of all mutating events such that (1) events
    of one transaction keep their per-chain order and their layer order,
    (2) each transaction's events form one contiguous block, (3) blocks
    of transactions that did not overlap in real time keep that order,
    (4) independent actors keep their own per-chain order, and (5)
    replaying the ordering from the initial snapshot reproduces every
    contract's observed final variables.

    Each event gets one bit, in candidate order: independent actors by
    (chain, actor), then transactions in declaration order, each in trace
    order.  Its need mask holds the events that must be placed before it:
    earlier events of its own group on its chain (1, 4), the lower-layer
    events of its transaction (1) and every event of each transaction
    that finished before its own was proposed (3).  A search state is
    the replay state, the mask of placed events and the open transaction
    (2), and it is its own memo key.  Candidates are tried in bit order,
    depth first, from an explicit stack.

    The layer masks are not implied by trace order.  An honest run starts
    a round only after the one before it completes, but the proposer
    takes an ack by its sequence number alone, so a forged ok ack on an
    adversarial bridge can start the next round early.  Its invokes may
    then reach the trace, or even a chain, before the earlier round's.

    A step is keyed by its event and its target's entry, on which alone
    its result depends (module docstring).  The first time a key is
    met, the replay world is restored to the frame's state and the event
    replayed; every later step with that key is a dict lookup.

    Condition (5) is checked one contract at a time.  Only events that
    target a contract change its entry, so its variables are final once
    its last event is placed: the step that places it is cut when they
    differ from the observed ones, and a contract no event targets fails
    the check before any replay if it does not already match.  A cut
    branch holds no witness, and the branches that remain are tried in
    the same order, so every witness and verdict is the one a search
    that compared the whole state at each leaf would return.
    """
    events, windows = _extract_mutating(trace, transactions)
    if len(events) > budget:
        raise BudgetExceededError(
            "%d mutating events exceed the budget of %d"
            % (len(events), budget))

    rank = {t.txid: i for i, t in enumerate(transactions)}

    def group(ev: _MutEvent) -> tuple:
        return (0, ev.chain, ev.actor) if ev.txid is None \
            else (1, rank[ev.txid])

    events.sort(key=group)          # bit i is events[i]
    block = dict.fromkeys(rank, 0)  # each transaction's events
    layers: dict = {}               # txid -> layer -> its events
    for i, ev in enumerate(events):
        if ev.txid is not None:
            block[ev.txid] |= 1 << i
        if ev.layer is not None:
            by_layer = layers.setdefault(ev.txid, {})
            by_layer[ev.layer] = by_layer.get(ev.layer, 0) | 1 << i
    # Real time: a transaction needs every transaction whose outcome tick
    # is strictly below its propose tick.  Sorted by outcome tick, those
    # are a prefix, so one OR per prefix serves every transaction.
    ended = sorted((end, txid) for txid, (_, end) in windows.items()
                   if end is not None)
    end_ticks = [end for end, _ in ended]
    prefix = [0]
    for _, txid in ended:
        prefix.append(prefix[-1] | block[txid])
    before = {txid: prefix[bisect_left(end_ticks, start)] & ~block[txid]
              for txid, (start, _) in windows.items() if start is not None}

    need = []
    on_chain: dict = {}             # (group, chain) -> its events so far
    for i, ev in enumerate(events):
        key = (group(ev), ev.chain)
        mask = before.get(ev.txid, 0) | on_chain.get(key, 0)
        on_chain[key] = on_chain.get(key, 0) | 1 << i
        if ev.layer is not None:
            for layer, bits in layers[ev.txid].items():
                if layer < ev.layer:
                    mask |= bits
        need.append(mask)

    world = build_replay_world(trace)
    # Keyed by (chain, local) tuples, which an Address equals.
    final = {key: vars_key(v) for key, v in trace.final_vars().items()}

    # A state is one entry number per contract, in World.state() order;
    # equal entries share a number, so states compare and hash as ints.
    table: list = []                # number -> contract entry
    numbers: dict = {}              # contract entry -> number

    def intern(entry: tuple) -> int:
        number = numbers.get(entry)
        if number is None:
            number = numbers[entry] = len(table)
            table.append(entry)
        return number

    start = tuple(intern(entry) for entry in world.state())
    slot = {table[n][0]: p for p, n in enumerate(start)}
    contracts = [world.contract(addr) for addr in slot]
    where = [slot.get(ev.target) for ev in events]
    # Each slot's events and final vars: a slot is final once its last
    # event is placed, and one left untouched must already be.
    touch = [0] * len(slot)
    for i, p in enumerate(where):
        if p is not None:
            touch[p] |= 1 << i
    ends = [final.get(addr) for addr in slot]
    if any(not touch[p] and table[n][1] != ends[p]
           for p, n in enumerate(start)):
        return _no_serial_order(events)

    everything = (1 << len(events)) - 1
    seen = {(start, 0, None)}
    order: list = []                # the event that entered each frame
    # Frames of (state, placed mask, open txid, events still to try).
    stack = [(start, 0, None, everything)]
    at = start                      # the state the replay world is in
    # (event, target entry) -> target entry after the step, None if the
    # step is refused or fails (module docstring).
    steps: dict = {}
    found = not events
    while stack and not found:
        state, placed, open_tx, rest = stack[-1]
        unplaced = everything ^ placed
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            if need[i] & unplaced:
                continue
            ev = events[i]
            p = where[i]
            step = (i, None if p is None else state[p])
            after = steps.get(step, steps)
            missed = after is steps
            if missed:
                if at is not state:
                    world.restore(
                        [table[n] for n, m in zip(state, at) if n != m])
                    at = state
                # A missing target, a refused or a failed step leaves
                # the world where it was; else only the target changed.
                after = steps[step] = intern(contract_entry(contracts[p])) \
                    if p is not None and _replay_one(contracts[p], ev) \
                    else None
            if after is None:
                continue
            child = state[:p] + (after,) + state[p + 1:]
            if missed:
                at = child
            now = placed | bit
            if not touch[p] & ~now and table[after][1] != ends[p]:
                continue
            if now == everything:
                order.append(ev.index)
                found = True
                break
            child_open = ev.txid if block.get(ev.txid, 0) & ~now else None
            key = (child, now, child_open)
            if key in seen:
                continue
            seen.add(key)
            stack[-1] = (state, placed, open_tx, rest)
            stack.append((child, now, child_open, ~now & (
                everything if child_open is None else block[child_open])))
            order.append(ev.index)
            break
        else:
            stack.pop()
            if stack:
                order.pop()

    if found:
        return Verdict(True, [], witness=order)
    return _no_serial_order(events)


def _no_serial_order(events: list) -> Verdict:
    return Verdict(False, [Violation(
        SERIALIZABILITY, sorted(ev.index for ev in events),
        "no serial ordering of the mutating events reproduces the final "
        "state under program-order, contiguity, and real-time constraints")],
        witness=None)


# --------------------------------------------------------------------------
# Metrics


@dataclass
class MetricsReport:
    per_chain: dict = field(default_factory=dict)
    per_transaction: dict = field(default_factory=dict)


def extract_metrics(trace: Trace) -> MetricsReport:
    """Per-chain message and operation counts, and each transaction's
    outcome, from one pass over the events."""
    report = MetricsReport()
    # chain -> [xc_msgs, tx_count, op_cost]
    counts = {s.chain: [0, 0, 0] for s in trace.initial}
    proposer_chains = set()
    for event in trace.events:
        kind, chain_id = event.kind, event.chain
        if kind == OUTCOME:
            proposer_chains.add(chain_id)
            report.per_transaction[event.data["txid"]] = {
                "outcome": event.data["outcome"],
                "reason": event.data.get("reason"),
                "rounds": event.data["rounds"],
            }
        if not chain_id:
            continue
        row = counts.setdefault(chain_id, [0, 0, 0])
        if kind == SEND:
            row[0] += 1
        elif kind in (INVOKE, LOCK, UNLOCK):
            row[2] += 1
            if kind == INVOKE and event.data["depth"] == 0:
                row[1] += 1
    for chain_id in sorted(counts):
        xc_msgs, tx_count, op_cost = counts[chain_id]
        report.per_chain[chain_id] = {
            "role": "proposer" if chain_id in proposer_chains
            else "participant",
            "xc_msgs": xc_msgs, "tx_count": tx_count, "op_cost": op_cost,
        }
    return report
