"""Test oracles for strict serializability, shared by every test that
checks the checker's verdict or witness.

They read the rules a witness keeps from the trace directly, replay
each event through its chain on a world rebuilt by build_replay_world,
and compare final vars with same_vars.  So the oracles and the checker
share one step semantics and one equality, while the checker's
lock-point order and its search stay independent of them."""

from itertools import permutations

from xchainsim import verify
from xchainsim.chain import same_vars
from xchainsim.trace import INVOKE, LOCK, OUTCOME, UNLOCK


def witness_rules(trace, txns):
    """The rules a serializability witness keeps, read from the trace
    directly: the mutating events in trace order, one block per
    transaction that must stay contiguous, and (earlier, later, rule)
    pairs for per-chain order inside each transaction and each
    independent actor, layer order inside a transaction and real-time
    order between transactions.

    A transaction's action invokes, writing or not, are matched to its
    actions one to one, in trace order, against the actions taken layer
    by layer: a round starts only after the one before it completes, so
    a repeated action gets the layer of its own run."""
    events = trace.events
    mutating = [i for i, e in enumerate(events)
                if (e.kind == INVOKE and e.data.get("writes"))
                or (e.kind in (LOCK, UNLOCK) and e.data["ok"])]
    by_txid = {t.txid: t for t in txns}
    groups = {}          # txid, or (chain, actor) -> indices in trace order
    for index in mutating:
        data = events[index].data
        txid = data.get("txid")
        key = txid if txid in by_txid else \
            (events[index].chain,
             txid or data.get("actor") or data["caller"].canon())
        groups.setdefault(key, []).append(index)

    pairs = []
    for key, indices in groups.items():
        for n, a in enumerate(indices):
            pairs += [(a, b, (key, events[a].chain)) for b in indices[n + 1:]
                      if events[b].chain == events[a].chain]

    layer = {}           # action invoke index -> its action's layer
    for txn in txns:
        unmatched = [(action, n) for n, actions in enumerate(txn.layers)
                     for action in actions]
        for index, e in enumerate(events):
            if e.kind != INVOKE or e.data.get("txid") != txn.txid:
                continue
            for n, (action, layer_no) in enumerate(unmatched):
                if (action.target, action.method, tuple(action.params)) == \
                        (e.data["target"], e.data["method"],
                         tuple(e.data["params"])):
                    layer[index] = layer_no
                    del unmatched[n]
                    break
        own = [i for i in groups.get(txn.txid, ()) if i in layer]
        pairs += [(a, b, (txn.txid, "layer")) for a in own for b in own
                  if layer[a] < layer[b]]

    start, end = {}, {}
    for e in events:
        if e.kind == INVOKE and e.data.get("method") == "propose":
            start.setdefault(e.data.get("txid"), e.tick)
        elif e.kind == OUTCOME:
            end[e.data["txid"]] = e.tick
    for a in groups:
        for b in groups:
            if a in end and b in start and end[a] < start[b]:
                pairs += [(x, y, (a, b)) for x in groups[a] for y in groups[b]]
    blocks = {key: indices for key, indices in groups.items()
              if key in by_txid}
    return mutating, blocks, pairs


def broken_rule(blocks, pairs, order):
    """The first rule of witness_rules that `order` breaks, or None."""
    position = {index: pos for pos, index in enumerate(order)}
    for txid, block in blocks.items():
        spots = [position[i] for i in block]
        if max(spots) - min(spots) != len(spots) - 1:
            return (txid, "contiguous")
    for a, b, rule in pairs:
        if position[a] > position[b]:
            return rule
    return None


def replay_event(world, e) -> bool:
    """Replay one trace event through its chain; False if refused or
    failed."""
    chain = world.chains[e.chain]
    if e.kind == LOCK:
        outcome = chain.lock(e.data["caller"], e.data["target"])
    elif e.kind == UNLOCK:
        outcome = chain.unlock(e.data["caller"], e.data["target"],
                               bool(e.data["failure"]))
    else:
        outcome = chain.invoke(e.data["caller"], e.data["target"],
                               e.data["method"], list(e.data["params"]))
    return outcome.ok


def final_vars_of(world) -> dict:
    return {(s.chain, s.local): s.vars for s in world.snapshot()}


def same_final_vars(reached, final: dict) -> bool:
    """Whether `reached`, a result of replay_order, is the final vars
    `final`, each contract's compared by same_vars: True is not 1."""
    return isinstance(reached, dict) and reached.keys() == final.keys() \
        and all(same_vars(reached[key], final[key]) for key in final)


def replay_order(trace, txns, order):
    """Replay `order` through the chains of a world rebuilt from the
    initial snapshot: the final vars it reaches, or the index of the
    first event the chain refuses or fails."""
    world = verify.build_replay_world(trace)
    for index in order:
        if not replay_event(world, trace.events[index]):
            return index
    return final_vars_of(world)


def assert_valid_witness(trace, txns, witness):
    """Check a serializability witness against the trace directly: a
    permutation of the mutating events that keeps every rule of
    witness_rules and replays to the observed final vars."""
    mutating, blocks, pairs = witness_rules(trace, txns)
    assert sorted(witness) == mutating
    assert broken_rule(blocks, pairs, witness) is None
    reached = replay_order(trace, txns, witness)
    assert same_final_vars(reached, trace.final_vars()), reached


def brute_force_serializable(trace, txns) -> bool:
    """Test oracle: try every order of the mutating events and accept one
    that keeps the rules and replays to the observed final vars."""
    mutating, blocks, pairs = witness_rules(trace, txns)
    final = trace.final_vars()
    return any(broken_rule(blocks, pairs, order) is None
               and same_final_vars(replay_order(trace, txns, order), final)
               for order in permutations(mutating))


def exhaustive_serializable(trace, txns) -> bool:
    """Test oracle for traces too long to permute: depth first over every
    order of the mutating events that keeps the rules of witness_rules,
    replayed on one world.  A prefix whose placed events, open block and
    world state were met before is not expanded again, since the rest of
    the order depends on nothing else.  The final vars are compared only
    once every event is placed."""
    mutating, blocks, pairs = witness_rules(trace, txns)
    block_of = {i: txid for txid, block in blocks.items() for i in block}
    earlier = {i: set() for i in mutating}
    for a, b, _ in pairs:
        earlier[b].add(a)
    world = verify.build_replay_world(trace)
    final = trace.final_vars()
    seen = set()

    def search(placed, open_txid):
        if len(placed) == len(mutating):
            return same_final_vars(final_vars_of(world), final)
        state = world.state()
        key = (placed, open_txid, state)
        if key in seen:
            return False
        seen.add(key)
        for i in mutating:
            txid = block_of.get(i)
            if i in placed or not earlier[i] <= placed or \
                    open_txid not in (None, txid):
                continue
            if replay_event(world, trace.events[i]):
                now = placed | {i}
                still_open = txid if txid is not None and \
                    not set(blocks[txid]) <= now else None
                if search(now, still_open):
                    return True
            world.restore(state)
        return False

    return search(frozenset(), None)
