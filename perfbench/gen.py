"""Seeded input generators for the benchmark.

Both families return scenario dicts in the schema `parse_scenario`
accepts, so the benchmark feeds them to the program without YAML.  The
same arguments always give the same dict.

* Scale family: K fully bridged chains and T two-chain token swaps, one
  every `gap` ticks, the chain pair of each swap drawn from the seed.
* Conflict family: K concurrent two-chain swaps on disjoint chain pairs,
  all proposed at tick 0, with a doctored variant of its trace whose
  final state no serial order can reach.
"""

from __future__ import annotations

import random

from xchainsim import Address, Injection
from xchainsim.trace import ContractSnapshot

BALANCE = 1_000_000


def _token_chain(chain_id: str) -> dict:
    return {"id": chain_id, "contracts": [
        {"local": "token", "kind": "token", "owner": "alice",
         "init": {"alice": BALANCE, "bob": BALANCE}}]}


def _bridge(src: str, dst: str) -> dict:
    return {"src": src, "dst": dst, "max_delay": 3, "reorder": True}


def _swap(txid: str, a: str, b: str, tick: int, x: int, y: int) -> dict:
    return {"txid": txid, "proposer": a, "originator": "alice",
            "tick": tick, "actions": [
                {"id": 0, "chain": a, "target": "token",
                 "method": "transfer", "params": ["alice", "bob", x]},
                {"id": 1, "chain": b, "target": "token",
                 "method": "transfer", "params": ["bob", "alice", y]}]}


def scale_scenario(k: int, t: int, seed: int, gap: int = 5) -> dict:
    rng = random.Random(seed)
    chains = ["c%02d" % i for i in range(k)]
    swaps = []
    for i in range(t):
        a, b = rng.sample(chains, 2)
        swaps.append(_swap("s%d" % i, a, b, gap * i,
                           rng.randint(1, 9), rng.randint(1, 9)))
    return {"name": "scale-k%d-t%d" % (k, t), "lock_order": "canonical",
            "stop": {"quiesce": True, "max_ticks": gap * t + 400},
            "chains": [_token_chain(c) for c in chains],
            "bridges": [_bridge(a, b) for a in chains for b in chains
                        if a != b],
            "transactions": swaps}


def conflict_scenario(k: int, seed: int) -> dict:
    rng = random.Random(seed)
    chains, bridges, swaps = [], [], []
    for i in range(k):
        a, b = "p%02da" % i, "p%02db" % i
        chains += [_token_chain(a), _token_chain(b)]
        bridges += [_bridge(a, b), _bridge(b, a)]
        swaps.append(_swap("x%d" % i, a, b, 0,
                           rng.randint(1, 9), rng.randint(1, 9)))
    return {"name": "conflict-k%d" % k, "lock_order": "canonical",
            "stop": {"quiesce": True, "max_ticks": 400},
            "chains": chains, "bridges": bridges, "transactions": swaps}


def doctor(trace, seed: int) -> None:
    """Bump one seeded final token balance by 1 in place, so that no
    serial order of the trace's events reaches its final state."""
    rng = random.Random(seed)
    tokens = [i for i, s in enumerate(trace.final) if s.kind == "token"]
    index = rng.choice(tokens)
    snap = trace.final[index]
    vars_ = dict(snap.vars)
    key = rng.choice(sorted(vars_))
    vars_[key] += 1
    trace.final[index] = ContractSnapshot(snap.chain, snap.local, snap.kind,
                                          snap.owner, snap.trusted, vars_)


def interference(world) -> list:
    """Eve's out-of-scope counter bump, guarded transfer and foreign lock
    on every chain: the injections of the acceptance interference sweep."""
    out = []
    for chain_id in sorted(world.chains):
        eve = Address(chain_id, "eve")
        token = Address(chain_id, "token")
        out.append(Injection(tick=2, op="invoke", chain=chain_id,
                             caller=eve, target=Address(chain_id, "side"),
                             method="incr", params=[1]))
        if world.chains[chain_id].contract(token) is not None:
            out.append(Injection(tick=4, op="invoke", chain=chain_id,
                                 caller=eve, target=token,
                                 method="transfer",
                                 params=[b"eve", b"bob", 1]))
            out.append(Injection(tick=4, op="lock", chain=chain_id,
                                 caller=eve, target=token))
    return out
