"""Deterministic discrete-event scheduler and world container.

Each tick runs four phases in a fixed order: adversary injections fire,
due bridge messages deliver, protocol machines step on the futures those
deliveries resolved (and newly scheduled transactions are proposed), and
finally every chain due to seal closes one block, at which point the
block's bridge sends become in-flight messages with seeded delivery
delays, each citing the block's index as its origin.

A tick costs what happens in it: the tick is written once, into the
trace, which stamps every event recorded during it (no chain keeps a
clock); delivery visits only the bridges that hold messages, and sealing
only the chains whose open block holds a record.  A block's index is the
tick it seals at divided by its chain's `seal_every`, so an empty block
needs no work to be counted.

A run quiesces, once nothing more is scheduled, when no bridge holds a
message, no open block a send and no adapter a pending future.  Machines
need no scan: an unfinished one waits on a remote future, which the
tick's resolutions, dispatched before the check, left pending.
`add_transaction` refuses a transaction whose proposer chain lacks the
adapter pair to a chain it touches, so no ScenarioError comes mid-run.

All nondeterminism (delays, reorder permutations) draws from one seeded
generator, so a (scenario, seed) pair fully determines the trace.

The World owns its components: chains, bridges, adapters, executors and
proposer machines.  It finds an adapter by its address, where bridge
deliveries send, and by the bridge it sends on, the (local chain, remote
chain, tag) triple that `adapter_between` is asked for, so no lookup
builds an address.  A component that needs the world, or an executor
that needs its chain, holds a weak proxy, and a machine reaches its
executor through one.  So a world holds no reference cycle, and
reference counting frees it, trace included, as soon as its last
outside reference goes; no collector pass has to find it.  A component
used after its world is gone raises ReferenceError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .adapter import Adapter
from .bridge import (ADVERSARIAL, Bridge, BridgeId, BridgeMessage,
                     BridgePolicy)
from .chain import Address, Chain, Contract, ScenarioError, contract_entry
from .executor import ExecutorContract
from .methods import build_contract
from .trace import ADVERSARY, ANOMALY, SEND, ContractSnapshot, Trace
from .txn import CrossChainTransaction, validate_transaction

EXECUTOR_LOCAL = "exec"
CHAIN_OPS = ("invoke", "lock", "unlock")
BRIDGE_OPS = ("forge", "drop", "corrupt")


@dataclass
class StopCondition:
    quiesce: bool = True
    max_ticks: int = 400


@dataclass
class Injection:
    tick: int
    op: str                      # invoke | lock | unlock | forge | drop | corrupt
    chain: Optional[str] = None
    caller: Optional[Address] = None
    target: Optional[Address] = None
    method: Optional[str] = None
    params: list = field(default_factory=list)
    failure: bool = False
    bridge: Optional[BridgeId] = None
    payload: object = None
    fake_block: int = 0
    dest: Optional[Address] = None
    queue_index: Optional[int] = None
    msg_id: Optional[int] = None


class World:
    def __init__(self, seed: int = 0, lock_order: str = "canonical",
                 scenario_name: str = "adhoc"):
        if lock_order not in ("canonical", "declared"):
            raise ScenarioError("lock_order must be canonical or declared")
        self.rng = random.Random(seed)
        self.lock_order = lock_order
        self.trace = Trace(scenario=scenario_name, seed=seed,
                           lock_order=lock_order)
        self.chains: dict[str, Chain] = {}
        self.bridges: dict[BridgeId, Bridge] = {}
        # Every bridge with queued messages, and possibly some whose queue
        # a drop emptied; the next delivery phase prunes those.
        self.active_bridges: set[BridgeId] = set()
        # Every chain whose open block holds a record; its chain adds it.
        self.open_chains: set[str] = set()
        self.adapters: dict[Address, Adapter] = {}
        # Each adapter also under the bridge it sends on, the triple
        # (local chain, remote chain, tag) that adapter_between looks up.
        self.adapters_out: dict[BridgeId, Adapter] = {}
        self.executors: dict[str, ExecutorContract] = {}
        self.transactions: dict[str, CrossChainTransaction] = {}
        self.tx_schedule: list = []       # (tick, txid) in declaration order
        self.injections: list[Injection] = []
        self.machines: list = []
        self.kicks: list = []
        self.pending_futures = 0          # issued by any adapter, not resolved
        self.resolutions: list = []       # futures resolved this tick
        self._msg_counter = 0
        self.quiesced = False
        self.end_tick = 0

    # Construction ---------------------------------------------------------

    def add_chain(self, chain_id: str, executor_local: str = EXECUTOR_LOCAL,
                  seal_every: int = 1) -> Chain:
        if chain_id in self.chains:
            raise ScenarioError("duplicate chain %s" % chain_id)
        chain = Chain(chain_id, self.trace, seal_every=seal_every,
                      open_chains=self.open_chains)
        self.chains[chain_id] = chain
        executor = ExecutorContract(self, chain,
                                    Address(chain_id, executor_local))
        chain.executor_addr, chain.dispatch = executor.addr, executor.dispatch
        self.executors[chain_id] = executor
        return chain

    def add_contract(self, chain_id: str, local: str, kind: str,
                     owner: str = "owner", init: Optional[dict] = None,
                     trusted: Optional[list] = None) -> Contract:
        chain = self.chains[chain_id]
        addr = Address(chain_id, local)
        if trusted is None:
            trusted_addrs = (chain.executor_addr,)
        else:
            trusted_addrs = (Address(chain_id, t) for t in trusted)
        contract = build_contract(addr, kind, Address(chain_id, owner),
                                  init or {}, trusted_addrs)
        return chain.add_contract(contract)

    def add_bridge(self, src: str, dst: str, max_delay: int = 3,
                   reorder: bool = False, mode: str = "honest",
                   tag: int = 0) -> Bridge:
        if src not in self.chains or dst not in self.chains:
            raise ScenarioError("bridge %s>%s references an unknown chain"
                                % (src, dst))
        if src == dst:
            raise ScenarioError("bridge endpoints must differ (%s)" % src)
        bridge_id = BridgeId(src, dst, tag)
        if bridge_id in self.bridges:
            raise ScenarioError("duplicate bridge %s" % bridge_id.canon())
        bridge = Bridge(bridge_id, BridgePolicy(max_delay, reorder, mode))
        self.bridges[bridge_id] = bridge
        self._maybe_pair_adapters(bridge_id)
        return bridge

    def _maybe_pair_adapters(self, out_id: BridgeId) -> None:
        """Pair an adapter on each end once both directions exist,
        reusing the registered bridge ids and one address per end."""
        # a BridgeId hashes and compares as its plain tuple
        reverse = self.bridges.get((out_id.dst, out_id.src, out_id.tag))
        if reverse is None:
            return
        in_id = reverse.id
        here = Address(out_id.src, adapter_local(out_id.dst, out_id.tag))
        there = Address(out_id.dst, adapter_local(out_id.src, out_id.tag))
        for out_bridge, in_bridge, addr, peer in (
                (out_id, in_id, here, there), (in_id, out_id, there, here)):
            self.adapters[addr] = self.adapters_out[out_bridge] = Adapter(
                self, self.chains[out_bridge.src], addr, peer, out_bridge,
                in_bridge)
            self.executors[out_bridge.src].trusted_adapters.add(addr)

    def add_transaction(self, txn: CrossChainTransaction,
                        tick: int = 0) -> None:
        if txn.txid in self.transactions:
            raise ScenarioError("duplicate transaction id %s" % txn.txid)
        validate_transaction(txn, self)
        proposer = txn.originator.chain
        if proposer not in self.chains:
            raise ScenarioError("%s: unknown proposer chain %s"
                                % (txn.txid, proposer))
        for chain_id in txn.chains():
            if chain_id != proposer:
                try:   # the lookup ProposerMachine._call makes
                    self.adapter_between(proposer, chain_id)
                except ScenarioError as err:
                    raise ScenarioError("%s: %s" % (txn.txid, err)) from None
        self.transactions[txn.txid] = txn
        self.tx_schedule.append((tick, txn.txid))

    def add_injection(self, injection: Injection) -> None:
        """Schedule an adversary action.  Its chain or bridge must exist,
        a bridge op needs an adversarial bridge, and a forge with no
        `dest` needs the adapter pair that picks its default dest; its
        target contract need not exist, since a refused attempt is still
        an attempt."""
        where = "adversary %s at tick %d" % (injection.op, injection.tick)
        if injection.op in CHAIN_OPS:
            if injection.chain not in self.chains:
                raise ScenarioError("%s: unknown chain %r"
                                    % (where, injection.chain))
        elif injection.op in BRIDGE_OPS:
            bridge = self.bridges.get(injection.bridge)
            if bridge is None:
                raise ScenarioError("%s: unknown bridge %s"
                                    % (where, injection.bridge.canon()))
            if bridge.policy.mode != ADVERSARIAL:
                raise ScenarioError("%s: bridge %s is not adversarial"
                                    % (where, injection.bridge.canon()))
            if injection.op == "forge" and injection.dest is None:
                try:   # the lookup that picks its dest when applied
                    self.adapter_between(injection.bridge.dst,
                                         injection.bridge.src,
                                         injection.bridge.tag)
                except ScenarioError as err:
                    raise ScenarioError("%s: %s, so the forge needs a dest"
                                        % (where, err)) from None
        else:
            raise ScenarioError("unknown injection op %r" % injection.op)
        self.injections.append(injection)

    # Wiring helpers ---------------------------------------------------------

    def adapter_between(self, local_chain: str, remote_chain: str,
                        tag: int = 0) -> Adapter:
        adapter = self.adapters_out.get((local_chain, remote_chain, tag))
        if adapter is None:
            raise ScenarioError("no adapter pair between %s and %s"
                                % (local_chain, remote_chain))
        return adapter

    def next_msg_id(self) -> int:
        self._msg_counter += 1
        return self._msg_counter

    # Run loop -----------------------------------------------------------

    def snapshot(self) -> list:
        return [ContractSnapshot(
                    chain=addr.chain, local=addr.local, kind=c.kind,
                    owner=c.owner, trusted=tuple(sorted(c.trusted_executors)),
                    vars=dict(sorted(c.vars.items())))
                for chain_id in sorted(self.chains)
                for addr, c in sorted(self.chains[chain_id].contracts.items())]

    def run(self, stop: Optional[StopCondition] = None) -> Trace:
        stop = stop or StopCondition()
        self.trace.initial = self.snapshot()
        injections_by_tick: dict[int, list] = {}
        for injection in self.injections:
            injections_by_tick.setdefault(injection.tick, []).append(injection)
        schedule_by_tick: dict[int, list] = {}
        for tick, txid in self.tx_schedule:
            schedule_by_tick.setdefault(tick, []).append(txid)
        last_scheduled = max([t for t, _ in self.tx_schedule] +
                             [i.tick for i in self.injections] + [0])

        for tick in range(stop.max_ticks):
            self.trace.tick = tick

            for injection in injections_by_tick.get(tick, ()):
                self._apply_injection(injection)
            self._drain_kicks()

            # Bridges deliver in BridgeId order; an empty queue draws
            # nothing, so skipping it leaves the RNG stream unchanged.
            for bridge_id in sorted(self.active_bridges):
                bridge = self.bridges[bridge_id]
                for message in bridge.take_due(tick, self.rng):
                    adapter = self.adapters.get(message.dest)
                    if adapter is None:
                        self.trace.record(ANOMALY, bridge_id.dst, {
                            "what": "NoSuchAdapter",
                            "msgid": message.msg_id})
                        continue
                    adapter.on_recv(message)
                if not bridge.queue:
                    self.active_bridges.discard(bridge_id)

            pending_resolutions = self.resolutions
            self.resolutions = []
            for future in pending_resolutions:
                if future.owner is not None:
                    future.owner.on_future(future)

            for txid in schedule_by_tick.get(tick, ()):
                txn = self.transactions[txid]
                chain = self.chains[txn.originator.chain]
                chain.invoke(txn.originator, chain.executor_addr,
                             "propose", [txid.encode()], txid=txid)
                self._drain_kicks()

            for chain_id in sorted(self.open_chains):
                chain = self.chains[chain_id]
                if tick % chain.seal_every == 0:
                    self._seal_chain(chain, tick)

            self.end_tick = tick
            if stop.quiesce and tick >= last_scheduled and self.quiescent():
                self.quiesced = True
                break

        self.trace.final = self.snapshot()
        self.trace.quiesced = self.quiesced
        self.trace.end_tick = self.end_tick
        return self.trace

    def _drain_kicks(self) -> None:
        while self.kicks:
            self.kicks.pop(0).start()

    def _seal_chain(self, chain: Chain, tick: int) -> None:
        block = tick // chain.seal_every
        for bridge_id, msg_id, sender, dest, payload in \
                chain.seal_block(block):
            message = BridgeMessage(msg_id, payload, dest, origin_block=block)
            self.bridges[bridge_id].enqueue(message, tick, self.rng)
            self.active_bridges.add(bridge_id)
            self.trace.record(SEND, bridge_id.src, {
                "bridge": bridge_id, "msgid": msg_id, "sender": sender,
                "dest": dest, "block": block, "payload": payload})

    def quiescent(self) -> bool:
        return (self.pending_futures == 0
                and not any(self.bridges[b].queue for b in self.active_bridges)
                and not any(self.chains[c].sends for c in self.open_chains))

    # Adversary ------------------------------------------------------------

    def _apply_injection(self, injection: Injection) -> None:
        record = self.trace.record
        actor = injection.caller.canon() if injection.caller else "bridge"
        if injection.op == "invoke":
            record(ADVERSARY, injection.chain, {
                "op": "invoke", "caller": injection.caller,
                "target": injection.target, "method": injection.method,
                "params": list(injection.params)})
            self.chains[injection.chain].invoke(
                injection.caller, injection.target, injection.method,
                list(injection.params), actor=actor)
        elif injection.op == "lock":
            record(ADVERSARY, injection.chain, {
                "op": "lock", "caller": injection.caller,
                "target": injection.target})
            self.chains[injection.chain].lock(injection.caller,
                                              injection.target)
        elif injection.op == "unlock":
            record(ADVERSARY, injection.chain, {
                "op": "unlock", "caller": injection.caller,
                "target": injection.target})
            self.chains[injection.chain].unlock(injection.caller,
                                                injection.target,
                                                injection.failure)
        elif injection.op == "forge":
            bridge = self.bridges[injection.bridge]
            dest = injection.dest
            if dest is None:
                dest = self.adapter_between(injection.bridge.dst,
                                            injection.bridge.src,
                                            injection.bridge.tag).addr
            message = BridgeMessage(self.next_msg_id(), injection.payload,
                                    dest, injection.fake_block)
            bridge.forge(message, self.trace.tick, self.rng)
            self.active_bridges.add(injection.bridge)
            record(ADVERSARY, injection.bridge.dst, {
                "op": "forge", "bridge": injection.bridge,
                "msgid": message.msg_id, "fake_block": injection.fake_block,
                "payload": injection.payload})
        else:                                   # drop or corrupt
            bridge = self.bridges[injection.bridge]
            msg_id = injection.msg_id
            if msg_id is None and injection.queue_index is not None:
                queued = bridge.queued_ids()
                if injection.queue_index < len(queued):
                    msg_id = queued[injection.queue_index]
            if msg_id is None:
                record(ADVERSARY, injection.bridge.dst, {
                    "op": injection.op, "bridge": injection.bridge})
                return
            if injection.op == "drop":
                bridge.drop(msg_id)
            else:
                bridge.corrupt(msg_id, injection.payload)
            record(ADVERSARY, injection.bridge.dst, {
                "op": injection.op, "bridge": injection.bridge,
                "msgid": msg_id, "payload": injection.payload})

    # Contract state -------------------------------------------------------

    def contract(self, addr: Address) -> Optional[Contract]:
        """The contract at `addr`; None if it or its chain is missing."""
        chain = self.chains.get(addr.chain)
        return None if chain is None else chain.contracts.get(addr)

    def state(self) -> tuple:
        """Every contract's state as one hashable value: its
        contract_entry() in address order.  restore() writes it back."""
        return tuple(
            contract_entry(c)
            for chain_id in sorted(self.chains)
            for _, c in sorted(self.chains[chain_id].contracts.items()))

    def restore(self, state) -> None:
        """Write back contract entries: a whole state() value, or any
        iterable of entries for the contracts that differ."""
        for addr, vars_, locked_by, checkpoint in state:
            contract = self.contract(addr)
            contract.vars = dict(vars_[0])
            contract.locked_by = locked_by
            contract.checkpoint = checkpoint


def adapter_local(remote_chain: str, tag: int) -> str:
    """The local name of the adapter that talks to `remote_chain` over
    the bridge pair with `tag`."""
    if tag == 0:
        return "adapter:%s" % remote_chain
    return "adapter:%s#%d" % (remote_chain, tag)
