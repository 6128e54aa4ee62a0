"""Cross-chain transactions: indexed actions under a partial order, the
layering used for round scheduling, and the sequential reference
execution that the atomicity checkers compare protocol runs against.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Optional

from .chain import Address, MethodFailure, ScenarioError, contract_entry


class CyclicOrderError(ScenarioError):
    """The declared precedence relation contains a cycle."""


@dataclass(frozen=True)
class IndexedAction:
    action_id: int
    target: Address          # the action runs on target.chain
    method: str
    params: tuple


@dataclass(frozen=True)
class CrossChainTransaction:
    txid: str
    actions: list            # of IndexedAction
    prec: set                # of (before_id, after_id)
    originator: Address      # proposed on originator.chain
    # layer_partition's layers, each a tuple of IndexedActions
    layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [a.action_id for a in self.actions]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate action ids in %s" % self.txid)
        known = set(ids)
        for before, after in self.prec:
            if before not in known or after not in known:
                raise ScenarioError("%s: precedence pair (%d,%d) references "
                                    "an unknown action" % (self.txid, before,
                                                           after))
            if before == after:
                raise CyclicOrderError("%s: action %d precedes itself"
                                       % (self.txid, before))
        by_id = {a.action_id: a for a in self.actions}
        # layer_partition raises CyclicOrderError on a cycle
        object.__setattr__(self, "layers", tuple(
            tuple(by_id[i] for i in ids) for ids in layer_partition(self)))

    def chains(self) -> list:
        """Participating chains in canonical (sorted id) order."""
        return sorted({a.target.chain for a in self.actions})

    def chains_declared(self) -> list:
        """Participating chains in first-appearance order of the action
        list; used when the lock-order flag is `declared`."""
        return list(dict.fromkeys(a.target.chain for a in self.actions))


def layer_partition(txn: CrossChainTransaction) -> list:
    """Deterministic longest-path layering of the action DAG: a list of
    layers, each a list of action ids in ascending order.

    An action lands one layer past its latest predecessor, so actions
    with no constraints form layer 0 and the layer count equals the
    longest precedence chain.
    """
    preds: dict[int, set] = {a.action_id: set() for a in txn.actions}
    for before, after in txn.prec:
        preds[after].add(before)
    sorter = graphlib.TopologicalSorter(preds)
    try:
        sorter.prepare()
    except graphlib.CycleError as err:
        raise CyclicOrderError("%s: precedence is cyclic (%s)"
                               % (txn.txid, err.args[1])) from None
    layers = []
    while sorter.is_active():
        ready = sorted(sorter.get_ready())
        layers.append(ready)
        sorter.done(*ready)
    return layers


def scope_union(txn: CrossChainTransaction, chain_id: str) -> list:
    """All contracts a transaction touches on one chain, in canonical
    address order: its action targets there, since a call writes its
    target and nothing else."""
    return sorted({a.target for a in txn.actions
                   if a.target.chain == chain_id})


def validate_transaction(txn: CrossChainTransaction, world) -> None:
    """Scenario-level validation: references resolve and same-layer
    actions have distinct targets (which is what makes within-layer
    execution order irrelevant)."""
    for action in txn.actions:
        chain = world.chains.get(action.target.chain)
        if chain is None:
            raise ScenarioError("%s: action %d references unknown chain %s"
                                % (txn.txid, action.action_id,
                                   action.target.chain))
        contract = chain.contract(action.target)
        if contract is None:
            raise ScenarioError("%s: action %d references unknown contract %s"
                                % (txn.txid, action.action_id,
                                   action.target.canon()))
        if action.method not in contract.methods:
            raise ScenarioError("%s: action %d references unknown method "
                                "%s.%s" % (txn.txid, action.action_id,
                                           action.target.canon(),
                                           action.method))
    for layer in txn.layers:
        seen = set()
        for action in layer:
            if action.target in seen:
                raise ScenarioError(
                    "%s: same-layer actions on %s share scope %s"
                    % (txn.txid, action.target.chain,
                       action.target.canon()))
            seen.add(action.target)


@dataclass
class IdealReport:
    ok: bool
    failed_action: Optional[int] = None
    failure_reason: Optional[str] = None


def ideal_execute(txn: CrossChainTransaction, world) -> IdealReport:
    """Reference semantics: run the layers sequentially on `world` with
    no locking, no interference and no records: each action is one
    `Contract.call` by its chain's executor.

    On success `world` keeps the result; on the first failure the scoped
    contracts roll back, leaving `world` as it was.  A caller that needs
    `world` unchanged either way saves `world.state()` and restores it.
    """
    scoped = map(world.contract, {a.target for a in txn.actions})
    saved = [contract_entry(c) for c in scoped if c is not None]
    for layer in txn.layers:
        for action in layer:
            contract = world.contract(action.target)
            try:
                if contract is None:
                    raise MethodFailure("UnknownTarget")
                contract.call(world.chains[action.target.chain].executor_addr,
                              action.method, action.params)
            except MethodFailure as f:
                world.restore(saved)
                return IdealReport(False, action.action_id, f.reason)
    return IdealReport(True)
