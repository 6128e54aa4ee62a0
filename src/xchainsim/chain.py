"""Per-blockchain state machine: contracts, the lock discipline, and
block numbering.

A chain holds named contracts.  Each contract carries plain variables
(int | bool | bytes values), lock metadata, and a table of method
bodies.  The chain's executor is not one of them: its address is
reserved, and `invoke` hands a call to it straight to the executor's
dispatch handler, while every other call runs a contract method.

A contract owns its state transitions, which record nothing: `lock`
checkpoints its vars, an aborting `unlock` restores them, and `call`
runs a body that sees only the vars and the params, so a call touches
its target alone.  The chain looks the target up (`UnknownTarget` if
missing) and records the attempt, with `writes=[target]` if a call wrote.

Of its open block the chain keeps what the run reads: how many invokes,
locks, unlocks and sends it records, and the sends themselves.  A seal
step closes the block under the index the engine gives it (the tick
divided by the chain's `seal_every`) and hands its sends to the engine;
the block index is what bridge messages later cite as their origin.  A
chain enters its id in the world's set of open chains when it records
into its block, so the engine seals only those, and an empty block is
neither sealed nor counted.

Every attempt, an invoke, lock or unlock, refused or not, is recorded
in one place, through the chain's trace, which stamps it with the tick
the engine is running; a chain keeps no clock, so a standalone chain's
events carry whatever tick its trace holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_, itemgetter
from typing import Callable, Optional, Sequence

from .trace import INVOKE, LOCK, UNLOCK, SEAL, Trace, memoized

Value = object  # int | bool | bytes


class ScenarioError(Exception):
    """Configuration mistake: bad references, malformed scenario input."""


class MethodFailure(Exception):
    """Raised inside a method body to reject the invocation.

    The failure is an ordinary outcome: state rolls back, the attempt is
    still recorded on-chain and in the trace.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Address(tuple):
    """A contract's address, the pair (chain, local).  A tuple, so
    hashing, equality and ordering run in C, and immutable, so its
    canonical text is computed once per object (see the trace module
    docstring)."""

    def __new__(cls, chain: str, local: str):
        return tuple.__new__(cls, (chain, local))

    chain = property(itemgetter(0))
    local = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "Address(chain=%r, local=%r)" % self

    def canon(self) -> str:
        return self._text

    @memoized
    def _text(self) -> str:
        return "%s/%s" % self


@dataclass
class Contract:
    addr: Address
    vars: dict
    owner: Address
    kind: str
    locked_by: Optional[Address] = None
    checkpoint: Optional[tuple] = None   # vars_key of the vars at lock
    trusted_executors: set = field(default_factory=set)
    methods: dict = field(default_factory=dict)  # name -> body

    @property
    def locked(self) -> bool:
        return self.locked_by is not None

    # Each transition returns or raises the refusal reason, if any.

    def lock(self, caller: Address) -> Optional[str]:
        if self.locked:
            return "AlreadyLocked"
        if caller not in self.trusted_executors:
            return "NotTrusted"
        self.locked_by = caller
        self.checkpoint = vars_key(self.vars)
        return None

    def unlock(self, caller: Address, failure: bool) -> Optional[str]:
        if not self.locked or caller != self.locked_by:
            return "NotLockOwner"
        if failure:
            self.vars = dict(self.checkpoint[0])
        self.locked_by = None
        self.checkpoint = None
        return None

    def call(self, caller: Address, method: str, params: Sequence) -> tuple:
        """(result, whether the vars changed); a failed body is undone."""
        body = self.methods.get(method)
        if body is None:
            raise MethodFailure("UnknownMethod")
        if self.locked and caller != self.locked_by:
            raise MethodFailure("LockedByOther")
        # Values are immutable, so a dict copy is a full checkpoint.
        pre = dict(self.vars)
        try:
            result = body(self.vars, params)
        except MethodFailure:
            self.vars = pre
            raise
        return result, not same_vars(self.vars, pre)


def same_vars(a: dict, b: dict) -> bool:
    """Whether `a` and `b` hold the same keys, values and value types:
    True == 1, yet a write of the one over the other is a write."""
    return a == b and all(map(is_, map(type, a.values()),
                              map(type, map(b.__getitem__, a))))


def vars_key(vars_: dict) -> tuple:
    """`vars_` as one hashable value, equal for two dicts exactly when
    same_vars holds: (its sorted items,), and where a value is a bool
    (items, their values' types).  Without a bool, == on the values is
    exact already, and the search builds one key per memo miss, so the
    types are left out.  dict(key[0]) rebuilds the dict."""
    items = tuple(sorted(vars_.items()))
    if bool in map(type, vars_.values()):
        return items, tuple(type(value) for _, value in items)
    return items,


def contract_entry(contract: Contract) -> tuple:
    """One contract's part of World.state(): its address, vars_key of
    its variables, lock owner and checkpoint (None when unlocked, kept
    apart from an empty checkpoint)."""
    return (contract.addr, vars_key(contract.vars), contract.locked_by,
            contract.checkpoint)


@dataclass(slots=True)
class InvokeOutcome:
    ok: bool
    result: Optional[Value] = None
    reason: Optional[str] = None


class Chain:
    def __init__(self, chain_id: str, trace: Trace, seal_every: int = 1,
                 open_chains: Optional[set] = None):
        self.id = chain_id
        self.trace = trace
        self.seal_every = max(1, seal_every)
        self.contracts: dict[Address, Contract] = {}
        # the world's ids of chains whose open block holds a record
        self.open_chains = set() if open_chains is None else open_chains
        self.pending = 0  # records in the open block
        self.sends: list = []  # the open block's bridge sends
        # The executor's address and its dispatch handler, which the
        # world sets; no contract may take that address.
        self.executor_addr: Optional[Address] = None
        self.dispatch: Optional[Callable] = None

    # Construction -----------------------------------------------------

    def add_contract(self, contract: Contract) -> Contract:
        if contract.addr.chain != self.id:
            raise ScenarioError("contract %s added to chain %s"
                                % (contract.addr.canon(), self.id))
        if contract.addr in self.contracts or \
                contract.addr == self.executor_addr:
            raise ScenarioError("duplicate contract %s" % contract.addr.canon())
        self.contracts[contract.addr] = contract
        return contract

    def contract(self, addr: Address) -> Optional[Contract]:
        return self.contracts.get(addr)

    # Operations -------------------------------------------------------

    def invoke(self, caller: Address, target: Address, method: str,
               params: list, depth: int = 0, txid=None,
               actor=None) -> InvokeOutcome:
        """Run a method and record the attempt (success or not).  A call
        to the executor's address goes to its dispatch handler."""
        data = {"caller": caller, "target": target, "method": method,
                "params": list(params), "depth": depth}
        if actor is not None:
            data["actor"] = actor
        try:
            if target == self.executor_addr:
                result = self.dispatch(caller, method, params)
            else:
                contract = self.contracts.get(target)
                if contract is None:
                    raise MethodFailure("UnknownTarget")
                result, wrote = contract.call(caller, method, params)
                if wrote:
                    data["writes"] = [target]
        except MethodFailure as f:
            return self._record(INVOKE, data, txid, f.reason)
        return self._record(INVOKE, data, txid, result=result)

    def lock(self, caller: Address, target: Address, txid=None) -> InvokeOutcome:
        contract = self.contracts.get(target)
        reason = "UnknownTarget" if contract is None else contract.lock(caller)
        return self._record(LOCK, {"caller": caller, "target": target}, txid,
                            reason)

    def unlock(self, caller: Address, target: Address, failure: bool,
               txid=None) -> InvokeOutcome:
        contract = self.contracts.get(target)
        reason = "UnknownTarget" if contract is None \
            else contract.unlock(caller, failure)
        return self._record(UNLOCK, {"caller": caller, "target": target,
                                     "failure": failure}, txid, reason)

    def record_send(self, send: tuple) -> None:
        """Add a bridge send to the open block."""
        self.sends.append(send)
        self.pending += 1
        self.open_chains.add(self.id)

    def seal_block(self, block: int) -> list:
        """Close the open block as block `block` and return its sends."""
        sends = self.sends
        if self.pending:
            self.trace.record(SEAL, self.id, {"block": block,
                                              "count": self.pending})
        self.pending = 0
        self.sends = []
        self.open_chains.discard(self.id)
        return sends

    # Internals ----------------------------------------------------------

    def _record(self, kind: str, data: dict, txid, reason=None,
                result=None) -> InvokeOutcome:
        """Count an attempt in the open block, record its event and
        return its outcome: refused for `reason`, or done with `result`."""
        data["ok"] = ok = reason is None
        if not ok:
            data["err"] = reason
        elif result is not None:
            data["result"] = result
        if txid is not None:
            data["txid"] = txid
        self.pending += 1
        self.open_chains.add(self.id)
        self.trace.record(kind, self.id, data)
        return InvokeOutcome(ok, result, reason)
