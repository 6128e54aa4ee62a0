"""Per-blockchain state machine: contracts, the lock discipline, and
block numbering.

A chain holds named contracts.  Each contract carries plain variables
(int | bool | bytes values), lock metadata, and a table of method
bodies.  The chain's executor is not one of them: its address is
reserved, and `invoke` hands a call to it straight to the executor's
dispatch handler, while every other call runs a contract method.

A call touches its target and nothing else: a method body sees only the
target's vars, its caller and its params (MethodContext), and reaches no
other contract.  So `invoke` copies the target's vars alone before the
body runs, restores that copy if the body fails, and records
`writes=[target]` when the vars changed, or no `writes` at all.

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
from operator import itemgetter
from typing import Callable, Optional

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

    @staticmethod
    def parse(text: str) -> "Address":
        chain, _, local = text.partition("/")
        if not chain or not local:
            raise ScenarioError("bad address %r" % text)
        return Address(chain, local)


@dataclass
class Contract:
    addr: Address
    vars: dict
    owner: Address
    kind: str
    locked_by: Optional[Address] = None
    checkpoint: Optional[dict] = None
    trusted_executors: set = field(default_factory=set)
    methods: dict = field(default_factory=dict)  # name -> body

    @property
    def locked(self) -> bool:
        return self.locked_by is not None


@dataclass
class InvokeOutcome:
    ok: bool
    result: Optional[Value] = None
    reason: Optional[str] = None


class MethodContext:
    """What a method body sees: the live vars of the target contract, the
    external caller and the params.  A body changes the vars in place or
    raises MethodFailure, after which `Chain.invoke` restores them."""

    __slots__ = ("vars", "caller", "params")

    def __init__(self, vars_: dict, caller: Address, params: list):
        self.vars = vars_
        self.caller = caller
        self.params = params


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
                result = self.dispatch(caller, method, params, depth)
            else:
                result, wrote = self._run_method(caller, target, method,
                                                 params)
                if wrote:
                    data["writes"] = [target]
        except MethodFailure as f:
            return self._record(INVOKE, data, txid, f.reason)
        return self._record(INVOKE, data, txid, result=result)

    def lock(self, caller: Address, target: Address, txid=None) -> InvokeOutcome:
        contract = self.contracts.get(target)
        if contract is None:
            reason = "UnknownTarget"
        elif contract.locked:
            reason = "AlreadyLocked"
        elif caller not in contract.trusted_executors:
            reason = "NotTrusted"
        else:
            reason = None
            contract.locked_by = caller
            contract.checkpoint = dict(contract.vars)
        return self._record(LOCK, {"caller": caller, "target": target}, txid,
                            reason)

    def unlock(self, caller: Address, target: Address, failure: bool,
               txid=None) -> InvokeOutcome:
        contract = self.contracts.get(target)
        if contract is None:
            reason = "UnknownTarget"
        elif not contract.locked or caller != contract.locked_by:
            reason = "NotLockOwner"
        else:
            reason = None
            if failure:
                contract.vars = dict(contract.checkpoint)
            contract.locked_by = None
            contract.checkpoint = None
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

    def _run_method(self, caller, target, method, params) -> tuple:
        """Run a contract's method and return (result, whether the
        target's vars changed).  A refusal or a failed body raises
        MethodFailure, the latter after restoring the target's vars."""
        contract = self.contracts.get(target)
        if contract is None:
            raise MethodFailure("UnknownTarget")
        body = contract.methods.get(method)
        if body is None:
            raise MethodFailure("UnknownMethod")
        if contract.locked and caller != contract.locked_by:
            raise MethodFailure("LockedByOther")
        # Values are immutable, so a dict copy is a full checkpoint.
        pre = dict(contract.vars)
        try:
            result = body(MethodContext(contract.vars, caller, params))
        except MethodFailure:
            contract.vars = pre
            raise
        return result, contract.vars != pre

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
