"""Trusted per-chain transaction executors and the two-phase commit driver.

Every chain hosts one executor contract.  On its own chain an executor
accepts transaction proposals and runs the commit protocol as the
proposer; for transactions proposed elsewhere it acts as a participant,
serving checkpoint/lock, action execution, and unlock requests that
arrive through the chain's bridge adapters.

The proposer walks the participating chains in lock order, acquiring
each chain's scope before contacting the next; executes the layer plan
round by round with one remote call per action; and finally unlocks in
reverse order, restoring checkpoints when anything failed.  A chain that
refused its lock still receives the unlock request during the abort walk
(a no-op for it), which keeps dangling-lock cleanup unconditional.
"""

from __future__ import annotations

import weakref
from typing import Optional

from .chain import Address, MethodFailure
from .trace import OUTCOME, TraceEvent
from .txn import CrossChainTransaction, scope_union

LOCKING = "locking"
EXECUTING = "executing"
UNLOCKING = "unlocking"
DONE = "done"

COMMITTED = "Committed"
ABORTED = "Aborted"

LOCK_CONFLICT = "LockConflict"
OP_FAILED = "OpFailed"


def encode_address(addr: Address) -> bytes:
    return addr.canon().encode()


def decode_address(value) -> Address:
    if not isinstance(value, bytes):
        raise MethodFailure("BadRequest")
    try:
        return Address.parse(value.decode("utf-8"))
    except Exception:
        raise MethodFailure("BadRequest") from None


def decode_text(value) -> str:
    if not isinstance(value, bytes):
        raise MethodFailure("BadRequest")
    return value.decode("utf-8")


class ExecutorContract:
    """Executor state plus the dispatch handler wired into the chain."""

    def __init__(self, world, chain, addr: Address):
        # Weak: the world owns this executor, and the chain holds its
        # dispatch method.
        self.world = weakref.proxy(world)
        self.chain = weakref.proxy(chain)
        self.addr = addr
        self.trusted_adapters: set = set()
        self.active: Optional[ProposerMachine] = None
        self.participant_locks: dict[str, list] = {}

    # Dispatch from chain.invoke ----------------------------------------

    def dispatch(self, caller: Address, method: str, params: list, depth: int):
        if method == "propose":
            return self._propose(caller, params)
        if method == "lock_scope":
            return self._lock_scope(caller, params)
        if method == "run_action":
            return self._run_action(caller, params, depth)
        if method == "unlock_scope":
            return self._unlock_scope(caller, params)
        raise MethodFailure("UnknownMethod")

    def _authorize(self, caller: Address) -> None:
        if caller != self.addr and caller not in self.trusted_adapters:
            raise MethodFailure("NotTrusted")

    def _propose(self, caller: Address, params: list):
        if len(params) != 1:
            raise MethodFailure("BadRequest")
        txid = decode_text(params[0])
        txn = self.world.transactions.get(txid)
        if txn is None or txn.proposer_chain != self.chain.id:
            raise MethodFailure("UnknownTransaction")
        if self.active is not None:
            raise MethodFailure("ExecutorBusy")
        machine = ProposerMachine(self, txn)
        self.active = machine
        self.world.machines.append(machine)
        self.world.kicks.append(machine)
        return params[0]

    def _lock_scope(self, caller: Address, params: list):
        self._authorize(caller)
        if not params:
            raise MethodFailure("BadRequest")
        txid = decode_text(params[0])
        targets = [decode_address(p) for p in params[1:]]
        acquired = []
        for target in targets:
            outcome = self.chain.lock(self.addr, target, txid=txid)
            if not outcome.ok:
                for held in reversed(acquired):
                    self.chain.unlock(self.addr, held, failure=True, txid=txid)
                raise MethodFailure(LOCK_CONFLICT)
            acquired.append(target)
        self.participant_locks[txid] = acquired
        return True

    def _run_action(self, caller: Address, params: list, depth: int):
        self._authorize(caller)
        if len(params) < 3:
            raise MethodFailure("BadRequest")
        txid = decode_text(params[0])
        target = decode_address(params[1])
        method = decode_text(params[2])
        args = list(params[3:])
        contract = self.chain.contract(target)
        if contract is None:
            raise MethodFailure("UnknownTarget")
        mdef = contract.methods.get(method)
        if mdef is None:
            raise MethodFailure("UnknownMethod")
        # Honest bridges never get here unlocked; a forged ack can let
        # the proposer unlock before a late run_action arrives.
        needed = set(mdef.declared_scope) | {target}
        if not needed <= set(self.participant_locks.get(txid, ())):
            raise MethodFailure("ScopeNotLocked")
        outcome = self.chain.invoke(self.addr, target, method, args,
                                    depth=depth + 1, txid=txid)
        if not outcome.ok:
            raise MethodFailure(outcome.reason)
        return outcome.result

    def _unlock_scope(self, caller: Address, params: list):
        self._authorize(caller)
        if len(params) != 2 or not isinstance(params[1], bool):
            raise MethodFailure("BadRequest")
        txid = decode_text(params[0])
        failure = params[1]
        for target in reversed(self.participant_locks.pop(txid, [])):
            self.chain.unlock(self.addr, target, failure=failure, txid=txid)
        return True


class ProposerMachine:
    """Event-driven protocol state for one proposed transaction."""

    def __init__(self, executor: ExecutorContract,
                 txn: CrossChainTransaction):
        # Weak: the executor refers to its active machine.
        self.executor = weakref.proxy(executor)
        self.txn = txn
        world = executor.world
        if world.lock_order == "declared":
            self.chain_order = txn.chains_declared()
        else:
            self.chain_order = txn.chains()
        self.scopes = {c: scope_union(txn, world, c) for c in self.chain_order}
        self.phase = LOCKING
        self.reason: Optional[str] = None   # set exactly when it fails
        self.round_no = -1
        self.contacted: list = []           # chains asked to lock, in order
        self.unlock_queue: list = []
        self.awaiting: dict = {}    # (issuer, seq) -> "lock"|"action"|"unlock"

    # Engine entry points -------------------------------------------------

    def start(self) -> None:
        self._advance()

    def on_future(self, future) -> None:
        kind = self.awaiting.pop((future.issuer, future.seq), None)
        if kind is None:
            return
        if not future.ok:
            if kind == "lock":
                self._begin_abort(LOCK_CONFLICT)
            elif kind == "action":
                self.reason = OP_FAILED
        if not self.awaiting:
            self._advance()

    @property
    def done(self) -> bool:
        return self.phase == DONE

    @property
    def outcome(self) -> Optional[str]:
        if self.phase != DONE:
            return None
        return ABORTED if self.reason is not None else COMMITTED

    # Phases --------------------------------------------------------------

    def _advance(self) -> None:
        """Drive the machine until it blocks on a future or reaches Done.

        Only called with no futures outstanding; every issuing helper
        returns control here, so the loop is the single place phases
        change hands.
        """
        while not self.awaiting:
            if self.phase == LOCKING:
                if len(self.contacted) == len(self.chain_order):
                    if not self.txn.layers:   # vacuous transaction
                        self.phase = UNLOCKING
                        self.unlock_queue = list(reversed(self.contacted))
                        continue
                    self.phase = EXECUTING
                    self.round_no = 0
                    self._issue_round()
                    continue
                chain_id = self.chain_order[len(self.contacted)]
                self.contacted.append(chain_id)
                params = [self.txn.txid.encode()] + \
                    [encode_address(a) for a in self.scopes[chain_id]]
                if chain_id == self.executor.chain.id:
                    outcome = self._local_call("lock_scope", params)
                    if not outcome.ok:
                        self._begin_abort(LOCK_CONFLICT)
                else:
                    self._remote_call(chain_id, "lock_scope", params, "lock")
            elif self.phase == EXECUTING:
                # A round just completed.
                if self.reason is not None:
                    self._begin_abort(self.reason)
                elif self.round_no + 1 < len(self.txn.layers):
                    self.round_no += 1
                    self._issue_round()
                else:
                    self.phase = UNLOCKING
                    self.unlock_queue = list(reversed(self.contacted))
            elif self.phase == UNLOCKING:
                if not self.unlock_queue:
                    self._finish()
                    return
                chain_id = self.unlock_queue.pop(0)
                params = [self.txn.txid.encode(), self.reason is not None]
                if chain_id == self.executor.chain.id:
                    self._local_call("unlock_scope", params)
                else:
                    self._remote_call(chain_id, "unlock_scope", params,
                                      "unlock")
            else:
                return

    def _issue_round(self) -> None:
        for action in self.txn.layers[self.round_no]:
            params = [self.txn.txid.encode(), encode_address(action.target),
                      action.method.encode()] + list(action.params)
            if action.chain == self.executor.chain.id:
                outcome = self._local_call("run_action", params)
                if not outcome.ok:
                    self.reason = OP_FAILED
            else:
                self._remote_call(action.chain, "run_action", params,
                                  "action")

    def _begin_abort(self, reason: str) -> None:
        self.reason = reason
        self.phase = UNLOCKING
        self.unlock_queue = list(reversed(self.contacted))

    def _finish(self) -> None:
        self.phase = DONE
        if self.executor.active is self:
            self.executor.active = None
        chain = self.executor.chain
        data = {"txid": self.txn.txid, "outcome": self.outcome,
                "rounds": self.round_no + 1}
        if self.reason is not None:
            data["reason"] = self.reason
        chain.trace.append(TraceEvent(chain.clock, OUTCOME, chain.id, data))

    def _local_call(self, method: str, params: list):
        chain = self.executor.chain
        return chain.invoke(self.executor.addr, self.executor.addr, method,
                            params, txid=self.txn.txid)

    def _remote_call(self, chain_id: str, method: str, params: list,
                     kind: str) -> None:
        world = self.executor.world
        adapter = world.adapter_between(self.executor.chain.id, chain_id)
        remote_exec = world.chains[chain_id].executor_addr
        future = adapter.rcall(self.executor.addr, remote_exec, method, params)
        future.owner = self
        self.awaiting[(future.issuer, future.seq)] = kind
