"""Trusted per-chain transaction executors and the two-phase commit driver.

Every chain hosts one executor at a reserved address, outside its
contract table: the chain hands each call to that address to the
executor's `dispatch`.  On its own chain an executor accepts
transaction proposals and runs the commit protocol as the proposer; for
transactions proposed elsewhere it acts as a participant, serving
checkpoint/lock, action execution, and unlock requests that arrive
through the chain's bridge adapters.  Since the executor is no
contract, it cannot be locked, and a transaction action or a
`run_action` request that names it as its target is refused as an
unknown contract.

The proposer runs the protocol as one generator, in the paper's order:
it locks each participating chain's scope in lock order, acquiring one
before contacting the next; executes the layer plan round by round with
one call per action; unlocks in reverse order, restoring checkpoints
when anything failed; and emits the outcome event.  It yields after each
batch of calls and is resumed with whether all of them succeeded: at
once when every call ran on its own chain, else when the batch's last
remote future resolves.  A chain that refused its lock still receives
the unlock request (a no-op for it), which keeps dangling-lock cleanup
unconditional.

An executor decodes each distinct bytes value of a request's txid,
method or address once and reuses the str or Address, so its events for
one contract share one target, whose text is formatted once.  A param
that is not bytes is never looked up: it is refused as BadRequest.

The generator reaches its machine only through a weak proxy, so a
transaction left unfinished (a dropped message) forms no reference
cycle and its world is still freed by reference counting.
"""

from __future__ import annotations

import weakref
from typing import Optional

from .chain import Address, MethodFailure
from .trace import OUTCOME
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
    chain, _, local = decode_text(value).partition("/")
    if not chain or not local:
        raise MethodFailure("BadRequest")
    return Address(chain, local)


def decode_text(value) -> str:
    if not isinstance(value, bytes):
        raise MethodFailure("BadRequest")
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError:
        raise MethodFailure("BadRequest") from None


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
        # Txids accepted by `_propose` and served by `_lock_scope`: each
        # is accepted or served once, so no message can replay it.
        self.proposed: set = set()
        self.served: set = set()
        # Decoded request fields by their bytes (module docstring).
        self.texts: dict[bytes, str] = {}
        self.addresses: dict[bytes, Address] = {}

    # Dispatch from chain.invoke ----------------------------------------

    def dispatch(self, caller: Address, method: str, params: list):
        if method == "propose":
            return self._propose(caller, params)
        if method == "lock_scope":
            return self._lock_scope(caller, params)
        if method == "run_action":
            return self._run_action(caller, params)
        if method == "unlock_scope":
            return self._unlock_scope(caller, params)
        raise MethodFailure("UnknownMethod")

    def _decoded(self, memo: dict, decode, value):
        """`decode(value)`, kept in `memo` per distinct bytes value."""
        found = memo.get(value) if type(value) is bytes else None
        if found is None:   # decode refuses a value that is not bytes
            found = memo[value] = decode(value)
        return found

    def _authorize(self, caller: Address) -> None:
        if caller != self.addr and caller not in self.trusted_adapters:
            raise MethodFailure("NotTrusted")

    def _propose(self, caller: Address, params: list):
        if len(params) != 1:
            raise MethodFailure("BadRequest")
        txid = self._decoded(self.texts, decode_text, params[0])
        txn = self.world.transactions.get(txid)
        if txn is None or txn.originator.chain != self.chain.id:
            raise MethodFailure("UnknownTransaction")
        if caller != txn.originator:
            raise MethodFailure("NotOriginator")
        if txid in self.proposed:
            raise MethodFailure("AlreadyProposed")
        if self.active is not None:
            raise MethodFailure("ExecutorBusy")
        self.proposed.add(txid)
        machine = ProposerMachine(self, txn)
        self.active = machine
        self.world.machines.append(machine)
        self.world.kicks.append(machine)
        return params[0]

    def _lock_scope(self, caller: Address, params: list):
        self._authorize(caller)
        if not params:
            raise MethodFailure("BadRequest")
        txid = self._decoded(self.texts, decode_text, params[0])
        targets = [self._decoded(self.addresses, decode_address, p)
                   for p in params[1:]]
        if txid in self.served:
            raise MethodFailure("AlreadyLocked")
        self.served.add(txid)
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

    def _run_action(self, caller: Address, params: list):
        self._authorize(caller)
        if len(params) < 3:
            raise MethodFailure("BadRequest")
        txid = self._decoded(self.texts, decode_text, params[0])
        target = self._decoded(self.addresses, decode_address, params[1])
        method = self._decoded(self.texts, decode_text, params[2])
        args = list(params[3:])
        contract = self.chain.contract(target)
        if contract is None:
            raise MethodFailure("UnknownTarget")
        if method not in contract.methods:
            raise MethodFailure("UnknownMethod")
        # Honest bridges never get here unlocked; a forged ack can let
        # the proposer unlock before a late run_action arrives.
        if target not in self.participant_locks.get(txid, ()):
            raise MethodFailure("ScopeNotLocked")
        # a contract, never this executor: one below the dispatching call
        outcome = self.chain.invoke(self.addr, target, method, args,
                                    depth=1, txid=txid)
        if not outcome.ok:
            raise MethodFailure(outcome.reason)
        return outcome.result

    def _unlock_scope(self, caller: Address, params: list):
        self._authorize(caller)
        if len(params) != 2 or not isinstance(params[1], bool):
            raise MethodFailure("BadRequest")
        txid = self._decoded(self.texts, decode_text, params[0])
        failure = params[1]
        for target in reversed(self.participant_locks.pop(txid, [])):
            self.chain.unlock(self.addr, target, failure=failure, txid=txid)
        return True


class ProposerMachine:
    """One proposed transaction: the protocol generator and the state
    that the engine, the CLI and the tests read."""

    def __init__(self, executor: ExecutorContract,
                 txn: CrossChainTransaction):
        # Weak: the executor refers to its active machine.
        self.executor = weakref.proxy(executor)
        self.txn = txn
        self.phase = LOCKING
        self.reason: Optional[str] = None   # set exactly when it fails
        self.round_no = -1
        self._waiting = 0        # remote futures of this batch not resolved
        self._batch_ok = True    # every call of this batch succeeded so far
        # Weak: a suspended generator must not keep its machine alive.
        self._steps = self._protocol(weakref.proxy(self))

    # Engine entry points -------------------------------------------------

    def start(self) -> None:
        self._resume(None)

    def on_future(self, future) -> None:
        # The adapter pops a future as it resolves it, so each of this
        # batch's futures arrives here exactly once.
        self._batch_ok = self._batch_ok and future.ok
        self._waiting -= 1
        if not self._waiting:
            self._resume(self._batch_ok)

    @property
    def done(self) -> bool:
        return self.phase == DONE

    @property
    def outcome(self) -> Optional[str]:
        if self.phase != DONE:
            return None
        return ABORTED if self.reason is not None else COMMITTED

    # The protocol --------------------------------------------------------

    def _resume(self, ok) -> None:
        """Send `ok` to the protocol and keep it running while each batch
        it issues completes at once, until it waits on a remote future or
        ends."""
        try:
            while True:
                self._batch_ok = True
                self._steps.send(ok)
                if self._waiting:
                    return
                ok = self._batch_ok
        except StopIteration:
            del self._steps     # a finished generator still holds its frame

    @staticmethod
    def _protocol(m):
        """Lock, run the rounds, unlock, emit the outcome.

        `m` is a weak proxy to the machine.  Each `yield` ends a batch of
        calls and returns whether all of them succeeded.  A method read
        through `m` is bound to the machine itself, so the helpers are
        plain methods: a suspended sub-generator would pin the machine.
        """
        txn, executor = m.txn, m.executor
        world, chain = executor.world, executor.chain
        txid = txn.txid.encode()
        if world.lock_order == "declared":
            order = txn.chains_declared()
        else:
            order = txn.chains()
        contacted = []
        for chain_id in order:
            contacted.append(chain_id)
            m._call(chain_id, "lock_scope", [txid] + [
                encode_address(a) for a in scope_union(txn, chain_id)])
            if not (yield):
                m.reason = LOCK_CONFLICT
                break
        else:
            m.phase = EXECUTING
            for round_no, layer in enumerate(txn.layers):
                m.round_no = round_no
                for action in layer:
                    m._call(action.target.chain, "run_action",
                            [txid, encode_address(action.target),
                             action.method.encode(), *action.params])
                if not (yield):
                    m.reason = OP_FAILED
                    break
        m.phase = UNLOCKING
        for chain_id in reversed(contacted):
            m._call(chain_id, "unlock_scope", [txid, m.reason is not None])
            yield
        m.phase = DONE
        executor.active = None
        data = {"txid": txn.txid, "outcome": m.outcome,
                "rounds": m.round_no + 1}
        if m.reason is not None:
            data["reason"] = m.reason
        chain.trace.record(OUTCOME, chain.id, data)

    def _call(self, chain_id: str, method: str, params: list) -> None:
        """Call the executor on `chain_id` as part of the current batch:
        directly on the proposer's own chain, else by rcall, counted in
        `_waiting` until its future resolves."""
        executor = self.executor
        if chain_id == executor.chain.id:
            outcome = executor.chain.invoke(executor.addr, executor.addr,
                                            method, params,
                                            txid=self.txn.txid)
            self._batch_ok = self._batch_ok and outcome.ok
            return
        world = executor.world
        adapter = world.adapter_between(executor.chain.id, chain_id)
        future = adapter.rcall(executor.addr,
                               world.chains[chain_id].executor_addr,
                               method, params)
        future.owner = self
        self._waiting += 1
