"""Per-chain adapter contracts: the high-level communication interface.

Each adapter is paired with a counterpart on one remote chain, which
fixes its outgoing bridge, its address and its peer's.  It is the only
way onto that bridge: it records each of its sends into its chain's open
block, whose seal hands them to the bridge, so no send needs checking.
It owns the sequence numbers and futures for traffic it originates.
Three entry points are offered to local contracts:

* ``notify``   - fire-and-forget message, no future;
* ``anotify``  - message plus acknowledgement of receipt, resolving a
                 future to Delivered;
* ``rcall``    - invoke a method on a remote contract, resolving a
                 future to Completed with the result and success flag.

Incoming bridge deliveries are dispatched here as well: notifications
and remote calls are applied to their destination contract and answered
with an acknowledgement; acknowledgements resolve the matching future.
An acknowledgement bearing an unknown sequence number is logged as an
anomaly and otherwise ignored, so a forged ack cannot crash the adapter
or move any future.

An adapter keeps a future only while it is pending: the ack that
resolves it drops it, so a late or duplicate ack for it finds no future
and is logged like any unknown one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from .bridge import Ack, Anotify, BridgeId, BridgeMessage, Rcall
from .chain import Address, Chain, ScenarioError
from .trace import ANOMALY, FUTURE, RECV

PENDING = "pending"
DELIVERED = "delivered"
COMPLETED = "completed"


@dataclass(slots=True)
class Future:
    seq: int
    kind: str                 # "anotify" | "rcall"
    state: str = PENDING
    ok: Optional[bool] = None
    result: object = None
    owner: object = None      # the machine awaiting it, called on resolution


class Adapter:
    def __init__(self, world, chain: Chain, addr: Address, peer: Address,
                 out_bridge: BridgeId, in_bridge: BridgeId):
        self.world = weakref.proxy(world)   # the world owns its adapters
        self.chain = chain
        self.addr = addr
        self.peer = peer
        self.out_bridge = out_bridge
        self.in_bridge = in_bridge
        self.next_seq = 0
        self.futures: dict[int, Future] = {}   # pending ones, by seq

    # Sending ------------------------------------------------------------

    def notify(self, caller: Address, data: bytes, dest: Address) -> None:
        self._check_dest(dest)
        self._send(Anotify(origin=caller, data=data, seq=None, dest=dest))

    def anotify(self, caller: Address, data: bytes, dest: Address) -> Future:
        self._check_dest(dest)
        future = self._new_future("anotify")
        self._send(Anotify(origin=caller, data=data, seq=future.seq,
                           dest=dest))
        return future

    def rcall(self, caller: Address, target: Address, method: str,
              params: list) -> Future:
        self._check_dest(target)
        future = self._new_future("rcall")
        self._send(Rcall(target=target, method=method, params=tuple(params),
                         seq=future.seq))
        return future

    # Receiving ----------------------------------------------------------

    def on_recv(self, message: BridgeMessage) -> None:
        trace = self.chain.trace
        trace.record(RECV, self.chain.id, {
            "bridge": self.in_bridge, "msgid": message.msg_id,
            "dest": message.dest, "origin_block": message.origin_block,
            "payload": message.payload})
        payload = message.payload
        if isinstance(payload, Anotify):
            self.chain.invoke(self.addr, payload.dest, "notification",
                              [payload.origin.canon().encode(),
                               payload.origin.chain.encode(),
                               payload.data])
            if payload.seq is not None:
                self._send(Ack(seq=payload.seq, ok=True))
        elif isinstance(payload, Rcall):
            outcome = self.chain.invoke(self.addr, payload.target,
                                        payload.method, list(payload.params))
            result = outcome.result if outcome.ok else outcome.reason.encode()
            self._send(Ack(seq=payload.seq, ok=outcome.ok, result=result))
        elif isinstance(payload, Ack):
            self._resolve(payload)
        else:
            trace.record(ANOMALY, self.chain.id, {
                "what": "BadPayload", "adapter": self.addr,
                "msgid": message.msg_id})

    # Internals ------------------------------------------------------------

    def _check_dest(self, dest: Address) -> None:
        if dest.chain != self.peer.chain:
            raise ScenarioError("WrongChain: %s is not on %s"
                                % (dest.canon(), self.peer.chain))

    def _new_future(self, kind: str) -> Future:
        future = Future(self.next_seq, kind)
        self.next_seq += 1
        self.futures[future.seq] = future
        self.world.pending_futures += 1
        self._future_event(future)
        return future

    def _send(self, payload) -> None:
        self.chain.record_send((self.out_bridge, self.world.next_msg_id(),
                                self.addr, self.peer, payload))

    def _resolve(self, ack: Ack) -> None:
        future = self.futures.pop(ack.seq, None)
        if future is None:
            self.chain.trace.record(ANOMALY, self.chain.id, {
                "what": "UnknownAckSeq", "adapter": self.addr,
                "seq": ack.seq})
            return
        self.world.pending_futures -= 1
        if future.kind == "anotify":
            future.state = DELIVERED
            future.ok = True
        else:
            future.state = COMPLETED
            future.ok = ack.ok
            future.result = ack.result
        self._future_event(future)
        self.world.resolutions.append(future)

    def _future_event(self, future: Future) -> None:
        self.chain.trace.record(FUTURE, self.chain.id, {
            "adapter": self.addr, "seq": future.seq, "state": future.state,
            "ok": future.ok})
