"""Unidirectional cross-chain message channel.

A message sent from a contract only becomes bridge-visible once its
block seals; the sealing block's index travels with the message and is
what the destination can later audit against the source ledger.  Honest
bridges deliver every enqueued message exactly once after a seeded delay
and never invent traffic; adversarial bridges additionally accept forge,
drop, and corrupt injections for negative testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .chain import Address, ScenarioError
from .trace import canon, memoized

HONEST = "honest"
ADVERSARIAL = "adversarial"


class NotAdversarialBridge(Exception):
    """Injection attempted against an honest bridge."""


class BridgeId(tuple):
    """A bridge's id, the triple (src, dst, tag).  A tuple, like Address,
    so hashing, equality and ordering run in C."""

    def __new__(cls, src: str, dst: str, tag: int = 0):
        return tuple.__new__(cls, (src, dst, tag))

    src = property(itemgetter(0))
    dst = property(itemgetter(1))
    tag = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "BridgeId(src=%r, dst=%r, tag=%r)" % self

    def canon(self) -> str:
        return self._text

    @memoized
    def _text(self) -> str:
        return "%s>%s#%d" % self


# Bridge payloads.  A payload is recorded in the trace at its send and at
# its receive, and is never mutated afterwards: the classes are frozen,
# each computes its canonical text once per object, and Bridge.corrupt
# replaces a message's payload object instead of editing it.


@dataclass(frozen=True)
class Anotify:
    origin: Address
    data: bytes
    seq: Optional[int]        # None: plain notify, no acknowledgement
    dest: Address             # final destination contract

    def canon(self) -> str:
        return self._text

    @memoized
    def _text(self) -> str:
        seq = "-" if self.seq is None else "i%d" % self.seq
        return ("anotify(origin=%s,data=x%s,seq=%s,dest=%s)"
                % (self.origin.canon(), self.data.hex(), seq,
                   self.dest.canon()))


@dataclass(frozen=True)
class Rcall:
    target: Address
    method: str
    params: tuple
    seq: int

    def canon(self) -> str:
        return self._text

    @memoized
    def _text(self) -> str:
        return ("rcall(target=%s,method=%s,params=%s,seq=i%d)"
                % (self.target.canon(), self.method,
                   canon(list(self.params)), self.seq))


@dataclass(frozen=True)
class Ack:
    seq: int
    ok: bool
    result: object = None

    def canon(self) -> str:
        return self._text

    @memoized
    def _text(self) -> str:
        result = "-" if self.result is None else canon(self.result)
        return ("ack(seq=i%d,ok=%s,result=%s)"
                % (self.seq, "b1" if self.ok else "b0", result))


class BridgeMessage(NamedTuple):
    msg_id: int
    payload: object
    dest: Address
    origin_block: int


@dataclass(slots=True)
class QueuedMessage:
    message: BridgeMessage
    due: int


@dataclass
class BridgePolicy:
    max_delay: int = 3
    allow_reorder: bool = False
    mode: str = HONEST


class Bridge:
    def __init__(self, bridge_id: BridgeId, policy: BridgePolicy):
        self.id = bridge_id
        self.policy = policy
        self.queue: list[QueuedMessage] = []

    def validate_send(self, sender: Address, dest: Address) -> None:
        if sender.chain != self.id.src or dest.chain != self.id.dst:
            raise ScenarioError(
                "DestChainMismatch: %s -> %s on bridge %s"
                % (sender.canon(), dest.canon(), self.id.canon()))

    def enqueue(self, message: BridgeMessage, now: int, rng) -> int:
        """Called at seal time; returns the delivery tick."""
        delay = rng.randint(1, max(1, self.policy.max_delay))
        due = now + delay
        self.queue.append(QueuedMessage(message, due))
        return due

    def take_due(self, now: int, rng) -> list:
        """Remove and return the messages deliverable at this tick.

        Without reordering the queue behaves as a pipe: a message may
        not overtake an earlier one, so delivery stops at the first
        not-yet-due entry.  With reordering every due message is
        eligible and the batch order is a seeded permutation.
        """
        if self.policy.allow_reorder:
            due = [q for q in self.queue if q.due <= now]
            if not due:
                return []
            self.queue = [q for q in self.queue if q.due > now]
            rng.shuffle(due)
            return [q.message for q in due]
        taken = []
        while self.queue and self.queue[0].due <= now:
            taken.append(self.queue.pop(0).message)
        return taken

    # Adversarial injections -------------------------------------------

    def _require_adversarial(self) -> None:
        if self.policy.mode != ADVERSARIAL:
            raise NotAdversarialBridge(self.id.canon())

    def forge(self, message: BridgeMessage, now: int, rng) -> int:
        self._require_adversarial()
        return self.enqueue(message, now, rng)

    def drop(self, msg_id: int) -> Optional[BridgeMessage]:
        self._require_adversarial()
        for i, queued in enumerate(self.queue):
            if queued.message.msg_id == msg_id:
                return self.queue.pop(i).message
        return None

    def corrupt(self, msg_id: int, new_payload) -> Optional[BridgeMessage]:
        self._require_adversarial()
        for i, queued in enumerate(self.queue):
            if queued.message.msg_id == msg_id:
                queued.message = queued.message._replace(payload=new_payload)
                return queued.message
        return None

    def queued_ids(self) -> list:
        return [q.message.msg_id for q in self.queue]
