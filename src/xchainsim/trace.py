"""Append-only event log shared by the simulator and all checkers.

Every run produces one Trace: a meta header, a snapshot of contract state
before the first tick, the ordered event list, and a snapshot after the
last tick.  The text rendering is canonical (fixed field order, typed
value encoding) so that two runs with the same scenario and seed produce
byte-identical files.

The trace holds the tick being run, which the engine writes once per
tick, and `Trace.record` is the one place an event is built: it stamps
the event with that tick.  An event renders by walking its kind's table
of (key, "key=") pairs, built once from _FIELD_ORDER.  A str or int
value is written inline; every other value's text comes from the _CANON
type table, where a class with a memoized `_text` (the recorded value
classes below) is entered as a getter of that attribute, so an already
computed text costs one attribute read.

An event is a slotted record; a value recorded in it is never mutated
afterwards.  Addresses and bridge ids are tuple subclasses, so they
hash, compare and sort as tuples, in C; bridge payloads are frozen
dataclasses.  Each computes its canonical text once per object and
keeps it in the object's __dict__ (a tuple subclass cannot have slots
beyond an empty __slots__); an executor reuses one Address per decoded
encoding, so that holds per contract, not per request.  An adversarial
corruption replaces the message's payload object instead of editing
it.  So the text of a recorded value never changes, and a checker may
treat the very same object as the same text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Optional

# Event kinds.
INVOKE = "invoke"
SEND = "send"
RECV = "recv"
SEAL = "seal"
LOCK = "lock"
UNLOCK = "unlock"
FUTURE = "future"
ADVERSARY = "adversary"
OUTCOME = "outcome"
ANOMALY = "anomaly"

# Rendering order of detail fields, per kind.  Missing keys are skipped;
# the set of present keys is fully determined by the event content, so
# the rendering stays canonical.
_FIELD_ORDER = {
    INVOKE: ("caller", "target", "method", "params", "depth", "ok",
             "result", "err", "writes", "txid", "actor"),
    SEND: ("bridge", "msgid", "sender", "dest", "block", "payload"),
    RECV: ("bridge", "msgid", "dest", "origin_block", "payload"),
    SEAL: ("block", "count"),
    LOCK: ("caller", "target", "ok", "err", "txid"),
    UNLOCK: ("caller", "target", "failure", "ok", "err", "txid"),
    FUTURE: ("adapter", "seq", "state", "ok"),
    ADVERSARY: ("op", "caller", "target", "method", "params", "bridge",
                "msgid", "fake_block", "payload"),
    OUTCOME: ("txid", "outcome", "reason", "rounds"),
    ANOMALY: ("what", "adapter", "seq", "msgid"),
}

# The same order as (key, "key=") pairs, so a render concatenates and
# does not format a label per field.
_FIELDS = {kind: tuple((key, key + "=") for key in keys)
           for kind, keys in _FIELD_ORDER.items()}


class memoized:
    """A method read as an attribute and computed once per object: the
    first read stores the value on the instance, where later reads find
    it before this descriptor.  For immutable objects only (module
    docstring).
    functools.cached_property does the same but, before Python 3.12,
    takes a lock on every first read, which made the first read of an
    address six times dearer than formatting its text again."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _canon_bool(value: bool) -> str:
    return "b1" if value else "b0"


def _canon_int(value: int) -> str:
    return "i%d" % value


def _canon_bytes(value: bytes) -> str:
    return "x" + value.hex()


def _canon_str(value: str) -> str:
    return value


def _canon_seq(value) -> str:
    return "[" + ",".join(map(canon, value)) + "]"


# Renderer per exact type.  A class whose canonical text is a memoized
# `_text` joins the table the first time canon meets it; subclasses of
# the built-in types and everything else go through _canon_fallback.
_CANON = {bool: _canon_bool, int: _canon_int, bytes: _canon_bytes,
          str: _canon_str, list: _canon_seq, tuple: _canon_seq}
_memo_text = attrgetter("_text")


def canon(value: Any) -> str:
    """Canonical text for a detail value.

    Integers, booleans and bytes (the simulator's value domain) get a
    type prefix so that heterogeneous parameter lists stay unambiguous.
    Plain identifier strings (method names, reasons, ids) pass through.
    """
    render = _CANON.get(type(value))
    if render is None:
        return _canon_fallback(value)
    return render(value)


def _canon_fallback(value: Any) -> str:
    if isinstance(value, bool):
        return _canon_bool(value)
    if isinstance(value, int):
        return _canon_int(value)
    if isinstance(value, bytes):
        return _canon_bytes(value)
    if isinstance(value, str):
        return value
    # Objects with their own canonical form (Address, BridgeId, payloads),
    # looked up before the sequence branch since addresses are tuples.
    c = getattr(value, "canon", None)
    if c is None:
        if isinstance(value, (list, tuple)):
            return _canon_seq(value)
        raise TypeError("no canonical form for %r" % (value,))
    if isinstance(getattr(type(value), "_text", None), memoized):
        _CANON[type(value)] = _memo_text
    return c() if callable(c) else c


@dataclass(slots=True)
class TraceEvent:
    tick: int
    kind: str
    chain: Optional[str]
    data: dict

    def render(self) -> str:
        parts = ["tick=%d kind=%s" % (self.tick, self.kind)]
        append = parts.append
        if self.chain is not None:
            append("chain=%s" % self.chain)
        get = self.data.get
        for key, label in _FIELDS[self.kind]:
            value = get(key)
            if value is None:
                continue
            kind = type(value)
            if kind is str:
                append(label + value)
            elif kind is int:
                append(label + "i%d" % value)
            else:
                text = _CANON.get(kind)
                append(label + (_canon_fallback(value) if text is None
                                else text(value)))
        return " ".join(parts)


@dataclass
class ContractSnapshot:
    """State of one contract at a snapshot moment, sufficient to rebuild
    an equivalent contract for oracle replay."""
    chain: str
    local: str
    kind: str
    owner: Any              # an Address
    trusted: tuple          # of Addresses on `chain`, sorted
    vars: dict

    def render(self, moment: str) -> str:
        body = ",".join("%s:%s" % (k, canon(v))
                        for k, v in sorted(self.vars.items()))
        return ("snapshot moment=%s chain=%s contract=%s kind=%s owner=%s "
                "trusted=%s vars={%s}"
                % (moment, self.chain, self.local, self.kind,
                   canon(self.owner), canon(self.trusted), body))


@dataclass
class Trace:
    scenario: str = ""
    seed: int = 0
    lock_order: str = "canonical"
    events: list = field(default_factory=list)
    initial: list = field(default_factory=list)   # [ContractSnapshot]
    final: list = field(default_factory=list)
    quiesced: bool = False
    end_tick: int = 0
    tick: int = 0              # the tick being run, kept by the engine

    def record(self, kind: str, chain: Optional[str], data: dict) -> None:
        """Add an event of the current tick."""
        self.events.append(TraceEvent(self.tick, kind, chain, data))

    def render(self) -> str:
        lines = ["meta scenario=%s seed=%d lock_order=%s quiesced=%s end_tick=%d"
                 % (self.scenario, self.seed, self.lock_order,
                    canon(self.quiesced), self.end_tick)]
        lines += [s.render("initial") for s in
                  sorted(self.initial, key=lambda s: (s.chain, s.local))]
        lines += [e.render() for e in self.events]
        lines += [s.render("final") for s in
                  sorted(self.final, key=lambda s: (s.chain, s.local))]
        return "\n".join(lines) + "\n"

    def final_vars(self) -> dict:
        return {(s.chain, s.local): dict(s.vars) for s in self.final}
