"""Append-only event log shared by the simulator and all checkers.

Every run produces one Trace: a meta header, a snapshot of contract state
before the first tick, the ordered event list, and a snapshot after the
last tick.  The text rendering is canonical (fixed field order, typed
value encoding) so that two runs with the same scenario and seed produce
byte-identical files.

The trace holds the tick being run, which the engine writes once per
tick, and `Trace.record` is the one place an event is built: it stamps
the event with that tick.  SCHEMA, read from SCHEMA_TEXT, lists each
kind's fields in render order, each required or optional and of one
type: a class with a memoized `_text` (Address, BridgeId), int, bool,
str, or any value.  From it a renderer per kind is generated once, at
import, the way dataclasses generates __init__: the line's head and
each run of consecutive required fields is one `%` format (an int as
i%d, a bool as b%d, a memoized class as its `_text`, any value through
canon), and each optional field is appended when its value is not
None.  The hot path checks no type; the test suite checks every
recorded event against the schema.  canon itself looks a value's text
up in the _CANON type table, where a class with a memoized `_text`
(the recorded value classes below) is entered as a getter of that
attribute, so an already computed text costs one attribute read.

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
from typing import Any, NamedTuple, Optional

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

# The event schema: per kind, its fields in render order, each as
# "name:type", or "name?:type" when optional.  A field's type is one of
# _FORMATS: a memoized-text class (Address, BridgeId; defined in
# chain.py and bridge.py, which import this module), int, bool, str, or
# any value, written through canon.  A required field's value is never
# None; an optional one is rendered only when its value is not None.
SCHEMA_TEXT = {
    INVOKE: "caller:Address target:Address method:str params:any depth:int"
            " ok:bool result?:any err?:str writes?:any txid?:str actor?:str",
    SEND: "bridge:BridgeId msgid:int sender:Address dest:Address block:int"
          " payload:any",
    RECV: "bridge:BridgeId msgid:int dest:Address origin_block:int"
          " payload:any",
    SEAL: "block:int count:int",
    LOCK: "caller:Address target:Address ok:bool err?:str txid?:str",
    UNLOCK: "caller:Address target:Address failure:bool ok:bool err?:str"
            " txid?:str",
    FUTURE: "adapter:Address seq:int state:str ok?:bool",
    ADVERSARY: "op:str caller?:Address target?:Address method?:str"
               " params?:any bridge?:BridgeId msgid?:int fake_block?:int"
               " payload?:any",
    OUTCOME: "txid:str outcome:str reason?:str rounds:int",
    ANOMALY: "what:str adapter?:Address seq?:int msgid?:int",
}


class Field(NamedTuple):
    name: str
    type: str          # a key of _FORMATS
    required: bool


SCHEMA = {kind: tuple(Field(name.rstrip("?"), of, not name.endswith("?"))
                      for name, of in (f.split(":") for f in text.split()))
          for kind, text in SCHEMA_TEXT.items()}

# Per field type: the `%` conversion of its text, and the expression
# that gives the value to convert from the value `{}`.  A bool renders
# as b0/b1 through %d, since True formats as 1.
_FORMATS = {
    "Address": ("%s", "{}._text"), "BridgeId": ("%s", "{}._text"),
    "int": ("i%d", "{}"), "bool": ("b%d", "{}"), "str": ("%s", "{}"),
    "any": ("%s", "canon({})"),
}


def _renderer_source(kind: str, fields: tuple) -> str:
    """Source of `render_<kind>(tick, chain, data)`: each run of
    consecutive required fields is one `%` format (the first one with
    the line's head), and each optional field is appended when present."""
    body = []
    text, args = "tick=%d kind=" + kind + " chain=%s", ["tick", "chain"]

    def run() -> str:       # the pending run as one `%` expression
        return "%r %% (%s,)" % (text, ", ".join(args))

    for name, of, required in fields:
        conversion, value = _FORMATS[of]
        label = " %s=%s" % (name, conversion)
        if required:
            text += label
            args.append(value.format("data[%r]" % name))
            continue
        if args:
            body.append(("line += " if body else "line = ") + run())
            text, args = "", []
        body += ["value = data.get(%r)" % name,
                 "if value is not None:",
                 "    line += %r %% %s" % (label, value.format("value"))]
    if args:
        body.append(("return line + " if body else "return ") + run())
    else:
        body.append("return line")
    return "def render_%s(tick, chain, data):\n    %s\n" % (
        kind, "\n    ".join(body))


def _renderer(kind: str, fields: tuple):
    """The compiled renderer of one kind, under its own file name, so
    that a profile tells the kinds apart."""
    namespace = {"canon": canon}
    exec(compile(_renderer_source(kind, fields), "<render %s>" % kind,
                 "exec"), namespace)
    return namespace["render_" + kind]


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


# One renderer per kind, built once from the schema.
_RENDER = {kind: _renderer(kind, fields) for kind, fields in SCHEMA.items()}


@dataclass(slots=True)
class TraceEvent:
    tick: int
    kind: str
    chain: Optional[str]
    data: dict

    def render(self) -> str:
        return _RENDER[self.kind](self.tick, self.chain, self.data)


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
        render = _RENDER
        lines += [render[e.kind](e.tick, e.chain, e.data)
                  for e in self.events]
        lines += [s.render("final") for s in
                  sorted(self.final, key=lambda s: (s.chain, s.local))]
        return "\n".join(lines) + "\n"

    def final_vars(self) -> dict:
        return {(s.chain, s.local): dict(s.vars) for s in self.final}
