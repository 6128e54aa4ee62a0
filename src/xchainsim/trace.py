"""Append-only event log shared by the simulator and all checkers.

Every run produces one Trace: a meta header, a snapshot of contract state
before the first tick, the ordered event list, and a snapshot after the
last tick.  The text rendering is canonical (fixed field order, typed
value encoding) so that two runs with the same scenario and seed produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    FUTURE: ("adapter", "seq", "state", "ok", "txid"),
    ADVERSARY: ("op", "caller", "target", "method", "params", "bridge",
                "msgid", "fake_block", "payload"),
    OUTCOME: ("txid", "outcome", "reason", "rounds"),
    ANOMALY: ("what", "adapter", "seq", "msgid"),
}


def canon(value: Any) -> str:
    """Canonical text for a detail value.

    Integers, booleans and bytes (the simulator's value domain) get a
    type prefix so that heterogeneous parameter lists stay unambiguous.
    Plain identifier strings (method names, reasons, ids) pass through.
    """
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return "i%d" % value
    if isinstance(value, bytes):
        return "x" + value.hex()
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    # Objects with their own canonical form (Address, BridgeId, payloads).
    c = getattr(value, "canon", None)
    if c is not None:
        return c() if callable(c) else c
    raise TypeError("no canonical form for %r" % (value,))


@dataclass
class TraceEvent:
    tick: int
    kind: str
    chain: Optional[str]
    data: dict

    def render(self) -> str:
        parts = ["tick=%d" % self.tick, "kind=%s" % self.kind]
        if self.chain is not None:
            parts.append("chain=%s" % self.chain)
        for key in _FIELD_ORDER[self.kind]:
            if key in self.data and self.data[key] is not None:
                parts.append("%s=%s" % (key, canon(self.data[key])))
        return " ".join(parts)


@dataclass
class ContractSnapshot:
    """State of one contract at a snapshot moment, sufficient to rebuild
    an equivalent contract for oracle replay."""
    chain: str
    local: str
    kind: str
    owner: str
    trusted: tuple
    vars: dict

    def render(self, moment: str) -> str:
        body = ",".join("%s:%s" % (k, canon(v))
                        for k, v in sorted(self.vars.items()))
        return ("snapshot moment=%s chain=%s contract=%s kind=%s owner=%s "
                "trusted=[%s] vars={%s}"
                % (moment, self.chain, self.local, self.kind, self.owner,
                   ",".join(self.trusted), body))


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

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

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

    # Snapshot helpers used by the checkers.

    def initial_vars(self) -> dict:
        return {(s.chain, s.local): dict(s.vars) for s in self.initial}

    def final_vars(self) -> dict:
        return {(s.chain, s.local): dict(s.vars) for s in self.final}
