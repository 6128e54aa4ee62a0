"""Scenario configuration: YAML schema, validation, and world assembly.

A scenario file describes chains with their contracts, the bridges
between them, the cross-chain transactions to propose, and an optional
adversary script of timed injections.  `load_scenario` parses and fully
validates a file, including that no name holds a character the trace
uses as a separator; `build_world` turns the result plus a seed into a
runnable World, and rejects an adversary entry that names a missing
chain or bridge, or a bridge that is not adversarial.  Bundled scenarios
under ``xchainsim/scenarios/`` can be referenced by bare name instead of
a path.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .bridge import Ack, Anotify, BridgeId, Rcall, HONEST, ADVERSARIAL
from .chain import Address, ScenarioError
from .engine import BRIDGE_OPS, CHAIN_OPS, Injection, StopCondition, World
from .methods import library_kinds, token_init
from .txn import CrossChainTransaction, IndexedAction


# libyaml's loader parses about ten times faster where it is installed.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ValidationError(ScenarioError):
    """Scenario content failed validation; message names the location."""


@dataclass
class ContractSpec:
    local: str
    kind: str
    owner: str
    init: dict
    trusted: Optional[list]


@dataclass
class ChainSpec:
    chain_id: str
    executor: str
    seal_every: int
    contracts: list


@dataclass
class BridgeSpec:
    src: str
    dst: str
    max_delay: int
    reorder: bool
    mode: str
    tag: int


@dataclass
class TransactionSpec:
    txid: str
    proposer: str
    originator: str
    tick: int
    actions: list           # of dicts
    prec: list              # of (before, after)


@dataclass
class Scenario:
    name: str
    lock_order: str
    stop: StopCondition
    chains: list = field(default_factory=list)
    bridges: list = field(default_factory=list)
    transactions: list = field(default_factory=list)
    adversary: list = field(default_factory=list)   # of Injection


def _require(cond: bool, where: str, message: str, *args) -> None:
    """Raise unless `cond`; the message is `message % args`, formatted
    only then."""
    if not cond:
        raise ValidationError("%s: %s" % (where, message % args))


# Characters that separate the tokens of a trace line, or the parts of an
# address (chain/local), a bridge (src>dst#tag) or an adapter's local name
# (adapter:chain).  No name may hold one, or its trace could not be split
# back into the names it was written from.
_SEPARATOR = re.compile(r"[\s=,/:#>\[\](){}]")


def _name(raw, where: str, what: str) -> str:
    text = str(raw)
    _require(bool(text) and not _SEPARATOR.search(text), where,
             "%s %r must be non-empty and hold no whitespace or any of "
             "= , / : # > [ ] ( ) { }", what, text)
    return text


def _value(raw, where: str):
    if isinstance(raw, bool) or isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        return raw.encode("utf-8")
    raise ValidationError("%s: unsupported value %r (use int, bool, or "
                          "string)" % (where, raw))


def bundled_scenarios() -> list:
    root = importlib.resources.files("xchainsim") / "scenarios"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def resolve_scenario_path(ref: str) -> Path:
    path = Path(ref)
    if path.exists():
        return path
    bundled = importlib.resources.files("xchainsim") / "scenarios" / \
        ("%s.yaml" % ref)
    if bundled.is_file():
        return Path(str(bundled))
    raise ValidationError("scenario %r: no such file or bundled name "
                          "(bundled: %s)" % (ref, ", ".join(
                              bundled_scenarios())))


def load_scenario(ref: str) -> Scenario:
    path = resolve_scenario_path(ref)
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as err:
        raise ValidationError("%s: parse error: %s" % (path, err)) from None
    if not isinstance(raw, dict):
        raise ValidationError("%s: top level must be a mapping" % path)
    return parse_scenario(raw, default_name=path.stem)


def parse_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    name = raw.get("name", default_name)
    lock_order = raw.get("lock_order", "canonical")
    _require(lock_order in ("canonical", "declared"), name,
             "lock_order must be canonical or declared")
    stop_raw = raw.get("stop", {})
    stop = StopCondition(quiesce=bool(stop_raw.get("quiesce", True)),
                         max_ticks=int(stop_raw.get("max_ticks", 400)))
    scenario = Scenario(name=name, lock_order=lock_order, stop=stop)

    chain_ids = set()
    for i, chain_raw in enumerate(raw.get("chains", [])):
        where = "%s.chains[%d]" % (name, i)
        _require("id" in chain_raw, where, "missing chain id")
        chain_id = _name(chain_raw["id"], where, "chain id")
        _require(chain_id not in chain_ids, where, "duplicate chain %s",
                 chain_id)
        chain_ids.add(chain_id)
        contracts = []
        for j, c_raw in enumerate(chain_raw.get("contracts", [])):
            cwhere = "%s.contracts[%d]" % (where, j)
            _require("local" in c_raw, cwhere, "missing contract name")
            kind = c_raw.get("kind", "token")
            _require(kind in library_kinds(), cwhere,
                     "unknown contract kind %r (known: %s)",
                     kind, ", ".join(library_kinds()))
            init = c_raw.get("init", {}) or {}
            _require(isinstance(init, dict), cwhere, "init must be a mapping")
            if kind == "token":
                for holder in init:
                    _name(holder, cwhere, "token holder")
            contracts.append(ContractSpec(
                local=_name(c_raw["local"], cwhere, "contract name"),
                kind=kind,
                owner=_name(c_raw.get("owner", "owner"), cwhere, "owner"),
                init=dict(init),
                trusted=[_name(t, cwhere, "trusted name")
                         for t in c_raw["trusted"]]
                if "trusted" in c_raw else None))
        seal_every = int(chain_raw.get("seal_every", 1))
        _require(seal_every >= 1, where, "seal_every must be positive")
        scenario.chains.append(ChainSpec(
            chain_id=chain_id,
            executor=_name(chain_raw.get("executor", "exec"), where,
                           "executor name"),
            seal_every=seal_every, contracts=contracts))
    _require(bool(scenario.chains), name, "at least one chain is required")

    for i, b_raw in enumerate(raw.get("bridges", [])):
        where = "%s.bridges[%d]" % (name, i)
        for key in ("src", "dst"):
            _require(key in b_raw, where, "missing %s", key)
            _require(str(b_raw[key]) in chain_ids, where,
                     "unknown chain %r", b_raw[key])
        mode = b_raw.get("mode", HONEST)
        _require(mode in (HONEST, ADVERSARIAL), where,
                 "mode must be honest or adversarial")
        scenario.bridges.append(BridgeSpec(
            src=str(b_raw["src"]), dst=str(b_raw["dst"]),
            max_delay=int(b_raw.get("max_delay", 3)),
            reorder=bool(b_raw.get("reorder", False)), mode=mode,
            tag=int(b_raw.get("tag", 0))))

    for i, t_raw in enumerate(raw.get("transactions", [])):
        where = "%s.transactions[%d]" % (name, i)
        _require("txid" in t_raw, where, "missing txid")
        _require("proposer" in t_raw, where, "missing proposer chain")
        _require(str(t_raw["proposer"]) in chain_ids, where,
                 "unknown proposer chain %r", t_raw["proposer"])
        actions = []
        for j, a_raw in enumerate(t_raw.get("actions", [])):
            awhere = "%s.actions[%d]" % (where, j)
            for key in ("chain", "target", "method"):
                _require(key in a_raw, awhere, "missing %s", key)
            _require(str(a_raw["chain"]) in chain_ids, awhere,
                     "unknown chain %r", a_raw["chain"])
            params = [_value(p, awhere) for p in a_raw.get("params", [])]
            actions.append({"id": int(a_raw.get("id", j)),
                            "chain": str(a_raw["chain"]),
                            "target": _name(a_raw["target"], awhere,
                                            "target"),
                            "method": _name(a_raw["method"], awhere,
                                            "method"),
                            "params": params})
        prec = []
        for pair in t_raw.get("prec", []):
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                     where, "prec entries must be [before, after] pairs")
            prec.append((int(pair[0]), int(pair[1])))
        scenario.transactions.append(TransactionSpec(
            txid=_name(t_raw["txid"], where, "txid"),
            proposer=str(t_raw["proposer"]),
            originator=_name(t_raw.get("originator", "origin"), where,
                             "originator"),
            tick=int(t_raw.get("tick", 0)), actions=actions, prec=prec))

    for i, inj_raw in enumerate(raw.get("adversary", [])):
        where = "%s.adversary[%d]" % (name, i)
        _require("op" in inj_raw, where, "missing op")
        _require("tick" in inj_raw, where, "missing tick")
        scenario.adversary.append(_parse_injection(inj_raw, where))

    return scenario


def build_world(scenario: Scenario, seed: int = 0,
                lock_order: Optional[str] = None) -> World:
    world = World(seed=seed,
                  lock_order=lock_order or scenario.lock_order,
                  scenario_name=scenario.name)
    for chain_spec in scenario.chains:
        world.add_chain(chain_spec.chain_id, chain_spec.executor,
                        seal_every=chain_spec.seal_every)
        for c in chain_spec.contracts:
            init = token_init(c.init) if c.kind == "token" else c.init
            world.add_contract(chain_spec.chain_id, c.local, c.kind,
                               owner=c.owner, init=init, trusted=c.trusted)
    for b in scenario.bridges:
        world.add_bridge(b.src, b.dst, max_delay=b.max_delay,
                         reorder=b.reorder, mode=b.mode, tag=b.tag)
    for t in scenario.transactions:
        actions = [IndexedAction(action_id=a["id"], chain=a["chain"],
                                 target=Address(a["chain"], a["target"]),
                                 method=a["method"],
                                 params=tuple(a["params"]))
                   for a in t.actions]
        txn = CrossChainTransaction(
            txid=t.txid, actions=actions, prec=set(t.prec),
            originator=Address(t.proposer, t.originator),
            proposer_chain=t.proposer)
        world.add_transaction(txn, tick=t.tick)
    for injection in scenario.adversary:
        world.add_injection(injection)
    return world


def _parse_injection(raw: dict, where: str) -> Injection:
    op = str(raw["op"])
    tick = int(raw["tick"])
    if op in CHAIN_OPS:
        for key in ("chain", "caller", "target"):
            _require(key in raw, where, "missing %s", key)
        chain = str(raw["chain"])
        injection = Injection(
            tick=tick, op=op, chain=chain,
            caller=Address(chain, _name(raw["caller"], where, "caller")),
            target=Address(chain, _name(raw["target"], where, "target")),
            failure=bool(raw.get("failure", False)))
        if op == "invoke":
            _require("method" in raw, where, "missing method")
            injection.method = _name(raw["method"], where, "method")
            injection.params = [_value(p, where)
                                for p in raw.get("params", [])]
        return injection
    if op in BRIDGE_OPS:
        for key in ("src", "dst"):
            _require(key in raw, where, "missing %s", key)
        bridge = BridgeId(str(raw["src"]), str(raw["dst"]),
                          int(raw.get("tag", 0)))
        injection = Injection(tick=tick, op=op, bridge=bridge)
        if op == "forge":
            injection.payload = _parse_payload(raw.get("payload"), where)
            injection.fake_block = int(raw.get("fake_block", 0))
            if "dest" in raw:
                injection.dest = Address(bridge.dst,
                                         _name(raw["dest"], where, "dest"))
        else:
            if "msgid" in raw:
                injection.msg_id = int(raw["msgid"])
            else:
                injection.queue_index = int(raw.get("index", 0))
            if op == "corrupt":
                injection.payload = _parse_payload(raw.get("payload"), where)
        return injection
    raise ValidationError("%s: unknown op %r" % (where, op))


def _parse_payload(raw, where: str):
    _require(isinstance(raw, dict) and "type" in raw, where,
             "payload must be a mapping with a type")
    ptype = str(raw["type"])
    if ptype == "ack":
        result = raw.get("result")
        return Ack(seq=int(raw.get("seq", 0)),
                   ok=bool(raw.get("ok", True)),
                   result=_value(result, where) if result is not None
                   else None)
    if ptype == "anotify":
        _require("dest" in raw and "chain" in raw, where,
                 "anotify payload needs chain and dest")
        seq = raw.get("seq")
        chain = _name(raw["chain"], where, "payload chain")
        return Anotify(origin=Address(_name(raw.get("origin_chain", chain),
                                            where, "payload origin_chain"),
                                      _name(raw.get("origin", "forged"),
                                            where, "payload origin")),
                       data=_value(raw.get("data", ""), where),
                       seq=int(seq) if seq is not None else None,
                       dest=Address(chain, _name(raw["dest"], where,
                                                 "payload dest")))
    if ptype == "rcall":
        _require("chain" in raw and "target" in raw and "method" in raw,
                 where, "rcall payload needs chain, target, method")
        return Rcall(target=Address(_name(raw["chain"], where,
                                          "payload chain"),
                                    _name(raw["target"], where,
                                          "payload target")),
                     method=_name(raw["method"], where, "payload method"),
                     params=tuple(_value(p, where)
                                  for p in raw.get("params", [])),
                     seq=int(raw.get("seq", 0)))
    raise ValidationError("%s: unknown payload type %r" % (where, ptype))
