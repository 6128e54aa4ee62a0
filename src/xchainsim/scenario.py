"""Scenario configuration: YAML schema, validation, and world assembly.

A scenario file describes chains with their contracts, the bridges
between them, the cross-chain transactions to propose, and an optional
adversary script of timed injections.  `load_scenario` parses and fully
validates a file: one typed reader per field returns the field checked,
or raises ValidationError at its location (``swap.bridges[1].max_delay``),
which the CLI reports with exit code 2.  A field left out takes its
default; a null is a wrong type like any other.  A key that its
mapping's reader does not read is rejected at its location too; which
keys an injection or a payload has depends on its op or type.
Each transaction is built, and its action order and ids checked, once
as the file is read; every world built from the scenario shares it.
`build_world` turns the result plus a seed into a runnable World, and
rejects what needs a world: a missing contract or method, an adversary
entry naming a missing chain or bridge, or a bridge that is not
adversarial.  A bare name that is no file names a bundled scenario,
looked up under the package's ``scenarios/`` directory.

A file is read as UTF-8 whatever the locale; one that cannot be read or
decoded raises ValidationError naming its path.

A file is loaded in two steps.  libyaml composes it into a node tree,
with every tag resolved as PyYAML's safe loader resolves it; then one
walk builds the values.  A plain mapping or list becomes a dict or a
list, registered before its children so that an alias shares one object
and a recursive alias stays recursive; a string, int, bool or null
scalar becomes its value through the loader's own constructors.  Every
other YAML feature (a ``<<`` merge, ``!!set``, ``!!omap``, floats,
timestamps, ``!!binary``, an unknown tag) falls through to PyYAML's
constructor, so the walk builds what ``yaml.load`` builds and raises
what it raises.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml
from yaml.constructor import ConstructorError

from .bridge import Ack, Anotify, BridgeId, Rcall, HONEST, ADVERSARIAL
from .chain import Address, ScenarioError
from .engine import BRIDGE_OPS, CHAIN_OPS, Injection, StopCondition, World
from .methods import library_kinds, token_init
from .txn import CrossChainTransaction, IndexedAction


# libyaml's loader parses about ten times faster where it is installed.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_BUNDLED = Path(__file__).parent / "scenarios"


class ValidationError(ScenarioError):
    """Scenario content failed validation; message names the location."""


@dataclass
class ContractSpec:
    local: str
    kind: str
    owner: str
    init: dict              # its vars: a token's {account: n} as bal: keys
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
class Scenario:
    name: str
    lock_order: str
    stop: StopCondition
    chains: list = field(default_factory=list)
    bridges: list = field(default_factory=list)
    transactions: list = field(default_factory=list)  # of (tick, txn)
    adversary: list = field(default_factory=list)   # of Injection


# Characters that separate the tokens of a trace line, or the parts of an
# address (chain/local), a bridge (src>dst#tag) or an adapter's local name
# (adapter:chain).  No name may hold one, or its trace could not be split
# back into the names it was written from.
_SEPARATOR = re.compile(r"[\s=,/:#>\[\](){}]")
_NAME_RULE = ("must be a non-empty string with no whitespace or any of "
              "= , / : # > [ ] ( ) { }")
_REQUIRED = object()   # the default of a field that has none
_VALUE = {int: int, bool: bool, str: str.encode}   # type -> conversion


def _at(where: str, key) -> str:
    return ("%s[%d]" if type(key) is int else "%s.%s") % (where, key)


def _reject(where: str, key, value, rule: str):
    text = "missing" if value is _REQUIRED else "%r %s" % (value, rule)
    raise ValidationError("%s: %s" % (_at(where, key), text))


def _known(raw: dict, where: str, keys) -> None:
    """Reject a key of the mapping `raw` that its reader does not read."""
    for key in raw:
        if key not in keys:
            raise ValidationError("%s: unknown key; the keys here are %s"
                                  % (_at(where, key), ", ".join(keys)))


def _mapping(raw: dict, key, where: str, default=_REQUIRED) -> tuple:
    """The mapping at `key`, after its location."""
    value = raw.get(key, default)
    if not isinstance(value, dict):
        _reject(where, key, value, "must be a mapping")
    return _at(where, key), value


def _list(raw: dict, key, where: str, read, default=()) -> list:
    """The list at `key`, each item read by `read` under its index."""
    items = raw.get(key, default)
    if not isinstance(items, (list, tuple)):
        _reject(where, key, items, "must be a list")
    if not items:
        return []
    at, indexed = _at(where, key), dict(enumerate(items))
    return [read(indexed, j, at) for j in indexed]


def _name(raw: dict, key, where: str, default=_REQUIRED) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str) or not value or _SEPARATOR.search(value):
        _reject(where, key, value, _NAME_RULE)
    return value


def _int(raw: dict, key, where: str, default=_REQUIRED, low: int = 0) -> int:
    value = raw.get(key, default)
    if type(value) is not int or value < low:
        _reject(where, key, value, "must be an int >= %d" % low)
    return value


def _pair(raw: dict, key, where: str) -> tuple:
    pair = _list(raw, key, where, _int)
    if len(pair) != 2:
        _reject(where, key, pair, "must be a [before, after] pair")
    return tuple(pair)


def _bool(raw: dict, key, where: str, default=_REQUIRED) -> bool:
    value = raw.get(key, default)
    if type(value) is not bool:
        _reject(where, key, value, "must be true or false")
    return value


def _choice(raw: dict, key, where: str, choices, default=_REQUIRED) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str) or value not in choices:
        _reject(where, key, value,
                "must be one of " + ", ".join(sorted(choices)))
    return value


def _value(raw: dict, key, where: str, default=_REQUIRED):
    """A param or contract variable; a string becomes UTF-8 bytes."""
    value = raw.get(key, default)
    if type(value) not in _VALUE:
        _reject(where, key, value, "must be an int, bool or string")
    return _VALUE[type(value)](value)


def _values(raw: dict, key, where: str) -> list:
    """The params at `key`, read in one pass as `_value` reads each."""
    items = raw.get(key, ())
    if isinstance(items, (list, tuple)):
        try:
            return [_VALUE[type(value)](value) for value in items]
        except KeyError:
            pass
    return _list(raw, key, where, _value)   # raises at the wrong type


def bundled_scenarios() -> list:
    return sorted(p.name[:-len(".yaml")] for p in _BUNDLED.iterdir()
                  if p.name.endswith(".yaml"))


def resolve_scenario_path(ref: str) -> Path:
    # os.path answers False, where Path raises, for a name too long to be
    # a path
    if os.path.exists(ref):
        return Path(ref)
    bundled = _BUNDLED / ("%s.yaml" % ref)
    if os.path.isfile(bundled):
        return bundled
    raise ValidationError("scenario %r: no such file or bundled name "
                          "(bundled: %s)" % (ref, ", ".join(
                              bundled_scenarios())))


def load_scenario(ref: str) -> Scenario:
    path = resolve_scenario_path(ref)
    try:
        raw = read_yaml(path.read_text(encoding="utf-8"))
    except OSError as err:                            # a directory, say
        raise ValidationError("%s: cannot read: %s"
                              % (path, err.strerror)) from None
    except UnicodeDecodeError as err:
        raise ValidationError("%s: cannot read: %s" % (path, err)) from None
    except (yaml.YAMLError, RecursionError) as err:   # or nested too deep
        raise ValidationError("%s: parse error: %s" % (path, err)) from None
    return parse_scenario(raw, default_name=path.stem)


_TAG = "tag:yaml.org,2002:"
_MAP, _SEQ = _TAG + "map", _TAG + "seq"
_FLATTENED = (_TAG + "merge", _TAG + "value")   # keys that rewrite a mapping
_SCALARS = {_TAG + "str": lambda loader, node: node.value,
            _TAG + "int": _YAML_LOADER.construct_yaml_int,
            _TAG + "bool": _YAML_LOADER.construct_yaml_bool,
            _TAG + "null": lambda loader, node: None}


def read_yaml(text: str):
    """The value of the one YAML document in `text`: what
    ``yaml.load(text, Loader=_YAML_LOADER)`` returns, built by `_build`."""
    loader = _YAML_LOADER(text)
    try:
        node = loader.get_single_node()
        return None if node is None else _build(loader, node)
    finally:
        loader.dispose()


def _build(loader, node):
    """The value of `node`, as the loader's constructor would build it."""
    tag = node.tag
    if tag in _SCALARS and type(node) is yaml.ScalarNode:
        return _SCALARS[tag](loader, node)
    built = loader.constructed_objects   # PyYAML's own memo, shared with it
    if node in built:
        return built[node]
    if tag == _MAP and type(node) is yaml.MappingNode and not any(
            key_node.tag in _FLATTENED for key_node, _ in node.value):
        data = built[node] = {}
        for key_node, value_node in node.value:
            key = _build(loader, key_node)
            if type(key).__hash__ is None:
                raise ConstructorError("while constructing a mapping",
                                       node.start_mark, "found unhashable key",
                                       key_node.start_mark)
            data[key] = _build(loader, value_node)
        return data
    if tag == _SEQ and type(node) is yaml.SequenceNode:
        data = built[node] = []
        for child in node.value:
            data.append(_build(loader, child))
        return data
    return loader.construct_object(node, deep=True)


def parse_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ValidationError("%s: top level must be a mapping" % default_name)
    name = _name(raw, "name", default_name, default_name)
    _known(raw, name, ("name", "lock_order", "stop", "chains", "bridges",
                       "transactions", "adversary"))
    stop_at, stop = _mapping(raw, "stop", name, {})
    _known(stop, stop_at, ("quiesce", "max_ticks"))
    scenario = Scenario(
        name=name,
        lock_order=_choice(raw, "lock_order", name, ("canonical", "declared"),
                           "canonical"),
        stop=StopCondition(quiesce=_bool(stop, "quiesce", stop_at, True),
                           max_ticks=_int(stop, "max_ticks", stop_at, 400,
                                          low=1)))

    chain_ids = set()
    for where, chain_raw in _list(raw, "chains", name, _mapping):
        _known(chain_raw, where, ("id", "executor", "seal_every", "contracts"))
        chain_id = _name(chain_raw, "id", where)
        if chain_id in chain_ids:
            _reject(where, "id", chain_id, "is declared twice")
        chain_ids.add(chain_id)
        scenario.chains.append(ChainSpec(
            chain_id=chain_id,
            executor=_name(chain_raw, "executor", where, "exec"),
            seal_every=_int(chain_raw, "seal_every", where, 1, low=1),
            contracts=[_parse_contract(c_raw, cwhere) for cwhere, c_raw
                       in _list(chain_raw, "contracts", where, _mapping)]))
    if not scenario.chains:
        raise ValidationError("%s: at least one chain is required" % name)

    for where, b_raw in _list(raw, "bridges", name, _mapping):
        _known(b_raw, where, ("src", "dst", "max_delay", "reorder", "mode",
                              "tag"))
        scenario.bridges.append(BridgeSpec(
            src=_choice(b_raw, "src", where, chain_ids),
            dst=_choice(b_raw, "dst", where, chain_ids),
            max_delay=_int(b_raw, "max_delay", where, 3, low=1),
            reorder=_bool(b_raw, "reorder", where, False),
            mode=_choice(b_raw, "mode", where, (HONEST, ADVERSARIAL), HONEST),
            tag=_int(b_raw, "tag", where, 0)))

    for where, t_raw in _list(raw, "transactions", name, _mapping):
        _known(t_raw, where, ("txid", "proposer", "originator", "tick",
                              "actions", "prec"))
        actions = [_parse_action(a_raw, awhere, j, chain_ids)
                   for j, (awhere, a_raw)
                   in enumerate(_list(t_raw, "actions", where, _mapping))]
        txid = _name(t_raw, "txid", where)
        originator = Address(_choice(t_raw, "proposer", where, chain_ids),
                             _name(t_raw, "originator", where, "origin"))
        tick = _int(t_raw, "tick", where, 0)
        # raises ScenarioError on a bad action order or duplicate ids
        scenario.transactions.append((tick, CrossChainTransaction(
            txid, actions, set(_list(t_raw, "prec", where, _pair)),
            originator)))

    scenario.adversary = [_parse_injection(inj_raw, where) for where, inj_raw
                          in _list(raw, "adversary", name, _mapping)]
    return scenario


def _parse_action(raw: dict, where: str, default_id: int,
                  chain_ids: set) -> IndexedAction:
    _known(raw, where, ("id", "chain", "target", "method", "params"))
    action_id = _int(raw, "id", where, default_id)
    return IndexedAction(action_id,
                         Address(_choice(raw, "chain", where, chain_ids),
                                 _name(raw, "target", where)),
                         _name(raw, "method", where),
                         tuple(_values(raw, "params", where)))


def _parse_contract(raw: dict, where: str) -> ContractSpec:
    _known(raw, where, ("local", "kind", "owner", "init", "trusted"))
    kind = _choice(raw, "kind", where, library_kinds(), "token")
    init_at, init = _mapping(raw, "init", where, {})
    read = _int if kind == "token" else _value   # a balance is an int
    init_vars = {key: read(init, key, init_at)   # each key is a name
                 for key in _list({"init": list(init)}, "init", where, _name)}
    return ContractSpec(
        local=_name(raw, "local", where), kind=kind,
        owner=_name(raw, "owner", where, "owner"),
        init=token_init(init_vars) if kind == "token" else init_vars,
        trusted=_list(raw, "trusted", where, _name) if "trusted" in raw
        else None)


def build_world(scenario: Scenario, seed: int = 0,
                lock_order: Optional[str] = None) -> World:
    world = World(seed=seed,
                  lock_order=lock_order or scenario.lock_order,
                  scenario_name=scenario.name)
    for chain_spec in scenario.chains:
        world.add_chain(chain_spec.chain_id, chain_spec.executor,
                        seal_every=chain_spec.seal_every)
        for c in chain_spec.contracts:
            world.add_contract(chain_spec.chain_id, c.local, c.kind,
                               owner=c.owner, init=c.init, trusted=c.trusted)
    for b in scenario.bridges:
        world.add_bridge(b.src, b.dst, max_delay=b.max_delay,
                         reorder=b.reorder, mode=b.mode, tag=b.tag)
    for tick, txn in scenario.transactions:
        world.add_transaction(txn, tick=tick)
    for injection in scenario.adversary:
        world.add_injection(injection)
    return world


def _parse_injection(raw: dict, where: str) -> Injection:
    op = _choice(raw, "op", where, CHAIN_OPS + BRIDGE_OPS)
    tick = _int(raw, "tick", where)
    if op in CHAIN_OPS:
        _known(raw, where, ("tick", "op", "chain", "caller", "target") + {
            "invoke": ("method", "params"), "lock": (),
            "unlock": ("failure",)}[op])
        chain = _name(raw, "chain", where)
        injection = Injection(
            tick=tick, op=op, chain=chain,
            caller=Address(chain, _name(raw, "caller", where)),
            target=Address(chain, _name(raw, "target", where)))
        if op == "invoke":
            injection.method = _name(raw, "method", where)
            injection.params = _values(raw, "params", where)
        elif op == "unlock":
            injection.failure = _bool(raw, "failure", where, False)
        return injection
    # A drop or corrupt picks its message by id or by queue index.
    pick = ("msgid",) if "msgid" in raw else ("index",)
    _known(raw, where, ("tick", "op", "src", "dst", "tag") + {
        "forge": ("fake_block", "dest", "payload"), "drop": pick,
        "corrupt": pick + ("payload",)}[op])
    bridge = BridgeId(_name(raw, "src", where), _name(raw, "dst", where),
                      _int(raw, "tag", where, 0))
    injection = Injection(tick=tick, op=op, bridge=bridge)
    if op == "forge":
        injection.fake_block = _int(raw, "fake_block", where, 0)
        if "dest" in raw:
            injection.dest = Address(bridge.dst, _name(raw, "dest", where))
    elif "msgid" in raw:
        injection.msg_id = _int(raw, "msgid", where)
    else:
        injection.queue_index = _int(raw, "index", where, 0)
    if op != "drop":
        injection.payload = _parse_payload(*_mapping(raw, "payload", where))
    return injection


def _parse_payload(where: str, raw: dict):
    ptype = _choice(raw, "type", where, ("ack", "anotify", "rcall"))
    _known(raw, where, ("type",) + {
        "ack": ("seq", "ok", "result"),
        "anotify": ("chain", "dest", "origin_chain", "origin", "data", "seq"),
        "rcall": ("chain", "target", "method", "params", "seq")}[ptype])
    if ptype == "ack":
        return Ack(seq=_int(raw, "seq", where, 0),
                   ok=_bool(raw, "ok", where, True),
                   result=_value(raw, "result", where)
                   if "result" in raw else None)
    chain = _name(raw, "chain", where)
    if ptype == "anotify":
        return Anotify(origin=Address(_name(raw, "origin_chain", where, chain),
                                      _name(raw, "origin", where, "forged")),
                       data=_value(raw, "data", where, ""),
                       seq=_int(raw, "seq", where) if "seq" in raw else None,
                       dest=Address(chain, _name(raw, "dest", where)))
    return Rcall(target=Address(chain, _name(raw, "target", where)),
                 method=_name(raw, "method", where),
                 params=tuple(_values(raw, "params", where)),
                 seq=_int(raw, "seq", where, 0))
