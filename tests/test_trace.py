"""Canonical text: `canon`'s type table renders every value of the trace's
domain exactly as the plain isinstance chain it replaces, the payload
and address classes keep their text once computed, an event renders as
its fields in schema order, each as `canon` writes it, and the suite's
record guard (conftest.py) refuses an event outside the schema."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from xchainsim import Address
from xchainsim.bridge import Ack, Anotify, BridgeId, Rcall
from xchainsim import trace
from xchainsim.trace import FUTURE, LOCK, SEAL, SEND, Trace, canon


def reference_canon(value):
    """The isinstance-chain canon, as written before the type table, with
    the payload and address texts formatted afresh (REFERENCE_TEXT)."""
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, int):
        return "i%d" % value
    if isinstance(value, bytes):
        return "x" + value.hex()
    if isinstance(value, str):
        return value
    # Addresses and bridge ids are tuples: their own text comes first.
    if type(value) in REFERENCE_TEXT:
        return REFERENCE_TEXT[type(value)](value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_canon(v) for v in value) + "]"
    c = getattr(value, "canon", None)
    if c is not None:
        return c() if callable(c) else c
    raise TypeError("no canonical form for %r" % (value,))


# The classes' canonical text, formatted from their fields on every call.
REFERENCE_TEXT = {
    Address: lambda a: "%s/%s" % (a.chain, a.local),
    BridgeId: lambda b: "%s>%s#%d" % (b.src, b.dst, b.tag),
    Anotify: lambda n: "anotify(origin=%s,data=x%s,seq=%s,dest=%s)" % (
        reference_canon(n.origin), n.data.hex(),
        "-" if n.seq is None else "i%d" % n.seq, reference_canon(n.dest)),
    Rcall: lambda r: "rcall(target=%s,method=%s,params=%s,seq=i%d)" % (
        reference_canon(r.target), r.method,
        reference_canon(list(r.params)), r.seq),
    Ack: lambda a: "ack(seq=i%d,ok=%s,result=%s)" % (
        a.seq, "b1" if a.ok else "b0",
        "-" if a.result is None else reference_canon(a.result)),
}


class Tick(int):
    """An int subclass: canon must still render it as an int."""


names = st.text(alphabet="abcxyz019:_-", min_size=1, max_size=6)
addresses = st.builds(Address, names, names)
scalars = st.one_of(
    st.booleans(), st.integers(), st.binary(max_size=8), names,
    st.integers().map(Tick), addresses,
    st.builds(BridgeId, names, names, st.integers(0, 3)))
params = st.lists(st.one_of(st.booleans(), st.integers(),
                            st.binary(max_size=8), addresses), max_size=4)
payloads = st.one_of(
    st.builds(Anotify, addresses, st.binary(max_size=8),
              st.none() | st.integers(0, 99), addresses),
    st.builds(Rcall, addresses, names, params.map(tuple), st.integers(0, 99)),
    st.builds(Ack, st.integers(0, 99), st.booleans(),
              st.none() | st.booleans() | st.integers() | st.binary(max_size=4)))
values = st.recursive(
    st.one_of(scalars, payloads),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple),
    max_leaves=8)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values)
def test_canon_matches_the_isinstance_chain(value):
    assert canon(value) == reference_canon(value)
    assert canon(value) == reference_canon(value)   # memoized text too


def reference_line(tick, kind, chain, data):
    """An event's line as written before the compiled renderers: every
    present key in its kind's schema order, each value through
    reference_canon."""
    parts = ["tick=%d kind=%s chain=%s" % (tick, kind, chain)]
    for field in trace.SCHEMA[kind]:
        value = data.get(field.name)
        if value is not None:
            parts.append(field.name + "=" + reference_canon(value))
    return " ".join(parts)


# A value of each schema field type: ints are never bools, and "any"
# is the whole domain of canon.
typed = {"Address": addresses,
         "BridgeId": st.builds(BridgeId, names, names, st.integers(0, 3)),
         "int": st.integers(), "bool": st.booleans(), "str": names,
         "any": values}


def event_fields(kind):
    """A kind, a chain and a data dict with every required field of the
    kind and a random subset of its optional ones (present as None or
    as a value), each of its declared type."""
    fields = trace.SCHEMA[kind]
    return st.tuples(st.just(kind), names, st.fixed_dictionaries(
        {f.name: typed[f.type] for f in fields if f.required},
        optional={f.name: st.none() | typed[f.type]
                  for f in fields if not f.required}))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from(sorted(trace.SCHEMA)).flatmap(event_fields))
def test_event_render_matches_the_field_order(tick, fields):
    kind, chain, data = fields
    log = Trace(tick=tick)
    log.record(kind, chain, data)
    event, = log.events
    assert event.tick == tick
    assert event.render() == reference_line(tick, kind, chain, data)
    assert event.render() == reference_line(tick, kind, chain, data)
    assert log.render().splitlines()[1] == event.render()


A, B = Address("a", "x"), Address("b", "y")


@pytest.mark.parametrize("kind,chain,data,error", [
    (SEND, "a", {"bridge": BridgeId("a", "b"), "msgid": True, "sender": A,
                 "dest": B, "block": 0, "payload": b""},
     "msgid=True is not of type int"),
    (LOCK, "a", {"caller": A, "target": B}, "required field ok missing"),
    (SEAL, "a", {"block": 1, "count": 2, "extra": 3},
     r"unknown fields \['extra'\]"),
    (SEAL, None, {"block": 1, "count": 2}, "chain None is not a str"),
    (FUTURE, "a", {"adapter": "a/x", "seq": 0, "state": "pending"},
     "adapter='a/x' is not of type Address"),
])
def test_record_guard_refuses_an_event_outside_the_schema(kind, chain, data,
                                                         error):
    log = Trace()
    with pytest.raises(TypeError, match=error):
        log.record(kind, chain, data)
    assert not log.events


@pytest.mark.parametrize("value", [None, 1.5, {"a": 1}, object()])
def test_canon_refuses_values_outside_the_domain(value):
    with pytest.raises(TypeError):
        canon(value)
    with pytest.raises(TypeError):
        canon([1, value])


def test_canon_type_prefixes_are_kept_apart():
    assert canon(True) == "b1" and canon(1) == "i1"
    assert canon(Tick(1)) == "i1"
    assert canon((b"\x01", [False, "m"])) == "[x01,[b0,m]]"
    assert canon(Ack(0, True, True)) != canon(Ack(0, True, 1))
    assert Ack(0, True, True) == Ack(0, True, 1)


# Addresses and bridge ids are tuples: hash, order and text as before.

def test_address_and_bridge_id_hash_as_their_fields():
    assert hash(Address("a", "b")) == hash(("a", "b"))
    assert hash(BridgeId("a", "b", 2)) == hash(("a", "b", 2))
    assert hash(BridgeId("a", "b")) == hash(("a", "b", 0))


def test_address_and_bridge_id_sort_by_their_fields():
    addrs = [Address("a-b", "x"), Address("a", "z"), Address("a", "a-b"),
             Address("a", "a"), Address("b", "a")]
    assert [a.canon() for a in sorted(addrs)] == [
        "a/a", "a/a-b", "a/z", "a-b/x", "b/a"]
    bridges = [BridgeId("b", "a"), BridgeId("a", "b", 1), BridgeId("a-b", "a"),
               BridgeId("a", "b"), BridgeId("a", "a-b")]
    assert [b.canon() for b in sorted(bridges)] == [
        "a>a-b#0", "a>b#0", "a>b#1", "a-b>a#0", "b>a#0"]


def test_canon_of_a_new_address_type_is_its_own_text(monkeypatch):
    # Before canon has met the class, its fallback must find the
    # class's canon and not render the tuple as a list.
    monkeypatch.setattr(trace, "_CANON", {
        k: v for k, v in trace._CANON.items() if k not in (Address, BridgeId)})
    assert canon([Address("a", "b")]) == "[a/b]"
    assert canon((BridgeId("a", "b", 1),)) == "[a>b#1]"


@pytest.mark.parametrize("value,text,field", [
    (Address("a", "b"), "Address(chain='a', local='b')", "chain"),
    (BridgeId("a", "b"), "BridgeId(src='a', dst='b', tag=0)", "src"),
])
def test_address_and_bridge_id_copy_pickle_and_repr(value, text, field):
    value.canon()   # the memo travels with the object's state
    assert repr(value) == text
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == text and twin.canon() == value.canon()
    with pytest.raises(AttributeError):
        setattr(value, field, "z")
