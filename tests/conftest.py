import pytest

from xchainsim import Address, BridgeId, World
from xchainsim.trace import SCHEMA, Trace

# The classes of the schema's field types; "any" is checked by canon
# when the event renders.
FIELD_TYPES = {"Address": Address, "BridgeId": BridgeId, "int": int,
               "bool": bool, "str": str}


def check_event(kind: str, chain, data: dict) -> None:
    """Raise TypeError unless (kind, chain, data) is an event of the
    schema: a str chain, no key the kind lacks, every required field
    present, and every field's value of its declared type exactly (so a
    bool is not an int).  An optional field may be absent or None."""
    fields = SCHEMA[kind]
    if type(chain) is not str:
        raise TypeError("%s event: chain %r is not a str" % (kind, chain))
    unknown = data.keys() - {f.name for f in fields}
    if unknown:
        raise TypeError("%s event: unknown fields %s" % (kind, sorted(unknown)))
    for name, type_name, required in fields:
        value = data.get(name)
        if value is None:
            if required:
                raise TypeError("%s event: required field %s missing"
                                % (kind, name))
        elif type_name != "any" and type(value) is not FIELD_TYPES[type_name]:
            raise TypeError("%s event: %s=%r is not of type %s"
                            % (kind, name, value, type_name))


@pytest.fixture(autouse=True, scope="session")
def typed_trace_records():
    """Every event recorded anywhere in the suite is checked against the
    schema; the simulator's own record stays unchecked."""
    record = Trace.record

    def checked_record(self, kind, chain, data):
        check_event(kind, chain, data)
        record(self, kind, chain, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Trace, "record", checked_record)
        yield


@pytest.fixture
def two_chain_world():
    """Two chains with a token each, bridged both ways, no traffic yet."""
    world = World(seed=1)
    world.add_chain("left")
    world.add_chain("right")
    world.add_contract("left", "token", "token", owner="alice",
                       init={"bal:alice": 50, "bal:bob": 10, "bal:eve": 0})
    world.add_contract("right", "token", "token", owner="bob",
                       init={"bal:alice": 5, "bal:bob": 40, "bal:eve": 0})
    world.add_bridge("left", "right", max_delay=2, reorder=False)
    world.add_bridge("right", "left", max_delay=2, reorder=False)
    return world


def addr(chain, local):
    return Address(chain, local)
