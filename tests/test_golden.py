"""Golden traces: the rendered trace of every bundled scenario and of two
inline worlds, at seeds 0-2, compared byte for byte with the files under
tests/golden/.

The goldens pin determinism across changes, not just within one run.  A
change that alters a trace on purpose rewrites them with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

from pathlib import Path

import pytest

from xchainsim import build_world, bundled_scenarios, load_scenario, \
    parse_scenario

from test_engine import SKEWED

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1, 2)


def _mesh(k: int) -> dict:
    """k fully bridged reordering chains, paired off; both chains of a
    pair propose a swap with each other at tick 0, so several bridges
    deliver in the same tick, some of them several messages at once."""
    chains = ["m%d" % i for i in range(k)]

    def swap(i: int, j: int) -> dict:
        return {"txid": "s%d" % i, "proposer": chains[i], "tick": 0,
                "originator": "alice", "actions": [
                    {"chain": c, "target": "token", "method": "transfer",
                     "params": [src, dst, i + 1]}
                    for c, src, dst in ((chains[i], "alice", "bob"),
                                        (chains[j], "bob", "alice"))]}

    return {"name": "mesh%d-reorder" % k,
            "chains": [{"id": c, "contracts": [
                {"local": "token", "kind": "token", "owner": "alice",
                 "init": {"alice": 100, "bob": 100}}]} for c in chains],
            "bridges": [{"src": a, "dst": b, "max_delay": 3,
                         "reorder": True}
                        for a in chains for b in chains if a != b],
            "transactions": [swap(i, i ^ 1) for i in range(k)]}


INLINE = {"skewed": SKEWED, "mesh6-reorder": _mesh(6)}


CASES = ["%s@%d" % (name, seed)
         for name in bundled_scenarios() + sorted(INLINE) for seed in SEEDS]


def render(case: str) -> bytes:
    name, seed = case.rsplit("@", 1)
    scenario = parse_scenario(INLINE[name]) if name in INLINE \
        else load_scenario(name)
    trace = build_world(scenario, seed=int(seed)).run(scenario.stop)
    return trace.render().encode()


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(case):
    assert render(case) == (GOLDEN / ("%s.trace" % case)).read_bytes()


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.trace")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / ("%s.trace" % case)).write_bytes(render(case))
    print("wrote %d golden traces to %s" % (len(CASES), GOLDEN))
