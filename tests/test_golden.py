"""Golden traces and verdicts: the rendered trace of every bundled
scenario, of three inline worlds and of two bundled scenarios under eve's
interference at seeds 0-2, and the rendered verdicts of the three
checkers on it, compared byte for byte with the files under
tests/golden/.

The goldens pin determinism and checker results across changes, not just
within one run.  A change that alters a trace or a verdict on purpose
rewrites them with `PYTHONPATH=src python tests/test_golden.py` and says
why.
"""

from pathlib import Path

import pytest

from xchainsim import (Address, Injection, MissingOutcomeError, build_world,
                       bundled_scenarios, check_all_or_nothing, check_secure_transfer,
                       check_strict_serializability, load_scenario,
                       parse_scenario)

from test_engine import SKEWED, mesh

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1, 2)


def eve(world) -> list:
    """Eve's out-of-scope counter bump, guarded transfer and foreign lock
    on every chain, the injections of the acceptance interference sweep:
    several independent actors write next to the transactions."""
    out = []
    for chain_id in sorted(world.chains):
        caller, token = Address(chain_id, "eve"), Address(chain_id, "token")
        out.append(Injection(tick=2, op="invoke", chain=chain_id,
                             caller=caller, target=Address(chain_id, "side"),
                             method="incr", params=[1]))
        if world.chains[chain_id].contract(token) is not None:
            out.append(Injection(tick=4, op="invoke", chain=chain_id,
                                 caller=caller, target=token,
                                 method="transfer",
                                 params=[b"eve", b"bob", 1]))
            out.append(Injection(tick=4, op="lock", chain=chain_id,
                                 caller=caller, target=token))
    return out


# Two actors write one counter next to a swap; zed's set lands first, so
# the final count is amy's.  The checker's lock-point order keeps trace
# order and passes at once.  Actors are tried in (chain, actor) order, so
# the search alone places amy's set first, fails to reach the final state
# and has to backtrack to a witness (tests/test_verify.py pins it).
BACKTRACK = {
    "name": "backtrack",
    "chains": [
        {"id": "a", "contracts": [
            {"local": "token", "kind": "token", "owner": "alice",
             "init": {"alice": 10, "bob": 10}},
            {"local": "reg", "kind": "counter", "init": {"count": 0}}]},
        {"id": "b", "contracts": [
            {"local": "token", "kind": "token", "owner": "bob",
             "init": {"alice": 10, "bob": 10}}]}],
    "bridges": [{"src": "a", "dst": "b", "max_delay": 1},
                {"src": "b", "dst": "a", "max_delay": 1}],
    "transactions": [{"txid": "t", "proposer": "a", "tick": 0,
                      "originator": "alice", "actions": [
                          {"chain": "a", "target": "token",
                           "method": "transfer", "params": ["alice", "bob", 1]},
                          {"chain": "b", "target": "token",
                           "method": "transfer",
                           "params": ["bob", "alice", 2]}]}],
    "adversary": [
        {"tick": 1, "op": "invoke", "chain": "a", "caller": "zed",
         "target": "reg", "method": "set", "params": [1]},
        {"tick": 2, "op": "invoke", "chain": "a", "caller": "amy",
         "target": "reg", "method": "set", "params": [2]}],
}

INLINE = {"skewed": SKEWED, "mesh6-reorder": mesh(6),
          "backtrack": BACKTRACK}
EVE = ("swap-lockfail", "three-exchange")


CASES = ["%s@%d" % (name, seed)
         for name in bundled_scenarios() + sorted(INLINE) for seed in SEEDS]
CASES += ["%s+eve@%d" % (name, seed) for name in EVE for seed in SEEDS]


def run(case: str):
    name, seed = case.rsplit("@", 1)
    base = name.removesuffix("+eve")
    scenario = parse_scenario(INLINE[base]) if base in INLINE \
        else load_scenario(base)
    world = build_world(scenario, seed=int(seed))
    if base != name:
        for injection in eve(world):
            world.add_injection(injection)
    trace = world.run(scenario.stop)
    return trace, list(world.transactions.values())


def render(case: str) -> bytes:
    return run(case)[0].render().encode()


def verdicts(case: str) -> bytes:
    """Every checker's rendered verdict, witness included.  The search
    budget is the event count, so it never binds; a checker that raises
    is recorded with its exception."""
    trace, txns = run(case)
    checks = (
        ("secure-transfer", lambda: check_secure_transfer(trace)),
        ("all-or-nothing", lambda: check_all_or_nothing(trace, txns)),
        ("strict-serializability", lambda: check_strict_serializability(
            trace, txns, budget=len(trace.events))))
    lines = []
    for name, check in checks:
        try:
            lines.append(check().render(name))
        except MissingOutcomeError as err:
            lines.append("raised check=%s MissingOutcomeError(%s)"
                         % (name, err))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(case):
    assert render(case) == (GOLDEN / ("%s.trace" % case)).read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_verdicts_match_golden(case):
    assert verdicts(case) == (GOLDEN / ("%s.verdicts" % case)).read_bytes()


def test_every_golden_file_is_a_case():
    for suffix in ("trace", "verdicts"):
        assert sorted(p.stem for p in GOLDEN.glob("*." + suffix)) == \
            sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / ("%s.trace" % case)).write_bytes(render(case))
        (GOLDEN / ("%s.verdicts" % case)).write_bytes(verdicts(case))
    print("wrote %d golden traces and verdicts to %s" % (len(CASES), GOLDEN))
