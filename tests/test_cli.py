"""Command-line interface: exit codes and output shapes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import xchainsim
from xchainsim import ScenarioError, ValidationError, World, parse_scenario
from xchainsim import scenario
from xchainsim.cli import main
from test_scenario import assert_loads_alike


@pytest.fixture(autouse=True)
def every_file_loads_as_yaml_load_does(monkeypatch):
    """Each text these tests load builds what yaml.load builds, and
    parses to the same scenario or the same error."""
    read = scenario.read_yaml

    def read_checked(text):
        assert_loads_alike(text)
        return read(text)

    monkeypatch.setattr(scenario, "read_yaml", read_checked)

NAME_RULE = ("must be a non-empty string with no whitespace or any of "
             "= , / : # > [ ] ( ) { }")

BAD_ADVERSARY_SCENARIO = """\
name: bad-adversary
chains:
  - id: a
    contracts: [{local: token, kind: token, owner: alice}]
  - id: b
    contracts: [{local: token, kind: token, owner: bob}]
bridges:
  - {src: a, dst: b}
  - {src: b, dst: a}
adversary:
  - %s
"""


def test_run_writes_trace_and_prints_outcome(tmp_path, capsys):
    out = tmp_path / "trace.log"
    code = main(["run", "--scenario", "swap", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "swap1: Committed" in captured.out
    text = out.read_text()
    assert text.startswith("meta scenario=swap seed=7")
    assert "kind=outcome" in text


def test_run_lockfail_reports_abort_reason(capsys):
    code = main(["run", "--scenario", "swap-lockfail", "--out", "/dev/null"])
    assert code == 0
    assert "Aborted(LockConflict)" in capsys.readouterr().out


def test_run_missing_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "no-such-scenario"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_clean_scenario_exits_0(capsys):
    assert main(["check", "--scenario", "swap", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass=b1") == 3


def test_check_adversarial_scenarios_exit_1(capsys):
    assert main(["check", "--scenario", "adversary-forge"]) == 1
    out = capsys.readouterr().out
    assert "secure-transfer-safety" in out
    assert main(["check", "--scenario", "adversary-drop"]) == 1
    out = capsys.readouterr().out
    assert "secure-transfer-liveness" in out


def test_check_budget_exceeded_exits_3(capsys):
    assert main(["check", "--scenario", "three-exchange",
                 "--budget", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_check_writes_its_trace_before_exit_3(tmp_path, capsys):
    checked, ran = tmp_path / "check.log", tmp_path / "run.log"
    assert main(["check", "--scenario", "swap", "--seed", "7",
                 "--budget", "2", "--out", str(checked)]) == 3
    assert main(["run", "--scenario", "swap", "--seed", "7",
                 "--out", str(ran)]) == 0
    assert checked.read_bytes() == ran.read_bytes()


def test_check_name_with_a_space_exits_2(tmp_path, capsys):
    path = tmp_path / "spaces.yaml"
    path.write_text("""\
name: spaces
chains:
  - id: a b
    contracts: [{local: token, kind: token, owner: alice, init: {al ice: 5}}]
""")
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: spaces.chains[0].id: 'a b' ")


MALFORMED_SCENARIO = """\
stop: %(stop)s
chains:
  - id: a
    contracts:
      - {local: token, kind: token, owner: alice, init: %(token_init)s}
      - {local: reg, kind: counter, init: %(counter_init)s}
  - id: b
    contracts: [{local: token, kind: token, owner: bob}]
bridges: %(bridges)s
transactions:
  - {txid: t, proposer: a, tick: %(tick)s, actions: %(actions)s}
adversary: %(adversary)s
"""
FORGE_NO_ROUTE_BACK = ("[{tick: 1, op: forge, src: a, dst: b, "
                       "payload: {type: ack}}]\n"
                       "bridges: [{src: a, dst: b, mode: adversarial}]")
WELL_FORMED = {
    "stop": "{quiesce: true}", "token_init": "{alice: 5}",
    "counter_init": "{count: 0}", "tick": "0",
    "bridges": "[{src: a, dst: b}, {src: b, dst: a}]",
    "actions": "[{chain: a, target: token, method: transfer, "
               "params: [alice, bob, 1]}]",
    "adversary": "[]"}


@pytest.mark.parametrize("field,text,message", [
    ("bridges", "[7]", "bad.bridges[0]: 7 must be a mapping"),
    ("actions", "[5]", "bad.transactions[0].actions[0]: 5 must be a mapping"),
    ("adversary", "[5]", "bad.adversary[0]: 5 must be a mapping"),
    ("adversary", "5", "bad.adversary: 5 must be a list"),
    ("stop", "5", "bad.stop: 5 must be a mapping"),
    ("stop", "{max_ticks: abc}", "bad.stop.max_ticks: 'abc' must be an int "
     ">= 1"),
    ("stop", "{quiesce: 'false'}", "bad.stop.quiesce: 'false' must be true "
     "or false"),
    ("counter_init", "{count: 1.5}", "bad.chains[0].contracts[1].init.count: "
     "1.5 must be an int, bool or string"),
    ("counter_init", "{count: [1, 2]}", "bad.chains[0].contracts[1].init."
     "count: [1, 2] must be an int, bool or string"),
    ("token_init", "{x: notanint}", "bad.chains[0].contracts[0].init.x: "
     "'notanint' must be an int >= 0"),
    ("tick", "-3", "bad.transactions[0].tick: -3 must be an int >= 0"),
    ("bridges", "[{src: a, dst: b, max_delay: 0}]",
     "bad.bridges[0].max_delay: 0 must be an int >= 1"),
    ("bridges", "[{src: a, dst: z}]",
     "bad.bridges[0].dst: 'z' must be one of a, b"),
    ("actions", "[{chain: a, target: token, method: transfer, params: 5}]",
     "bad.transactions[0].actions[0].params: 5 must be a list"),
    ("actions", "[{chain: a, method: transfer}]",
     "bad.transactions[0].actions[0].target: missing"),
    ("stop", "{max_tick: 5}", "bad.stop.max_tick: unknown key; the keys "
     "here are quiesce, max_ticks"),
    ("token_init", "{alice: 5}, intt: {alice: 5}",
     "bad.chains[0].contracts[0].intt: unknown key; the keys here are "
     "local, kind, owner, init, trusted"),
    ("bridges", "[]\nbridge: [{src: a, dst: b}]", "bad.bridge: unknown key; "
     "the keys here are name, lock_order, stop, chains, bridges, "
     "transactions, adversary"),
    # the second bridges key replaces the first: one bridge, a>b
    ("adversary", FORGE_NO_ROUTE_BACK, "adversary forge at tick 1: no "
     "adapter pair between b and a, so the forge needs a dest"),
], ids=["bridge-int", "action-int", "injection-int", "adversary-int",
        "stop-int", "max-ticks-str", "quiesce-quoted", "init-float",
        "init-list", "balance-str", "tick-negative", "delay-zero",
        "unknown-chain", "params-int", "target-missing", "stop-key",
        "contract-key", "top-level-key", "forge-no-route-back"])
def test_check_malformed_scenario_exits_2_at_its_location(
        field, text, message, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(MALFORMED_SCENARIO % dict(WELL_FORMED, **{field: text}))
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


ORDERED_SCENARIO = """\
chains: [{id: a, contracts: [{local: token, owner: alice, init: {alice: 5}}]}]
transactions:
  - txid: t
    proposer: a
    actions:
      - {id: 0, chain: a, target: token, method: mint, params: [alice, 1]}
      - {id: %(second)s, chain: a, target: token, method: mint,
         params: [bob, 1]}
    prec: %(prec)s
"""


@pytest.mark.parametrize("second,prec,message", [
    ("1", "[[0, 1], [1, 0]]", "t: precedence is cyclic ([0, 1, 0])"),
    ("1", "[[1, 1]]", "t: action 1 precedes itself"),
    ("1", "[[0, 7]]", "t: precedence pair (0,7) references an unknown "
     "action"),
    ("0", "[]", "duplicate action ids in t"),
], ids=["cycle", "self", "unknown-action", "duplicate-id"])
def test_bad_action_order_is_refused_when_the_file_is_read(
        second, prec, message, tmp_path, capsys):
    path = tmp_path / "order.yaml"
    path.write_text(ORDERED_SCENARIO % {"second": second, "prec": prec})
    with pytest.raises(ScenarioError) as raised:
        xchainsim.load_scenario(str(path))
    assert str(raised.value) == message
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_forge_with_no_route_back_exits_2_before_the_run(command, tmp_path,
                                                         capsys):
    path, out = tmp_path / "bad.yaml", tmp_path / "t.trace"
    path.write_text(MALFORMED_SCENARIO % dict(
        WELL_FORMED, adversary=FORGE_NO_ROUTE_BACK))
    argv = [command, "--scenario", str(path)]
    if command == "run":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: adversary forge at tick 1: ")
    assert not out.exists()


@pytest.mark.parametrize("stem,name", [("bad", "x y"), ("x y", None)])
def test_check_scenario_name_and_file_stem_are_names(stem, name, tmp_path,
                                                      capsys):
    path = tmp_path / ("%s.yaml" % stem)
    text = MALFORMED_SCENARIO % WELL_FORMED
    path.write_text(text if name is None else "name: %s\n%s" % (name, text))
    assert main(["check", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: %s.name: 'x y' %s\n" % (stem, NAME_RULE)


def test_metrics_prints_table(capsys):
    assert main(["metrics", "--scenario", "swap"]) == 0
    assert capsys.readouterr().out == (
        "chain        role          xc_msgs tx_count  op_cost\n"
        "fantom       proposer            3        4        7\n"
        "mumbai       participant         3        3        6\n"
        "txn swap1: outcome=Committed rounds=1\n")


def test_metrics_prints_abort_reason(capsys):
    assert main(["metrics", "--scenario", "swap-lockfail"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "txn swap1: outcome=Aborted rounds=0 reason=LockConflict\n")


def test_metrics_of_an_unfinished_transaction(capsys):
    # the dropped ack leaves swap1 without an outcome: fantom is still
    # its proposer, since its propose was accepted
    assert main(["metrics", "--scenario", "adversary-drop"]) == 0
    assert capsys.readouterr().out == (
        "chain        role          xc_msgs tx_count  op_cost\n"
        "fantom       proposer            1        2        3\n"
        "mumbai       participant         0        0        0\n"
        "txn swap1: unfinished\n")


def test_metrics_three_exchange_proposer_row(capsys):
    assert main(["metrics", "--scenario", "three-exchange"]) == 0
    out = capsys.readouterr().out
    assert "fantom       proposer            6        4" in out


BUSY_SCENARIO = """\
stop: {max_ticks: %(max_ticks)d}
chains:
  - {id: a, contracts: [{local: token, init: {alice: 50, bob: 50}}]}
  - {id: b, contracts: [{local: token, init: {alice: 50, bob: 50}}]}
bridges: [{src: a, dst: b}, {src: b, dst: a}]
transactions:
  - {txid: t1, proposer: a, originator: alice, tick: 0, actions: [
      {chain: a, target: token, method: transfer, params: [alice, bob, 1]},
      {chain: b, target: token, method: transfer, params: [bob, alice, 1]}]}
  - {txid: t2, proposer: a, originator: alice, tick: %(tick)d, actions: [
      {chain: a, target: token, method: transfer, params: [alice, bob, 1]}]}
"""


@pytest.mark.parametrize("tick,max_ticks,lines", [
    # t2 reaches a's executor while t1 runs there
    (1, 400, ["t1: Committed", "t2: refused (ExecutorBusy)",
              "quiesced=True end_tick=12"]),
    # the run stops before t2's tick
    (5, 2, ["t1: unfinished (phase=locking)", "t2: not proposed",
            "quiesced=False end_tick=1"]),
], ids=["refused", "not-proposed"])
def test_run_prints_a_line_for_every_transaction(tick, max_ticks, lines,
                                                 tmp_path, capsys):
    path = tmp_path / "busy.yaml"
    path.write_text(BUSY_SCENARIO % {"tick": tick, "max_ticks": max_ticks})
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "t.trace")]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    main(["check", "--scenario", str(path)])
    assert capsys.readouterr().out.splitlines()[-2:] == lines[:2]


def test_check_passes_a_write_that_changes_only_a_type(tmp_path, capsys):
    # count goes from True to 1, which == calls no change; the replay
    # must still start incr from 1, not from True
    path = tmp_path / "retype.yaml"
    path.write_text("""\
chains:
  - {id: a, contracts: [{local: side, kind: counter, init: {count: true}}]}
adversary:
  - {tick: 1, op: invoke, chain: a, caller: eve, target: side, method: set,
     params: [1]}
  - {tick: 2, op: invoke, chain: a, caller: eve, target: side, method: incr,
     params: [1]}
""")
    assert main(["check", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out.count(" pass=b1") == 3


def test_sweep_reports_stability(capsys):
    assert main(["sweep", "--scenario", "swap", "--seeds", "25"]) == 0
    out = capsys.readouterr().out
    assert "25/25 checks passed; counts stable" in out


def test_sweep_exit_1_on_adversarial(capsys):
    assert main(["sweep", "--scenario", "adversary-forge",
                 "--seeds", "5"]) == 1
    assert "0/5 checks passed" in capsys.readouterr().out


def test_lock_order_override_flag(capsys):
    assert main(["run", "--scenario", "symmetric-conflict",
                 "--lock-order", "canonical", "--out", "/dev/null"]) == 0
    out = capsys.readouterr().out
    assert "Committed" in out and "Aborted(LockConflict)" in out


@pytest.mark.parametrize("command", ["run", "check", "metrics", "sweep"])
def test_scenario_error_in_a_run_exits_2(command, monkeypatch, capsys):
    # every command has one path from an error to its exit code
    def fail(self, stop=None):
        raise ScenarioError("no adapter pair between a and b")

    monkeypatch.setattr(World, "run", fail)
    argv = [command, "--scenario", "swap", "--seed", "4"]
    if command == "run":
        argv += ["--out", "/dev/null"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no adapter pair between a and b\n"


def test_sweep_budget_exceeded_names_seed_and_exits_3(capsys):
    assert main(["sweep", "--scenario", "three-exchange", "--seed", "5",
                 "--seeds", "3", "--budget", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: at seed 5: ")


# {tmp} stands for the test's own directory, which holds ff.yaml, a
# file of the one byte 0xff
@pytest.mark.parametrize("argv,message", [
    (["check", "--scenario", "{tmp}"], "{tmp}: cannot read: Is a directory"),
    (["check", "--scenario", ""], "scenario '': no such file or bundled "
     "name"),
    (["check", "--scenario", "x" * 300], "scenario '%s': no such file or "
     "bundled name" % ("x" * 300)),
    (["check", "--scenario", "{tmp}/ff.yaml"], "{tmp}/ff.yaml: cannot read: "
     "'utf-8' codec can't decode byte 0xff in position 0"),
    (["run", "--scenario", "swap", "--out", "{tmp}/missing/t.trace"],
     "{tmp}/missing/t.trace: cannot write trace: No such file or directory"),
    (["check", "--scenario", "swap", "--out", "{tmp}/missing/t.trace"],
     "{tmp}/missing/t.trace: cannot write trace: No such file or directory"),
], ids=["directory", "empty-name", "name-too-long", "byte-0xff",
        "run-out-missing-dir", "check-out-missing-dir"])
def test_unreadable_scenario_or_unwritable_trace_exits_2(argv, message,
                                                        tmp_path, capsys):
    (tmp_path / "ff.yaml").write_bytes(b"\xff")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: %s" % message.replace("{tmp}", str(tmp_path)))
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["run", "--budget", "3"], "unrecognized arguments: --budget 3"),
    (["metrics", "--budget", "3"], "unrecognized arguments: --budget 3"),
    (["metrics", "--out", "t.trace"], "unrecognized arguments: --out t.trace"),
    (["sweep", "--out", "t.trace"], "unrecognized arguments: --out t.trace"),
    (["check", "--seed", "-1"], "argument --seed: '-1' must be an int >= 0"),
    (["check", "--budget", "-1"],
     "argument --budget: '-1' must be an int >= 0"),
    (["sweep", "--seeds", "0"], "argument --seeds: '0' must be an int >= 1"),
], ids=["run-budget", "metrics-budget", "metrics-out", "sweep-out",
        "seed-negative", "budget-negative", "seeds-zero"])
def test_refused_argument_exits_2_through_argparse(argv, message, capsys):
    # a command takes only the options it reads, each in its range
    with pytest.raises(SystemExit) as exit_:
        main(argv[:1] + ["--scenario", "swap"] + argv[1:])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: xchainsim ")
    assert captured.err.endswith(": error: %s\n" % message)


def test_a_non_int_value_is_an_invalid_int(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--scenario", "swap", "--seeds", "x"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seeds: invalid int value: 'x'\n")


def test_scenario_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    swap = Path(xchainsim.__file__).parent / "scenarios" / "swap.yaml"
    path = tmp_path / "cafe.yaml"
    path.write_bytes(swap.read_bytes() + "# café\n".encode("utf-8"))
    src = str(Path(xchainsim.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "xchainsim.cli", "check", "--scenario",
         str(path), "--seed", "7"], env=env, capture_output=True,
        timeout=60)
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout.count(b"pass=b1") == 3


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ["run"], ["check"], ["metrics"], ["sweep", "--seeds", "2"]],
    ids=["run", "check", "metrics", "sweep"])
def test_unwritable_stdout_exits_2_with_one_error_line(command, unbuffered):
    # Unbuffered, the first write fails inside the command; buffered, the
    # flush in main does, and the interpreter's own flush at exit must
    # not fail again and exit 120.
    src = str(Path(xchainsim.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "xchainsim.cli", *command,
             "--scenario", "swap"], env=env, stdout=full,
            stderr=subprocess.PIPE, timeout=60)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: cannot write output: No space left on device"]


@pytest.mark.parametrize("entry,message", [
    ("{tick: 1, op: drop, src: a, dst: c, index: 0}",
     "adversary drop at tick 1: unknown bridge a>c#0"),
    ("{tick: 1, op: invoke, chain: z, caller: eve, target: token, "
     "method: incr}", "adversary invoke at tick 1: unknown chain 'z'"),
    ("{tick: 1, op: forge, src: a, dst: b, payload: {type: ack}}",
     "adversary forge at tick 1: bridge a>b#0 is not adversarial"),
    ("{tick: 1, op: invoke, chain: a, caller: eve, target: token, "
     "method: m x}", "bad-adversary.adversary[0].method: 'm x' " + NAME_RULE),
    ("{tick: 1, op: forge, src: a, dst: b, payload: {type: rcall, chain: b, "
     "target: token, method: m x}}",
     "bad-adversary.adversary[0].payload.method: 'm x' " + NAME_RULE),
    ("{tick: 1, op: lock, chain: a, caller: eve, target: token, "
     "failure: true}", "bad-adversary.adversary[0].failure: unknown key; "
     "the keys here are tick, op, chain, caller, target"),
    ("{tick: 1, op: drop, src: a, dst: b, msgid: 3, index: 0}",
     "bad-adversary.adversary[0].index: unknown key; the keys here are "
     "tick, op, src, dst, tag, msgid"),
    ("{tick: 1, op: forge, src: a, dst: b, payload: {type: ack, method: m}}",
     "bad-adversary.adversary[0].payload.method: unknown key; the keys "
     "here are type, seq, ok, result"),
], ids=["unknown-bridge", "unknown-chain", "honest-bridge",
        "invoke-method-space", "payload-method-space", "lock-failure-key",
        "msgid-and-index", "ack-method-key"])
def test_check_bad_adversary_entry_exits_2(entry, message, tmp_path,
                                           capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(BAD_ADVERSARY_SCENARIO % entry)
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_check_adversary_lock_of_missing_contract_exits_0(tmp_path, capsys):
    path = tmp_path / "missing.yaml"
    path.write_text("""\
name: missing-target
chains:
  - id: a
    contracts: [{local: token, kind: token, owner: alice}]
adversary:
  - {tick: 1, op: lock, chain: a, caller: eve, target: nope}
  - {tick: 2, op: unlock, chain: a, caller: eve, target: nope}
""")
    assert main(["check", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("pass=b1") == 3
    assert captured.err == ""


def test_unknown_adversary_op_is_rejected_when_parsed():
    raw = {"chains": [{"id": "a"}],
           "adversary": [{"tick": 1, "op": "explode"}]}
    with pytest.raises(ValidationError,
                       match=r"bad\.adversary\[0\]\.op: 'explode' must be "
                             r"one of corrupt, drop, forge, invoke, lock"):
        parse_scenario(raw, default_name="bad")


@pytest.mark.parametrize("chain,transactions,message", [
    ("{id: a, contracts: [{local: exec}]}", "[]", "duplicate contract a/exec"),
    ("{id: a, executor: boss, contracts: [{local: boss}]}", "[]",
     "duplicate contract a/boss"),
    ("{id: a}", "[{txid: t, proposer: a, actions: [{chain: a, target: exec, "
     "method: __dispatch__}]}]",
     "t: action 0 references unknown contract a/exec"),
], ids=["contract-at-executor", "contract-at-renamed-executor",
        "action-on-executor"])
def test_check_executor_address_is_no_contract(chain, transactions, message,
                                                tmp_path, capsys):
    path = tmp_path / "executor.yaml"
    path.write_text("chains: [%s]\ntransactions: %s\n"
                    % (chain, transactions))
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


RENAMED_EXECUTOR_SCENARIO = """\
chains:
  - id: a
    executor: boss
    contracts:
      - {local: exec, kind: counter, init: {count: 0}}
transactions:
  - txid: t
    proposer: a
    actions:
      - {id: 0, chain: a, target: exec, method: incr, params: [1]}
"""


def test_check_contract_named_like_a_default_executor_passes(tmp_path,
                                                             capsys):
    # replay chains have no executor, so a contract named `exec` rebuilds
    path = tmp_path / "boss.yaml"
    path.write_text(RENAMED_EXECUTOR_SCENARIO)
    assert main(["check", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "verdict check=secure-transfer pass=b1",
        "verdict check=all-or-nothing pass=b1",
        "verdict check=strict-serializability pass=b1",
        "witness events=[1,3,5]",
        "t: Committed"]
