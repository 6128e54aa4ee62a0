"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from xchainsim import build_world, parse_scenario  # noqa: E402


def bench(*extra):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "bundled-check", "--seed", "0", "--seconds", "0.2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_printed_metrics_are_declared_with_their_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = bench("--trace", flag)
        assert code == 0 and result["correct"] and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units
    # adversary-drop's all-or-nothing raises on every op: a recorded
    # verdict, counted in failed_ratio but not as a wrong output.
    assert result["metrics"]["failed_ratio"]["value"] > 0


def test_tail_is_the_highest_percentile_with_ten_beyond_but_at_least_p90():
    assert run.tail(list(range(2000))) == pytest.approx((1989.005, 99.5))
    assert run.tail(list(range(20))) == pytest.approx((17.1, 90.0))
    assert run.tail([5.0]) == (5.0, 90.0)


def test_op_scale_follows_the_samples_taken_while_it_ran():
    speed = run.HostSpeed()
    speed.at = [float(t) for t in range(100)]
    speed.samples = [2 * run.REF_NOMINAL_S] * 50 + \
        [run.REF_NOMINAL_S / 2] * 50
    assert speed.scale(10, 40, 1.0) == 0.5
    assert speed.scale(60, 61, 1.0) == 2.0
    assert speed.scale(-5, -1, 1.0) == 0.5    # widened to nearest samples
    assert speed.scale(60, 61, 0.5) == 2.0 ** 0.5


def digest(raw, seed):
    scenario = parse_scenario(raw)
    trace = build_world(scenario, seed=seed).run(scenario.stop)
    return hashlib.sha256(trace.render().encode()).hexdigest()


def test_generators_repeat_per_seed():
    for make in (lambda s: gen.scale_scenario(4, 12, s),
                 lambda s: gen.conflict_scenario(3, s)):
        assert digest(make(7), 7) == digest(make(7), 7)
        assert make(7) != make(8)
    twice = [[i.args[2] for i in workloads.conflict_inputs(5, 2, True)]
             for _ in range(2)]
    assert twice[0] == twice[1]


def test_honest_conflict_traces_pass_and_doctored_ones_fail():
    for doctored, owed in ((False, workloads.PASS), (True, workloads.FAIL)):
        for inp in workloads.conflict_inputs(3, 3, doctored):
            out = workloads.ser_op(inp.args, run.direct)
            assert out.verdicts == (None, None, owed)


def test_digest_mismatch_exits_nonzero(monkeypatch, capsys):
    data = json.loads((BENCH / "expected" / "bundled-check.json")
                      .read_text())
    record = data["seeds"]["0"]["swap@0"]
    record[1] = "0" * 64
    monkeypatch.setattr(run, "load_records", lambda *a: {"swap@0": record})
    code = run.main(["--workload", "bundled-check", "--seed", "0",
                     "--seconds", "0.2", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0 and not result["correct"] and result["failed"] > 0
