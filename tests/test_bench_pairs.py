"""The summary of scripts/bench_pairs.py, on canned result lines: no
benchmark is run."""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
              {"name": "op_p50_ms", "unit": "ms", "better": "lower"}]


def line(ops_per_s, op_p50_ms, correct=True, failed=0):
    """A result line as perfbench/run.py prints it last."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {
                           "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                           "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}})


def test_summary_counts_wins_in_each_metrics_better_direction():
    stdout = "perfbench: 10 ops\nops_per_s  1.0 1/s\n%s\n"
    pairs = [(bench_pairs.result_of(stdout % line(*base)),
              bench_pairs.result_of(stdout % line(*change)))
             for base, change in [((10, 5.0), (11, 4.0)),
                                  ((12, 4.0), (12, 4.5)),
                                  ((11, 6.0), (13, 5.0)),
                                  ((13, 5.0), (12, 5.0))]]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    ops = summary["ops_per_s"]
    # a tie wins for neither side
    assert (ops["change_wins"], ops["pairs"], ops["better"]) == \
        (2, 4, "higher")
    assert ops["base"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert ops["change"] == {"q1": 11.75, "median": 12.0, "q3": 12.25}
    p50 = summary["op_p50_ms"]
    assert (p50["change_wins"], p50["unit"]) == (2, "ms")
    assert p50["base"]["median"] == 5.0 and p50["change"]["median"] == 4.75
    assert bench_pairs.all_correct(pairs)


def test_one_pair_and_an_incorrect_run():
    pairs = [(json.loads(line(10, 5.0)), json.loads(line(9, 5.0)))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["ops_per_s"]["base"] == {"q1": 10, "median": 10, "q3": 10}
    assert summary["ops_per_s"]["change_wins"] == 0
    assert not bench_pairs.all_correct(
        pairs + [(json.loads(line(1, 1)), json.loads(line(1, 1, False)))])
    assert not bench_pairs.all_correct(
        pairs + [(json.loads(line(1, 1, failed=2)), json.loads(line(1, 1)))])
