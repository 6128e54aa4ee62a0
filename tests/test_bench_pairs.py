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


def run_stdout(ops_per_s, attempted, p50):
    """perfbench/run.py's stdout for a run of `attempted` ops whose
    measured, unscaled op p50 is `p50` ms."""
    result = json.loads(line(ops_per_s, 1.0))
    result["attempted"] = attempted
    return ("perfbench: %d ops; op_tail_ms is p99.00\n"
            "perfbench: reference kernel median 50.0 us over 9 samples; "
            "op times scaled by 0.9000 at the median\n"
            "perfbench: measured, unscaled: setup probes 0.120, 0.118 s; "
            "op p50 %s ms\n"
            "ops_per_s  %g 1/s\n%s\n"
            % (attempted, p50, ops_per_s, json.dumps(result)))


def test_attempted_ops_and_unscaled_p50_are_summed_up_per_side():
    pairs = [(bench_pairs.result_of(run_stdout(*base)),
              bench_pairs.result_of(run_stdout(*change)))
             for base, change in [((10, 200, "5.5"), (11, 230, "4.75")),
                                  ((12, 240, "5.25"), (11, 220, "4.5")),
                                  ((11, 220, "6"), (12, 250, "5.25e+00"))]]
    assert pairs[0][0]["unscaled_op_p50_ms"] == 5.5
    summary = bench_pairs.summarize(pairs, END_TO_END)
    attempted = summary["attempted"]
    assert (attempted["unit"], attempted["better"]) == ("ops", "higher")
    assert attempted["base"] == {"q1": 210, "median": 220, "q3": 230}
    assert attempted["change"] == {"q1": 225, "median": 230, "q3": 240}
    assert attempted["change_wins"] == 2
    p50 = summary["unscaled_op_p50_ms"]
    assert (p50["unit"], p50["better"]) == ("ms", "lower")
    assert p50["base"] == {"q1": 5.375, "median": 5.5, "q3": 5.75}
    assert p50["change"]["median"] == 4.75 and p50["change_wins"] == 3
    assert summary["ops_per_s"]["change_wins"] == 2


def test_a_run_without_the_unscaled_line_leaves_its_p50_out():
    # a traced run (--trace 1) prints no "measured, unscaled" line
    pairs = [(bench_pairs.result_of(line(10, 5.0)),
              bench_pairs.result_of(run_stdout(11, 20, "4.0")))]
    assert pairs[0][0]["unscaled_op_p50_ms"] is None
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert "unscaled_op_p50_ms" not in summary
    assert summary["attempted"]["change_wins"] == 1
