"""Paired benchmark runs of a base revision against this checkout.

    python3 scripts/bench_pairs.py --base REV --workload W \
        [--seed N --pairs P --seconds S] --out FILE

Checks REV out into a temporary git worktree and, for each pair, runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

once in that worktree (the base) and once in this checkout (the
change), alternating which side goes first.  Every end-to-end metric of
BENCHMARK.json is summed up per side as its median and quartiles, with
the number of pairs the change wins in the metric's `better` direction
(a tie wins for neither).  So are two raw figures of each run, which
no host-speed scaling touches: `attempted`, the ops the run finished,
and `unscaled_op_p50_ms`, the op p50 of perfbench's "measured,
unscaled" line; a gain that shows only in the scaled metrics is not
one.  FILE gets that summary, the revisions, the command and every
run's result, under the workload's name (`W@N` at a seed N other than
0): the reports already in FILE under other keys are kept, so one file
can gather a run of each workload and seed.  The exit code is 1 when
any run reads `correct: false` or `failed > 0`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Raw figures of a run, summed up beside the end-to-end metrics.
RAW = [{"name": "attempted", "unit": "ops", "better": "higher"},
       {"name": "unscaled_op_p50_ms", "unit": "ms", "better": "lower"}]
UNSCALED_P50 = re.compile(r"^perfbench: measured, unscaled: .*; op p50 "
                          r"(\S+) ms$", re.M)


def result_of(stdout: str) -> dict:
    """The JSON result object, the last line perfbench/run.py prints,
    with the unscaled op p50 of its "measured, unscaled" line (None when
    the run printed none)."""
    result = json.loads(stdout.strip().splitlines()[-1])
    match = UNSCALED_P50.search(stdout)
    result["unscaled_op_p50_ms"] = float(match.group(1)) if match else None
    return result


def value_of(result: dict, name: str):
    """A run's value of an end-to-end metric or of a RAW figure."""
    metric = result["metrics"].get(name)
    return result.get(name) if metric is None else metric["value"]


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per end-to-end metric and RAW figure: each side's median and
    quartiles and the change's wins.  `pairs` holds (base result, change
    result) per pair; `end_to_end` is BENCHMARK.json's list of metrics.
    A figure that some run lacks is left out."""
    summary = {}
    for metric in end_to_end + RAW:
        name = metric["name"]
        base = [value_of(b, name) for b, _ in pairs]
        change = [value_of(c, name) for _, c in pairs]
        if None in base or None in change:
            continue
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": quartiles(base), "change": quartiles(change),
            "change_wins": wins, "pairs": len(pairs)}
    return summary


def all_correct(pairs: list) -> bool:
    return all(r["correct"] and r["failed"] == 0
               for pair in pairs for r in pair)


def revision(tree: str, rev: str = "HEAD") -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=tree, check=True,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=tree,
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    return sha + ("+uncommitted" if dirty else "")


def run_once(tree: str, command: list) -> dict:
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit("%s printed no result in %s" % (command, tree))
    return result_of(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    command = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "%g" % args.seconds,
               "--trace", "0"]
    # so that a terminated run still removes its worktree below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    base_tree = tempfile.mkdtemp(prefix="bench-base-")
    try:
        subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                        args.base], cwd=ROOT, check=True,
                       capture_output=True)
        revisions = {"base": revision(base_tree),
                     "change": revision(ROOT)}
        pairs = []
        for i in range(args.pairs):
            sides = {}
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                sides[side] = run_once(tree, command)
                print("pair %d %s: correct=%s failed=%d ops_per_s=%.4g "
                      "attempted=%d"
                      % (i, side, sides[side]["correct"],
                         sides[side]["failed"],
                         sides[side]["metrics"]["ops_per_s"]["value"],
                         sides[side]["attempted"]),
                      file=sys.stderr)
            pairs.append((sides["base"], sides["change"]))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(base_tree, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)

    correct = all_correct(pairs)
    report = {
        "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "revisions": revisions,
        "command": command, "first": "base on even pairs, change on odd",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "correct": correct,
        "summary": summarize(pairs, end_to_end),
        "runs": [{"pair": i, "base": b, "change": c}
                 for i, (b, c) in enumerate(pairs)]}
    gathered = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            gathered = json.load(f)
    key = args.workload if args.seed == 0 else "%s@%d" % (args.workload,
                                                          args.seed)
    gathered["workloads"][key] = report
    with open(args.out, "w") as f:
        json.dump(gathered, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
