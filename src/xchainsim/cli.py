"""Command-line front end.

    xchainsim run     --scenario swap --seed 7 --out trace.log
    xchainsim check   --scenario swap --seed 7
    xchainsim metrics --scenario swap
    xchainsim sweep   --scenario swap --seeds 100

Exit codes: 0 success, 1 property violation, 2 configuration error
(ScenarioError), 3 serializability budget exceeded (BudgetExceededError).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .chain import ScenarioError
from .scenario import build_world, load_scenario
from .verify import (BudgetExceededError, MissingOutcomeError, Verdict,
                     Violation, check_all_or_nothing, check_secure_transfer,
                     check_strict_serializability, extract_metrics)

log = logging.getLogger("xchainsim")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="scenario file path or bundled scenario name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="trace output path")
    parser.add_argument("--budget", type=int, default=14,
                        help="mutating-event budget for the "
                             "serializability search")
    parser.add_argument("--lock-order", choices=("canonical", "declared"),
                        default=None, help="override the scenario's lock "
                                           "acquisition order")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchainsim",
        description="Simulate and verify atomic cross-chain transactions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run a scenario and write its trace"),
                       ("check", "run a scenario and all checkers"),
                       ("metrics", "print per-chain message/operation "
                                   "counts"),
                       ("sweep", "run many seeds and aggregate results")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--seeds", type=int, default=100,
                           help="number of seeds, starting at --seed")
    return parser


def _simulate(args):
    scenario = load_scenario(args.scenario)
    world = build_world(scenario, seed=args.seed,
                        lock_order=args.lock_order)
    return world, world.run(scenario.stop)


def _write_trace(trace, out_path) -> None:
    text = trace.render()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _outcome_summary(world) -> list:
    lines = []
    for machine in world.machines:
        if machine.outcome == "Aborted":
            lines.append("%s: Aborted(%s)" % (machine.txn.txid,
                                              machine.reason))
        elif machine.outcome is None:
            lines.append("%s: unfinished (phase=%s)" % (machine.txn.txid,
                                                        machine.phase))
        else:
            lines.append("%s: %s" % (machine.txn.txid, machine.outcome))
    return lines


def cmd_run(args) -> int:
    world, trace = _simulate(args)
    _write_trace(trace, args.out)
    sink = sys.stdout if args.out else sys.stderr
    for line in _outcome_summary(world):
        print(line, file=sink)
    print("quiesced=%s end_tick=%d" % (world.quiesced, world.end_tick),
          file=sink)
    return EXIT_OK


def _run_checks(args, world, trace):
    transactions = [world.transactions[txid]
                    for _, txid in world.tx_schedule]
    verdicts = [("secure-transfer", check_secure_transfer(trace))]
    try:
        verdicts.append(("all-or-nothing",
                         check_all_or_nothing(trace, transactions)))
    except MissingOutcomeError as err:
        verdicts.append(("all-or-nothing", Verdict(False, [Violation(
            "all-or-nothing", [], "no outcome recorded for %s" % err)])))
    verdicts.append(("strict-serializability",
                     check_strict_serializability(trace, transactions,
                                                  budget=args.budget)))
    return verdicts


def cmd_check(args) -> int:
    world, trace = _simulate(args)
    # Written before the checks, so a run whose search exceeds the budget
    # still leaves its trace to audit.
    if args.out:
        _write_trace(trace, args.out)
    verdicts = _run_checks(args, world, trace)
    failed = False
    for name, verdict in verdicts:
        print(verdict.render(name))
        if not verdict.passed:
            failed = True
    for line in _outcome_summary(world):
        print(line)
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_metrics(args) -> int:
    _, trace = _simulate(args)
    report = extract_metrics(trace)
    header = "%-12s %-12s %8s %8s %8s" % ("chain", "role", "xc_msgs",
                                          "tx_count", "op_cost")
    print(header)
    for chain_id in sorted(report.per_chain):
        row = report.per_chain[chain_id]
        print("%-12s %-12s %8d %8d %8d"
              % (chain_id, row["role"], row["xc_msgs"], row["tx_count"],
                 row["op_cost"]))
    for txid in sorted(report.per_transaction):
        row = report.per_transaction[txid]
        reason = " reason=%s" % row["reason"] if row.get("reason") else ""
        print("txn %s: outcome=%s rounds=%d%s"
              % (txid, row["outcome"], row["rounds"], reason))
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    total = 0
    passed = 0
    failures = []
    counts = None
    counts_stable = True
    for seed in range(args.seed, args.seed + args.seeds):
        world = build_world(scenario, seed=seed, lock_order=args.lock_order)
        trace = world.run(scenario.stop)
        try:
            verdicts = _run_checks(args, world, trace)
        except BudgetExceededError as err:
            raise BudgetExceededError("at seed %d: %s" % (seed, err)) from err
        total += 1
        bad = [name for name, verdict in verdicts if not verdict.passed]
        if bad:
            failures.append((seed, bad))
        else:
            passed += 1
        report = extract_metrics(trace)
        row = {c: (r["xc_msgs"], r["tx_count"])
               for c, r in report.per_chain.items()}
        if counts is None:
            counts = row
        elif counts != row:
            counts_stable = False
    stability = "counts stable" if counts_stable else "COUNTS UNSTABLE"
    print("%d/%d checks passed; %s" % (passed, total, stability))
    for seed, bad in failures[:10]:
        print("seed %d failed: %s" % (seed, ", ".join(bad)))
    return EXIT_OK if passed == total and counts_stable else EXIT_VIOLATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose,
                                                               2)]
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    if args.seed < 0 or args.budget < 0 or getattr(args, "seeds", 0) < 0:
        print("error: seed, budget, and seeds must be non-negative",
              file=sys.stderr)
        return EXIT_CONFIG
    handler = {"run": cmd_run, "check": cmd_check,
               "metrics": cmd_metrics, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except ScenarioError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as err:
        print("budget exceeded: %s" % err, file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
