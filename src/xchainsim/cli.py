"""Command-line front end.

    xchainsim run     --scenario swap --seed 7 --out trace.log
    xchainsim check   --scenario swap --seed 7
    xchainsim metrics --scenario swap
    xchainsim sweep   --scenario swap --seeds 100

A command takes only the options it reads.  Every command takes
--scenario, --seed, --lock-order and -v; run and check also take --out,
check and sweep take --budget, and sweep takes --seeds.

Exit codes: 0 success, 1 property violation, 2 bad argument (argparse),
configuration error (ScenarioError: an invalid scenario, a scenario file
that cannot be read, a trace that cannot be written) or output that
cannot be written to stdout, 3 serializability budget exceeded
(BudgetExceededError).  Exit 1 is kept for a failed property.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys

from .chain import ScenarioError
from .scenario import build_world, load_scenario
from .trace import INVOKE
from .verify import (BudgetExceededError, MissingOutcomeError, Verdict,
                     Violation, check_all_or_nothing, check_secure_transfer,
                     check_strict_serializability, extract_metrics)

log = logging.getLogger("xchainsim")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _int_at_least(low: int):
    """An argparse type for an int >= `low`; argparse exits 2 on any
    other text."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "%r must be an int >= %d" % (text, low))
        return value
    parse.__name__ = "int"    # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xchainsim",
        description="Simulate and verify atomic cross-chain transactions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--scenario", required=True,
                       help="scenario file path or bundled scenario name")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--lock-order", choices=("canonical", "declared"),
                       default=None, help="override the scenario's lock "
                                          "acquisition order")
        p.add_argument("-v", "--verbose", action="count", default=0)
        return p

    run = command("run", cmd_run, "run a scenario and write its trace")
    check = command("check", cmd_check, "run a scenario and all checkers")
    command("metrics", cmd_metrics,
            "print per-chain message/operation counts")
    sweep = command("sweep", cmd_sweep,
                    "run many seeds and aggregate results")
    for p in (run, check):
        p.add_argument("--out", default=None, help="trace output path")
    for p in (check, sweep):
        p.add_argument("--budget", type=_int_at_least(0), default=14,
                       help="mutating-event budget for the "
                            "serializability search")
    sweep.add_argument("--seeds", type=_int_at_least(1), default=100,
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
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise ScenarioError("%s: cannot write trace: %s"
                                % (out_path, err.strerror)) from None
    else:
        sys.stdout.write(text)


def _outcome_summary(world) -> list:
    """One line per declared transaction: each proposer machine's, in
    the order the machines started, then each transaction that has no
    machine, with the refusal its propose invoke records, if any."""
    lines = []
    for machine in world.machines:
        outcome = machine.outcome
        if outcome == "Aborted":
            outcome = "Aborted(%s)" % machine.reason
        elif outcome is None:
            outcome = "unfinished (phase=%s)" % machine.phase
        lines.append("%s: %s" % (machine.txn.txid, outcome))
    started = {machine.txn.txid for machine in world.machines}
    missing = [txid for _, txid in world.tx_schedule if txid not in started]
    if missing:   # only the run loop's propose invoke carries a txid
        err_of = {e.data["txid"]: e.data.get("err")
                  for e in world.trace.events if e.kind == INVOKE
                  and e.data["method"] == "propose" and "txid" in e.data}
        lines += ["%s: refused (%s)" % (txid, err_of[txid]) if txid in err_of
                  else "%s: not proposed" % txid for txid in missing]
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
    transactions = list(world.transactions.values())   # declared order
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
    world, trace = _simulate(args)
    report = extract_metrics(trace)
    header = "%-12s %-12s %8s %8s %8s" % ("chain", "role", "xc_msgs",
                                          "tx_count", "op_cost")
    print(header)
    for chain_id in sorted(report.per_chain):
        row = report.per_chain[chain_id]
        print("%-12s %-12s %8d %8d %8d"
              % (chain_id, row["role"], row["xc_msgs"], row["tx_count"],
                 row["op_cost"]))
    for txid in sorted(report.per_transaction.keys() | world.transactions):
        row = report.per_transaction.get(txid)
        if row is None:
            print("txn %s: unfinished" % txid)
            continue
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
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ScenarioError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as err:
        print("budget exceeded: %s" % err, file=sys.stderr)
        return EXIT_BUDGET
    except OSError as err:   # writing stdout; the rest are ScenarioErrors
        print("error: cannot write output: %s" % err.strerror,
              file=sys.stderr)
        # drop the unwritten output, or the exit flush fails with 120
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
