"""xchainsim benchmark: one closed-loop client in one thread.

    python3 perfbench/run.py --workload bundled-check --seed 0 \
        --seconds 20 --trace 0

Run from the repository root.  It imports the program from ./src, makes
the workload's inputs from --seed, then runs ops back to back for
--seconds (and at least one pass over the inputs; two when traced).
Every op's verdicts, trace digest and trace counts are checked against
perfbench/expected/<workload>.json, or, for a seed with no record there,
against the verdicts the workload owes and against the first op on the
same input.  Human-readable lines go first; the last line of stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with traced ones, which record one span per public call, writes
the spans to perfbench/out/, and reports the per-layer metrics.  The
exit code is 0 when no op raised and every output matched, 1 otherwise.

Every reported time is scaled to the speed of a reference host: a fixed
pure-Python kernel is timed every few milliseconds throughout the run,
and each op's time is multiplied by REF_NOMINAL_S over the kernel's
median while that op ran, to the workload's speed_exponent (see
HostSpeed).  The measured times are
printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 170
REF_NOMINAL_S = 0.0002   # the kernel's median on the reference host
REF_PERIOD_S = 0.02      # how often the kernel is timed
PROBE_PERIOD_S = 0.005   # the same in a set-up probe, which is short
REF_SIZE = 100
REF_WINDOW = 25          # samples an op's scale is the median of, at least
LAYER_SPANS = ("scenario.load", "scenario.parse", "scenario.build",
               "engine.run", "trace.render", "verify.secure_transfer",
               "verify.all_or_nothing", "verify.serializability")


def import_program():
    """Import xchainsim from ./src only, never from an installed copy."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import xchainsim
    except ImportError as err:
        sys.exit("perfbench: cannot import xchainsim from %s: %s"
                 % (SRC, err))
    if Path(xchainsim.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: xchainsim imported from %s, not %s"
                 % (xchainsim.__file__, SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class _Row:
    __slots__ = ("rank", "name", "pair")

    def __init__(self, rank, name, pair):
        self.rank, self.name, self.pair = rank, name, pair


def reference_kernel() -> int:
    """Fixed interpreter work of the kinds the program does (string
    keys, dicts, small objects, sorting, repr), which frees all it
    allocates by reference counting."""
    n = REF_SIZE
    table = {}
    for i in range(n):
        key = "k%05d" % ((i * 7919) % n)
        table[key] = (i, key.upper(), [i, i * 3])
    total = 0
    for rank, key in enumerate(sorted(table)):
        value, name, pair = table[key]
        row = _Row(rank, name, pair)
        total += len(repr({"rank": row.rank, "name": row.name})) \
            + row.pair[1] - value
    return total


class HostSpeed:
    """Measures how fast the shared host runs right now.

    A shared host's speed can drift by tens of percent over seconds and
    minutes, in CPU time as much as in wall time, and the program's time
    follows it.  So every REF_PERIOD_S a
    timer signal runs reference_kernel twice between two bytecodes of
    whatever the benchmark is doing and times the second run, which
    does not pay for caches the program left cold.  An op's times are
    scaled by REF_NOMINAL_S over the median kernel time while it ran, to
    a power that says how strongly the workload follows the kernel.
    `paused` is the total time spent in the handler, which the benchmark
    takes out of every op and span it times.
    """

    def __init__(self):
        self.samples = []    # kernel seconds
        self.at = []         # when each sample was taken
        self.paused = 0.0
        self._old = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_kernel()      # warms the caches the program cooled
            timed = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - timed)
            self.at.append(timed)
        finally:
            if collecting:
                gc.enable()
        self.paused += time.perf_counter() - start

    def start(self, period: float) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def median(self) -> float:
        if not self.samples:
            sys.exit("perfbench: no host-speed sample was taken")
        return statistics.median(self.samples)

    def scale(self, start: float, end: float, exponent: float) -> float:
        """REF_NOMINAL_S over the median of the samples taken between
        start and end, widened to the REF_WINDOW samples nearest its
        middle when fewer fell inside, to the power `exponent`."""
        if len(self.samples) < REF_WINDOW:
            return (REF_NOMINAL_S / self.median()) ** exponent
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < REF_WINDOW:
            lo = max(0, (lo + hi - REF_WINDOW) // 2)
            hi = min(len(self.samples), lo + REF_WINDOW)
            lo = hi - REF_WINDOW
        return (REF_NOMINAL_S
                / statistics.median(self.samples[lo:hi])) ** exponent



class Tracer:
    """Spans kept in memory as [name, op id, parent index, start, end,
    paused], where paused is the host-speed sampling time inside the
    span."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.spans = []
        self._stack = []
        self.op_id = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        paused = self.speed.paused
        span = [name, self.op_id, parent, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            span[5] = self.speed.paused - paused
            self._stack.pop()

    def self_times(self, first: int) -> dict:
        """Seconds per span name over spans[first:], minus the time their
        child spans cover, sampling time excluded."""
        own = {}
        for name, _, parent, start, end, paused in self.spans[first:]:
            took = end - start - paused
            own[name] = own.get(name, 0.0) + took
            if parent is not None:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - took
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as handle:
            for index, (name, op_id, parent, start, end, paused) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "op": op_id,
                    "parent": parent, "start": start - t0,
                    "end": end - t0, "paused": paused}) + "\n")


@dataclass
class Seen:
    """The first outputs of one input: what later ops must repeat."""
    observed: list       # [verdicts, sha256 of the rendering, counts]
    latencies: list
    lost: int
    declared: int
    nbytes: int


class Checker:
    """Compares each op's outputs with the expected record of its input."""

    def __init__(self, records: dict):
        self.records = records
        self.seen = {}
        self.mismatches = 0

    def check(self, inp, out) -> bool:
        """True when the op's verdicts, digest and counts are expected."""
        import workloads
        counts, latencies, lost = workloads.trace_stats(out.trace, out.txns)
        observed = [list(out.verdicts),
                    hashlib.sha256(out.text.encode()).hexdigest(),
                    [counts[k] for k in workloads.COUNTS]]
        expected = self.records.get(inp.variant)
        if expected is None and inp.variant in self.seen:
            expected = self.seen[inp.variant].observed
        self.seen.setdefault(inp.variant, Seen(
            observed, latencies, lost, len(out.txns), len(out.text)))
        if expected is None:
            ok = tuple(out.verdicts) in inp.owed
        else:
            ok = observed == expected
        if not ok:
            self.mismatches += 1
            print("perfbench: MISMATCH %s: expected %s, got %s"
                  % (inp.variant, expected or sorted(inp.owed, key=str),
                     observed), file=sys.stderr)
        return ok


def load_records(workload: str, seed: int) -> dict:
    import workloads
    path = EXPECTED / ("%s.json" % workload)
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if tuple(data["counts"]) != workloads.COUNTS:
        sys.exit("perfbench: %s lists other counts than workloads.COUNTS"
                 % path)
    return data["seeds"].get(str(seed), {})


@dataclass
class Op:
    seconds: float       # measured, sampling time excluded
    events: int          # trace events the op produced or audited
    failed: bool         # raised, mismatched, or a checker raised
    matched: bool        # did not raise, and outputs are the expected
    start: float = 0.0   # perf_counter at the op's start and end
    end: float = 0.0
    scale: float = 1.0   # host-speed factor while the op ran
    traced: bool = False
    own: dict = None     # traced ops: self seconds per span name
    counts: dict = None


def run_op(workload, inp, call, checker, speed) -> Op:
    """Times one op, then checks its outputs outside the timed part.

    An op fails, for `failed_ratio`, when it raises, when a checker
    raises where the CLI owes a verdict (all-or-nothing's
    MissingOutcomeError, serializability's BudgetExceededError), or when
    its outputs are not the expected ones.  Only an op that raises or
    whose outputs differ is wrong: it makes the run incorrect and counts
    in the result's `failed`.  A checker exception mapped to a verdict is
    the program's recorded behaviour on that input, not a wrong output.
    """
    import workloads
    paused = speed.paused
    start = time.perf_counter()
    try:
        out = call("op", workload.op, inp.args, call)
    except Exception:
        print("perfbench: op on %s raised" % inp.variant, file=sys.stderr)
        traceback.print_exc()
        checker.mismatches += 1
        end = time.perf_counter()
        return Op(end - start - (speed.paused - paused), 0, True, False,
                  start, end)
    end = time.perf_counter()
    matched = checker.check(inp, out)
    raised = any(v in workloads.CHECKER_RAISED for v in out.verdicts)
    return Op(end - start - (speed.paused - paused),
              len(out.trace.events), raised or not matched, matched,
              start, end)


def run_traced(workload, inp, tracer, checker, op_id) -> Op:
    """One op with spans.  load_scenario looks parse_scenario up as a
    module global, so wrapping that global gives parsing its own span
    inside the YAML load without touching the program."""
    import workloads
    import xchainsim.scenario as scenario_module
    parse = scenario_module.parse_scenario
    scenario_module.parse_scenario = \
        lambda *a, **k: tracer.call("scenario.parse", parse, *a, **k)
    first = len(tracer.spans)
    tracer.op_id = op_id
    try:
        op = run_op(workload, inp, tracer.call, checker, tracer.speed)
    finally:
        scenario_module.parse_scenario = parse
    op.traced = True
    op.own = tracer.self_times(first)
    seen = checker.seen.get(inp.variant)
    op.counts = dict(zip(workloads.COUNTS, seen.observed[2] if seen
                         else [0] * len(workloads.COUNTS)))
    return op


def find_workload(name):
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (name, ", ".join(WORKLOADS)))
    return WORKLOADS[name]


def setup(args, speed):
    """Input generation or trace prebuild, and one warm-up op."""
    workload = find_workload(args.workload)
    inputs = workload.inputs(args.seed)
    checker = Checker(load_records(args.workload, args.seed))
    if not checker.records:
        print("perfbench: no expected record for seed %d; checking owed "
              "verdicts and repeatability only" % args.seed)
    run_op(workload, inputs[0], direct, checker, speed)
    return workload, inputs, checker


def probe_setup(args, exponent) -> tuple:
    """Set-up in fresh interpreters, interpreter start included: the
    measured seconds of each, sampling time excluded, and each scaled by
    the host speed its own interpreter sampled."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        took = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit("perfbench: set-up probe exited with %d"
                     % done.returncode)
        probe = json.loads(done.stdout.splitlines()[-1])
        measured.append(took - probe["paused"])
        scaled.append(measured[-1] * (REF_NOMINAL_S / probe["ref_median"])
                      ** exponent)
    return measured, scaled


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, but
    not below p90, as (value, percentile), interpolated between the two
    nearest samples.  The floor keeps a run of a few dozen ops from
    reporting a percentile near the median, and makes the value move
    smoothly with the number of ops."""
    ordered = sorted(values)
    n = len(ordered)
    q = max(0.9, (n - 10) / n)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return (ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]),
            100.0 * q)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops, setup_times) -> dict:
    """Timings of the run, each op's scaled by its own factor;
    setup_times are scaled already."""
    op_s = [o.scale * o.seconds for o in ops]
    busy = sum(op_s)
    tail_s, pct = tail(op_s)
    print("perfbench: %d ops; op_tail_ms is p%.2f" % (len(ops), pct))
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(ops) / busy, "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(op_s), "ms"),
        "op_tail_ms": metric(1000 * tail_s, "ms"),
        "events_per_s": metric(sum(o.events for o in ops) / busy, "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, checker, inputs) -> dict:
    """Layer metrics of the run; each op's times are scaled by its own
    factor."""
    import workloads
    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    own = {}
    for o in traced:
        for name, seconds in o.own.items():
            own[name] = own.get(name, 0.0) + o.scale * seconds
    n = len(traced)
    out = {"%s_ms" % name: metric(1000 * own.get(name, 0.0) / n, "ms")
           for name in LAYER_SPANS}
    traced_s = sum(o.scale * o.seconds for o in traced) / n
    plain_s = sum(o.scale * o.seconds for o in plain) / len(plain)
    out["bench.op_ms"] = metric(1000 * traced_s, "ms")
    out["bench.overhead_pct"] = metric(100 * (traced_s - plain_s) / plain_s,
                                       "%")

    def per_unit(span, count_of):
        units = sum(count_of(o) for o in traced if span in o.own)
        return 1e6 * own.get(span, 0.0) / units if units else 0.0

    out["engine.us_per_event"] = metric(per_unit(
        "engine.run", lambda o: o.counts["engine.events"]), "us")
    out["engine.us_per_tick"] = metric(per_unit(
        "engine.run", lambda o: o.counts["engine.ticks"]), "us")
    out["verify.ser_us_per_mutating_event"] = metric(per_unit(
        "verify.serializability",
        lambda o: o.counts["verify.mutating_events"]), "us")

    # Counts are totals over one pass of the inputs, so they repeat
    # exactly for a seed whatever the run length.
    seen = [checker.seen[inp.variant] for inp in inputs
            if inp.variant in checker.seen]
    for index, key in enumerate(workloads.COUNTS):
        if key.startswith("executor.latency"):
            continue
        values = [s.observed[2][index] for s in seen]
        out[key] = metric(max(values) if key == "bridge.max_in_flight"
                          else sum(values), "count")
    latencies = [x for s in seen for x in s.latencies]
    out["executor.latency_p50_ticks"] = metric(
        statistics.median(latencies) if latencies else 0, "ticks")
    out["executor.latency_max_ticks"] = metric(max(latencies, default=0),
                                               "ticks")
    out["trace.bytes"] = metric(sum(s.nbytes for s in seen), "bytes")
    out["txn_lost_ratio"] = metric(
        sum(s.lost for s in seen) / max(1, sum(s.declared for s in seen)),
        "ratio")
    out["failed_ratio"] = metric(sum(o.failed for o in ops) / len(ops),
                                 "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = HostSpeed()
    if args.setup_probe:
        speed.start(PROBE_PERIOD_S)
        try:
            import_program()
            checker = setup(args, speed)[2]
        finally:
            speed.stop()
        print(json.dumps({"ref_median": speed.median(),
                          "paused": speed.paused}))
        return 0 if checker.mismatches == 0 else 1
    import_program()
    measured_setup, setup_times = [], []
    if not args.trace:
        measured_setup, setup_times = probe_setup(
            args, find_workload(args.workload).speed_exponent)
    workload, inputs, checker = setup(args, speed)
    tracer = Tracer(speed)
    ops = []
    min_ops = len(inputs) * (2 if args.trace else 1)
    speed.start(REF_PERIOD_S)
    try:
        start = time.perf_counter()
        while len(ops) < min_ops or \
                time.perf_counter() - start < args.seconds:
            i = len(ops)
            inp = inputs[i % len(inputs)]
            if args.trace and (i // len(inputs)) % 2 == 1:
                ops.append(run_traced(workload, inp, tracer, checker, i))
            else:
                ops.append(run_op(workload, inp, direct, checker, speed))
    finally:
        speed.stop()
    for o in ops:
        o.scale = speed.scale(o.start, o.end, workload.speed_exponent)
    print("perfbench: reference kernel median %.1f us over %d samples; "
          "op times scaled by %.4f at the median" % (
              1e6 * speed.median(), len(speed.samples),
              statistics.median(o.scale for o in ops)))
    if args.trace:
        metrics = per_layer(ops, checker, inputs)
        tracer.write(HERE / "out" / ("spans-%s-%d.jsonl"
                                     % (args.workload, args.seed)))
    else:
        print("perfbench: measured, unscaled: setup probes %s s; op p50 "
              "%.4g ms" % (", ".join("%.3f" % t for t in measured_setup),
                           1000 * statistics.median(o.seconds
                                                    for o in ops)))
        metrics = end_to_end(ops, setup_times)
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    correct = checker.mismatches == 0
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(not o.matched for o in ops),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
