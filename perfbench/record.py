"""Write the expected records the benchmark checks ops against.

    python3 perfbench/record.py --workload scale-engine --seeds 0-63

For each seed it runs every input of the workload once and stores the
verdict triple, the sha256 of the rendered trace and the trace counts in
perfbench/expected/<workload>.json, keeping the records of other seeds.
Record on a commit whose traces are known good: the benchmark treats
these records as the truth.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive range such as 0-63")
    args = parser.parse_args(argv)
    run.import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    path = run.EXPECTED / ("%s.json" % args.workload)
    data = json.loads(path.read_text()) if path.exists() else {}
    if data and tuple(data["counts"]) != workloads.COUNTS:
        sys.exit("record: %s lists other counts; rewrite it whole" % path)
    seeds = data.get("seeds", {})
    for seed in args.seeds:
        checker = run.Checker({})
        records = {}
        for inp in workload.inputs(seed):
            op = run.run_op(workload, inp, run.direct, checker,
                            run.HostSpeed())
            if not op.matched:
                sys.exit("record: %s at seed %d is not what the workload "
                         "owes" % (inp.variant, seed))
            records[inp.variant] = checker.seen[inp.variant].observed
        seeds[str(seed)] = records
        print("record: %s seed %d: %d inputs" % (args.workload, seed,
                                                 len(records)), flush=True)
    ordered = {str(s): seeds[str(s)] for s in sorted(map(int, seeds))}
    run.EXPECTED.mkdir(exist_ok=True)
    with path.open("w") as handle:
        handle.write('{"counts": %s,\n "seeds": {\n' %
                     json.dumps(list(workloads.COUNTS)))
        handle.write(",\n".join("  %s: %s" % (json.dumps(seed),
                                              json.dumps(records))
                                for seed, records in ordered.items()))
        handle.write("\n }}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
