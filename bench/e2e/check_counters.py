#!/usr/bin/env python3
"""Diffs the work counters of `run.sh --counters` against a baseline.

  check_counters.py [--baseline FILE] [--update] RECORD...

Each RECORD is the --out file of one `bench_e2e --counters` run. The
counters (postings decoded, blocks skipped, IRS calls, buffer hits and
misses, net bytes, ...) come from a fixed request sequence on the
bench's one connection, so on unchanged code they repeat
exactly, and any difference is reported. Exits 1 when a counter differs
or a workload is missing, 0 otherwise. --update rewrites the baseline
from the records instead of checking.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline", "counters.json")


def counters_of(record):
    return {name: m["value"] for name, m in record["metrics"].items()
            if name.startswith("counter.")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--update", action="store_true")
    parser.add_argument("records", nargs="+")
    args = parser.parse_args()

    runs = {}
    for path in args.records:
        with open(path) as f:
            record = json.load(f)
        if not record.get("counters"):
            sys.exit(f"check_counters.py: {path} is not a --counters run")
        if not record["correct"]:
            sys.exit(f"check_counters.py: {path} has wrong answers")
        runs[record["workload"]] = record

    first = next(iter(runs.values()))
    config = {"seed": first["seed"], "docs": first["docs"],
              "requests": int(counters_of(first)["counter.requests"])}
    if args.update:
        baseline = dict(config)
        baseline["workloads"] = {w: counters_of(r)
                                 for w, r in sorted(runs.items())}
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = 0
    for key, value in config.items():
        if baseline[key] != value:
            print(f"config {key}: baseline {baseline[key]}, run {value}")
            failures += 1
    for workload, want in sorted(baseline["workloads"].items()):
        if workload not in runs:
            print(f"{workload}: no run record")
            failures += 1
            continue
        got = counters_of(runs[workload])
        for name in sorted(set(want) | set(got)):
            old, new = want.get(name), got.get(name)
            if old is None or new is None:
                print(f"{workload} {name}: baseline {old}, run {new}")
                failures += 1
                continue
            ok = new == old
            mark = "ok" if ok else "DIFF"
            print(f"{mark:4} {workload} {name} baseline={old:.12g} run={new:.12g}")
            failures += 0 if ok else 1
    print("counters: " + ("PASS" if failures == 0 else f"{failures} difference(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
