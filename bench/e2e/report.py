#!/usr/bin/env python3
"""Turns bench_e2e run records into summaries.

  report.py final RECORD BENCHMARK_JSON
      Prints the one-line JSON summary of one run: the end-to-end
      metrics BENCHMARK.json names (or its per-layer metrics when the run
      was traced), with correct/attempted/failed.

  report.py merge OUT RECORD...
      Writes the records of several runs as one JSON object keyed by
      workload (BENCH_e2e.json).

  report.py table RECORD...
      Prints the per-layer table of traced runs as Markdown: the mean
      client latency, split into time outside the server's run, the
      self time of every stage and the unattributed rest, followed by
      every other per-layer metric.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def final(record_path, benchmark_path):
    record = load(record_path)
    spec = load(benchmark_path)
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"report.py: run record lacks metric {m['name']}")
        if got["value"] is None:
            # Failed requests count as infinitely slow in percentiles.
            sys.exit(f"report.py: {m['name']} is not finite; see the "
                     "run's failures")
        if got["unit"] != m["unit"]:
            sys.exit(f"report.py: {m['name']} is in {got['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def merge(out_path, record_paths):
    merged = {}
    for path in record_paths:
        record = load(path)
        merged[record["workload"]] = record
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")


def table(record_paths):
    records = [load(p) for p in record_paths]
    if not all(r["trace"] for r in records):
        sys.exit("report.py: table needs traced runs")
    names = [r["workload"] for r in records]

    def value(r, name):
        m = r["metrics"].get(name)
        return m["value"] if m else 0.0

    def row(label, values, fmt="{:.1f}"):
        cells = [fmt.format(v) for v in values]
        print(f"| {label} | " + " | ".join(cells) + " |")

    print("| us per query | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    stages = sorted({n for r in records for n in r["metrics"]
                     if n.startswith("stage.")})
    parts = ["server.outside_run_us.mean"] + stages + ["unattributed_us.mean"]
    for name in parts:
        label = name[len("stage."):-len(".self_us.mean")] if name in stages else name
        row(label, [value(r, name) for r in records])
    row("**sum of the rows above**",
        [sum(value(r, n) for n in parts) for r in records])
    row("**client.latency_us.mean**",
        [value(r, "client.latency_us.mean") for r in records])
    print()
    print("| per-layer metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    skip = set(parts) | {"client.latency_us.mean"}
    for name, m in records[0]["metrics"].items():
        if name in skip:
            continue
        print(f"| {name} | {m['unit']} | " +
              " | ".join(f"{value(r, name):.4g}" for r in records) + " |")


def main(argv):
    if len(argv) == 3 and argv[0] == "final":
        final(argv[1], argv[2])
    elif len(argv) >= 3 and argv[0] == "merge":
        merge(argv[1], argv[2:])
    elif len(argv) >= 2 and argv[0] == "table":
        table(argv[1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
