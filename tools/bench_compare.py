#!/usr/bin/env python3
"""Compare deterministic benchmark counters against a checked-in baseline.

The benchmark binaries (bench/) attach *deterministic* counters to
their records — node counts, visited-set bytes, per-level config
counts, verdict bits. Unlike wall-clock, these must not drift when the
code is refactored: a counter regression means the engine is doing
different work, not that the CI box is slow. This script diffs a fresh
``--benchmark_out`` JSON against the checked-in baseline and fails on
any watched counter that moved by more than the threshold (default
25%, in either direction — deterministic counters have no benign
direction). A watched counter that a baseline benchmark records but
the same benchmark's current record lacks is a failure too: renaming or
dropping a counter must not silently un-gate it. Benchmarks missing
from the current run (filtered out or removed) and counters the
baseline never recorded are ignored, so adding a new benchmark or a new
counter never breaks the gate; the baseline simply gets regenerated
when a change is intentional.

Usage:
  bench_compare.py BASELINE.json CURRENT.json \
      [--counters nodes,visited_bytes,...] [--threshold 0.25]

Exit status: 0 when every watched counter is within the threshold,
1 on a regression, 2 on malformed input.
"""

import argparse
import json
import sys

# Counters that are deterministic by engine contract. Wall-clock
# derived fields (real_time, cpu_time, items_per_second) and
# process-level memory probes (peak_rss_mb, heap_mb — whole-process,
# order-dependent) are deliberately not here.
DEFAULT_COUNTERS = [
    "nodes",
    "visited_bytes",
    "treedb_nodes",
    "configs",
    "found",
    "truncated",
    # Per-search engine work (deltas of the automata.* and
    # analysis.zero.* counters) on the schedule-independent sweeps of
    # bench_parallel: candidate accesses decided, and children kept.
    "candidates",
    "accesses",
    "children",
]


def load_benchmarks(path):
    """Returns {benchmark name: record} from a google-benchmark JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = {}
    for b in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) repeat the name; keep the
        # plain iteration row (aggregates carry aggregate_name).
        if b.get("run_type") == "aggregate":
            continue
        records[b.get("name", "")] = b
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--counters",
        default=",".join(DEFAULT_COUNTERS),
        help="comma-separated counter names to gate on",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated relative change (0.25 = 25%%)",
    )
    args = parser.parse_args()
    watched = [c for c in args.counters.split(",") if c]

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    compared = 0
    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            continue  # benchmark removed or filtered out of this run
        for counter in watched:
            if counter not in base:
                continue
            if counter not in cur:
                failures.append(
                    f"  {name} {counter}: in the baseline, missing from "
                    f"the current run"
                )
                continue
            old = float(base[counter])
            new = float(cur[counter])
            compared += 1
            if old == 0.0:
                ok = new == 0.0
                change = float("inf") if not ok else 0.0
            else:
                change = abs(new - old) / abs(old)
                ok = change <= args.threshold
            if not ok:
                failures.append(
                    f"  {name} {counter}: {old:g} -> {new:g} "
                    f"({change * 100.0:.1f}% change, limit "
                    f"{args.threshold * 100.0:.0f}%)"
                )

    if compared == 0:
        print(
            "bench_compare: no overlapping counters between "
            f"{args.baseline} and {args.current}",
            file=sys.stderr,
        )
        sys.exit(2)
    if failures:
        print(
            f"bench_compare: {len(failures)} counter regression(s) over "
            f"{compared} comparisons:"
        )
        print("\n".join(failures))
        sys.exit(1)
    print(f"bench_compare: {compared} counters within threshold")
    sys.exit(0)


if __name__ == "__main__":
    main()
