#!/usr/bin/env python3
"""Same-host A/B of two revisions on the end-to-end benchmark.

Exports each revision with `git archive` into a work directory,
builds it through its own perfbench/run.py (each side with its own
CARGO_TARGET_DIR), then runs N interleaved pairs per workload,
alternating which side goes first. Prints, per workload and metric,
each side's median and quartiles, the median ratio, how many pairs
the change (the second revision) won and a verdict, plus a host
fingerprint. Verdicts use the metric's bound from BENCHMARK.json:

    gain        the change won at least 9 in 10 pairs and the medians
                differ by more than the base's interquartile range
    worse       the head median is worse than the base median by more
                than the bound
    unresolved  either side's interquartile range, relative to its
                median, is wider than the bound
    same        anything else

    python3 tools/perf_ab.py BASE_REV HEAD_REV --workloads deep-sweeps \\
        --pairs 10 --seconds 25 --seed 1,5 --workdir /tmp/ab

`--seed` takes a comma-separated list; each seed gets its own pairs and
its own table.

A revision is anything `git archive` accepts: a commit, a branch, or
the output of `git stash create` for uncommitted work. The script only
reads the repository; metric directions come from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """Writes the tree of `rev` into `dest` (git archive | tar -x)."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_side(tree, build_dir, workload, seed, seconds):
    """One perfbench run; returns (metrics {name: value}, provenance)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: run failed in {tree} ({workload}):\n{proc.stderr[-2000:]}")
    provenance = {}
    for line in lines:
        if line.startswith("# provenance: "):
            provenance = json.loads(line[len("# provenance: "):])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, provenance


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, head, wins, pairs, direction, bound):
    """gain / worse / unresolved / same for one metric (see the module doc)."""
    (b1, bm, b3), (h1, hm, h3) = base, head
    sign = 1 if direction == "lower" else -1
    if wins >= 0.9 * pairs and sign * (bm - hm) > b3 - b1:
        return "gain"
    if sign * (hm - bm) > bound * abs(bm):
        return "worse"
    if any(q3 - q1 > bound * abs(m) for q1, m, q3 in (base, head)):
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="baseline revision")
    parser.add_argument("head", help="revision under test")
    parser.add_argument("--workloads", default="mixed-checks,deep-sweeps,service-traffic")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", default="1",
                        help="comma-separated seeds, one table each")
    parser.add_argument("--workdir", help="export/build directory (default: a new temp dir)")
    args = parser.parse_args()

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="perf_ab_")).resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(seed) for seed in args.seed.split(",")]

    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        tree, build = workdir / name / "src", workdir / name / "build"
        # A work directory is reused only for the commit it was built
        # from: a new revision gets a fresh export and a fresh build.
        stamp = workdir / name / "commit"
        commit = subprocess.run(["git", "rev-parse", "--verify", rev], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
        if not stamp.is_file() or stamp.read_text() != commit:
            shutil.rmtree(tree, ignore_errors=True)
            shutil.rmtree(build, ignore_errors=True)
            export(rev, tree)
            stamp.write_text(commit)
        sides[name] = (tree, build)

    provenance = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for name in order:
                    tree, build = sides[name]
                    metrics, provenance = run_side(tree, build, workload, seed,
                                                   args.seconds)
                    runs[name].append(metrics)
                print(f"# {workload} seed {seed} pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            print(f"\n== {workload}: {args.pairs} pairs x {args.seconds} s, seed {seed}, "
                  f"{args.base} -> {args.head}")
            print(f"{'metric':18s} {'base median [q1, q3]':>32s} "
                  f"{'head median [q1, q3]':>32s} {'ratio':>7s} {'wins':>6s}  verdict")
            for metric in runs["base"][0]:
                b = [r[metric] for r in runs["base"]]
                h = [r[metric] for r in runs["head"]]
                bq, hq = quartiles(b), quartiles(h)
                direction = better.get(metric, "lower")
                wins = sum(1 for x, y in zip(b, h)
                           if (y < x if direction == "lower" else y > x))
                ratio = hq[1] / bq[1] if bq[1] else float("nan")
                call = (verdict(bq, hq, wins, len(b), direction, bounds[metric])
                        if metric in bounds else "")
                print(f"{metric:18s} {bq[1]:12.4g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(52) +
                      f"{hq[1]:12.4g} [{hq[0]:.4g}, {hq[2]:.4g}]".ljust(34) +
                      f"{ratio:7.3f} {wins:3d}/{len(b)}  {call}")
    print(f"\n# host: nproc={os.cpu_count()} cpu={provenance.get('cpu', platform.processor())} "
          f"compiler={provenance.get('compiler', 'unknown')} "
          f"build={provenance.get('build_type', 'unknown')}")


if __name__ == "__main__":
    main()
