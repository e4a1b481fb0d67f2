#!/usr/bin/env python3
"""End-to-end benchmark of the analysis service.

Builds the benchmark program (perfbench/CMakeLists.txt, on top of the
repository's libraries) into the build directory, runs one workload and
prints its metrics. The last line of standard output is one JSON object
with exactly the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload mixed-checks --seed 1 --seconds 20 --trace 0

--trace 1 runs the traced variant: per-layer metrics instead of the
end-to-end ones, a Perfetto-loadable trace in the build directory, and
each span's self time. --tiny runs the self-test size. The build
directory is $CARGO_TARGET_DIR if set, else .bench_build, relative to
the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["mixed-checks", "deep-sweeps", "service-traffic"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def run_group(cmd, timeout, what, **kwargs):
    """Runs cmd in its own process group and waits for it; on timeout the
    whole group (a build's compilers too) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{what} timed out")
    return proc.returncode, out


def run_checked(cmd, timeout, what):
    """Runs a build step; its output goes to stderr, its temporary files
    into the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    code, _ = run_group(cmd, timeout, what, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if code != 0:
        fail(f"{what} failed (exit {code})")


def build():
    out = build_dir()
    env_cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release",
               # A compiler cache would read and write outside the checkout.
               "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository sources are missing next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        if shutil.which("ninja"):
            env_cmd += ["-G", "Ninja"]
        run_checked(env_cmd, BUILD_TIMEOUT_S, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S, "build")
    binary = out / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("src/**/*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def self_times(trace_path, top=24):
    """Per span name: calls and total self time (span duration minus the
    part its child spans on the same lane cover), from a Chrome trace."""
    events = json.loads(Path(trace_path).read_text())
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    lanes = {}
    for e in events:
        if e.get("ph") == "X":
            lanes.setdefault(e.get("tid"), []).append(e)
    totals = {}
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        stack = []  # [end, name, duration, child time]

        def close(frame):
            end, name, dur, child = frame
            calls, self_us = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_us + max(0.0, dur - child))

        for e in spans:
            start, dur = e["ts"], e.get("dur", 0)
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, e["name"], dur, 0.0])
        while stack:
            close(stack.pop())
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])[:top]
    return [(name, calls, self_us) for name, (calls, self_us) in ranked]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input sizes")
    args = parser.parse_args()

    binary = build()
    trace_path = build_dir() / f"trace_{args.workload}_{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_path)]
    if args.tiny:
        cmd.append("--tiny")
    code, stdout = run_group(cmd, RUN_TIMEOUT_S, "benchmark run", stdout=subprocess.PIPE,
                             text=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark run failed (exit {code})")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    provenance = {
        "source": source_id(),
        "build_type": result["run"]["build_type"],
        "compiler": result["run"]["compiler"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "timed_s": result["run"]["timed_s"],
        "ops": result["run"]["ops"],
        "latency_samples": result["samples"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    print("# provenance: " + json.dumps(provenance))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']} {m['unit']}")
    if args.trace:
        print(f"# trace written to {trace_path}")
        print("# self time by span (name, calls, total self ms):")
        for name, calls, self_us in self_times(trace_path):
            print(f"#   {name:36s} {calls:8d} {self_us / 1000:12.3f}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
