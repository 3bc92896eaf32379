#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs a workload.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Every call configures and builds perfbench/CMakeLists.txt (the
repository's libraries plus the benchmark binary) under $CARGO_TARGET_DIR,
or .bench_build when it is unset; after the first build this is quick.
Each workload then runs in its own process. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the run's provenance. Every workload prints
every metric BENCHMARK.json declares: --trace 0 the end-to-end ones, --trace
1 the per-layer ones, with the run's spans written as Chrome trace-event
JSON under the build directory. NOTES.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["check-ram", "cst-1e5", "reactor-10k"]

RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def child_env() -> dict:
    """Environment for the build and the runs: temporary files stay in the
    build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build() -> Path:
    """Configures and builds the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no {needed} at {ROOT}: run from a full checkout")
    out = build_dir() / "perfbench"
    log = build_dir() / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring on every call is cheap when nothing changed, and fails
    # loudly if the build directory was configured from another checkout.
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", str(HERE), "-B", str(out), *gen,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=child_env()).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)} (log {log})")
    return out / "perfbench"


def source_id() -> str:
    """The git commit, or a digest of the sources when there is no git."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(HERE.rglob("*"))]
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def calibrate(binary: Path) -> float:
    out = subprocess.run([str(binary), "--calibrate"], capture_output=True,
                         text=True, timeout=60, check=True, env=child_env())
    return float(out.stdout.split()[0])


def run_workload(binary: Path, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool = False):
    """Runs one workload in its own process; returns (result, provenance,
    counts), where counts are the per-op work lines."""
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{workload}-seed{seed}{'-tiny' if tiny else ''}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(trace_file)]
    if tiny:
        cmd.append("--tiny")
    before = calibrate(binary)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} ran past {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {proc.returncode}")
    after = calibrate(binary)
    result = json.loads(lines[-1])
    provenance = {}
    layers = {}
    op_seconds = []
    counts = []
    for line in lines[:-1]:
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
        elif line.startswith("# counts "):
            counts.append(line[len("# counts "):])
        elif line.startswith("# op_seconds "):
            op_seconds = json.loads(line[len("# op_seconds "):])
        elif line.startswith("# layers "):
            layers = json.loads(line[len("# layers "):])
    provenance.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": source_id(),
        "trace": int(trace),
        "calib_before_s": before,
        "calib_after_s": after,
        "op_seconds": op_seconds,
    })
    if layers:
        provenance["layers"] = layers
    if trace:
        provenance["trace_file"] = str(trace_file.relative_to(ROOT)
                                       if trace_file.is_relative_to(ROOT)
                                       else trace_file)
    return result, provenance, counts


def selftest(binary: Path) -> int:
    """A tiny-size pass of every workload through the same code path: every
    metric is printed with its unit, every oracle passes, and the traced and
    untraced runs do identical work for the same seed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in declared[kind]}
                for trace, kind in ((False, "end_to_end"),
                                    (True, "per_layer"))}
    problems = []
    for name in [w["name"] for w in declared["workloads"]]:
        runs = {}
        for trace in (False, True):
            result, _, counts = run_workload(binary, name, 7, 2, trace,
                                             tiny=True)
            runs[trace] = counts
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {got} "
                                f"!= {expected[trace]}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{name} trace={int(trace)}: {result}")
            if not trace and result["metrics"]["ok_op_frac"]["value"] != 1:
                problems.append(f"{name}: ok_op_frac != 1")
        common = min(len(runs[False]), len(runs[True]))
        if common == 0 or runs[False][:common] != runs[True][:common]:
            problems.append(f"{name}: traced and untraced work differ")
        print(f"selftest {name}: {common} ops compared", flush=True)
    for p in problems:
        print("selftest FAIL:", p, file=sys.stderr)
    print("selftest", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            result, provenance, _ = run_workload(
                binary, name, args.seed, args.seconds, bool(args.trace))
            print("# provenance " + json.dumps(provenance), flush=True)
            if len(names) == 1:
                print(json.dumps(result), flush=True)
                return 0
            print(f"# {name} " + json.dumps(result), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
        print(json.dumps(combined), flush=True)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
