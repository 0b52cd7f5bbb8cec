#!/usr/bin/env python3
"""Build and run the filter service's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The first run configures and builds the
perfbench package (perfbench/CMakeLists.txt, Release) from the sources in
src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs rebuild only what changed.  Build output goes to stderr, so the last
line of stdout is always the result JSON: {"correct", "attempted", "failed",
"metrics"}.  The line before it is a report with the host and config
fingerprint, the workload's own named figures and the correctness gates.

--smoke runs every workload of BENCHMARK.json at tiny sizes, untraced and
traced, and checks that each prints every end-to-end or per-layer metric
with its unit and that its correctness gates ran.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configure (once) and build; returns the benchmark binary's path."""
    if not (ROOT / "src" / "net" / "server.h").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    binary = out / "perfbench"
    if not binary.is_file():
        raise RuntimeError("build produced no perfbench binary")
    return binary


def run_binary(binary, args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, GF_NUM_WORKERS="2")
    proc = subprocess.run([str(binary), *args, "--scratch", str(scratch)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The result and report objects, or raise."""
    if len(lines) < 2:
        raise RuntimeError("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {lines[-1][:200]}")
    report = json.loads(lines[-2])["report"]
    return result, report


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            expected = spec["per_layer" if trace == "1" else "end_to_end"]
            code, lines = run_binary(binary, [
                "--workload", w["name"], "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke"])
            problems = []
            try:
                result, report = parse_result(lines)
                metrics = result["metrics"]
                for m in expected:
                    got = metrics.get(m["name"])
                    if got is None:
                        problems.append(f"missing {m['name']}")
                    elif got.get("unit") != m["unit"]:
                        problems.append(f"{m['name']} unit {got.get('unit')}")
                extra = set(metrics) - {m["name"] for m in expected}
                if extra:
                    problems.append(f"unlisted metrics {sorted(extra)}")
                if not report["gates_run"]:
                    problems.append("no correctness gate ran")
                if not result["correct"] or report["gate_failures"]:
                    problems.append("run not correct")
            except (RuntimeError, ValueError, KeyError) as e:
                problems.append(str(e))
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required")
    try:
        binary = build()
        if a.smoke:
            return smoke(binary)
        code, lines = run_binary(binary, [
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace])
        for line in lines:
            print(line)
        if code == 0:
            parse_result(lines)
        return code
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
