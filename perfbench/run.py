#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the repository's library and the benchmark harness from source
(Release only) under .bench_build/, runs one workload and prints the
harness's report; the last line of standard output is the JSON result:

    python3 perfbench/run.py --workload tables34 --seed 20010325 \\
        --seconds 25 --trace 0

Workloads: tables34, faults, specs, merge. `--trace 1` makes the separate
traced run that prints the per-layer metrics and writes a Chrome trace to
.bench_build/traces/. Every result is also written, with the host and build
it was measured on, to .bench_build/results/.

`python3 perfbench/run.py --record` rewrites perfbench/expected/ from the
current build at the default seed.

README.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
WORKLOADS = ("tables34", "faults", "specs", "merge")
# A run must end within 180 s; the build check before it takes a second or
# two once the harness is built.
HARNESS_TIMEOUT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the harness; returns the CMake cache."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise SystemExit(
                f"perfbench: {ROOT / needed} is missing; run from a checkout "
                "of the repository")
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: configuring the build failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_harness",
           "-j", str(cpu_count())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: building the harness failed")
    values = {}
    for line in cache.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            values[key.split(":")[0]] = value
    if values.get("CMAKE_BUILD_TYPE") != "Release":
        raise SystemExit("perfbench: refusing to measure a non-Release build")
    return values


def source_digest():
    """sha256 over the sources the harness is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += [p for p in (ROOT / sub).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def host_info(cache):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    r = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    if r.returncode == 0 and r.stdout:
        compiler = r.stdout.splitlines()[0]
    return {
        "nproc": cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def harness(args, timeout=HARNESS_TIMEOUT_S):
    """Runs the harness, echoing its output; returns (exit code, stdout)."""
    with subprocess.Popen([str(HARNESS)] + args, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"harness did not finish within {timeout} s")
            return 1, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20010325)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not (a.record or a.workload):
        ap.error("--workload is required")

    cache = build()
    expected = ["--expected-dir", str(HERE / "expected")]
    if a.record:
        return harness(["--record"] + expected, timeout=None)[0]

    host = host_info(cache)
    print("# host " + json.dumps(host, sort_keys=True), flush=True)
    tag = f"{a.workload}-seed{a.seed}"
    cmd = ["--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--table", str(HERE / "metrics.json")] + expected
    if a.trace:
        (BUILD_ROOT / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(BUILD_ROOT / "traces" / f"{tag}.trace.json")]
    rc, out = harness(cmd)
    lines = out.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if result is not None:
            results = BUILD_ROOT / "results"
            results.mkdir(parents=True, exist_ok=True)
            record = {"workload": a.workload, "seed": a.seed,
                      "seconds": a.seconds, "trace": a.trace, "host": host,
                      "result": result}
            (results / f"{tag}-trace{a.trace}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
