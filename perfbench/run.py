#!/usr/bin/env python3
"""Build and run the libdragon4 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the library
from src/) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the harness.  The harness prints note lines
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics; this script forwards its output and checks that line.
A traced run (--trace 1) also writes a Chrome trace_event file under
<build dir>/traces/.

Extra flags (--plant-wrong-digit, --plant-spin N, --dump-inputs FILE) pass
through to the harness; perfbench/selftest.py uses them.

Exit status: 0 on a complete run, 2 when the sources are missing or the
arguments are bad, 1 when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("print_shortest", "print_fixed", "parse_roundtrip")
BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must finish within 180 s; the harness measures for --seconds.
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else Path.cwd() / root


def run_quiet(cmd):
    """Runs a build step with its output on stderr (stdout is the result)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def cached_source_dir(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1])
    return None


def build():
    build_dir = build_root() / "perfbench"
    cached = cached_source_dir(build_dir)
    if cached is None or cached.resolve() != BENCH_DIR:
        if cached is not None:
            # A build tree configured for another checkout: start afresh.
            (build_dir / "CMakeCache.txt").unlink()
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench_harness",
               "-j", jobs])
    return build_dir / "perfbench_harness"


def run_harness(cmd):
    """Runs the harness, forwarding stdout; returns (returncode, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)
    if not (SOURCE_DIR / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {SOURCE_DIR}", 2)

    started = time.monotonic()
    harness = build()
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
    cmd += extra
    print(f"perfbench: built in {time.monotonic() - started:.1f} s",
          file=sys.stderr)

    code, last = run_harness(cmd)
    if code != 0:
        fail(f"harness exited with {code}")
    if "--dump-inputs" in extra:
        return
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("harness did not end with a JSON result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")


if __name__ == "__main__":
    main()
