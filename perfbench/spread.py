#!/usr/bin/env python3
"""Check that the benchmark is steady: run it once per seed and measure spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--out FILE] [--against FILE]

Run from the repository root.  For every workload it runs perfbench/run.py
once per seed (seeds first-seed .. first-seed + seeds - 1, tracing off) and
reports, for each end-to-end metric, the median and the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median.  That spread must stay within the metric's bound from
BENCHMARK.json, and should stay below a third of it.  --out saves the
medians; --against compares this run's medians with a saved file: each may
be worse by at most the bound.  Exit status 1 on any violation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: failed {result['failed']} "
              f"of {result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    medians = {}
    bad = False
    for workload in workloads:
        runs = [run_once(spec, workload, args.first_seed + i)
                for i in range(args.seeds)]
        medians[workload] = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            medians[workload][m["name"]] = med
            verdict = "ok"
            if share > m["bound"]:
                verdict, bad = "OVER BOUND", True
            elif share > m["bound"] / 3:
                verdict = "over a third"
            line = (f"{workload:16} {m['name']:16} median {med:12.6g} "
                    f"spread {share:7.2%} bound {m['bound']:.0%} {verdict}")
            if workload in before:
                old = before[workload][m["name"]]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f" | vs saved {worse:+.2%}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    bad = True
            print(line, flush=True)
            print("    " + " ".join(f"{v:.6g}" for v in values), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(medians, indent=1))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
