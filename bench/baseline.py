"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py [--seeds 1 2 3 ...] [--seconds 24] [--out bench/BASELINE.json]

For each workload it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed.  It prints every metric by name with
its unit, per workload, as the median over seeds with the quartile spread
(as a share of the median), and writes the same numbers, the raw runs and
the machine they ran on to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads


def one_run(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start  # the whole run, set-up and checks too
    return result


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        out[name] = {"median": median, "iqr_share": spread, "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, default=run.BENCH_DIR / "BASELINE.json")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = {
        "commit": run.commit_id(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = one_run(workload, args.seeds[0], args.seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarize(runs),
            "per_layer": {k: v for k, v in traced["metrics"].items()},
            "runs": [{"seed": s, **r} for s, r in zip(args.seeds, runs)],
        }
        record["workloads"][workload] = entry
        print(f"== {workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} ({len(runs)} seeds)")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<42} {m['median']:>14.6g} {m['unit']:<6} spread {m['iqr_share']:.3f}")
        for name, m in entry["per_layer"].items():
            if m["value"]:
                print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
