"""Run every workload over several seeds and record the results.

    python3 perfbench/baseline.py [--seeds 0-9] [--workloads mine,skills]

Prints every metric per workload with its median over the seeds and the
spread (interquartile range as a share of the median), then writes all
runs, with machine, Python version, commit and seeds, to
``perfbench/BENCH_baseline.json``. Each seed runs ``run.py --trace 0`` for
the ``run_seconds`` of ``BENCHMARK.json``; the first seed also runs
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, machine

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"machine": machine(), "seeds": args.seeds, "run_seconds": seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {"runs": runs, "fail_ratio": failed / attempted, "summary": {}}
        print(f"{workload} fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["summary"][name] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "unit": runs[0]["metrics"][name]["unit"],
            }
            s = entry["summary"][name]
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']}", flush=True)
        entry["traced"] = {"seed": args.seeds[0], **run(workload, args.seeds[0], seconds, 1)}
        record["workloads"][workload] = entry
    out = HERE / "BENCH_baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
