"""Benchmark entry point for pretopo.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: mine, spaces-dense, spaces-sparse, skills (see README.md).
Every timed repetition runs in a fresh interpreter (``worker.py``) with
``PRETOPO_BOUND`` removed from its environment. Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
one traced repetition runs, and the metrics are its per-layer self times
and work counts, plus the tracing overhead; on ``mine`` every miner check
is also timed on its own, in its own interpreter. Spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import call_counts, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT = 150

# Per-layer span names; each is reported as "<name>_s".
SPAN_NAMES = (
    "core.family", "core.validate", "core.irreducible",
    "structure.classify",
    "operators.closure", "operators.interior", "operators.boundary",
    "operators.derived_set", "operators.fringes", "operators.is_dense",
    "separation.profile",
    "connectivity.connectedness",
    "order.reduction",
    "cardinal.weight", "cardinal.density_exact", "cardinal.greedy", "cardinal.matrix",
    "skills.delineate", "skills.is_delineated_space", "skills.star_condition",
    "skills.cd_delineation",
    "miner.audit", "miner.skills_suite",
)
LAYERS = (
    "core", "structure", "operators", "separation", "connectivity", "order",
    "cardinal", "skills", "miner",
)
COUNTS = (
    "core.states", "core.pairs", "operators.queries",
    "skills.skill_sets", "skills.states", "miner.spaces", "miner.multimaps",
)
RATIOS = ("skills.useful_ratio",)


class WorkerFailed(RuntimeError):
    pass


def worker_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PRETOPO_BOUND"}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(workload: str, seed: int, *extra: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and wall time."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(seed),
                              cwd=ROOT, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {CHILD_TIMEOUT} s: {cmd}") from exc
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit()}


def commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def gate(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    digests = {tuple(r["digests"]) for r in results}
    if len(digests) > 1:
        errors.append("repetitions of one seed gave different outputs")
        failed = max(failed, 1)
    return attempted, failed, errors


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    setups = [spawn(workload, seed, "--setup-only")[0]["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    # past the first MIN_PASSES, a repetition starts only if, at the pace of
    # the longest one so far, it ends within the run time
    while len(reps) < MIN_PASSES or time.monotonic() - start + longest <= seconds:
        result, wall = spawn(workload, seed)
        reps.append(result)
        longest = max(longest, wall)
    setups += [r["setup_s"] for r in reps]
    # the op of mine is one whole pass; elsewhere the ops of every pass are
    # pooled, so a burst of load on the machine moves few of the samples
    ops = [t for r in reps for t in ([r["run_s"]] if workload == "mine" else r["op_s"])]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(r["run_s"] for r in reps), "s"),
        "op_p50_ms": metric(statistics.median(ops) * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    print(f"# {len(reps)} passes, {len(ops)} ops, {len(setups)} set-ups")
    return metrics, reps


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict]]:
    traced, _ = spawn(workload, seed, "--trace")
    spans = traced.pop("spans")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))

    self_s = self_times(spans)
    calls: dict[str, int] = {}
    for name, n in call_counts(spans).items():
        layer = name.split(".")[0]
        calls[layer] = calls.get(layer, 0) + n

    metrics = {f"{name}_s": metric(self_s.get(name, 0.0), "s") for name in SPAN_NAMES}
    metrics.update({f"{layer}.calls": metric(calls.get(layer, 0), "count") for layer in LAYERS})
    counts = traced.get("counts", {})
    metrics.update({name: metric(counts.get(name, 0), "count") for name in COUNTS})
    metrics.update({name: metric(counts.get(name, 0.0), "ratio") for name in RATIOS})
    # the difference of a traced and an untraced pass is lost in the
    # pass-to-pass noise, so the overhead is the measured cost of one span
    # times the number of spans
    metrics["trace.overhead_s"] = metric(traced["span_cost_s"] * len(spans), "s")

    goldens = json.loads((HERE / "goldens.json").read_text())["mine"]
    idents = sorted(set(goldens["checked"]) | set(goldens["seed_dependent"]))
    standalone = {}
    if workload == "mine":
        for ident in idents:
            standalone[ident] = spawn(workload, seed, "--check", ident)[0]
    for ident in idents:
        secs = standalone[ident]["seconds"] if standalone else 0.0
        metrics[f"miner.check.{ident}_s"] = metric(secs, "s")
    if standalone:
        total = sum(r["seconds"] for r in standalone.values())
        print(f"# miner.check.*_s are standalone audit([id], 4) runs: {total:.2f} s in all,"
              f" against miner.audit_s {self_s.get('miner.audit', 0.0):.2f} s shared")
    bad = [i for i, r in standalone.items() if r["status"] == "fails"]
    traced["errors"] = traced["errors"] + [f"standalone {i} fails" for i in bad]
    traced["failed"] += len(bad)
    return metrics, [traced]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pretopo" / "__init__.py").is_file():
        print(f"perfbench: no pretopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, results = per_layer(args.workload, args.seed)
        else:
            metrics, results = end_to_end(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors = gate(results)
    unrecorded = sorted({u for r in results for u in r["unrecorded"]})
    info = machine()
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {info['nproc']}, {info['cpu']}, Python {info['python']}, "
          f"commit {info['commit']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for e in errors[:20]:
        print(f"# FAILED: {e}")
    if unrecorded:
        print(f"# not compared, no recorded value: {', '.join(unrecorded)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
