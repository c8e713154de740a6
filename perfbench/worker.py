"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last line of output:

    python3 perfbench/worker.py --workload W --seed S --spawned T [--trace]
        [--setup-only] [--check ID]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so that set-up time counts interpreter start-up. The clock is
system-wide on Linux.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pretopo  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, plain_call, span_cost  # noqa: E402


def _inputs(workload: str, seed: int):
    if workload == "mine":
        return [seed]
    if workload == "skills":
        return wl.make_multimaps(seed)
    return wl.make_spaces(workload, seed)


def _op(workload: str):
    if workload == "mine":
        return lambda call, inp: wl.mine_job(call, pretopo, inp)
    if workload == "skills":
        return lambda call, inp: wl.analyse_multimap(call, pretopo, inp)
    return lambda call, inp: wl.analyse_space(call, pretopo, inp)


def _check(workload: str, inp, out, goldens: dict, seed: int) -> tuple[list[str], list[str]]:
    if workload == "mine":
        return wl.check_mine(out, goldens["mine"], seed)
    if workload == "skills":
        return wl.check_multimap(inp, out), []
    return wl.check_space(inp, out), []


def _standalone_check(ident: str, seed: int) -> dict:
    start = time.monotonic()
    (report,) = pretopo.miner.audit([ident], wl.MINE_N, seed=seed)
    elapsed = time.monotonic() - start
    return {"check": ident, "seconds": elapsed, "status": report.status}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check")
    args = ap.parse_args(argv)

    if args.check:
        print(json.dumps(_standalone_check(args.check, args.seed)))
        return 0

    inputs = _inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    call = tracer.call if tracer else plain_call
    op = _op(args.workload)
    outputs, op_s, raised = [], [], []
    start = time.monotonic()
    for i, inp in enumerate(inputs):
        t0 = time.monotonic()
        try:
            if tracer:
                with tracer.op(i):
                    out = op(call, inp)
            else:
                out = op(call, inp)
        except Exception as exc:  # an op that raises counts as failed
            out = None
            raised.append(f"op {i}: {type(exc).__name__}: {exc}")
        op_s.append(time.monotonic() - t0)
        outputs.append(out)
    run_s = time.monotonic() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    goldens = json.loads((Path(__file__).parent / "goldens.json").read_text())
    digests = [wl.digest(out) for out in outputs]
    recorded = goldens["digests"].get(args.workload, {}).get(str(args.seed))
    failed, errors, unrecorded = 0, list(raised), []
    if args.workload != "mine" and recorded is None:
        unrecorded.append(f"output digests for seed {args.seed}")
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        if out is None:
            failed += 1
            continue
        errs, unrec = _check(args.workload, inp, out, goldens, args.seed)
        if recorded is not None and (
            len(recorded) != len(outputs) or digests[i] != recorded[i]
        ):
            errs.append(f"op {i}: output digest {digests[i]} is not the recorded one")
        failed += bool(errs)
        errors += errs
        unrecorded += unrec
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "op_s": op_s,
        "rss_mb": rss_mb,
        "attempted": len(inputs),
        "failed": failed,
        "errors": errors,
        "unrecorded": unrecorded,
        "digests": digests,
    }
    if args.workload == "mine" and not raised:
        result["checked"] = {k: v[0] for k, v in outputs[0]["audit"].items()}
        result["suite_checked"] = outputs[0]["suite"]["p-monotone-union"][0]
    if tracer:
        result["spans"] = tracer.spans
        result["span_cost_s"] = span_cost()
        if not failed:
            result["counts"] = wl.trace_counts(args.workload, pretopo, inputs, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
