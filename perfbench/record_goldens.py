"""Record the reference outputs that the correctness gate compares against.

    python3 perfbench/record_goldens.py [--seeds N]

For seeds 0..N-1 this stores the digest of every op's output on
spaces-dense, spaces-sparse and skills, and the ``checked`` count of every
miner check on mine, in ``perfbench/goldens.json``. Counts that are the
same for every recorded seed are stored once; a run with a seed outside
the table compares those and reports the rest as not compared. Run it only
on a commit whose outputs are known to be right: it replaces the record.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import spawn
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
JOBS = 2  # worker processes at once, one per core of the reference machine


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args()
    jobs = [(w, s) for w in WORKLOADS for s in range(args.seeds)]
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda job: spawn(*job)[0], jobs))

    digests: dict[str, dict[str, list[str]]] = {}
    audits: dict[str, dict[str, int]] = {}
    suite = set()
    for (workload, seed), out in zip(jobs, results):
        if workload == "mine":
            audits[str(seed)] = out["checked"]
            suite.add(out["suite_checked"])
        else:
            digests.setdefault(workload, {})[str(seed)] = out["digests"]
    (suite_checked,) = suite
    idents = list(audits["0"])
    constant = [i for i in idents if len({a[i] for a in audits.values()}) == 1]
    varying = [i for i in idents if i not in constant]
    goldens = {
        "mine": {
            "checked": {i: audits["0"][i] for i in constant},
            "seed_dependent": varying,
            "checked_by_seed": {s: {i: a[i] for i in varying} for s, a in audits.items()},
            "suite_checked": suite_checked,
        },
        "digests": digests,
    }
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
