"""Digests of the program's outputs, to check that a change leaves them
byte-identical. Stdlib only.

Run from anywhere:

    python tools/output_digest.py

It prints one `<artefact> <sha256[:16]>` line for each of:

- `reports_to_json(audit("all", n))` for n = 1..4, and for
  `audit("all", 5, samples=2000)`;
- `run_skills_suite(3, 3, 2)`, as JSON;
- stdout, stderr and exit code of every one-file CLI verb on every
  `fixtures/*.json`, in both formats; `closure` and `fringe` are given
  the empty set, `-`.

To check a change, run it on a checkout of the parent commit and on the
change and diff the two outputs.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pretopo import cli, miner  # noqa: E402

# one-file verbs, with the arguments that follow the file
VERBS = {
    "check": [],
    "base": [],
    "closure": ["-"],
    "fringe": ["-"],
    "separation": [],
    "connectivity": [],
    "reduce": [],
    "order": [],
    "delineate": [],
    "primary-items": [],
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}"


def artefacts():
    for n in range(1, 5):
        yield f"audit-n{n}", miner.reports_to_json(miner.audit("all", n))
    yield "audit-n5-samples2000", miner.reports_to_json(
        miner.audit("all", 5, samples=2000)
    )
    yield "skills-suite-3-3-2", json.dumps(miner.run_skills_suite(3, 3, 2))
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        for verb, rest in VERBS.items():
            for fmt in ("table", "json"):
                argv = [verb, str(path), *rest, "--format", fmt]
                yield f"cli-{verb}-{path.stem}-{fmt}", run_cli(argv)


def main() -> int:
    for name, text in artefacts():
        print(name, digest(text), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
