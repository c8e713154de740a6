"""Line coverage of `src/pretopo/` by the Tier-1 suite, with the stdlib only.

Run from anywhere, with pytest installed:

    python tools/line_coverage.py

It runs the whole suite under `tests/` with `pytest.main` in this process,
under `sys.settrace` and `threading.settrace`, with a line tracer on the
frames of `src/pretopo/` only. The executable lines of a module are the
line numbers that `co_lines()` gives for its compiled code objects. It
prints the unexecuted lines of each module and exits 1 when a module other
than `miner.py` has one, outside an `if __name__ == "__main__":` block;
pytest's own exit status when it fails. `miner.py` is reported but not
gated: most of its unexecuted lines record a violation, which only a failing
check reaches. A `__main__` block runs only in a subprocess, which this
tracer does not follow.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pretopo"
UNGATED = {"miner.py"}


def executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main_block_lines(tree):
    """The lines of each `if __name__ == "__main__":` body of a module."""
    return {
        line
        for node in tree.body
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
        for stmt in node.body
        for line in range(stmt.lineno, stmt.end_lineno + 1)
    }


def main():
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the CLI tests that start a subprocess import the package from there
    paths = [src, os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    prefix = str(PACKAGE) + "/"
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    failed = False
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        missed = sorted(n for n in lines if (str(path), n) not in hit)
        gated = [] if path.name in UNGATED else sorted(
            set(missed) - main_block_lines(ast.parse(source))
        )
        failed = failed or bool(gated)
        print(f"{path.name}: {len(lines) - len(missed)}/{len(lines)} lines run"
              + (f", unexecuted: {', '.join(map(str, missed))}" if missed else ""))
    return status or int(failed)


if __name__ == "__main__":
    sys.exit(main())
