"""Every name a package module imports is read there or re-exported.

A stdlib `ast` scan: a name bound by `import` or `from ... import` in a
module under `src/pretopo/` must be loaded somewhere in that module or be
listed in its `__all__`.
"""

import ast
from pathlib import Path

import pretopo

PACKAGE = Path(pretopo.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_every_import_is_used_or_exported():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [u for path in modules for u in unused_imports(path)] == []
