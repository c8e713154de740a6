"""Import hygiene of the package modules, by stdlib `ast` scans.

A name bound by `import` or `from ... import` in a module under
`src/pretopo/` must be loaded somewhere in that module or be listed in its
`__all__`. The base kernels are called only where the base is computed:
in `core`, which caches it per family. The greedy selection of the
primary-items algorithms, `cardinal._select`, is defined once and called
only by `cardinal._greedy_picks`, the one greedy run that the greedy trace
and the matrix both read. The per-byte tables, where masks cross an item
map, have one builder, `maps._byte_tables`: it and the readers of the
tables, `_push` and the `PointMap` table methods, are defined and called
only in `maps`, and no other module reads `_push`. The row-major product
layout (`_box`) and the inclusion of a subspace (`_inclusion`) are
defined only in `maps`. The canonical form of an item's
competencies, `skills._competencies`, is defined only in `skills` and called
only by `skills` and the miner. The CLI registers its verbs at one
`add_parser` call and prints an item set by `str`, not a formatter of its
own. Size limits have one mechanism: no module reads the environment, and
only `core._guard` raises a `BoundExceeded`. The four axioms of a closure
table are checked by one function, `structure._closure_axiom_violation`,
called only by `structure` and the miner. A family's base record,
`SetFamily._derived`, is assigned only in `core`. The ⊆-minimal filter,
`core._minimal_masks`, is defined only in `core`. The package's modules
import each other without a cycle, so none imports another inside a
function to break one.
"""

import ast
from pathlib import Path

import pretopo
from pretopo import errors

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


BASE_KERNELS = {"_irreducible_masks", "_item_meets"}


def kernel_calls(path, kernels):
    """(module, top-level function or None, kernel) for each call of one
    of the kernels in the module."""
    calls = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in kernels:
                calls.append((path.name, owner, name))
    return calls


def test_base_kernels_are_called_only_where_the_base_is_computed():
    calls = [
        c for path in sorted(PACKAGE.glob("*.py")) for c in kernel_calls(path, BASE_KERNELS)
    ]
    assert {kernel for _, _, kernel in calls} == BASE_KERNELS
    assert [c for c in calls if c[0] != "core.py"] == []


def test_the_greedy_selection_runs_only_in_the_one_greedy_run():
    defined = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_select"
    ]
    assert defined == [("cardinal.py", "_select")]
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in kernel_calls(path, {"_select"})]
    assert calls == [("cardinal.py", "_greedy_picks", "_select")]


TABLE_KERNEL = {"_byte_tables", "_push", "_image_tables", "_preimage_tables"}


def kernel_uses(path, names):
    """(module, 'def' or 'call', name) for each definition or call of one
    of the named functions in the module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            uses.append((path.name, "def", node.name))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                uses.append((path.name, "call", name))
    return uses


def test_the_byte_tables_are_built_and_read_only_in_maps():
    uses = [u for path in sorted(PACKAGE.glob("*.py")) for u in kernel_uses(path, TABLE_KERNEL)]
    defined = sorted((module, name) for module, kind, name in uses if kind == "def")
    assert defined == sorted(("maps.py", name) for name in TABLE_KERNEL)
    called = {(module, name) for module, kind, name in uses if kind == "call"}
    assert called == {("maps.py", name) for name in TABLE_KERNEL}


def test_the_product_and_inclusion_layouts_live_in_maps():
    defined = []
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in {"_box", "_inclusion"}:
                defined.append((path.name, node.name))
            elif getattr(node, "id", getattr(node, "attr", None)) == "_push":
                readers.add(path.name)
    assert sorted(defined) == [("maps.py", "_box"), ("maps.py", "_inclusion")]
    assert readers == {"maps.py"}


def homes_and_callers(name):
    """The modules that define the named function, and those that call it."""
    uses = [u for path in sorted(PACKAGE.glob("*.py")) for u in kernel_uses(path, {name})]
    return (
        [module for module, kind, _ in uses if kind == "def"],
        {module for module, kind, _ in uses if kind == "call"},
    )


def test_the_competency_canonical_form_lives_in_skills():
    assert homes_and_callers("_competencies") == (["skills.py"], {"skills.py", "miner.py"})


def test_the_closure_axioms_are_checked_in_one_place():
    got = homes_and_callers("_closure_axiom_violation")
    assert got == (["structure.py"], {"structure.py", "miner.py"})


def test_the_minimal_filter_is_defined_only_in_core():
    assert homes_and_callers("_minimal_masks") == (["core.py"], {"order.py", "skills.py"})


def derived_writes(path):
    """(module, top-level class or None) for each assignment to an
    attribute named `_derived` in the module."""
    found = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "_derived":
                if isinstance(node.ctx, ast.Store):
                    found.append((path.name, owner))
    return found


def test_the_base_record_is_written_only_in_core():
    """A family's base record, `SetFamily._derived`, is assigned only by
    `SetFamily` itself; the only other `_derived`, the delineation record
    of a skill multimap, only by `SkillMultimap`."""
    writes = {w for path in sorted(PACKAGE.glob("*.py")) for w in derived_writes(path)}
    assert writes == {("core.py", "SetFamily"), ("skills.py", "SkillMultimap")}


def test_the_modules_import_each_other_without_a_cycle():
    imports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imports[path.stem] = {
            node.module.split(".")[0] if node.module else alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    assert "structure" in imports["skills"] and "operators" in imports["structure"]
    done = set()
    while len(done) < len(imports):
        ready = {m for m, deps in imports.items() if m not in done and deps <= done}
        assert ready, sorted(set(imports) - done)
        done |= ready


def test_the_cli_registers_its_verbs_from_one_table():
    uses = kernel_uses(PACKAGE / "cli.py", {"add_parser", "_fmt"})
    assert uses == [("cli.py", "call", "add_parser")]


ENVIRONMENT = {"os", "environ", "getenv"}
GUARD_ERRORS = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.BoundExceeded)
}


def test_no_module_reads_the_environment():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = [getattr(node, "attr", getattr(node, "id", None))]
            else:
                continue
            reads += [(path.name, node.lineno, n) for n in names if n in ENVIRONMENT]
    assert reads == []


def raised_names(path):
    """(module, top-level function or None, name) for each name that a
    `raise` statement in the module raises or calls."""
    found = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                found.append((path.name, owner, name))
    return found


def test_size_limits_are_raised_only_by_the_one_guard():
    raised = [r for path in sorted(PACKAGE.glob("*.py")) for r in raised_names(path)]
    assert {"BoundExceeded", "SkillBoundExceeded", "CombinatorialBoundExceeded"} <= GUARD_ERRORS
    assert [r for r in raised if r[2] in GUARD_ERRORS] == []
    assert [r for r in raised if r[:2] == ("core.py", "_guard")] == [
        ("core.py", "_guard", "error")
    ]
    guard = next(
        top
        for top in ast.parse((PACKAGE / "core.py").read_text()).body
        if isinstance(top, ast.FunctionDef) and top.name == "_guard"
    )
    assert "error" in [a.arg for a in guard.args.args]
