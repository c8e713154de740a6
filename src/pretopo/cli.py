"""Command-line front end.

One verb per module area. Families, quasi-orders, skill multimaps, and
maps are read from JSON files; `--format table` (the default) prints a
human-readable report and `--format json` the machine form. Exit codes:
0 on success, 1 on a domain error (the report names the error class),
2 on unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cardinal, connectivity, maps, miner, operators, order, separation, skills, structure
from .core import (
    ItemSet,
    PreTopology,
    SetFamily,
    Universe,
    KnowledgeStructure,
    irreducible_states,
    union_closure,
)
from .errors import PretopoError, SchemaError
from .order import QuasiOrder
from .skills import SkillMultimap


def _read(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError("JSON nested too deeply") from None


def _family(path: str) -> SetFamily:
    return SetFamily.from_obj(_read(path))


def _space(path: str) -> PreTopology:
    """A family that already is a pre-topology is taken as given;
    anything else is treated as a generating family."""
    fam = _family(path)
    try:
        return PreTopology.from_family(fam)
    except PretopoError:
        return union_closure(fam)


def _subset(universe: Universe, text: str) -> ItemSet:
    if text in ("", "-"):
        return universe.empty
    labels = [part.strip() for part in text.split(",")]
    for label in labels:
        if label not in universe.labels:
            raise SchemaError(f"unknown item {label!r}")
    return universe.subset(labels)


def _emit(args, obj: dict | None, table: str) -> int:
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(table)
    return 0


def _render_matrix(row_labels, col_sets, t) -> str:
    headers = [str(c) for c in col_sets]
    left = max([len(r) for r in row_labels], default=0)
    lines = [" " * left + "  " + "  ".join(headers)]
    for label, row in zip(row_labels, t):
        cells = [str(v).center(len(h)) for v, h in zip(row, headers)]
        lines.append(label.ljust(left) + "  " + "  ".join(cells))
    return "\n".join(lines)


def _initial_matrix(base: SetFamily) -> tuple[list[str], list[ItemSet], list[list[int]]]:
    labels = list(base.universe.labels)
    cols = [s for s in base.members if not s.is_empty()]
    t = [[1 if c.mask >> i & 1 else 0 for c in cols] for i in range(len(labels))]
    return labels, cols, t


# ------------------------------------------------------------------- verbs


def _cmd_check(args) -> int:
    fam = _family(args.family)
    KnowledgeStructure.from_family(fam)
    c = structure.classify(fam)
    obj = c.to_obj()
    obj["items"] = len(fam.universe)
    obj["states"] = len(fam.members)
    lines = [
        f"items {len(fam.universe)}",
        f"states {len(fam.members)}",
        f"knowledge structure {str(c.is_knowledge_structure).lower()}",
        f"knowledge space {str(c.is_knowledge_space).lower()}",
        f"quasi ordinal {str(c.is_quasi_ordinal).lower()}",
        f"topology {str(c.is_topology).lower()}",
    ]
    return _emit(args, obj, "\n".join(lines))


def _cmd_base(args) -> int:
    space = _space(args.family)
    base = irreducible_states(space)
    w = cardinal.weight(space)
    obj = {"base": [list(s.labels) for s in base.members], "weight": w}
    lines = [str(s) for s in base.members]
    lines.append(f"weight {w}")
    return _emit(args, obj, "\n".join(lines))


def _cmd_closure(args) -> int:
    space = _space(args.family)
    a = _subset(space.universe, args.set)
    cl = operators.closure(space, a)
    itr = operators.interior(space, a)
    bd = operators.boundary(space, a)
    der = operators.derived_set(space, a)
    dense = operators.is_dense(space, a)
    obj = {
        "set": list(a.labels),
        "closure": list(cl.labels),
        "interior": list(itr.labels),
        "boundary": list(bd.labels),
        "derived": list(der.labels),
        "dense": dense,
    }
    lines = [
        f"set {a}",
        f"closure {cl}",
        f"interior {itr}",
        f"boundary {bd}",
        f"derived {der}",
        f"dense {str(dense).lower()}",
    ]
    return _emit(args, obj, "\n".join(lines))


def _cmd_fringe(args) -> int:
    space = _space(args.family)
    w = _subset(space.universe, args.state)
    rep = operators.fringes(space, w)
    obj = {
        "state": list(w.labels),
        "inner": list(rep.inner.labels),
        "outer": list(rep.outer.labels),
        "locally_closed": list(rep.full.labels),
    }
    lines = [
        f"state {w}",
        f"inner {rep.inner}",
        f"outer {rep.outer}",
        f"locally closed {rep.full}",
    ]
    return _emit(args, obj, "\n".join(lines))


def _cmd_separation(args) -> int:
    space = _space(args.family)
    p = separation.separation_profile(space)
    obj = p.to_obj()
    rows = [
        ("t0", p.t0),
        ("t1", p.t1),
        ("t2", p.t2),
        ("regular", p.regular_property),
        ("t3", p.t3),
        ("normal", p.normal_property),
        ("t4", p.t4),
        ("discriminative", p.discriminative),
        ("bi-discriminative", p.bi_discriminative),
        ("completely discriminative", p.completely_discriminative),
    ]
    lines = [f"{name} {str(val).lower()}" for name, val in rows]
    return _emit(args, obj, "\n".join(lines))


def _cmd_connectivity(args) -> int:
    space = _space(args.family)
    rep = connectivity.connectedness(space)
    clopen = connectivity.clopen_sets(space)
    tight = connectivity.is_tight_n_connected(space, 1)
    graded = connectivity.is_well_graded(space.states)
    obj = rep.to_obj()
    obj["clopen"] = [list(c.labels) for c in clopen]
    obj["tight_1_connected"] = tight
    obj["well_graded"] = graded
    lines = [f"connected {str(rep.connected).lower()}"]
    if rep.separation is not None:
        lines.append(
            f"separation {rep.separation[0]} {rep.separation[1]}"
        )
    lines.append("clopen " + " ".join(map(str, clopen)))
    lines.append(f"tight 1-connected {str(tight).lower()}")
    lines.append(f"well graded {str(graded).lower()}")
    return _emit(args, obj, "\n".join(lines))


def _cmd_reduce(args) -> int:
    fam = _family(args.family)
    ks = KnowledgeStructure.from_family(fam)
    red = order.discriminative_reduction(ks)
    obj = red.to_obj()
    lines = ["classes " + " ".join(map(str, red.classes))]
    lines += map(str, red.reduced.states.members)
    return _emit(args, obj, "\n".join(lines))


def _cmd_order(args) -> int:
    obj_in = _read(args.family)
    if isinstance(obj_in, dict) and "leq" in obj_in:
        qo = QuasiOrder.from_obj(obj_in)
        space = order.from_quasi_order(qo)
        obj = space.to_obj()
        lines = [str(s) for s in space.states.members]
        return _emit(args, obj, "\n".join(lines))
    fam = SetFamily.from_obj(obj_in)
    space = PreTopology.from_family(fam)
    qo = order.to_quasi_order(space)
    obj = qo.to_obj()
    lines = [f"{a} <= {b}" for a, b in obj["leq"]]
    if not lines:
        lines = ["(discrete order)"]
    return _emit(args, obj, "\n".join(lines))


def _cmd_delineate(args) -> int:
    m = SkillMultimap.from_obj(_read(args.multimap))
    delin = skills.delineate(m, bound=args.bound)
    rep = skills.is_delineated_space(m, bound=args.bound)
    star = skills.star_condition(m, bound=args.bound)
    cd = skills.is_completely_discriminative_delineation(m)
    obj = {
        "states": [list(s.labels) for s in delin.states.members],
        "knowledge_space": rep.space,
        "characterization_agrees": rep.agree,
        "star_condition": star,
        "completely_discriminative": cd,
    }
    lines = [str(s) for s in delin.states.members]
    lines.append(f"knowledge space {str(rep.space).lower()}")
    lines.append(f"characterization agrees {str(rep.agree).lower()}")
    lines.append(f"star condition {str(star).lower()}")
    lines.append(f"completely discriminative {str(cd).lower()}")
    return _emit(args, obj, "\n".join(lines))


def _cmd_primary_items(args) -> int:
    fam = _family(args.family)
    try:
        space = PreTopology.from_family(fam)
        base = irreducible_states(space)
    except PretopoError:
        space = union_closure(fam)
        base = SetFamily.from_masks(
            fam.universe, {s.mask for s in fam.members if not s.is_empty()}
        )
    if args.method == "greedy":
        tr = cardinal.greedy_primary_items(space)
        obj = {"method": "greedy", "D": list(tr.result.labels), "size": len(tr.result.labels)}
        obj["trace"] = tr.to_obj()
        lines = []
        for item, blk in tr.picked:
            lines.append(
                f"picked {item} block " + " ".join(map(str, blk.members))
            )
        lines.append(f"D = {tr.result}")
        lines.append(f"|D| = {len(tr.result.labels)}")
        return _emit(args, obj, "\n".join(lines))
    if args.method == "exact":
        k, d = cardinal.density_exact(space, bound=args.bound)
        obj = {"method": "exact", "D": list(d.labels), "size": k, "density": k}
        lines = [f"D = {d}", f"|D| = {k}", f"d(Q) = {k}"]
        return _emit(args, obj, "\n".join(lines))
    result, state = cardinal.matrix_primary_items(base)
    obj = {
        "method": "matrix",
        "D": list(result.labels),
        "size": len(result.labels),
        "state": state.to_obj(),
    }
    row0, cols0, t0 = _initial_matrix(base)
    final = state.final_submatrix()
    lines = [
        _render_matrix(row0, cols0, t0),
        "",
        _render_matrix(state.rows, state.cols, state.t),
        "",
        _render_matrix(state.rows[: len(final)], state.cols, final),
        "",
        f"D = {result}",
        f"|D| = {len(result.labels)}",
    ]
    return _emit(args, obj, "\n".join(lines))


def _cmd_map(args) -> int:
    x = _space(args.domain)
    y = _space(args.codomain)
    f = maps.PointMap.from_obj(_read(args.map), x.universe, y.universe)
    cls = maps.classify_map(f, x, y)
    witness = maps.pre_continuity_witness(f, x, y)
    obj = cls.to_obj()
    obj["witness"] = None if witness is None else list(witness.labels)
    quot = "n/a" if cls.pre_quotient is None else str(cls.pre_quotient).lower()
    lines = [
        f"pre-continuous {str(cls.pre_continuous).lower()}",
        f"pre-open {str(cls.pre_open).lower()}",
        f"pre-closed {str(cls.pre_closed).lower()}",
        f"pre-quotient {quot}",
        f"pre-homeomorphism {str(cls.pre_homeomorphism).lower()}",
    ]
    if witness is not None:
        lines.insert(1, f"witness {witness}")
    return _emit(args, obj, "\n".join(lines))


def _cmd_product(args) -> int:
    factors = [_space(path) for path in args.families]
    prod = maps.product(factors)
    obj = prod.to_obj() if args.format == "json" else None
    return _emit(args, obj, f"items {len(prod.universe)}\nstates {len(prod.states)}")


def _cmd_mine(args) -> int:
    if args.n < 1:
        raise SchemaError(f"-n must be at least 1, got {args.n}")
    suite = "all"
    if args.suite != "all":
        suite = [s.strip() for s in args.suite.split(",")]
        for ident in suite:
            if ident not in miner.available_theorems():
                raise SchemaError(f"unknown theorem id: {ident!r}")
    reports = miner.audit(suite, args.n, seed=args.seed, bound=args.bound)
    text = miner.reports_to_json(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        print(text, end="")
    else:
        width = max(len(r.theorem) for r in reports)
        for r in reports:
            line = (
                f"{r.theorem.ljust(width)}  {r.status:10s}  "
                f"checked={r.checked}  violations={len(r.violations)}"
            )
            print(line)
    return 0


_SUBSET = "comma-separated items; '-' for the empty set"
_ARG_HELP = {"set": _SUBSET, "state": _SUBSET}

# verb -> (handler, help, positional arguments); `_parser` adds the
# options that only one verb has
_VERBS = {
    "check": (_cmd_check, "validate and classify a family", ("family",)),
    "base": (_cmd_base, "minimal pre-base and weight", ("family",)),
    "closure": (_cmd_closure, "operators on a subset", ("family", "set")),
    "fringe": (_cmd_fringe, "fringes of a state", ("family", "state")),
    "separation": (_cmd_separation, "separation profile", ("family",)),
    "connectivity": (_cmd_connectivity, "connectedness report", ("family",)),
    "reduce": (_cmd_reduce, "discriminative reduction", ("family",)),
    "order": (_cmd_order, "quasi-order of a space, or the space of a quasi-order", ("family",)),
    "delineate": (_cmd_delineate, "delineate a skill multimap", ("multimap",)),
    "primary-items": (_cmd_primary_items, "dense item sets", ("family",)),
    "map": (_cmd_map, "classify a point map", ("map", "domain", "codomain")),
    "product": (_cmd_product, "product of spaces", ()),
    "mine": (_cmd_mine, "audit theorems over enumerated spaces", ()),
}


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output form (default: table)",
    )
    common.add_argument(
        "--bound", type=int, default=None,
        help=(
            "override the size guards of this verb's own calls (mine: the "
            "space stream; delineate: skills and pool; primary-items exact: "
            "the universe)"
        ),
    )
    p = argparse.ArgumentParser(
        prog="pretopo",
        description="Finite pre-topologies and knowledge spaces.",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (fn, text, positionals) in _VERBS.items():
        sp = verbs[verb] = sub.add_parser(verb, parents=[common], help=text)
        for name in positionals:
            sp.add_argument(name, help=_ARG_HELP.get(name))
        sp.set_defaults(fn=fn)
    verbs["primary-items"].add_argument(
        "--method", choices=("greedy", "matrix", "exact"), default="greedy"
    )
    verbs["product"].add_argument("families", nargs="+")
    mine = verbs["mine"]
    mine.add_argument("-n", type=int, default=3, help="universe size")
    mine.add_argument("--suite", default="all", help="'all' or comma-separated theorem ids")
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument("--out", default=None, help="write the JSON report here")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(
            f"JSONDecodeError: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PretopoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
