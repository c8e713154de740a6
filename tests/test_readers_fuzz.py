"""The JSON readers under random JSON-shaped input.

Each reader either loads a value or raises one of the two errors the CLI
maps to an exit code: a `SchemaError` for a malformed shape (exit 2) or
a `PretopoError`, such as an `AxiomViolation` for a value of the right
shape that breaks an axiom (exit 1). A bare ValueError, TypeError or
KeyError would reach the CLI as a traceback. The values mix arbitrary
JSON with values of each reader's own shape whose fields are fuzzed, so
that the checks past the first key test are reached too. The same
values, written to files, are run through every verb of the CLI, which
must exit 0, 1 or 2. Universes keep to three labels, so products and
union closures stay small. Derandomized and bounded, so the run is the
same every time.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pretopo.cli import main
from pretopo.core import SetFamily, Universe
from pretopo.errors import PretopoError, SchemaError
from pretopo.maps import PointMap
from pretopo.order import QuasiOrder
from pretopo.skills import SkillMultimap
from pretopo.structure import ClosureOperatorTable

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)

LABELS = st.sampled_from(["a", "b", "c"])
leaf = (
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | LABELS
    | st.text("abz", max_size=2)
)
junk = st.recursive(
    leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(LABELS | st.text("abz", max_size=2), inner, max_size=3),
    max_leaves=8,
)
universe = st.lists(LABELS, min_size=1, max_size=3, unique=True)
labels = universe | st.lists(LABELS | junk, max_size=4) | junk
subset = st.lists(LABELS, max_size=3) | junk
subsets = st.lists(subset, max_size=5) | junk


def sublists(names, min_size=0):
    return st.lists(
        st.sampled_from(names), min_size=min_size, max_size=len(names), unique=True
    )


@st.composite
def multimaps(draw):
    """Well-shaped multimaps; an item may still lack competencies."""
    items, skills = draw(universe), draw(universe)
    comps = st.lists(sublists(skills, min_size=1), max_size=3)
    return {"items": items, "skills": skills, "mu": {t: draw(comps) for t in items}}


@st.composite
def closure_tables(draw):
    """Tables with one entry per subset and a random image, which reach
    the axiom checks."""
    names = draw(universe)
    subsets = [
        [x for i, x in enumerate(names) if m >> i & 1] for m in range(1 << len(names))
    ]
    return {
        "universe": names,
        "closure": [{"of": s, "is": draw(sublists(names))} for s in subsets],
    }


family_obj = st.fixed_dictionaries({"universe": labels, "states": subsets}) | junk
order_obj = st.fixed_dictionaries({"universe": labels, "leq": subsets}) | junk
multimap_obj = st.one_of(
    multimaps(),
    st.fixed_dictionaries(
        {
            "items": labels,
            "skills": labels,
            "mu": st.dictionaries(LABELS | st.text("abz", max_size=2), subsets, max_size=4)
            | junk,
        }
    ),
    junk,
)
map_obj = (
    st.fixed_dictionaries({"map": st.dictionaries(LABELS, LABELS | junk, max_size=3)})
    | junk
)
closure_obj = st.one_of(
    closure_tables(),
    st.fixed_dictionaries(
        {
            "universe": labels,
            "closure": st.lists(
                st.fixed_dictionaries({"of": subset, "is": subset}) | junk, max_size=8
            )
            | junk,
        }
    ),
    junk,
)


def loads_or_domain_error(read, obj):
    try:
        read(obj)
    except (SchemaError, PretopoError):
        pass


@FUZZ
@given(family_obj)
def test_set_family_reader(obj):
    loads_or_domain_error(SetFamily.from_obj, obj)


@FUZZ
@given(order_obj)
def test_quasi_order_reader(obj):
    loads_or_domain_error(QuasiOrder.from_obj, obj)


@FUZZ
@given(multimap_obj)
def test_skill_multimap_reader(obj):
    loads_or_domain_error(SkillMultimap.from_obj, obj)


@FUZZ
@given(closure_obj)
def test_closure_operator_table_reader(obj):
    loads_or_domain_error(ClosureOperatorTable.from_obj, obj)
# maps with exactly the domain's keys reach the codomain lookups too
whole_map_obj = st.fixed_dictionaries(
    {"map": st.fixed_dictionaries({"a": LABELS | junk, "b": LABELS | junk})}
)


@FUZZ
@given(map_obj | whole_map_obj)
def test_point_map_reader(obj):
    domain, codomain = Universe(["a", "b"]), Universe(["a", "b", "c"])
    loads_or_domain_error(lambda o: PointMap.from_obj(o, domain, codomain), obj)


# each verb that reads files: its arguments, with F, M and P standing for a
# fuzzed family, multimap and point-map file; a file holds JSON or raw bytes
VERBS = [
    ["check", "F"],
    ["base", "F"],
    ["closure", "F", "a,b"],
    ["fringe", "F", "-"],
    ["separation", "F"],
    ["connectivity", "F"],
    ["reduce", "F"],
    ["order", "F"],
    ["delineate", "M"],
    ["primary-items", "F", "--method", "greedy"],
    ["primary-items", "F", "--method", "matrix"],
    ["primary-items", "F", "--method", "exact"],
    ["map", "P", "F", "F"],
    ["product", "F", "F"],
]
FILES = {
    key: value.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=4)
    for key, value in (("F", family_obj | order_obj), ("M", multimap_obj), ("P", map_obj))
}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(VERBS), st.data())
def test_cli_verbs_exit_with_a_code(verb, data):
    """Each verb on fuzzed files exits 0, 1 or 2; nothing escapes `main`."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for i, arg in enumerate(verb):
            if arg in FILES:
                path = Path(tmp) / f"{i}.json"
                path.write_bytes(data.draw(FILES[arg]))
                arg = str(path)
            argv.append(arg)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
