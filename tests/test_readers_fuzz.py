"""The JSON readers under random JSON-shaped input.

Each reader either loads a value or raises one of the two errors the CLI
maps to an exit code: a `SchemaError` for a malformed shape (exit 2) or
a `PretopoError`, such as an `AxiomViolation` for a value of the right
shape that breaks an axiom (exit 1). A bare ValueError, TypeError or
KeyError would reach the CLI as a traceback. The values mix arbitrary
JSON with values of each reader's own shape whose fields are fuzzed, so
that the checks past the first key test are reached too. Derandomized
and bounded, so the run is the same every time and takes about 2 s.
"""

from hypothesis import given, settings, strategies as st

from pretopo.core import SetFamily
from pretopo.errors import PretopoError, SchemaError
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
