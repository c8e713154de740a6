"""The public surface that no other test reaches: the guards that reject
an argument from another universe, the value-type protocol of the data
classes, and the JSON shapes of the reports that `perfbench` reads.

Equal values built by two routes must compare and hash equal, since
families, spaces, orders and maps are kept in sets and dicts, and each `repr`
has one form.
"""

import re

import pytest

from pretopo import (
    ClosureOperatorTable,
    KnowledgeStructure,
    NotACover,
    NotAPartition,
    PointMap,
    PreTopology,
    QuasiOrder,
    SchemaError,
    SetFamily,
    SkillMultimap,
    Universe,
    UniverseOverflow,
    child_pretopology,
    closure,
    connectedness,
    find_simple_chain,
    from_quasi_order,
    from_relation,
    is_delineated_space,
    is_pre_base_for,
    is_pre_open,
    problem_function,
    product,
    quotient_projection,
    subspace,
    to_quasi_order,
    union_closure,
)

import fixture_files as fixtures

U = Universe(["a", "b"])
V = Universe(["p", "q"])
DISCRETE = union_closure(SetFamily.of(U, [["a"], ["b"]]))
OTHER = union_closure(SetFamily.of(V, [["p"], ["q"]]))
CHAIN = union_closure(SetFamily.of(U, [["a"], ["a", "b"]]))  # {b} is not open
ID = PointMap.identity(U)
MULTIMAP = SkillMultimap(U, V, {"a": [V.subset(["p"])], "b": [V.full]})


def indiscrete(m):
    u = Universe([f"z{i}" for i in range(m)])
    return union_closure(SetFamily.of(u, [u.labels]))


GUARDS = {
    "ItemSet operands": (
        lambda: U.full | V.full, ValueError, "item sets belong to different universes"
    ),
    "SetFamily member": (
        lambda: SetFamily(U, [V.full]), ValueError, "member belongs to a different universe"
    ),
    "KnowledgeStructure states": (
        lambda: KnowledgeStructure(U, OTHER.states),
        ValueError,
        "states family is over a different universe",
    ),
    "is_pre_base_for": (
        lambda: is_pre_base_for(OTHER.states, DISCRETE),
        ValueError,
        "candidate and space use different universes",
    ),
    "Universe.index": (lambda: U.index("c"), ValueError, "unknown item 'c'"),
    "PointMap.inverse": (
        lambda: PointMap(U, V, {"a": "p", "b": "p"}).inverse(),
        ValueError,
        "only bijections invert",
    ),
    "PointMap.then": (
        lambda: ID.then(PointMap.identity(V)),
        ValueError,
        "maps do not compose: universes differ",
    ),
    "map and spaces": (
        lambda: is_pre_open(ID, DISCRETE, OTHER),
        ValueError,
        "map universes do not match the given spaces",
    ),
    "subspace carrier": (
        lambda: subspace(DISCRETE, V.full),
        ValueError,
        "subspace carrier is over a different universe",
    ),
    "partition class": (
        lambda: quotient_projection(DISCRETE, [V.full]),
        NotAPartition,
        "class over a different universe",
    ),
    "child_pretopology": (
        lambda: child_pretopology(DISCRETE, V.full, U.full),
        ValueError,
        "arguments over a different universe",
    ),
    "product of no factors": (
        lambda: product([]), ValueError, "product needs at least one factor"
    ),
    "product over 64 items": (
        lambda: product([indiscrete(9), indiscrete(8)]),
        UniverseOverflow,
        "product universe would have 72 items (cap 64)",
    ),
    "operator subset": (
        lambda: closure(DISCRETE, V.full),
        ValueError,
        "subset belongs to a different universe",
    ),
    "QuasiOrder rows": (
        lambda: QuasiOrder(U, (1,)), ValueError, "relation rows do not match the universe"
    ),
    "competency": (
        lambda: SkillMultimap(U, V, {"a": [U.full], "b": [V.full]}),
        ValueError,
        "competency over a different skill universe",
    ),
    "problem_function": (
        lambda: problem_function(MULTIMAP, U.full),
        ValueError,
        "skill set over a different universe",
    ),
    "relation pair": (
        lambda: from_relation(U, [(V.full, V.full)]),
        ValueError,
        "relation pair over a different universe",
    ),
    "cover universe": (
        lambda: find_simple_chain(DISCRETE, OTHER.states, "a", "b"),
        NotACover,
        "cover is over a different universe",
    ),
    "cover member": (
        lambda: find_simple_chain(CHAIN, SetFamily.of(U, [["a"], ["b"]]), "a", "b"),
        NotACover,
        "cover members must be states of the space",
    ),
    "closure entries": (
        lambda: ClosureOperatorTable.from_obj({"universe": ["a"], "closure": {}}),
        SchemaError,
        "'closure' must be an array of {of, is} entries",
    ),
    "duplicate closure entry": (
        lambda: ClosureOperatorTable.from_obj(
            {"universe": ["a"], "closure": [{"of": [], "is": []}, {"of": [], "is": []}]}
        ),
        SchemaError,
        "duplicate closure entry for {}",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_each_guard_rejects_its_argument(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_equal_values_built_by_two_routes_compare_and_hash_equal():
    read = SetFamily.from_obj({"universe": ["a", "b"], "states": [[], ["a"], ["a", "b"]]})
    pairs = [
        (Universe(["a", "b"]), read.universe),
        (U.subset(["b", "a"]), U.from_mask(0b11)),
        (read, SetFamily.from_masks(U, [0b11, 0b01, 0])),
        (QuasiOrder.from_pairs(U, [("a", "b")]), to_quasi_order(CHAIN)),
        (PreTopology.from_family(read), CHAIN),
        (PointMap.identity(U), PointMap(read.universe, U, {"b": "b", "a": "a"})),
    ]
    for one, other in pairs:
        assert one is not other
        assert one == other and hash(one) == hash(other)
    assert from_quasi_order(to_quasi_order(CHAIN)) == CHAIN
    assert U != V and U.full != V.full and CHAIN != DISCRETE


def test_each_repr_has_its_form():
    assert repr(U) == "Universe(['a', 'b'])"
    assert repr(U.subset(["a"])) == "ItemSet({a})"
    assert repr(CHAIN.states) == "SetFamily({}, {a}, {a,b})"
    assert repr(CHAIN) == "PreTopology(SetFamily({}, {a}, {a,b}))"
    structure = KnowledgeStructure(U, CHAIN.states)
    assert repr(structure) == "KnowledgeStructure(SetFamily({}, {a}, {a,b}))"
    assert repr(to_quasi_order(CHAIN)) == "QuasiOrder(a<=b)"
    assert repr(PointMap(U, V, {"a": "q", "b": "p"})) == "PointMap(a->q, b->p)"


def test_the_containers_iterate_and_index_in_canonical_order():
    assert list(U) == ["a", "b"] and "a" in U and "c" not in U
    s = U.subset(["b"])
    assert list(s) == ["b"] and "b" in s and "a" not in s and "c" not in s
    assert CHAIN.states[1] == U.subset(["a"]) and CHAIN.states[-1] == U.full


def test_the_report_shapes_that_perfbench_reads():
    assert connectedness(fixtures.space("conn")).to_obj() == {
        "connected": True,
        "separation": None,
    }
    assert is_delineated_space(MULTIMAP).to_obj() == {
        "space": True,
        "via_characterization": True,
        "agree": True,
    }
