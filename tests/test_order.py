"""Quasi-order correspondence, atoms, antimatroids, discriminative reduction."""

import itertools

import pytest

from pretopo import (
    AxiomViolation,
    KnowledgeStructure,
    NotQuasiOrdinal,
    PreTopology,
    QuasiOrder,
    SchemaError,
    SetFamily,
    Universe,
    atoms_at,
    discriminative_reduction,
    from_quasi_order,
    is_antimatroid,
    is_pre_quotient,
    is_quasi_ordinal,
    minimal_state,
    separation_profile,
    to_quasi_order,
    union_closure,
)
from pretopo.miner import enumerate_spaces, sample_quasi_orders, sample_spaces

import fixture_files as fixtures

ABC = Universe(["a1", "a2", "a3"])
CHAIN = PreTopology.from_family(SetFamily.from_masks(ABC, [0b000, 0b001, 0b011, 0b111]))
POWER = PreTopology.from_family(SetFamily.from_masks(ABC, range(8)))


def test_powerset_gives_the_equality_order():
    order = to_quasi_order(POWER)
    strict = [
        (a, b)
        for a in ABC.labels
        for b in ABC.labels
        if a != b and order.leq(a, b)
    ]
    assert strict == []
    assert all(order.leq(a, a) for a in ABC.labels)


def test_chain_space_gives_the_chain_order():
    order = to_quasi_order(CHAIN)
    assert order.leq("a1", "a2") and order.leq("a1", "a3") and order.leq("a2", "a3")
    assert not order.leq("a2", "a1")
    assert not order.leq("a3", "a2")


def test_non_quasi_ordinal_space_is_rejected():
    with pytest.raises(NotQuasiOrdinal):
        to_quasi_order(fixtures.space("e1_tau"))


def test_from_equality_order_is_the_powerset():
    order = QuasiOrder.from_pairs(ABC, [])
    assert from_quasi_order(order).states.masks() == set(range(8))


def test_from_chain_order():
    order = QuasiOrder.from_pairs(ABC, [("a1", "a2"), ("a1", "a3"), ("a2", "a3")])
    assert from_quasi_order(order).states.masks() == {0b000, 0b001, 0b011, 0b111}


def test_from_fork_order():
    order = QuasiOrder.from_pairs(ABC, [("a1", "a2"), ("a1", "a3")])
    assert from_quasi_order(order).states.masks() == {
        0b000,
        0b001,
        0b011,
        0b101,
        0b111,
    }


def test_round_trip_space_to_order_to_space():
    for space in enumerate_spaces(3):
        if not is_quasi_ordinal(space):
            continue
        back = from_quasi_order(to_quasi_order(space))
        assert back.states.masks() == space.states.masks()


def test_round_trip_order_to_space_to_order():
    for n in (2, 3, 4):
        for order in sample_quasi_orders(n, 50, seed=n):
            assert to_quasi_order(from_quasi_order(order)) == order


def test_minimal_state_examples():
    assert minimal_state(CHAIN, "a2").mask == 0b011
    assert minimal_state(POWER, "a3").mask == 0b100
    assert minimal_state(fixtures.space("e1_tau"), "z1") is None


def test_atoms_at_examples():
    got = [sorted(m.labels) for m in atoms_at(fixtures.space("e1_tau"), "z1").members]
    assert got == [["z1", "z2"], ["z1", "z3"], ["z1", "z4"]]
    assert [m.mask for m in atoms_at(POWER, "a2").members] == [0b010]


def test_antimatroid_examples():
    assert is_antimatroid(CHAIN)
    assert is_antimatroid(POWER)
    assert not is_antimatroid(fixtures.space("conn"))


def removable_element_scan(space):
    """The antimatroid test as a scan of each state's elements, without
    the inner fringe."""
    for m in space.states.masks():
        if m == 0:
            continue
        rest = m
        found = False
        while rest:
            low = rest & -rest
            rest ^= low
            if space.states.has_mask(m & ~low):
                found = True
                break
        if not found:
            return False
    return True


def test_antimatroid_agrees_with_a_scan_of_removable_elements():
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    spaces += [s for n in (5, 6) for s in sample_spaces(n, 300, seed=4)]
    verdicts = [is_antimatroid(space) for space in spaces]
    assert verdicts == [removable_element_scan(space) for space in spaces]
    assert 0 < sum(verdicts) < len(spaces)


def test_reduction_of_the_six_point_space():
    space = fixtures.space("ord6")
    red = discriminative_reduction(space)
    assert [list(c.labels) for c in red.classes] == [
        ["z1", "z3"],
        ["z2"],
        ["z4"],
        ["z5", "z6"],
    ]
    assert red.reduced.universe.labels == ("z1+z3", "z2", "z4", "z5+z6")
    assert len(red.reduced.states) == 12
    assert separation_profile(red.reduced).t0
    assert is_pre_quotient(red.projection, space, red.reduced)


def test_reduction_of_a_discriminative_space_is_the_identity():
    space = fixtures.space("e1_tau")
    red = discriminative_reduction(space)
    assert all(len(c) == 1 for c in red.classes)
    assert red.reduced.states.masks() == space.states.masks()
    assert red.projection.is_bijective()


def test_reduction_of_the_indiscrete_space_collapses_everything():
    space = PreTopology.from_family(SetFamily.from_masks(ABC, [0, 7]))
    red = discriminative_reduction(space)
    assert [list(c.labels) for c in red.classes] == [["a1", "a2", "a3"]]
    assert red.reduced.universe.labels == ("a1+a2+a3",)
    assert len(red.reduced.states) == 2


def test_quasi_order_validation():
    with pytest.raises(AxiomViolation) as exc:
        QuasiOrder(ABC, (0b001, 0b000, 0b100))
    assert "reflexive" in str(exc.value)
    with pytest.raises(AxiomViolation) as exc:
        QuasiOrder(ABC, (0b011, 0b110, 0b100))
    assert "transitive" in str(exc.value)


def test_quasi_order_json_round_trip():
    order = QuasiOrder.from_pairs(ABC, [("a1", "a2"), ("a1", "a3"), ("a2", "a3")])
    again = QuasiOrder.from_obj(order.to_obj())
    assert again == order
    with pytest.raises(SchemaError):
        QuasiOrder.from_obj({"universe": ["a"]})
    with pytest.raises(SchemaError):
        QuasiOrder.from_obj({"universe": ["a"], "leq": "nope"})


def test_from_quasi_order_is_intersection_closed():
    for order in sample_quasi_orders(4, 30, seed=7):
        space = from_quasi_order(order)
        assert is_quasi_ordinal(space)
        masks = sorted(space.states.masks())
        for a, b in itertools.combinations(masks, 2):
            assert a & b in space.states.masks()
