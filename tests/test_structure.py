"""Classification flags, relation/closure-operator constructors, pre-base predicates."""

import pytest

from pretopo import (
    AxiomViolation,
    ClosureOperatorTable,
    EmptyMemberError,
    NotAPreBase,
    PreTopology,
    SetFamily,
    Universe,
    classify,
    closure,
    enumerate_spaces,
    from_closure_operator,
    from_relation,
    irreducible_states,
    is_atom_pre_base,
    is_minimal_pre_base,
    union_closure,
)

from pretopo import structure
from pretopo.operators import closure_table

import fixture_files as fixtures


def powerset_space(labels):
    uni = Universe(labels)
    return PreTopology.from_family(
        SetFamily.from_masks(uni, range(1 << len(labels)))
    )


def test_classify_space_that_is_not_a_topology():
    uni = Universe(["x", "y", "s", "t"])
    f = SetFamily.of(uni, [[], ["x", "y"], ["x", "s"], ["x", "y", "s"], ["x", "y", "s", "t"]])
    c = classify(f)
    assert c.is_knowledge_structure and c.is_knowledge_space
    assert not c.is_topology


def test_classify_e1_tau_not_quasi_ordinal():
    c = classify(fixtures.space("e1_tau").states)
    assert c.is_knowledge_space and not c.is_quasi_ordinal


def test_classify_powerset_all_flags():
    c = classify(powerset_space(["z1", "z2"]).states)
    assert (
        c.is_knowledge_structure
        and c.is_knowledge_space
        and c.is_topology
        and c.is_quasi_ordinal
    )


def test_classify_flags_are_monotone():
    from pretopo.miner import enumerate_spaces

    for space in enumerate_spaces(3):
        c = classify(space.states)
        if c.is_topology:
            assert c.is_quasi_ordinal
        if c.is_quasi_ordinal:
            assert c.is_knowledge_space
        if c.is_knowledge_space:
            assert c.is_knowledge_structure


# ---------------------------------------------------------------- relations


def test_from_relation_vacuous_gives_powerset():
    uni = Universe(["z1", "z2"])
    assert len(from_relation(uni, []).states.members) == 4


def test_from_relation_single_pair():
    uni = Universe(["z1", "z2"])
    k, h = uni.subset(["z1"]), uni.subset(["z2"])
    space = from_relation(uni, [(k, h)])
    assert [list(m.labels) for m in space.states.members] == [
        [],
        ["z1"],
        ["z1", "z2"],
    ]


def test_from_relation_symmetric_pair():
    uni = Universe(["z1", "z2", "z3"])
    k, h = uni.subset(["z1"]), uni.subset(["z2"])
    space = from_relation(uni, [(k, h), (h, k)])
    assert [list(m.labels) for m in space.states.members] == [
        [],
        ["z3"],
        ["z1", "z2"],
        ["z1", "z2", "z3"],
    ]


def test_from_relation_rejects_empty_member():
    uni = Universe(["z1", "z2"])
    with pytest.raises(EmptyMemberError):
        from_relation(uni, [(uni.empty, uni.subset(["z1"]))])


# --------------------------------------------------------- closure operators


def _closure_table(space):
    uni = space.universe
    return ClosureOperatorTable(
        uni,
        {m: closure(space, uni.from_mask(m)).mask for m in range(1 << len(uni))},
    )


def test_from_closure_operator_identity_is_discrete():
    uni = Universe(["z1", "z2"])
    table = ClosureOperatorTable(uni, {m: m for m in range(4)})
    assert len(from_closure_operator(table).states.members) == 4


def test_from_closure_operator_indiscrete():
    uni = Universe(["z1", "z2", "z3"])
    table = ClosureOperatorTable(uni, {0: 0, **{m: 7 for m in range(1, 8)}})
    space = from_closure_operator(table)
    assert [m.mask for m in space.states.members] == [0, 7]


def test_from_closure_operator_round_trips_e0():
    space = fixtures.space("e0")
    assert from_closure_operator(_closure_table(space)).states == space.states


def test_from_closure_operator_round_trips_all_fixtures():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        if len(space.universe) > 6:
            continue
        assert from_closure_operator(_closure_table(space)).states == space.states, name


def test_from_closure_operator_reproduces_every_table_up_to_four_points():
    """Every valid table is the closure table of exactly one space, so
    this covers every valid table on 1-4 items: the space built from it
    is the one it came from, and its closure is the table."""
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    assert len(spaces) == 2321
    for space in spaces:
        table = ClosureOperatorTable.of_space(space)
        back = from_closure_operator(table)
        assert back.states == space.states
        uni = space.universe
        for b, c in table.assignment.items():
            assert closure(back, uni.from_mask(b)).mask == c


def test_closure_table_axiom_violations():
    uni = Universe(["z1", "z2"])
    with pytest.raises(AxiomViolation):  # not extensive
        ClosureOperatorTable(uni, {0: 0, 1: 0, 2: 2, 3: 3})
    with pytest.raises(AxiomViolation):  # not idempotent
        ClosureOperatorTable(uni, {0: 0, 1: 3, 2: 2, 3: 1})
    uni3 = Universe(["z1", "z2", "z3"])
    table = {m: m for m in range(8)}
    table[1] = 5  # c({z1}) = {z1,z3} but c({z1,z2}) = {z1,z2}: not monotone
    with pytest.raises(AxiomViolation):
        ClosureOperatorTable(uni3, table)


def test_the_closure_of_a_space_is_not_checked_again(monkeypatch):
    """`of_space` trusts the closure of a space, which satisfies the
    axioms by construction, and gives the table that the checked
    constructor accepts."""
    calls = []
    real = structure._closure_axiom_violation
    monkeypatch.setattr(
        structure, "_closure_axiom_violation", lambda *a: calls.append(1) or real(*a)
    )
    for n in range(1, 4):
        for space in enumerate_spaces(n):
            u = space.universe
            table = ClosureOperatorTable.of_space(space)
            assert calls == []
            checked = ClosureOperatorTable(u, dict(enumerate(closure_table(space))))
            assert calls.pop() == 1
            assert table.universe == u and table.assignment == checked.assignment


# ------------------------------------------------------- pre-base predicates


def test_atom_pre_base_two_singletons():
    space = powerset_space(["z1", "z2"])
    cand = SetFamily.of(space.universe, [["z1"], ["z2"]])
    assert is_atom_pre_base(cand, space)


def test_atom_pre_base_nested_counterexample():
    uni = Universe(["z1", "z2"])
    space = PreTopology.from_family(SetFamily.of(uni, [[], ["z1"], ["z1", "z2"]]))
    cand = SetFamily.of(uni, [["z1"], ["z1", "z2"]])
    assert not is_atom_pre_base(cand, space)
    assert is_minimal_pre_base(cand, space)


def test_atom_pre_base_alg5_literal_reading_fails():
    # {z1} sits inside {z1,z3} at z1, so the per-point condition fails
    assert not is_atom_pre_base(fixtures.family("alg5"), fixtures.space("alg5"))


def test_atom_pre_base_requires_a_pre_base():
    space = fixtures.space("e0")
    cand = SetFamily.of(space.universe, [["z1", "z2"]])
    with pytest.raises(NotAPreBase):
        is_atom_pre_base(cand, space)


def test_minimal_pre_base_examples():
    tau = fixtures.space("e1_tau")
    assert is_minimal_pre_base(irreducible_states(tau), tau)
    e0 = fixtures.space("e0")
    nonmin = SetFamily.from_masks(e0.universe, [m for m in e0.states.masks() if m])
    assert not is_minimal_pre_base(nonmin, e0)
    assert is_minimal_pre_base(fixtures.family("alg5"), fixtures.space("alg5"))


def test_minimal_pre_base_unique_across_fixtures():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        assert is_minimal_pre_base(irreducible_states(space), space), name
