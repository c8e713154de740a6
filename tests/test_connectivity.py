"""Connectedness, clopen decompositions, chains, and well-gradedness."""

import pytest

from pretopo import (
    ChainWitness,
    NotACover,
    PreTopology,
    SetFamily,
    Universe,
    clopen_sets,
    connectedness,
    find_simple_chain,
    irreducible_states,
    is_connected,
    is_tight_n_connected,
    is_well_graded,
)
from pretopo.miner import enumerate_spaces

import fixture_files as fixtures


def family_of(space, label_sets):
    uni = space.universe
    masks = [sum(1 << uni.index(l) for l in labels) for labels in label_sets]
    return SetFamily.from_masks(uni, masks)


def chain_space(n):
    uni = Universe([f"a{i}" for i in range(1, n + 1)])
    masks = [(1 << k) - 1 for k in range(n + 1)]
    return PreTopology.from_family(SetFamily.from_masks(uni, masks))


def test_tight_fixture_is_disconnected_with_balanced_witness():
    report = connectedness(fixtures.space("tight"))
    assert not report.connected
    a, b = report.separation
    assert set(a.labels) == {"z1", "z2"}
    assert set(b.labels) == {"z3", "z4"}


def test_conn_fixture_is_connected():
    report = connectedness(fixtures.space("conn"))
    assert report.connected and report.separation is None
    assert is_connected(fixtures.space("conn"))


def test_indiscrete_is_connected():
    uni = Universe(["z1", "z2", "z3"])
    space = PreTopology.from_family(SetFamily.from_masks(uni, [0, 7]))
    assert is_connected(space)


def test_clopen_sets_of_tight():
    got = [set(s.labels) for s in clopen_sets(fixtures.space("tight"))]
    assert got == [
        {"z1"},
        {"z4"},
        {"z1", "z2"},
        {"z3", "z4"},
        {"z1", "z2", "z3"},
        {"z2", "z3", "z4"},
    ]


def test_simple_chain_through_minimal_pre_base():
    space = fixtures.space("conn")
    base = irreducible_states(space)
    w = find_simple_chain(space, base, "z2", "z5")
    assert isinstance(w, ChainWitness)
    assert w.endpoints == ("z2", "z5")
    assert len(w.covers_used) <= 3
    assert "z2" in w.covers_used[0].labels
    assert "z5" in w.covers_used[-1].labels
    for first, second in zip(w.covers_used, w.covers_used[1:]):
        assert first.mask & second.mask


def test_no_chain_across_the_gap():
    space = fixtures.space("tight")
    cover = family_of(space, [["z1", "z2"], ["z3", "z4"]])
    assert find_simple_chain(space, cover, "z1", "z3") is None


def test_single_set_cover_chain():
    space = fixtures.space("conn")
    cover = family_of(space, [list(space.universe.labels)])
    w = find_simple_chain(space, cover, "z1", "z5")
    assert isinstance(w, ChainWitness)
    assert len(w.covers_used) == 1


def test_chain_requires_a_cover():
    space = fixtures.space("conn")
    partial = family_of(space, [["z1", "z2", "z3"]])
    with pytest.raises(NotACover):
        find_simple_chain(space, partial, "z1", "z5")


def test_tight_one_connected_examples():
    assert is_tight_n_connected(fixtures.space("tight"), 1)
    assert not is_tight_n_connected(fixtures.space("conn"), 1)
    uni = Universe(["z1", "z2"])
    power = PreTopology.from_family(SetFamily.from_masks(uni, [0, 1, 2, 3]))
    assert is_tight_n_connected(power, 1)


@pytest.mark.parametrize("n", [0, 2, 3])
def test_tight_n_connectedness_is_defined_for_n_one_only(n):
    with pytest.raises(ValueError):
        is_tight_n_connected(fixtures.space("tight"), n)


def test_well_gradedness_examples():
    assert is_well_graded(fixtures.space("tight").states)
    assert not is_well_graded(fixtures.space("conn").states)
    assert is_well_graded(chain_space(3).states)


def test_tight_one_iff_well_graded_exhaustively():
    for space in enumerate_spaces(3):
        assert is_tight_n_connected(space, 1) == is_well_graded(space.states)


def test_separation_witness_is_a_clopen_partition():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        report = connectedness(space)
        if report.connected:
            assert report.separation is None
        else:
            a, b = report.separation
            assert a.mask | b.mask == space.universe.full.mask
            assert a.mask & b.mask == 0
            clopens = {s.mask for s in clopen_sets(space)}
            assert a.mask in clopens and b.mask in clopens
