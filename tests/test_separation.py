"""Separation hierarchy, discrimination notions, and their witnesses."""

import pytest

from pretopo import (
    PreTopology,
    SetFamily,
    Universe,
    discriminative_reduction,
    is_completely_discriminative,
    is_t0,
    is_t1,
    is_t2,
    separation_profile,
)
from pretopo.separation import bi_discriminative_via_fringe

import fixture_files as fixtures


def co_small_space(n, k):
    """{∅} plus every subset missing at most k of n points."""
    uni = Universe([f"a{i}" for i in range(1, n + 1)])
    full = (1 << n) - 1
    masks = [0] + [m for m in range(1 << n) if bin(full & ~m).count("1") <= k]
    return PreTopology.from_family(SetFamily.from_masks(uni, masks))


def test_e0_is_t0_not_t1():
    p = separation_profile(fixtures.space("e0"))
    assert p.t0 and p.discriminative
    assert not p.t1 and not p.bi_discriminative


def test_e1_tau_is_t2():
    p = separation_profile(fixtures.space("e1_tau"))
    assert p.t2 and p.t1 and p.t0


def test_t2nr_is_t2_not_regular():
    p = separation_profile(fixtures.space("t2nr"))
    assert p.t2
    assert not p.regular_property and not p.t3


def test_rnn_is_t3_not_normal():
    p = separation_profile(fixtures.space("rnn"))
    assert p.t3 and p.regular_property and p.t1
    assert not p.normal_property and not p.t4


def test_six_point_family_is_not_t0():
    ok, witness = is_t0(fixtures.space("ord6"))
    assert not ok
    assert witness == ("z1", "z3")


def test_six_point_literal_family_notions():
    # The ord6 family exactly as printed in its source. It misses the unions
    # {z1,z3,z4,z5,z6} and {z1,z2,z3,z5,z6}, so it is a structure but not a
    # space; fixtures/ord6.json holds its union closure.
    from pretopo import KnowledgeStructure

    u = Universe([f"z{i}" for i in range(1, 7)])
    printed = SetFamily.of(
        u,
        [
            [],
            ["z4"],
            ["z1", "z3"],
            ["z5", "z6"],
            ["z1", "z3", "z4"],
            ["z1", "z2", "z3"],
            ["z4", "z5", "z6"],
            ["z1", "z3", "z5", "z6"],
            ["z1", "z2", "z3", "z4"],
            ["z1", "z2", "z3", "z4", "z5", "z6"],
        ],
    )
    ks = KnowledgeStructure.from_family(printed)
    red = discriminative_reduction(ks)
    assert [list(c.labels) for c in red.classes] == [
        ["z1", "z3"],
        ["z2"],
        ["z4"],
        ["z5", "z6"],
    ]


def test_t1c_is_t1():
    p = separation_profile(fixtures.space("t1c"))
    assert p.t1 and p.bi_discriminative


def test_completely_discriminative_co_2_and_co_3():
    assert not is_completely_discriminative(co_small_space(5, 2))
    assert is_completely_discriminative(co_small_space(5, 3))
    power = co_small_space(2, 2)
    assert is_completely_discriminative(power)


def test_bi_discriminative_via_fringe_examples():
    assert bi_discriminative_via_fringe(fixtures.space("t1c"))
    assert not bi_discriminative_via_fringe(fixtures.space("e0"))
    assert bi_discriminative_via_fringe(co_small_space(2, 2))


def test_fringe_route_agrees_with_profile_t1():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        assert bi_discriminative_via_fringe(space) == separation_profile(space).t1, name


def test_hierarchy_implications_across_fixtures():
    for name in fixtures.NAMES:
        p = separation_profile(fixtures.space(name))
        assert not p.t4 or p.t3, name
        assert not p.t3 or p.t2, name
        assert not p.t2 or p.t1, name
        assert not p.t1 or p.t0, name
        assert p.t0 == p.discriminative, name
        assert p.t1 == p.bi_discriminative, name
        assert not p.completely_discriminative or p.bi_discriminative, name


def test_t3_t4_definitions():
    for name in ("rnn", "t2nr", "t1c"):
        p = separation_profile(fixtures.space(name))
        assert p.t3 == (p.t1 and p.regular_property)
        assert p.t4 == (p.t1 and p.normal_property)


def test_witnesses_are_least_failing_pairs():
    ok, w = is_t1(fixtures.space("e0"))
    assert not ok and w == ("z2", "z1")
    ok, w = is_t2(fixtures.space("e0"))
    assert not ok and w == ("z1", "z2")


def test_profile_serialization_keys():
    obj = separation_profile(fixtures.space("e0")).to_obj()
    for key in (
        "t0",
        "t1",
        "t2",
        "regular_property",
        "t3",
        "normal_property",
        "t4",
        "discriminative",
        "bi_discriminative",
        "completely_discriminative",
    ):
        assert key in obj


def test_indiscrete_two_points_fails_t0():
    uni = Universe(["z1", "z2"])
    space = PreTopology.from_family(SetFamily.from_masks(uni, [0, 3]))
    ok, witness = is_t0(space)
    assert not ok and witness == ("z1", "z2")
