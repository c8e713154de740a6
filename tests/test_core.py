"""Universe, ItemSet, SetFamily, union closure, irreducibles."""

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from pretopo import (
    AxiomViolation,
    CoverError,
    ItemSet,
    KnowledgeStructure,
    PreTopology,
    SetFamily,
    Universe,
    UniverseOverflow,
    distance,
    irreducible_states,
    is_pre_base_for,
    union_closure,
)
from pretopo.core import _canonical_key

import fixture_files as fixtures


def u(n):
    return Universe([f"z{i}" for i in range(1, n + 1)])


def fam(universe, members):
    return SetFamily.of(universe, members)


# ---------------------------------------------------------------- universe


def test_universe_rejects_duplicates():
    with pytest.raises(ValueError):
        Universe(["a", "a"])


def test_universe_rejects_empty():
    with pytest.raises(ValueError):
        Universe([])


def test_universe_overflow_at_65():
    with pytest.raises(UniverseOverflow):
        Universe([f"q{i}" for i in range(65)])
    Universe([f"q{i}" for i in range(64)])


def test_itemset_labels_follow_universe_order():
    uni = Universe(["b", "a", "c"])
    s = uni.subset(["c", "a"])
    assert s.labels == ("a", "c")


def test_itemset_mask_bounds():
    uni = u(2)
    with pytest.raises(ValueError):
        ItemSet(uni, 1 << 2)


# ---------------------------------------------------------------- distance


def test_distance_examples():
    uni = u(5)
    assert distance(uni.subset(["z1", "z2"]), uni.subset(["z1", "z2"])) == 0
    assert distance(uni.subset(["z1", "z2"]), uni.subset(["z2", "z3"])) == 2
    assert distance(uni.subset(["z1"]), uni.subset(["z1", "z3", "z4", "z5"])) == 3


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_distance_is_a_metric(a, b, c):
    uni = u(5)
    x, y, z = ItemSet(uni, a), ItemSet(uni, b), ItemSet(uni, c)
    assert distance(x, y) == distance(y, x)
    assert (distance(x, y) == 0) == (x == y)
    assert distance(x, z) <= distance(x, y) + distance(y, z)


# ---------------------------------------------------------------- families


def test_family_canonical_order_and_dedup():
    uni = u(3)
    f = fam(uni, [["z2", "z3"], ["z1"], [], ["z1"], ["z1", "z2", "z3"]])
    assert [list(m.labels) for m in f.members] == [
        [],
        ["z1"],
        ["z2", "z3"],
        ["z1", "z2", "z3"],
    ]


def test_family_json_round_trip_is_byte_stable():
    f = fixtures.space("e0").states
    text = f.to_json()
    again = SetFamily.from_json(text)
    assert again == f
    assert again.to_json() == text


def test_family_from_obj_schema_errors():
    from pretopo import SchemaError

    with pytest.raises(SchemaError):
        SetFamily.from_obj([1, 2])
    with pytest.raises(SchemaError):
        SetFamily.from_obj({"universe": ["a"]})
    with pytest.raises(SchemaError):
        SetFamily.from_obj({"universe": ["a"], "states": [["b"]]})


# ---------------------------------------------------------- canonical order


def by_sort_key(uni, masks):
    """The masks sorted by `ItemSet.sort_key`, whose indices are checked
    against a literal scan of the bits."""
    for m in masks:
        indices = tuple(i for i in range(len(uni)) if m >> i & 1)
        assert ItemSet(uni, m).indices() == indices
        assert ItemSet(uni, m).labels == tuple(uni.labels[i] for i in indices)
    return sorted(masks, key=lambda m: ItemSet(uni, m).sort_key())


def test_canonical_key_agrees_with_sort_key_on_every_mask_up_to_eight_items():
    for n in range(1, 9):
        masks = list(range(1 << n))
        assert sorted(masks, key=_canonical_key) == by_sort_key(u(n), masks)


@pytest.mark.parametrize("n", [16, 40, 63, 64])
def test_canonical_key_agrees_with_sort_key_on_seeded_masks(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    # 0, the full mask and the top bit (bit 63 at n = 64) come first
    masks = [0, full, 1 << (n - 1), full ^ 1, 1 | 1 << (n - 1)]
    while len(masks) < 3000:
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        low = (1 << rng.randrange(n)) - 1
        # uniform, sparse and dense masks, many of one size, and one that
        # agrees with `a` below a random item, so high items decide too
        masks += [a, a & b, a | b, a & low | b & ~low]
    masks = masks[:3000]
    assert sorted(masks, key=_canonical_key) == by_sort_key(u(n), masks)


def test_families_from_masks_and_from_item_sets_agree():
    rng = random.Random(7)
    for n in (3, 12, 64):
        uni = u(n)
        full = (1 << n) - 1
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(80)]
        masks += [0, full, masks[0]]
        from_masks = SetFamily.from_masks(uni, masks)
        from_sets = SetFamily(uni, [ItemSet(uni, m) for m in masks])
        assert from_masks.members == from_sets.members
        assert [s.mask for s in from_masks.members] == by_sort_key(uni, set(masks))
        assert from_masks.to_obj() == from_sets.to_obj()
        assert len(from_masks) == len(from_sets) == len(set(masks))
        base = from_masks._base().masks
        assert list(base) == by_sort_key(uni, base)
        assert (
            irreducible_states(KnowledgeStructure(uni, from_masks)).members
            == irreducible_states(KnowledgeStructure(uni, from_sets)).members
        )


def test_family_from_masks_rejects_masks_outside_the_universe():
    for n, bad in [(3, [0, 1 << 3]), (3, [-1]), (3, [0b111, -8]), (64, [1 << 64])]:
        with pytest.raises(ValueError):
            SetFamily.from_masks(u(n), bad)


def test_family_members_must_be_item_sets():
    with pytest.raises(TypeError):
        SetFamily(u(2), [0b01])


# ------------------------------------------------------------ union closure


def test_union_closure_two_singletons_gives_powerset():
    uni = u(2)
    space = union_closure(fam(uni, [["z1"], ["z2"]]))
    assert len(space.states.members) == 4


def test_union_closure_alg5_frozen_against_brute_force():
    # oracle: dedupe the unions of every generator subfamily
    gens = [{1}, {2}, {1, 3}, {2, 3, 4}, {1, 3, 4, 5}]
    expected = set()
    for r in range(len(gens) + 1):
        for combo in itertools.combinations(gens, r):
            expected.add(frozenset().union(*combo) if combo else frozenset())
    assert len(expected) == 10

    space = fixtures.space("alg5")
    got = {frozenset(int(l[1]) for l in m.labels) for m in space.states.members}
    assert got == expected
    assert frozenset({1, 2, 3}) in got and frozenset({1, 2, 3, 4, 5}) in got


def test_union_closure_cover_error():
    uni = u(4)
    with pytest.raises(CoverError):
        union_closure(fam(uni, [["z1", "z2"], ["z1", "z3"]]))


def test_union_closure_idempotent_and_contains_generators():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        again = union_closure(space.states)
        assert again.states == space.states, name
        assert space.states.has_mask(0)
        assert space.states.has_mask(space.universe.full.mask)


@given(st.sets(st.integers(1, 7), min_size=1, max_size=6))
def test_union_closure_monotone(masks):
    uni = u(3)
    masks = masks | {7}
    f = SetFamily.from_masks(uni, masks)
    small = union_closure(f)
    bigger = union_closure(SetFamily.from_masks(uni, masks | {1}))
    assert set(small.states.masks()) <= set(bigger.states.masks())


# -------------------------------------------------------------- irreducibles


def test_irreducibles_of_e1_tau_are_the_pairs():
    base = irreducible_states(fixtures.space("e1_tau"))
    assert all(len(m.labels) == 2 for m in base.members)
    assert len(base.members) == 6


def test_irreducibles_of_alg5_are_the_generators():
    assert irreducible_states(fixtures.space("alg5")) == fixtures.family("alg5")


def test_irreducibles_of_indiscrete():
    uni = u(3)
    space = PreTopology.from_family(fam(uni, [[], ["z1", "z2", "z3"]]))
    assert [list(m.labels) for m in irreducible_states(space).members] == [
        ["z1", "z2", "z3"]
    ]


def test_irreducibles_regenerate_every_fixture():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        assert union_closure(irreducible_states(space)).states == space.states, name


def test_minimal_base_inside_every_generating_family():
    # the minimal base is contained in every pre-base
    space = fixtures.space("e1_tau")
    irr = set(irreducible_states(space).masks())
    gens = SetFamily.from_masks(
        space.universe, [m for m in space.states.masks() if m]
    )
    assert irr <= set(gens.masks())


# -------------------------------------------------------------- pre-base test


def test_is_pre_base_for_examples():
    tau = fixtures.space("e1_tau")
    uni = tau.universe
    assert not is_pre_base_for(fam(uni, [["z1", "z2"], ["z3", "z4"]]), tau)
    pairs = fam(uni, [list(c) for c in itertools.combinations(uni.labels, 2)])
    assert is_pre_base_for(pairs, tau)
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        assert is_pre_base_for(irreducible_states(space), space)


# ----------------------------------------------------- structure validation


def test_knowledge_structure_requires_empty_set():
    uni = u(2)
    with pytest.raises(AxiomViolation):
        KnowledgeStructure.from_family(fam(uni, [["z1"], ["z1", "z2"]]))


def test_knowledge_structure_requires_full_set():
    uni = u(3)
    with pytest.raises(CoverError):
        KnowledgeStructure.from_family(fam(uni, [[], ["z1"], ["z1", "z2"]]))


def test_pretopology_rejects_missing_union():
    uni = u(3)
    bad = fam(uni, [[], ["z1"], ["z2"], ["z1", "z2", "z3"]])
    with pytest.raises(AxiomViolation) as err:
        PreTopology.from_family(bad)
    assert "union-closure" in str(err.value)


def test_notcover_fixture_payload():
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "fixtures" / "notcover.json"
    obj = json.loads(path.read_text())
    with pytest.raises(CoverError):
        KnowledgeStructure.from_family(SetFamily.from_obj(obj))


# ------------------------------------------------------- shipped fixtures

GENERATOR_FILES = {"alg5", "vertex_cover"}


@pytest.mark.parametrize("name", sorted(p.stem for p in fixtures.DIR.glob("*.json")))
def test_fixture_file_loads_as_the_verbs_read_it(name):
    """notcover.json is not a cover; alg5.json and vertex_cover.json
    generate their spaces, so they hold no ∅ and are closed; every other
    file is a space as given."""
    if name == "notcover":
        with pytest.raises(CoverError):
            fixtures.space(name)
        return
    written = fixtures.family(name)
    space = fixtures.space(name)
    if name in GENERATOR_FILES:
        assert not written.has_mask(0)
        assert space.states == union_closure(written).states
    else:
        assert space.states == PreTopology.from_family(written).states == written
