"""The mask-transport kernel of `PointMap` against the scans it replaced.

`image_mask` and `preimage_mask` read per-byte tables; they are compared
with a loop over the items on seeded maps up to 64 items, across the
8-item chunk edges. `quotient` and `is_pre_quotient` read the images of
the saturated states; they are compared with the test-local scans of
all 2^classes class sets and all 2^|Y| codomain subsets on every space
on up to 4 points, with seeded partitions and seeded surjective maps.
The discriminative reduction is the quotient by its own classes, item
labels and projection included, and a child family is relabelled onto
its carrier as its member labels say. On 40 items, where a scan of subsets
would take about 2^40 steps, the quotient by singletons and the
pre-quotient test of the identity answer from the |K| states.
"""

import random

import pytest

from pretopo import (
    ItemSet,
    KnowledgeStructure,
    PointMap,
    PreTopology,
    SetFamily,
    Universe,
    child_pretopology,
    discriminative_reduction,
    is_pre_quotient,
    miner,
    quotient,
    quotient_projection,
    subspace,
)
from pretopo.core import union_closure_masks

SPACES = [s for n in range(1, 5) for s in miner.enumerate_spaces(n)]


def image_by_items(f, mask):
    out = 0
    for i, t in enumerate(f.domain.labels):
        if mask >> i & 1:
            out |= 1 << f.codomain.index(f(t))
    return out


def preimage_by_items(f, mask):
    return sum(
        1 << i
        for i, t in enumerate(f.domain.labels)
        if mask >> f.codomain.index(f(t)) & 1
    )


def quotient_by_scan(space, classes):
    """Class sets whose preimage is a state, by a scan of all 2^classes."""
    opens = set()
    for w in range(1 << len(classes)):
        pre = 0
        for ci, c in enumerate(classes):
            if w >> ci & 1:
                pre |= c.mask
        if space.states.has_mask(pre):
            opens.add(w)
    return opens


def pre_quotient_by_scan(f, x, y):
    """A codomain subset is open iff its preimage is, over all 2^|Y|."""
    return all(
        x.states.has_mask(preimage_by_items(f, w)) == y.states.has_mask(w)
        for w in range(1 << len(y.universe))
    )


def seeded_partition(u, rng):
    labels = list(u.labels)
    rng.shuffle(labels)
    k = rng.randint(1, len(labels))
    return [u.subset(labels[i::k]) for i in range(k)]


def seeded_surjection(x, y, rng):
    """A map onto y: y's items first, in shuffled domain order, then any."""
    targets = list(y.labels) + [rng.choice(y.labels) for _ in range(len(x) - len(y))]
    rng.shuffle(targets)
    return PointMap(x, y, dict(zip(x.labels, targets)))


@pytest.mark.parametrize("m, k", [(1, 1), (7, 3), (8, 8), (9, 5), (17, 17), (40, 9), (64, 64)])
def test_image_and_preimage_match_the_item_loop(m, k):
    rng = random.Random(f"kernel:{m}:{k}")
    x = Universe([f"x{i}" for i in range(m)])
    y = Universe([f"y{i}" for i in range(k)])
    for _ in range(5):
        f = PointMap(x, y, {t: rng.choice(y.labels) for t in x.labels})
        masks = [0, x._full] + [rng.getrandbits(m) for _ in range(20)]
        assert [f.image_mask(a) for a in masks] == [image_by_items(f, a) for a in masks]
        assert f._image_masks(masks) == [image_by_items(f, a) for a in masks]
        for b in [0, y._full] + [rng.getrandbits(k) for _ in range(20)]:
            assert f.preimage_mask(b) == preimage_by_items(f, b)


def test_quotient_matches_the_class_set_scan_on_every_small_space():
    rng = random.Random("quotient-oracle")
    pairs = 0
    for space in SPACES:
        u = space.universe
        for classes in (
            [u.subset([t]) for t in u.labels],
            [u.full],
            seeded_partition(u, rng),
            seeded_partition(u, rng),
        ):
            q = quotient(space, classes)
            assert q.universe == quotient_projection(space, classes).codomain
            assert q.states.masks() == quotient_by_scan(space, classes)
            pairs += 1
    assert pairs == 4 * len(SPACES) == 4 * 2321


def test_pre_quotient_matches_the_codomain_scan_on_surjective_maps():
    rng = random.Random("pre-quotient-oracle")
    by_size = {n: [s for s in SPACES if len(s.universe) == n] for n in range(1, 5)}
    verdicts = {True: 0, False: 0}
    for x in SPACES:
        n = len(x.universe)
        for _ in range(2):
            y = rng.choice(by_size[rng.randint(1, n)])
            f = seeded_surjection(x.universe, y.universe, rng)
            # the projection onto the quotient by f's fibres is a pre-quotient
            fibres = [
                ItemSet(x.universe, preimage_by_items(f, 1 << j))
                for j in range(len(y.universe))
            ]
            g = quotient_projection(x, fibres)
            for h, target in ((f, y), (g, quotient(x, fibres))):
                got = is_pre_quotient(h, x, target)
                assert got == pre_quotient_by_scan(h, x, target)
                verdicts[got] += 1
    assert verdicts[True] > len(SPACES) and verdicts[False] > len(SPACES) // 2


def test_reduction_is_the_quotient_by_its_own_classes():
    for space in SPACES:
        red = discriminative_reduction(space)
        classes = list(red.classes)
        q = quotient(space, classes)
        assert isinstance(red.reduced, PreTopology)
        assert red.reduced.universe == q.universe
        assert red.reduced.states.masks() == q.states.masks()
        assert red.projection == quotient_projection(space, classes)


def test_reduction_of_a_structure_is_the_image_of_every_state():
    rng = random.Random("structure-reduction")
    u = Universe([f"z{i + 1}" for i in range(6)])
    for _ in range(200):
        masks = {0, u._full} | {rng.getrandbits(6) for _ in range(rng.randint(0, 6))}
        structure = KnowledgeStructure(u, SetFamily.from_masks(u, masks))
        red = discriminative_reduction(structure)
        classes = list(red.classes)
        assert type(red.reduced) is KnowledgeStructure
        assert red.projection == quotient_projection(structure, classes)
        assert red.reduced.states.masks() == quotient_by_scan(structure, classes)


def test_child_families_are_read_through_the_trace_tables():
    """`coarser_than_subspace` against relabelling each member by its labels."""
    rng = random.Random("child")
    checked = 0
    for space in SPACES:
        u = space.universe
        states = sorted(space.states.masks())
        for _ in range(2):
            b, state = ItemSet(u, rng.getrandbits(len(u))), ItemSet(u, rng.choice(states))
            child = child_pretopology(space, b, state)
            if child.carrier.is_empty():
                continue
            traces = subspace(space, child.carrier)
            want = all(
                traces.universe.subset(g.labels) in traces.states for g in child.family
            )
            assert child.coarser_than_subspace == want
            checked += 1
    assert checked > len(SPACES)


def forty_item_space():
    rng = random.Random("forty")
    u = Universe([f"q{i}" for i in range(40)])
    gens = [rng.getrandbits(40) for _ in range(7)] + [1 << 39, u._full]
    return PreTopology(u, SetFamily.from_masks(u, union_closure_masks(gens)))


def test_quotient_by_forty_singletons_is_the_space_relabelled():
    space = forty_item_space()
    u = space.universe
    q = quotient(space, [u.subset([t]) for t in u.labels])
    assert q.universe.labels == u.labels
    assert q.states.masks() == space.states.masks()


def test_identity_on_forty_items_is_a_pre_quotient():
    space = forty_item_space()
    assert is_pre_quotient(PointMap.identity(space.universe), space, space)
