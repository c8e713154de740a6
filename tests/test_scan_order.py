"""The lazy witness scan of the regular and normal kernels against an
eager one.

`separation._closed` groups the closed sets by size with one sort by
`int.bit_count`; the regular kernel only takes the least key among the
members of the class where it fails, and the normal kernel scans a class
unsorted and sorts it by `_canonical_key` only once a member fails, so a
normal space reads no key. The route below
sorts every closed set into scan order first, by `ItemSet.sort_key`, and
scans the points and the pairs of closed sets in that order over the
same reach values R (`separation._separators`). Verdicts and witnesses
are compared on every space on up to 4 points, on the seeded wide
families and normal families of `tests/test_base_kernels.py`, and on
seeded union closures with up to a few hundred states, normal ones
included, where every size class is reached. On a space whose
witnesses come early, the key is read for fewer closed sets than there
are.
"""

import random
from itertools import groupby

from pretopo import ItemSet, PreTopology, SetFamily, Universe, miner, separation
from pretopo.core import union_closure_masks
from pretopo.errors import AxiomViolation
from pretopo.separation import (
    _closed,
    _normal,
    _separators,
    is_normal_property,
    is_regular_property,
    separation_profile,
)

from test_base_kernels import meeting_opens, normal_families, wide_families


def closed_in_scan_order(space):
    u = space.universe
    closed = (ItemSet(u, u.full.mask & ~m) for m in space.states.masks())
    return [f.mask for f in sorted(closed, key=ItemSet.sort_key)]


def eager_regular(space):
    u = space.universe
    closed = closed_in_scan_order(space)
    separators = _separators(space)
    for i, label in enumerate(u.labels):
        for f in closed:
            if f >> i & 1:
                continue
            if not any(not f & ~g and r >> i & 1 for g, r in separators):
                return False, (label, u.from_mask(f).labels)
    return True, None


def eager_normal(space):
    u = space.universe
    closed = closed_in_scan_order(space)
    separators = _separators(space)
    for idx, e in enumerate(closed):
        under = [r for g, r in separators if not e & ~g]
        for f in closed[idx + 1 :]:
            if not e & f and all(f & ~r for r in under):
                return False, (u.from_mask(e).labels, u.from_mask(f).labels)
    return True, None


def check(space):
    """Both kernels and the profile against the eager scan; returns the
    normal verdict."""
    regular, normal = eager_regular(space), eager_normal(space)
    assert is_regular_property(space) == regular
    assert is_normal_property(space) == normal
    profile = separation_profile(space)
    assert (profile.regular_property, profile.normal_property) == (regular[0], normal[0])
    w = profile.witnesses
    assert w.get("regular_property") == (
        None if regular[1] is None else [regular[1][0], list(regular[1][1])]
    )
    assert w.get("normal_property") == (
        None if normal[1] is None else [list(normal[1][0]), list(normal[1][1])]
    )
    return normal[0]


def space_or_none(u, masks):
    try:
        return PreTopology(u, SetFamily.from_masks(u, masks))
    except AxiomViolation:
        return None


def test_every_space_on_up_to_four_points():
    verdicts = [check(s) for n in range(1, 5) for s in miner.enumerate_spaces(n)]
    assert len(verdicts) == 1 + 4 + 45 + 2271
    assert 0 < sum(verdicts) < len(verdicts)


def test_the_wide_and_normal_families():
    spaces = normal = 0
    for u, masks in wide_families(seed=41):
        space = space_or_none(u, masks)
        if space is not None:
            spaces += 1
            normal += check(space)
    assert spaces >= 30 and 0 < normal < spaces
    for u, masks in normal_families(seed=43):
        assert check(PreTopology(u, SetFamily.from_masks(u, masks))) is True


def test_seeded_union_closures_with_hundreds_of_states():
    """Union closures of random generators on 10-18 items, and on sums
    of two blocks of opens that pairwise meet, which are normal."""
    rng = random.Random(47)
    sizes, normal = [], 0
    for k in range(24):
        m = rng.randint(10, 18)
        u = Universe([f"x{i + 1}" for i in range(m)])
        if k % 3:
            gens = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(rng.randint(8, 12))]
            masks = union_closure_masks(gens) | {u.full.mask}
        else:
            cut = rng.randint(4, m - 4)
            left = meeting_opens(rng, list(range(cut)))
            right = meeting_opens(rng, list(range(cut, m)))
            masks = {a | b for a in left for b in right}
        sizes.append(len(masks))
        normal += check(PreTopology(u, SetFamily.from_masks(u, masks)))
    assert max(sizes) >= 200
    assert 8 <= normal < 24


def test_early_witnesses_read_the_key_of_few_closed_sets(monkeypatch):
    """The particular point space on 10 items: the opens are ∅ and every
    set through x1, so x1 and {x2} are not separated, nor {x2} and {x3}.
    Both witnesses lie among the closed sets of size 1."""
    m = 10
    u = Universe([f"x{i + 1}" for i in range(m)])
    masks = {0} | {s for s in range(1 << m) if s & 1}
    space = PreTopology(u, SetFamily.from_masks(u, masks))
    calls = []
    key = separation._canonical_key

    def counted(mask):
        calls.append(mask)
        return key(mask)

    monkeypatch.setattr(separation, "_canonical_key", counted)
    profile = separation_profile(space)
    assert profile.witnesses["regular_property"] == ["x1", ["x2"]]
    assert profile.witnesses["normal_property"] == [["x2"], ["x3"]]
    assert 0 < len(calls) < len(masks)
    assert len(set(calls)) <= 1 + (m - 1)
    monkeypatch.undo()
    check(space)


def shuffled_classes(rng, closed):
    """The closed sets with each size class shuffled in place: still
    grouped by size, smallest first, as `_closed` gives them."""
    out = []
    for _, members in groupby(closed, int.bit_count):
        members = list(members)
        rng.shuffle(members)
        out += members
    return out


def check_normal_in_any_class_order(rng, space, rounds=3):
    """`_normal` on `_closed`'s list and on class-shuffled copies of it
    against the eager scan; returns the normal verdict."""
    u = space.universe
    want = eager_normal(space)
    closed = _closed(u, space.states.masks())
    separators = _separators(space)
    assert _normal(u, closed, separators) == want
    for _ in range(rounds):
        assert _normal(u, shuffled_classes(rng, closed), separators) == want
    return want[0]


def test_the_normal_witness_does_not_depend_on_the_class_order():
    """Every space on up to 4 points and seeded non-normal union
    closures on 6-14 items, whose failing classes hold several members."""
    rng = random.Random(53)
    verdicts = [
        check_normal_in_any_class_order(rng, s)
        for n in range(1, 5)
        for s in miner.enumerate_spaces(n)
    ]
    assert 0 < sum(verdicts) < len(verdicts)
    failing = 0
    for _ in range(200):
        m = rng.randint(6, 14)
        u = Universe([f"x{i + 1}" for i in range(m)])
        gens = [rng.getrandbits(m) for _ in range(rng.randint(3, 9))]
        masks = union_closure_masks(gens) | {0, u.full.mask}
        space = PreTopology(u, SetFamily.from_masks(u, masks))
        failing += not check_normal_in_any_class_order(rng, space, rounds=6)
    assert failing >= 100


def test_a_normal_space_reads_no_key(monkeypatch):
    calls = []
    key = separation._canonical_key
    monkeypatch.setattr(separation, "_canonical_key", lambda m: calls.append(m) or key(m))
    spaces = [PreTopology(u, SetFamily.from_masks(u, masks)) for u, masks in normal_families(seed=43)]
    spaces += miner.enumerate_spaces(4)
    normal = 0
    for space in spaces:
        u = space.universe
        calls.clear()
        ok, _ = _normal(u, _closed(u, space.states.masks()), _separators(space))
        if ok:
            normal += 1
            assert calls == [], space.states.to_obj()
    assert normal >= 24 + 100
