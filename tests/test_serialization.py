"""`SetFamily.to_obj` against the item-set route it replaced.

`to_obj` sorts the masks by `core._canonical_key` and picks each state's
labels with `itertools.compress` over the mask's `core._flags`. The route
below builds an `ItemSet` per state, sorts them by `ItemSet.sort_key` and
lists `ItemSet.labels`. The two are compared as JSON text on every family
over 1 to 4 items and on seeded families at the 8-item chunk edges of the
sort key, with labels that hold '+' and non-ASCII letters.
"""

import json
import random

import pytest

from pretopo import ItemSet, SetFamily, Universe


def json_by_item_sets(universe, masks):
    members = sorted((ItemSet(universe, m) for m in masks), key=ItemSet.sort_key)
    obj = {"universe": list(universe.labels), "states": [list(s.labels) for s in members]}
    return json.dumps(obj, ensure_ascii=False)


def labels(m):
    """Plain item labels, labels holding '+', and non-ASCII ones."""
    kinds = ("x{}", "é{}", "a+b{}", "Ω+ß{}")
    return [kinds[i % 4].format(i) for i in range(m)]


def check(universe, masks):
    family = SetFamily.from_masks(universe, masks)
    assert json.dumps(family.to_obj(), ensure_ascii=False) == json_by_item_sets(universe, masks)
    assert family._members is None


def test_every_family_over_one_to_four_items():
    """The route's item sets, sort keys and labels are taken once per
    mask, and each family is one sort of its masks by those keys. The
    families of one size are compared as one JSON text."""
    for n, families in ((1, 4), (2, 16), (3, 256), (4, 65536)):
        u = Universe(labels(n))
        item_sets = [ItemSet(u, m) for m in range(1 << n)]
        keys = [s.sort_key() for s in item_sets]
        states = [list(s.labels) for s in item_sets]
        got, want = [], []
        for bits in range(1 << (1 << n)):
            masks = [m for m in range(1 << n) if bits >> m & 1]
            got.append(SetFamily.from_masks(u, masks).to_obj())
            ordered = sorted(masks, key=keys.__getitem__)
            want.append({"universe": list(u.labels), "states": [states[m] for m in ordered]})
        assert len(got) == families
        assert json.dumps(got, ensure_ascii=False) == json.dumps(want, ensure_ascii=False)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 40, 63, 64])
def test_seeded_families_at_the_chunk_edges(m):
    rng = random.Random(m)
    u = Universe(labels(m))
    for _ in range(40):
        masks = {0, u.full.mask, 1 << (m - 1)}
        masks.update(rng.getrandbits(m) for _ in range(rng.randint(0, 60)))
        # masks that agree below a random item, so that higher items decide
        low = rng.getrandbits(rng.randint(0, m - 1))
        above = ~((1 << low.bit_length()) - 1)
        masks.update(low | rng.getrandbits(m) & above for _ in range(8))
        check(u, masks)
