"""Point maps, continuity notions, subspaces, products, quotients, children."""

import itertools
import random

import pytest

from pretopo import (
    ChildPretopology,
    EmptySubspace,
    ItemSet,
    NotAPartition,
    NotAState,
    NotSurjective,
    PointMap,
    PreTopology,
    QuasiOrder,
    SchemaError,
    SetFamily,
    Universe,
    child_pretopology,
    classify_map,
    closure,
    discriminative_reduction,
    enumerate_spaces,
    from_quasi_order,
    is_pre_continuous,
    is_pre_open,
    is_pre_quotient,
    pre_continuity_witness,
    product,
    quotient,
    quotient_projection,
    subspace,
    to_quasi_order,
    union_closure,
)
from pretopo.maps import _box

import fixture_files as fixtures


def item_set(space, labels):
    mask = sum(1 << space.universe.index(l) for l in labels)
    return ItemSet(space.universe, mask)


def test_identity_between_the_two_four_point_structures_fails():
    tau = fixtures.space("e1_tau")
    delta = fixtures.space("e1_delta")
    f = PointMap(tau.universe, delta.universe, {t: t for t in tau.universe.labels})
    assert not is_pre_continuous(f, tau, delta)
    witness = pre_continuity_witness(f, tau, delta)
    assert sorted(witness.labels) == ["z3"]


def test_inclusions_of_the_two_point_traces_are_continuous():
    tau = fixtures.space("e1_tau")
    delta = fixtures.space("e1_delta")
    for pair in (["z1", "z2"], ["z3", "z4"]):
        sub = subspace(tau, item_set(tau, pair))
        inc = PointMap(sub.universe, delta.universe, {t: t for t in pair})
        assert is_pre_continuous(inc, sub, delta)
        assert pre_continuity_witness(inc, sub, delta) is None


def test_identity_classification_is_all_true():
    space = fixtures.space("e0")
    f = PointMap.identity(space.universe)
    c = classify_map(f, space, space)
    assert c.pre_continuous and c.pre_open and c.pre_closed
    assert c.pre_quotient is True and c.pre_homeomorphism


def test_constant_map_onto_a_point():
    uni = Universe(["a", "b"])
    power = PreTopology.from_family(SetFamily.from_masks(uni, [0, 1, 2, 3]))
    pt = Universe(["p"])
    point = PreTopology.from_family(SetFamily.from_masks(pt, [0, 1]))
    f = PointMap(uni, pt, {"a": "p", "b": "p"})
    c = classify_map(f, power, point)
    assert c.pre_continuous and c.pre_open and c.pre_closed
    assert c.pre_quotient is True
    assert not c.pre_homeomorphism


def test_quotient_flag_is_none_for_non_surjective_maps():
    uni = Universe(["a", "b"])
    power = PreTopology.from_family(SetFamily.from_masks(uni, [0, 1, 2, 3]))
    one = Universe(["a"])
    sub = PreTopology.from_family(SetFamily.from_masks(one, [0, 1]))
    inc = PointMap(one, uni, {"a": "a"})
    assert classify_map(inc, sub, power).pre_quotient is None
    with pytest.raises(NotSurjective):
        is_pre_quotient(inc, sub, power)


def test_reduction_projection_is_a_pre_quotient():
    space = fixtures.space("ord6")
    red = discriminative_reduction(space)
    assert is_pre_quotient(red.projection, space, red.reduced)


def test_subspace_traces():
    tau = fixtures.space("e1_tau")
    sub = subspace(tau, item_set(tau, ["z1", "z2"]))
    assert sub.universe.labels == ("z1", "z2")
    assert sub.states.masks() == {0, 1, 2, 3}
    full = subspace(tau, item_set(tau, list(tau.universe.labels)))
    assert full.states.masks() == tau.states.masks()
    with pytest.raises(EmptySubspace):
        subspace(tau, item_set(tau, []))


def test_closed_carrier_relative_closure_law():
    # for a closed carrier H, the trace closure of F equals H ∩ cl(F)
    space = fixtures.space("e0")
    h_labels = ["z2", "z3"]
    h = item_set(space, h_labels)
    assert space.states.has_mask(space.universe.full.mask & ~h.mask)
    sub = subspace(space, h)
    for k in range(len(h_labels) + 1):
        for combo in itertools.combinations(h_labels, k):
            f_sub = ItemSet(
                sub.universe, sum(1 << sub.universe.index(l) for l in combo)
            )
            f_amb = item_set(space, list(combo))
            rel = closure(sub, f_sub)
            amb = closure(space, f_amb)
            assert set(rel.labels) == set(amb.labels) & set(h_labels)


def test_product_of_indiscrete_factors_is_indiscrete():
    uni = Universe(["a", "b"])
    ind = PreTopology.from_family(SetFamily.from_masks(uni, [0, 3]))
    p = product([ind, ind])
    assert p.universe.labels == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert p.states.masks() == {0, 0b1111}


def test_product_states_match_the_box_closure_oracle():
    uni_x = Universe(["z1", "z2"])
    x = PreTopology.from_family(SetFamily.from_masks(uni_x, [0, 1, 3]))
    uni_y = Universe(["a", "b"])
    y = PreTopology.from_family(SetFamily.from_masks(uni_y, [0, 2, 3]))
    p = product([x, y])

    pairs = list(itertools.product(uni_x.labels, uni_y.labels))
    boxes = set()
    for mx in x.states.masks():
        for my in y.states.masks():
            box = 0
            for i, (lx, ly) in enumerate(pairs):
                if mx >> uni_x.index(lx) & 1 and my >> uni_y.index(ly) & 1:
                    box |= 1 << i
            boxes.add(box)
    closed = set(boxes)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                if a | b not in closed:
                    closed.add(a | b)
                    changed = True
    assert p.states.masks() == closed
    assert len(p.states) == 6


def test_product_of_the_six_point_space_with_itself():
    """ord6 is quasi-ordinal, so the opens of ord6 × ord6 are the down-sets
    of the product preorder: (a, b) ⪯ (c, d) iff a ⪯ c and b ⪯ d. The box
    closure once ran for minutes on these 36 items."""
    space = fixtures.space("ord6")
    order = to_quasi_order(space)
    labels = space.universe.labels
    uni = Universe(f"({a},{b})" for a, b in itertools.product(labels, repeat=2))
    pairs = [
        (f"({a},{b})", f"({c},{d})")
        for a, b, c, d in itertools.product(labels, repeat=4)
        if order.leq(a, c) and order.leq(b, d)
    ]
    got = product([space, space])
    assert got.universe == uni
    assert got.states == from_quasi_order(QuasiOrder.from_pairs(uni, pairs)).states
    assert len(got.states) == 7776


def all_boxes_product(xs):
    """The product by definition: the union closure of the box of every
    tuple of opens, each box read by label lookup."""
    label_tuples = list(itertools.product(*(s.universe.labels for s in xs)))
    index_of = {t: i for i, t in enumerate(label_tuples)}
    closed = {0}
    for opens in itertools.product(*(s.states.members for s in xs)):
        box = 0
        for combo in itertools.product(*(o.labels for o in opens)):
            box |= 1 << index_of[combo]
        if box not in closed:
            closed |= {m | box for m in closed}
    return ["(" + ",".join(t) + ")" for t in label_tuples], closed


def test_product_of_base_boxes_matches_the_all_boxes_closure():
    """Every ordered pair of a space on at most 2 points and one on at
    most 3, every triple of spaces on at most 2 points, and e1_tau × rnn."""
    upto2 = [s for n in (1, 2) for s in enumerate_spaces(n)]
    upto3 = upto2 + enumerate_spaces(3)
    cases = [[x, y] for x in upto2 for y in upto3]
    cases += [[y, x] for x in upto2 for y in upto3]
    cases += [list(t) for t in itertools.product(upto2, repeat=3)]
    cases.append([fixtures.space("e1_tau"), fixtures.space("rnn")])
    assert len(cases) == 626
    for xs in cases:
        labels, masks = all_boxes_product(xs)
        got = product(xs)
        assert got.universe.labels == tuple(labels)
        assert got.states.masks() == masks


def test_box_is_the_label_lookup_of_the_product():
    rng = random.Random(7)
    xs = [fixtures.space("e1_tau"), enumerate_spaces(2)[0], enumerate_spaces(3)[0]]
    prod = product(xs)
    sizes = [len(s.universe) for s in xs]
    for _ in range(200):
        parts = [ItemSet(s.universe, rng.randint(0, s.universe.full.mask)) for s in xs]
        want = item_set(
            prod, ["(" + ",".join(t) + ")" for t in itertools.product(*(a.labels for a in parts))]
        )
        assert _box(sizes, [a.mask for a in parts]) == want.mask


def test_pre_openness_on_the_base_matches_every_open():
    rng = random.Random(11)
    spaces = [s for n in (1, 2, 3) for s in enumerate_spaces(n)]
    seen = set()
    for _ in range(3000):
        x, y = rng.choice(spaces), rng.choice(spaces)
        f = PointMap(
            x.universe,
            y.universe,
            {t: rng.choice(y.universe.labels) for t in x.universe.labels},
        )
        every_open = all(y.states.has_mask(f.image_mask(o)) for o in x.states.masks())
        assert is_pre_open(f, x, y) == every_open
        seen.add(every_open)
    assert seen == {True, False}


def every_open_witness(f, x, y):
    """The least open of y, in canonical order, with a non-open preimage."""
    for w in y.states.members:
        if not x.states.has_mask(f.preimage_mask(w.mask)):
            return w
    return None


def test_continuity_and_homeomorphism_match_every_open_and_the_inverse():
    """The base-first witness and continuity test against a scan of every
    open of y, and the pre-homeomorphism flag against the continuity of
    f⁻¹, on every map between spaces on at most 3 points."""
    spaces = {n: enumerate_spaces(n) for n in (1, 2, 3)}
    bijections = 0
    outcomes = set()
    for a, b in itertools.product(spaces, repeat=2):
        xu, yu = spaces[a][0].universe, spaces[b][0].universe
        for targets in itertools.product(yu.labels, repeat=a):
            f = PointMap(xu, yu, dict(zip(xu.labels, targets)))
            inverse = f.inverse() if f.is_bijective() else None
            bijections += inverse is not None
            for x, y in itertools.product(spaces[a], spaces[b]):
                want = every_open_witness(f, x, y)
                assert pre_continuity_witness(f, x, y) == want
                assert is_pre_continuous(f, x, y) == (want is None)
                homeo = (
                    want is None
                    and inverse is not None
                    and every_open_witness(inverse, y, x) is None
                )
                assert classify_map(f, x, y).pre_homeomorphism == homeo
                outcomes.add((want is None, homeo))
    assert bijections == 1 + 2 + 6
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_quotient_by_singletons_is_the_space_itself():
    space = fixtures.space("e0")
    classes = [item_set(space, [t]) for t in space.universe.labels]
    q = quotient(space, classes)
    assert q.universe.labels == space.universe.labels
    assert q.states.masks() == space.states.masks()


def test_quotient_merging_two_items():
    space = fixtures.space("e0")
    classes = [
        item_set(space, ["z1"]),
        item_set(space, ["z2"]),
        item_set(space, ["z3", "z4"]),
    ]
    q = quotient(space, classes)
    assert q.universe.labels == ("z1", "z2", "z3+z4")
    expected = set()
    for w in range(8):
        pre = 0
        for ci, c in enumerate(classes):
            if w >> ci & 1:
                pre |= c.mask
        if space.states.has_mask(pre):
            expected.add(w)
    assert q.states.masks() == expected
    proj = quotient_projection(space, classes)
    assert is_pre_quotient(proj, space, q)


def test_quotient_labels_classes_whose_joined_labels_collide():
    """{a, b} and {a+b} both join to 'a+b': the two take the least free
    suffixes in class order. With an item 'a+b#1' as well, the suffix 1
    is taken, and the label of the item's own class is kept."""
    for labels, want in (
        (["a", "b", "a+b"], ("a+b#1", "a+b#2")),
        (["a", "b", "a+b", "a+b#1"], ("a+b#2", "a+b#3", "a+b#1")),
    ):
        u = Universe(labels)
        space = union_closure(SetFamily.of(u, [["a", "b"], ["a", "b", "a+b"], labels]))
        classes = [u.subset(["a", "b"])] + [u.subset([t]) for t in labels[2:]]
        q = quotient(space, classes)
        assert q.universe.labels == want
        proj = quotient_projection(space, classes)
        assert [proj(t) for t in labels] == [want[0], *want]
        # every state is a union of classes, so each is its own saturation
        assert q.states.masks() == {proj.image_mask(m) for m in space.states.masks()}
        assert is_pre_quotient(proj, space, q)


def test_quotient_by_reduction_classes_matches_the_reduction():
    space = fixtures.space("ord6")
    red = discriminative_reduction(space)
    q = quotient(space, list(red.classes))
    assert q.universe.labels == red.reduced.universe.labels
    assert q.states.masks() == red.reduced.states.masks()


def test_partition_validation():
    space = fixtures.space("e0")
    with pytest.raises(NotAPartition):
        quotient(space, [item_set(space, ["z1", "z2"]), item_set(space, ["z2", "z3", "z4"])])
    with pytest.raises(NotAPartition):
        quotient(space, [item_set(space, ["z1"]), item_set(space, [])])
    with pytest.raises(NotAPartition):
        quotient(space, [item_set(space, ["z1", "z2"])])


def test_child_family_of_the_four_point_structure():
    tau = fixtures.space("e1_tau")
    child = child_pretopology(tau, item_set(tau, ["z1", "z2"]), item_set(tau, ["z1", "z3"]))
    assert isinstance(child, ChildPretopology)
    assert set(child.carrier.labels) == {"z3", "z4"}
    got = sorted(sorted(m.labels) for m in child.family.members)
    assert got == [[], ["z3"], ["z3", "z4"], ["z4"]]
    assert child.coarser_than_subspace


def test_child_family_can_degenerate_to_the_empty_family():
    tau = fixtures.space("e1_tau")
    full = item_set(tau, list(tau.universe.labels))
    child = child_pretopology(tau, full, item_set(tau, ["z1", "z2"]))
    assert child.carrier.is_empty()
    assert [m.mask for m in child.family.members] == [0]
    assert child.coarser_than_subspace


def test_child_requires_a_state():
    tau = fixtures.space("e1_tau")
    with pytest.raises(NotAState):
        child_pretopology(tau, item_set(tau, ["z1", "z2"]), item_set(tau, ["z1"]))


def test_point_map_schema_and_composition():
    uni = Universe(["a", "b"])
    other = Universe(["p", "q"])
    with pytest.raises(SchemaError):
        PointMap.from_obj({"a": "p"}, uni, other)
    f = PointMap.from_obj({"map": {"a": "p", "b": "q"}}, uni, other)
    g = PointMap(other, uni, {"p": "b", "q": "a"})
    h = f.then(g)
    assert h("a") == "b" and h("b") == "a"
    assert f.inverse()("p") == "a"
