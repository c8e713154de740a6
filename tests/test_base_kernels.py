"""Base-first kernels against the pairwise-of-states algorithms they replace.

The oracles below are test-local copies of the pairwise scans over states
(O(|K|²) and worse). They are compared, witnesses included, on every
family over 3 items (union-closed or not), on every space on 4 points, and
on seeded random families on up to 12 items, union-closed and perturbed.
The normal and regular kernels, which read only the reach values R, and
the reduction, which pushes the states through the per-byte tables of
its projection (`maps.PointMap`), are also compared with the scan of
pairs of closed sets and the per-class image loop they replaced, on
seeded families on 13-64 items and at the 8-item chunk edges (m = 8, 9,
16, 17, 64), and on families where normality holds: opens that pairwise
meet, and sums of two such blocks, which have disjoint opens. The normal
kernel's table of minimal closed sets is compared with a filter of every
closed set. The separators R, built from the base alone, are compared
with the reach of every open on every space on up to 4 points and on
the seeded and wide families. The union-closure test, which closes the
base, is compared with the pairwise scan, witnesses included, on every
family on up to 4 items that holds ∅ and Q and on wide union closures
with one state removed.
The per-item meets N(q) (`core._item_meets`) are compared the same way
with the open scans, state systems and pairwise intersection tests that
T0, T1, quasi-ordinality, minimal states and the discriminative
reduction were computed with before. The operators (closure, interior,
boundary, derived set, density), which read the base, are compared with
the scans of every open they replace, on every space on up to 4 points
and on seeded spaces on up to 16 items. So are the subset tables
(`interior_table`, `closure_table`) and the fringe kernel
(`_fringe_masks`), against the per-subset operators and a copy of the
per-item fringe loop, with `is_tight_n_connected(·, 1)` against a copy of
its loop over `fringes` reports. The base of a family is computed once
and shared by every kernel that reads it, the subset tables are built
once and kept with it, and a family made from masks builds no member
item set unless someone iterates over it.
"""

import itertools
import random

import pytest

from pretopo import cardinal, core, miner, operators
from pretopo.core import (
    KnowledgeStructure,
    PreTopology,
    SetFamily,
    Universe,
    _irreducible_masks,
    irreducible_states,
    union_closure_masks,
)
from pretopo.errors import AxiomViolation, NotQuasiOrdinal
from pretopo.maps import PointMap
from pretopo.connectivity import is_tight_n_connected
from pretopo.operators import (
    _fringe_masks,
    boundary,
    closure,
    closure_table,
    derived_set,
    fringes,
    interior,
    interior_table,
    is_dense,
)
from pretopo.order import (
    Reduction,
    discriminative_reduction,
    is_quasi_ordinal,
    m_graph_connected,
    minimal_state,
    to_quasi_order,
)
from pretopo.separation import (
    _closed,
    _minimal_outside,
    _separators,
    is_completely_discriminative,
    is_discriminative,
    is_normal_property,
    is_regular_property,
    is_t0,
    is_t1,
    is_t2,
    separation_profile,
)
from pretopo import structure
from pretopo.structure import classify

# ------------------------------------------------------------------ oracles


def oracle_irreducible(masks):
    keep = set()
    for m in masks:
        below = 0
        for other in masks:
            if other != m and other & ~m == 0:
                below |= other
        if m and below != m:
            keep.add(m)
    return keep


def oracle_missing_union(masks):
    """First pair (a, b), a < b in mask order, whose union is missing."""
    ordered = sorted(masks)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a | b not in masks:
                return a, b
    return None


def oracle_classify(masks, full):
    structure = 0 in masks and full in masks
    union_closed = inter_closed = structure
    if structure:
        for a, b in itertools.combinations(masks, 2):
            union_closed &= a | b in masks
            inter_closed &= a & b in masks
    space = structure and union_closed
    quasi = space and inter_closed
    return (structure, space, quasi, quasi)


def oracle_t2(labels, opens):
    for i, j in itertools.combinations(range(len(labels)), 2):
        if not any(
            m >> i & 1 and w >> j & 1 and not m & w for m in opens for w in opens
        ):
            return False, (labels[i], labels[j])
    return True, None


def _closed_in_order(u, opens):
    full = u.full.mask
    return sorted(
        (full & ~m for m in opens),
        key=lambda m: (m.bit_count(), u.from_mask(m).indices()),
    )


def oracle_regular(u, opens):
    reach = {w: 0 for w in opens}
    for w in opens:
        for m in opens:
            if not m & w:
                reach[w] |= m
    for i in range(len(u)):
        bit = 1 << i
        for f in _closed_in_order(u, opens):
            if f & bit:
                continue
            if not any(f & ~w == 0 and reach[w] & bit for w in opens):
                return False, (u.labels[i], u.from_mask(f).labels)
    return True, None


def oracle_normal(u, opens):
    closed = _closed_in_order(u, opens)
    for idx, e in enumerate(closed):
        for f in closed[idx + 1 :]:
            if e & f:
                continue
            if not any(
                not e & ~a and not f & ~b and not a & b for a in opens for b in opens
            ):
                return False, (u.from_mask(e).labels, u.from_mask(f).labels)
    return True, None


def oracle_normal_scan(u, opens):
    """The scan of pairs of closed sets that `_normal` replaced: for each
    pair, some open U ⊇ e with f ⊆ reach[U], the largest open disjoint
    from U. O(|K|³), so it reaches families the pairs-of-opens oracle
    above cannot."""
    reach = {w: 0 for w in opens}
    for w in opens:
        for m in opens:
            if not m & w:
                reach[w] |= m
    closed = _closed_in_order(u, opens)
    for idx, e in enumerate(closed):
        for f in closed[idx + 1 :]:
            if e & f:
                continue
            if not any(not e & ~w and not f & ~reach[w] for w in opens):
                return False, (u.from_mask(e).labels, u.from_mask(f).labels)
    return True, None


def oracle_separators(masks):
    """The per-open route to R = {reach[U] : U open}: the reach of every
    open over the base, `_reach(all opens, base)`, O(|K|·|B|), as a map
    from each g in R to reach[g]."""
    base = oracle_irreducible(masks)
    reach = {}
    for w in masks:
        r = 0
        for b in base:
            if not b & w:
                r |= b
        reach[w] = r
    return {g: reach[g] for g in reach.values()}


def check_separators(space):
    """R and each pair's reach[g], built from the base alone, against
    the reach of every open; no g is listed twice."""
    got = _separators(space)
    assert len({g for g, _ in got}) == len(got)
    assert dict(got) == oracle_separators(space.states.masks())


def oracle_discriminative(labels, opens):
    for i, j in itertools.combinations(range(len(labels)), 2):
        if all((m >> i & 1) == (m >> j & 1) for m in opens):
            return False, (labels[i], labels[j])
    return True, None


def oracle_t0(labels, opens):
    for i, j in itertools.combinations(range(len(labels)), 2):
        pair = (1 << i) | (1 << j)
        if not any((m & pair).bit_count() == 1 for m in opens):
            return False, (labels[i], labels[j])
    return True, None


def oracle_t1(labels, opens):
    for i, j in itertools.product(range(len(labels)), repeat=2):
        if i != j and not any(m >> i & 1 and not m >> j & 1 for m in opens):
            return False, (labels[i], labels[j])
    return True, None


def oracle_quasi_ordinal(masks):
    return all(a & b in masks for a, b in itertools.combinations(masks, 2))


def oracle_meets(n, opens):
    """Per item, the meet of every open through it."""
    meets = []
    for i in range(n):
        inter = (1 << n) - 1
        for m in opens:
            if m >> i & 1:
                inter &= m
        meets.append(inter)
    return meets


def oracle_m_graph_connected(meets):
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(meets)):
            if j not in seen and meets[i] & meets[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(meets)


def oracle_minimal_state(n, opens, i):
    """The ⊆-minimal states through i, if there is exactly one."""
    through = [m for m in opens if m >> i & 1]
    mins = [m for m in through if not any(o != m and o & ~m == 0 for o in through)]
    return mins[0] if len(mins) == 1 else None


def oracle_reduction(structure):
    """Classes by equal frozenset state systems; untrusted quotient."""
    u = structure.universe
    masks = structure.states.masks()
    systems = [frozenset(m for m in masks if m >> i & 1) for i in range(len(u))]
    reps = []
    for i, system in enumerate(systems):
        if not any(systems[r] == system for r in reps):
            reps.append(i)
    classes = [
        sum(1 << i for i in range(len(u)) if systems[i] == systems[r]) for r in reps
    ]
    labels = ["+".join(u.from_mask(c).labels) for c in classes]
    ru = Universe(labels)
    images = {
        sum(1 << k for k, c in enumerate(classes) if m & c) for m in masks
    }
    family = SetFamily.from_masks(ru, images)
    kind = PreTopology if isinstance(structure, PreTopology) else KnowledgeStructure
    assignment = {
        u.labels[i]: labels[k]
        for k, c in enumerate(classes)
        for i in range(len(u))
        if c >> i & 1
    }
    return Reduction(
        classes=tuple(u.from_mask(c) for c in classes),
        reduced=kind(ru, family),
        projection=PointMap(u, ru, assignment),
    )


def oracle_reduction_by_classes(structure):
    """The reduction with the per-class image loop it used before the
    per-byte tables: each state is tested against every class."""
    u = structure.universe
    meets = oracle_meets(len(u), structure.states.masks())
    groups = {}
    for i, meet in enumerate(meets):
        groups[meet] = groups.get(meet, 0) | 1 << i
    classes = list(groups.values())
    labels = ["+".join(u.from_mask(c).labels) for c in classes]
    ru = Universe(labels)
    images = set()
    for m in structure.states.masks():
        img = 0
        for k, c in enumerate(classes):
            if m & c:
                img |= 1 << k
        images.add(img)
    kind = PreTopology if isinstance(structure, PreTopology) else KnowledgeStructure
    class_of = {meet: k for k, meet in enumerate(groups)}
    assignment = {t: labels[class_of[meets[i]]] for i, t in enumerate(u.labels)}
    return Reduction(
        classes=tuple(u.from_mask(c) for c in classes),
        reduced=kind(ru, SetFamily.from_masks(ru, images)),
        projection=PointMap(u, ru, assignment),
    )


def oracle_closure(opens, full, a):
    out = full
    for o in opens:
        closed = full & ~o
        if a & ~closed == 0:
            out &= closed
    return out


def oracle_interior(opens, a):
    out = 0
    for o in opens:
        if o & ~a == 0:
            out |= o
    return out


def oracle_derived_set(opens, n, a):
    out = 0
    for i in range(n):
        bit = 1 << i
        rest = a & ~bit
        if all(o & rest for o in opens if o & bit):
            out |= bit
    return out


def oracle_fringes(space, w):
    """The per-item loop of `fringes` before the mask kernel."""
    inner = 0
    outer = 0
    for i in range(len(space.universe)):
        bit = 1 << i
        if w & bit:
            if space.states.has_mask(w & ~bit):
                inner |= bit
        elif space.states.has_mask(w | bit):
            outer |= bit
    return inner, outer


def oracle_tight1(space):
    """`is_tight_n_connected(space, 1)` before the fringe kernel: one
    `fringes` report per member, over the item-set members."""
    members = list(space.states.members)
    lc = {m.mask: fringes(space, m).full.mask for m in members}
    for u_ in members:
        for w in members:
            if u_.mask == w.mask:
                continue
            if not ((u_.mask ^ w.mask) & lc[u_.mask]):
                return False
    return True


# ------------------------------------------------------------------ drivers


def check_family(u, masks):
    """Every kernel that accepts an arbitrary family."""
    masks = frozenset(masks)
    full = u.full.mask
    assert set(_irreducible_masks(masks)) == oracle_irreducible(masks)
    c = classify(SetFamily.from_masks(u, masks))
    got = (c.is_knowledge_structure, c.is_knowledge_space, c.is_topology, c.is_quasi_ordinal)
    assert got == oracle_classify(masks, full)
    if 0 not in masks or full not in masks:
        return None
    family = SetFamily.from_masks(u, masks)
    assert set(irreducible_states(KnowledgeStructure(u, family)).masks()) == (
        oracle_irreducible(masks)
    )
    missing = oracle_missing_union(masks)
    if missing is None:
        return PreTopology(u, family)
    with pytest.raises(AxiomViolation) as err:
        PreTopology(u, family)
    assert err.value.witness == tuple(str(u.from_mask(m)) for m in missing)
    return None


def check_space(space):
    """Every separation kernel of a pre-topology, witnesses included."""
    u = space.universe
    opens = sorted(space.states.masks())
    t2 = oracle_t2(u.labels, opens)
    assert is_t2(space) == t2
    assert is_completely_discriminative(space) == t2[0]
    profile = separation_profile(space)
    assert profile.completely_discriminative == t2[0]
    assert profile.witnesses.get("completely_discriminative") == (
        None if t2[1] is None else list(t2[1])
    )
    assert is_regular_property(space) == oracle_regular(u, opens)
    assert is_normal_property(space) == oracle_normal(u, opens)
    assert is_discriminative(space) == oracle_discriminative(u.labels, opens)


def check_reduction(structure):
    got = discriminative_reduction(structure)
    want = oracle_reduction(structure)
    assert got.to_obj() == want.to_obj()
    assert type(got.reduced) is type(want.reduced)


def check_meet_routes(space):
    """Every notion read from the per-item meets, witnesses included,
    and the separators R, which are read from the base."""
    u = space.universe
    check_separators(space)
    n = len(u)
    opens = sorted(space.states.masks())
    t0, t1 = oracle_t0(u.labels, opens), oracle_t1(u.labels, opens)
    assert is_t0(space) == is_discriminative(space) == t0
    assert is_t1(space) == t1
    profile = separation_profile(space)
    assert (profile.t0, profile.discriminative) == (t0[0], t0[0])
    assert (profile.t1, profile.bi_discriminative) == (t1[0], t1[0])
    for key, (_, w) in (
        ("t0", t0), ("discriminative", t0), ("t1", t1), ("bi_discriminative", t1)
    ):
        assert profile.witnesses.get(key) == (None if w is None else list(w))
    quasi = oracle_quasi_ordinal(opens)
    assert is_quasi_ordinal(space) == quasi
    meets = oracle_meets(n, opens)
    for i, t in enumerate(u.labels):
        want = oracle_minimal_state(n, opens, i)
        got = minimal_state(space, t)
        assert (None if got is None else got.mask) == want
    if quasi:
        up = tuple(sum(1 << y for y in range(n) if meets[y] >> x & 1) for x in range(n))
        assert to_quasi_order(space).up == up
        assert m_graph_connected(space) == oracle_m_graph_connected(meets)
    else:
        with pytest.raises(NotQuasiOrdinal):
            to_quasi_order(space)
        with pytest.raises(NotQuasiOrdinal):
            m_graph_connected(space)
    check_reduction(space)


def check_operators(space, queries):
    """Every operator against the scan of the opens, on the given masks."""
    u = space.universe
    n, full = len(u), u.full.mask
    opens = sorted(space.states.masks())
    for a in queries:
        cl = oracle_closure(opens, full, a)
        item_set = u.from_mask(a)
        assert closure(space, item_set).mask == cl
        assert interior(space, item_set).mask == oracle_interior(opens, a)
        assert boundary(space, item_set).mask == cl & oracle_closure(opens, full, full & ~a)
        assert derived_set(space, item_set).mask == oracle_derived_set(opens, n, a)
        assert is_dense(space, item_set) == (cl == full)


def check_tables(space, queries):
    """The subset tables and the fringe kernel against the per-subset
    operators and the per-item fringe loop, on the given masks."""
    u = space.universe
    itr, cl = interior_table(space), closure_table(space)
    assert len(itr) == len(cl) == 1 << len(u)
    for a in queries:
        item_set = u.from_mask(a)
        assert itr[a] == interior(space, item_set).mask
        assert cl[a] == closure(space, item_set).mask
        want = oracle_fringes(space, a)
        assert _fringe_masks(space, a) == want
        rep = fringes(space, item_set)
        assert (rep.inner.mask, rep.outer.mask) == want
    assert is_tight_n_connected(space, 1) == oracle_tight1(space)


def random_families(count, seed):
    """Pairs (universe, masks): union closures and perturbed copies."""
    rng = random.Random(seed)
    for k in range(count):
        m = rng.randint(1, 12)
        u = Universe([f"x{i + 1}" for i in range(m)])
        full = (1 << m) - 1
        gens = [rng.getrandbits(m) for _ in range(rng.randint(1, 6))]
        closed = union_closure_masks(gens) | {full}
        if k % 2:
            inner = sorted(closed - {0, full})
            if inner and rng.random() < 0.5:
                closed.discard(rng.choice(inner))
            else:
                closed.add(rng.getrandbits(m))
        yield u, closed


def wide_families(seed):
    """Pairs (universe, masks) on 13-64 items, and at the edges of the
    8-item chunks, m = 8, 9, 16, 17 and 64. Each is the sum of two spaces
    on disjoint items, its opens the unions of one open of each: a space
    on up to 4 points whose every point is spread over several items (so
    the items fall into notion classes, and the sum is normal iff this
    part is), and a union closure of sparse generators on the other
    items. |K| stays at most 64 for the scan oracles. Every other family
    has one state removed, for the reduction of a knowledge structure."""
    rng = random.Random(seed)
    for k, m in enumerate([8, 9, 16, 17, 64] * 4 + [rng.randint(13, 64) for _ in range(40)]):
        u = Universe([f"x{i + 1}" for i in range(m)])
        while True:
            n = rng.randint(2, 4)
            points = union_closure_masks(
                [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
            ) | {0, (1 << n) - 1}
            cut = rng.randint(n, m)
            point_of = list(range(n)) + [rng.randrange(n) for _ in range(cut - n)]
            rng.shuffle(point_of)
            spread = {
                sum(1 << i for i, q in enumerate(point_of) if s >> q & 1) for s in points
            }
            rest = union_closure_masks(
                [
                    sum(1 << i for i in range(cut, m) if rng.random() < 0.2)
                    for _ in range(rng.randint(0, 3))
                ]
            ) | {0, (1 << m) - (1 << cut)}
            masks = {a | b for a in spread for b in rest}
            if len(masks) <= 64:
                break
        inner = sorted(masks - {0, (1 << m) - 1})
        if k % 2 and inner:
            masks.discard(rng.choice(inner))
        yield u, masks


def meeting_opens(rng, items):
    """Opens on the given items, in order, that pairwise meet unless
    empty: every generator holds the first item and misses the last, so
    no two proper opens cover the items and no two nonempty closed sets
    are disjoint. Normality holds."""
    first, last = items[0], items[-1]
    block = sum(1 << i for i in items)
    gens = []
    for _ in range(rng.randint(1, 4)):
        g = 0
        for i in items:
            if rng.random() < 0.4:
                g |= 1 << i
        gens.append((g | 1 << first) & ~(1 << last))
    return union_closure_masks(gens) | {0, block}


def normal_families(seed):
    """Pairs (universe, masks) where normality holds. One block of
    opens that pairwise meet, or the sum of two such blocks on disjoint
    items, whose opens are the unions of one open of each: a sum of
    normal spaces is normal, and its two blocks are disjoint opens."""
    rng = random.Random(seed)
    for k in range(24):
        m = rng.choice([8, 9, 16, 17, 64]) if k % 3 == 0 else rng.randint(13, 64)
        u = Universe([f"x{i + 1}" for i in range(m)])
        if k % 2:
            masks = meeting_opens(rng, list(range(m)))
        else:
            cut = rng.randint(3, m - 3)
            left = meeting_opens(rng, list(range(cut)))
            right = meeting_opens(rng, list(range(cut, m)))
            masks = {a | b for a in left for b in right}
        yield u, masks


def check_wide(u, masks):
    """Normal and regular verdicts and witnesses against the scans they
    replaced, and the reduction against the per-class image loop."""
    family = SetFamily.from_masks(u, masks)
    if oracle_missing_union(masks) is not None:
        got = discriminative_reduction(KnowledgeStructure(u, family))
        assert got.to_obj() == oracle_reduction_by_classes(KnowledgeStructure(u, family)).to_obj()
        return None
    space = PreTopology(u, family)
    check_separators(space)
    opens = sorted(masks)
    normal = oracle_normal_scan(u, opens)
    assert is_normal_property(space) == normal
    assert is_regular_property(space) == oracle_regular(u, opens)
    profile = separation_profile(space)
    assert profile.normal_property == normal[0]
    assert profile.witnesses.get("normal_property") == (
        None if normal[1] is None else [list(normal[1][0]), list(normal[1][1])]
    )
    got = discriminative_reduction(space)
    want = oracle_reduction_by_classes(space)
    assert got.to_obj() == want.to_obj()
    assert type(got.reduced) is type(want.reduced)
    return normal[0]


# -------------------------------------------------------------------- tests


def test_every_family_on_three_items():
    u = Universe(["a", "b", "c"])
    spaces = 0
    for bits in range(1 << 8):
        masks = [s for s in range(8) if bits >> s & 1]
        space = check_family(u, masks)
        if space is not None:
            spaces += 1
            check_space(space)
    assert spaces == 45


def test_every_space_on_four_points():
    spaces = miner.enumerate_spaces(4)
    assert len(spaces) == 2271
    for space in spaces:
        assert check_family(space.universe, space.states.masks()) is not None
        check_space(space)


def test_seeded_random_families():
    spaces = 0
    for u, masks in random_families(200, seed=7):
        space = check_family(u, masks)
        if space is not None:
            spaces += 1
            check_space(space)
    assert spaces >= 100


def test_meet_routes_on_every_structure_on_three_items():
    u = Universe(["a", "b", "c"])
    structures = spaces = 0
    for bits in range(1 << 8):
        masks = {s for s in range(8) if bits >> s & 1}
        if not {0, 7} <= masks:
            continue
        structures += 1
        family = SetFamily.from_masks(u, masks)
        check_reduction(KnowledgeStructure(u, family))
        if oracle_missing_union(masks) is None:
            spaces += 1
            check_meet_routes(PreTopology(u, family))
    assert (structures, spaces) == (64, 45)


def test_meet_routes_on_every_space_up_to_four_points():
    for n, count in ((1, 1), (2, 4), (3, 45), (4, 2271)):
        spaces = miner.enumerate_spaces(n)
        assert len(spaces) == count
        for space in spaces:
            check_meet_routes(space)


def test_meet_routes_on_seeded_random_families():
    spaces = 0
    for u, masks in random_families(200, seed=11):
        if not {0, u.full.mask} <= masks:
            continue
        family = SetFamily.from_masks(u, masks)
        if oracle_missing_union(masks) is None:
            spaces += 1
            check_meet_routes(PreTopology(u, family))
        else:
            check_reduction(KnowledgeStructure(u, family))
    assert spaces >= 100


def test_operators_on_every_space_up_to_four_points():
    for n in (1, 2, 3, 4):
        for space in miner.enumerate_spaces(n):
            check_operators(space, range(1 << n))


def test_operators_on_seeded_spaces_up_to_sixteen_items():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 16)
        u = Universe([f"x{i + 1}" for i in range(m)])
        full = (1 << m) - 1
        gens = [rng.getrandbits(m) for _ in range(rng.randint(1, 8))]
        space = PreTopology(u, SetFamily.from_masks(u, union_closure_masks(gens) | {full}))
        queries = [0, full] + [rng.getrandbits(m) for _ in range(30)]
        # sparse sets, so that some are dense and some derived sets are nonempty
        queries += [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(10)]
        check_operators(space, queries)


def test_subset_tables_and_fringes_on_every_space_up_to_four_points():
    for n in (1, 2, 3, 4):
        for space in miner.enumerate_spaces(n):
            check_tables(space, range(1 << n))


def test_subset_tables_and_fringes_on_seeded_spaces_up_to_sixteen_items():
    """Every subset up to 10 items; past that, the empty set, the
    universe, the states, and random and sparse sets."""
    rng = random.Random(17)
    sizes = [rng.randint(1, 16) for _ in range(60)] + [16]
    for m in sizes:
        u = Universe([f"x{i + 1}" for i in range(m)])
        full = (1 << m) - 1
        gens = [rng.getrandbits(m) for _ in range(rng.randint(1, 8))]
        space = PreTopology(u, SetFamily.from_masks(u, union_closure_masks(gens) | {full}))
        if m <= 10:
            queries = range(full + 1)
        else:
            queries = [0, full, *space.states.masks()]
            queries += [rng.getrandbits(m) for _ in range(40)]
            queries += [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(20)]
        check_tables(space, queries)


def test_the_subset_tables_are_built_once_and_read_by_the_closure_operator(monkeypatch):
    space = miner.enumerate_spaces(4)[-300]
    itr = interior_table(space)
    assert interior_table(space) is itr
    assert space.states._base().interiors is itr

    def refuse(*args):
        raise AssertionError("a per-subset closure query")

    monkeypatch.setattr(operators, "closure", refuse)
    table = structure.ClosureOperatorTable.of_space(space)
    assert [table.assignment[a] for a in range(16)] == list(closure_table(space))


def test_the_base_of_a_family_is_computed_once(monkeypatch):
    """One space through a full analysis: validation, classification,
    the base, weight, density, separation, reduction and primary items
    all read the one base the family computed."""
    calls = []
    real = core._irreducible_masks

    def counted(masks):
        calls.append(1)
        return real(masks)

    monkeypatch.setattr(core, "_irreducible_masks", counted)
    rng = random.Random(3)
    u = Universe([f"x{i + 1}" for i in range(10)])
    gens = [rng.getrandbits(10) for _ in range(8)]
    family = SetFamily.from_masks(u, union_closure_masks(gens) | {u.full.mask})
    space = PreTopology(u, family)
    classify(family)
    base = irreducible_states(space)
    cardinal.weight(space)
    is_dense(space, u.full)
    is_dense(space, u.from_mask(0b101))
    separation_profile(space)
    discriminative_reduction(space)
    cardinal.density_exact(space)
    cardinal.greedy_primary_items(space)
    assert len(calls) == 1
    assert irreducible_states(space) is base


def test_a_family_from_masks_builds_no_member_item_sets():
    """Validation, classification, the operators, separation and the
    reduction read the family's masks and its base: none of them builds
    the member item sets, of the family or of its base."""
    rng = random.Random(5)
    u = Universe([f"x{i + 1}" for i in range(12)])
    gens = [rng.getrandbits(12) for _ in range(8)]
    family = SetFamily.from_masks(u, union_closure_masks(gens) | {u.full.mask})
    space = PreTopology(u, family)
    classify(family)
    for a in (0, 0b101, rng.getrandbits(12), u.full.mask):
        closure(space, u.from_mask(a))
        interior(space, u.from_mask(a))
    separation_profile(space)
    discriminative_reduction(space)
    cardinal.weight(space)
    assert family._members is None
    assert family._base().irreducibles._members is None
    assert len(family.members) == len(family)
    assert family._members is not None


def test_classify_reads_the_validation_verdict(monkeypatch):
    """Validation keeps its union-closure verdict on the family, so
    `classify` of a validated family does not test again; a trusted
    construction leaves the verdict unknown, so `classify` computes it."""
    calls = []
    real = core._is_union_closed

    def counted(masks, base):
        calls.append(1)
        return real(masks, base)

    monkeypatch.setattr(core, "_is_union_closed", counted)
    u = Universe(["a", "b", "c"])
    family = SetFamily.from_masks(u, [0, 0b001, 0b011, 0b100, 0b101, 0b111])
    PreTopology(u, family)
    assert classify(family).is_knowledge_space
    assert len(calls) == 1

    calls.clear()
    trusted = SetFamily.from_masks(u, [0, 0b001, 0b011, 0b100, 0b101, 0b111])
    PreTopology(u, trusted, _trusted=True)
    assert classify(trusted).is_knowledge_space
    assert len(calls) == 1

    # a family wrongly trusted is still classified by the computed test
    calls.clear()
    wrong = SetFamily.from_masks(u, [0, 0b001, 0b100, 0b111])
    PreTopology(u, wrong, _trusted=True)
    assert not classify(wrong).is_knowledge_space
    assert len(calls) == 1
    with pytest.raises(AxiomViolation):
        PreTopology(u, wrong)
    assert not classify(wrong).is_knowledge_space
    assert len(calls) == 1



def test_seeded_families_on_thirteen_to_sixty_four_items():
    spaces = normal = 0
    for u, masks in wide_families(seed=17):
        verdict = check_wide(u, masks)
        if verdict is not None:
            spaces += 1
            normal += verdict
    assert spaces >= 30
    assert 0 < normal < spaces


def test_families_where_normality_holds():
    disjoint = 0
    for u, masks in normal_families(seed=19):
        assert check_wide(u, masks) is True
        disjoint += any(a and b and not a & b for a, b in itertools.combinations(masks, 2))
    assert disjoint == 12


def test_minimal_closed_sets_outside_every_reach():
    """The table `is_normal_property` keeps per distinct set of reach
    values: the ⊆-minimal closed sets in none of them, against a filter
    of every closed set, for every such set the scan meets."""
    tables = 0
    for u, masks in wide_families(seed=23):
        if oracle_missing_union(masks) is not None:
            continue
        space = PreTopology(u, SetFamily.from_masks(u, masks))
        closed = _closed(u, masks)
        separators = _separators(space)
        for under in {tuple(r for g, r in separators if not e & ~g) for e in closed}:
            outside = [f for f in closed if all(f & ~r for r in under)]
            want = [f for f in outside if not any(o != f and not o & ~f for o in outside)]
            assert _minimal_outside(closed, under) == want
            tables += 1
    assert tables >= 100


def check_union_closure_test(u, masks):
    """`_is_union_closed` against the pairwise scan, on a family that
    holds ∅; a rejected family raises the scan's witness."""
    masks = frozenset(masks)
    missing = oracle_missing_union(masks)
    assert core._is_union_closed(masks, _irreducible_masks(masks)) == (missing is None)
    if missing is not None:
        with pytest.raises(AxiomViolation) as err:
            PreTopology(u, SetFamily.from_masks(u, masks))
        assert err.value.witness == tuple(str(u.from_mask(m)) for m in missing)
    return missing is None


def test_union_closure_test_on_every_structure_up_to_four_items():
    """Every family on 1 to 4 items that holds ∅ and Q: 1, 4, 64 and
    16,384 of them, of which 1, 4, 45 and 2,271 are union-closed."""
    for n, structures, spaces in ((1, 1, 1), (2, 4, 4), (3, 64, 45), (4, 16384, 2271)):
        u = Universe([f"x{i + 1}" for i in range(n)])
        full = (1 << n) - 1
        inner = range(1, full)
        closed = 0
        for bits in range(1 << len(inner)):
            masks = [0, full] + [s for k, s in enumerate(inner) if bits >> k & 1]
            closed += check_union_closure_test(u, masks)
        assert (1 << len(inner), closed) == (structures, spaces)


def test_union_closure_test_on_wide_families_with_a_state_removed():
    """Union closures on 13-64 items, and each with one state other than
    ∅ and Q removed: removing an irreducible state keeps the family
    union-closed, removing any other breaks it."""
    rng = random.Random(29)
    kept = broken = 0
    for u, masks in wide_families(seed=31):
        if oracle_missing_union(masks) is not None:
            continue
        assert check_union_closure_test(u, masks)
        full = u.full.mask
        for _ in range(3):
            inner = sorted(masks - {0, full})
            if not inner:
                break
            cut = masks - {rng.choice(inner)}
            if check_union_closure_test(u, cut):
                kept += 1
            else:
                broken += 1
    assert kept >= 10 and broken >= 10
