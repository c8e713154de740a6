"""Weight, density, primary-items constructions, cellularity, character.

The greedy trace and the matrix are compared with test-local copies of
the two selection loops they replaced, the matrix loop permuting rows
and columns as it picked, on every space on up to 4 points, every
fixture (and the two fixture files that give the minimal pre-base
itself), and the seeded wide and normal families of
`test_base_kernels`.
"""

import itertools
import random

import pytest

from pretopo import (
    NotMinimalPreBase,
    PreTopology,
    SetFamily,
    Universe,
    cellularity,
    character,
    density_exact,
    enumerate_spaces,
    greedy_primary_items,
    irreducible_states,
    is_dense,
    matrix_primary_items,
    weight,
)
from pretopo.cardinal import MatrixState, PrimaryItemsTrace, _prune
from pretopo.core import ItemSet, union_closure, union_closure_masks

import fixture_files as fixtures
from test_base_kernels import normal_families, wide_families

UNI3 = Universe(["a1", "a2", "a3"])
TWO = PreTopology.from_family(SetFamily.from_masks(UNI3, [0, 7]))
POW3 = PreTopology.from_family(SetFamily.from_masks(UNI3, range(8)))


def brute_density(space):
    """Smallest, then lexicographically least, hitting set of the base."""
    base = [s.mask for s in irreducible_states(space).members]
    m = len(space.universe)
    if not base:
        return 0, ()
    for k in range(m + 1):
        for combo in itertools.combinations(range(m), k):
            mask = sum(1 << i for i in combo)
            if all(b & mask for b in base):
                return k, combo
    raise AssertionError("unreachable")


def test_weight_examples():
    assert weight(fixtures.space("e1_tau")) == 6
    assert weight(TWO) == 1
    assert weight(fixtures.space("alg5")) == 5


def test_density_exact_examples():
    n, d = density_exact(fixtures.space("e1_tau"))
    assert n == 3 and sorted(d.labels) == ["z1", "z2", "z3"]
    n, d = density_exact(fixtures.space("alg5"))
    assert n == 2 and sorted(d.labels) == ["z1", "z2"]
    n, d = density_exact(TWO)
    assert n == 1 and list(d.labels) == ["a1"]


def seeded_spaces(count, seed):
    """Union closures of random generators on 1 to 12 points."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 12)
        u = Universe([f"x{i + 1}" for i in range(m)])
        full = (1 << m) - 1
        gens = [rng.getrandbits(m) for _ in range(rng.randint(1, 2 * m))]
        masks = union_closure_masks(gens) | {full}
        yield PreTopology.from_family(SetFamily.from_masks(u, masks))


def test_density_exact_matches_the_exhaustive_sweep():
    spaces = [fixtures.space(name) for name in ("tight", "conn", "e0", "e1_delta")]
    spaces += [s for n in range(1, 5) for s in enumerate_spaces(n)]
    spaces += seeded_spaces(200, 4)
    assert max(len(s.universe) for s in spaces) == 12
    for space in spaces:
        n, d = density_exact(space)
        bn, combo = brute_density(space)
        assert n == bn
        assert tuple(space.universe.index(l) for l in d.labels) == combo
        assert is_dense(space, d)


def dense_rung_spaces(count, seed):
    """Union closures on 13 to 20 items with 20 to 40 base members and
    at most 1,100 states, the shape of the dense benchmark spaces:
    random generators of one density are added unless they would push
    the family past 1,100 states, and a family whose base falls outside
    20-40 members is drawn again."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        m = rng.randint(13, 20)
        full = (1 << m) - 1
        p = rng.choice([0.25, 0.35, 0.5])
        closed = {0, full}
        for _ in range(rng.randint(25, 60)):
            g = sum(1 << i for i in range(m) if rng.random() < p)
            grown = closed | {x | g for x in closed}
            if len(grown) <= 1100:
                closed = grown
        u = Universe([f"x{i + 1}" for i in range(m)])
        space = PreTopology.from_family(SetFamily.from_masks(u, closed))
        if 20 <= weight(space) <= 40:
            made += 1
            yield space


def test_density_exact_matches_the_sweep_on_dense_rung_spaces():
    """The first hitting combination of the base, by size and then in
    `itertools.combinations` order, is the lexicographically least
    optimum; the greedy hitting set is not it on most of these spaces."""
    sizes, optima, beaten = set(), set(), 0
    for space in dense_rung_spaces(30, 5):
        n, d = density_exact(space)
        bn, combo = brute_density(space)
        assert (n, d.indices()) == (bn, combo)
        assert is_dense(space, d)
        greedy = greedy_primary_items(space).result
        beaten += len(greedy) > n or greedy.indices() != combo
        sizes.add(len(space.universe))
        optima.add(n)
    assert sizes == set(range(13, 21))
    assert len(optima) >= 3
    assert beaten >= 10


def test_greedy_construction_on_the_ten_state_space():
    trace = greedy_primary_items(fixtures.space("alg5"))
    assert [p for p, _ in trace.picked] == ["z3", "z1", "z2"]
    assert [len(blk) for _, blk in trace.picked] == [3, 1, 1]
    assert sorted(trace.result.labels) == ["z1", "z2"]


def test_greedy_result_is_always_dense():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        trace = greedy_primary_items(space)
        base = [s.mask for s in irreducible_states(space).members]
        assert all(b & trace.result.mask for b in base), name
        picked_items = {p for p, _ in trace.picked}
        assert set(trace.result.labels) <= picked_items, name


def test_greedy_blocks_partition_the_base():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        trace = greedy_primary_items(space)
        base = {s.mask for s in irreducible_states(space).members}
        seen = []
        for _, blk in trace.picked:
            seen.extend(b.mask for b in blk.members)
        assert sorted(seen) == sorted(base), name


def test_greedy_matches_the_optimum_on_small_fixtures():
    for name in ("alg5", "e1_tau", "tight"):
        space = fixtures.space(name)
        assert len(greedy_primary_items(space).result) == density_exact(space)[0]


def test_matrix_construction_on_the_ten_state_space():
    d, state = matrix_primary_items(fixtures.family("alg5"))
    assert sorted(d.labels) == ["z1", "z2"]
    assert state.rows == ("z3", "z1", "z2", "z4", "z5")
    assert state.block_sizes == (3, 1, 1)
    assert state.final_submatrix() == (
        (1, 1, 1, 0, 0),
        (1, 0, 1, 1, 0),
        (0, 1, 0, 0, 1),
    )


def test_matrix_on_a_single_block():
    uni = Universe(["z1", "z2"])
    base = SetFamily.from_masks(uni, [0b11])
    d, state = matrix_primary_items(base)
    assert list(d.labels) == ["z1"]
    assert state.block_sizes == (1,)


def test_matrix_on_the_vertex_cover_base():
    d, state = matrix_primary_items(fixtures.family("vertex_cover"))
    assert len(d) == 2
    assert sum(state.block_sizes) == len(state.cols)


def test_matrix_rejects_non_minimal_bases():
    uni = Universe(["z1", "z2"])
    redundant = SetFamily.from_masks(uni, [0b01, 0b10, 0b11])
    with pytest.raises(NotMinimalPreBase):
        matrix_primary_items(redundant)


def test_matrix_agrees_with_greedy_on_every_fixture():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        base = irreducible_states(space)
        d, state = matrix_primary_items(base)
        assert d.mask == greedy_primary_items(space).result.mask, name
        assert sum(state.block_sizes) == len(base.members), name


def oracle_select(masks, m, consumed_items, order=None):
    ranks = order if order is not None else list(range(m))
    counts = {i: sum(1 for b in masks if b >> i & 1) for i in ranks}
    top = max(counts.values())
    cand = [i for i in ranks if counts[i] == top]
    if top == 1:
        outside = [i for i in cand if not consumed_items >> i & 1]
        if outside:
            cand = outside
    best_i = cand[0]
    best_cov = -1
    for i in cand:
        cov = 0
        for b in masks:
            if b >> i & 1:
                cov |= b
        cov_n = bin(cov).count("1")
        if cov_n > best_cov:
            best_i, best_cov = i, cov_n
    return best_i


def oracle_greedy(space):
    """The greedy loop as it stood in `greedy_primary_items`."""
    u = space.universe
    base = list(space.states._base().masks)
    remaining = list(base)
    consumed = 0
    picks = []
    while remaining:
        i = oracle_select(remaining, len(u), consumed)
        block = [b for b in remaining if b >> i & 1]
        remaining = [b for b in remaining if not b >> i & 1]
        for b in block:
            consumed |= b
        picks.append((i, block))
    pruned, result = _prune(u, picks, base)
    picked = tuple((u.labels[i], SetFamily.from_masks(u, blk)) for i, blk in picks)
    return PrimaryItemsTrace(picked=picked, pruned=pruned, result=result)


def oracle_matrix(base):
    """The matrix loop as it stood in `matrix_primary_items`: the picked
    row moves to the front of the unpicked rows and its block columns to
    the front of the unconsumed columns, each move keeping the order of
    the rest; the pick reads the unpicked rows in their current order."""
    u = base.universe
    base_masks = [s.mask for s in base.nonempty_members()]
    m = len(u)
    rows = list(range(m))
    cols = base_masks
    picks = []
    block_sizes = []
    done = consumed = k = 0
    while done < len(cols):
        rest = cols[done:]
        i = oracle_select(rest, m, consumed, order=rows[k:])
        block = [b for b in rest if b >> i & 1]
        keep = [b for b in rest if not b >> i & 1]
        for b in block:
            consumed |= b
        cols = cols[:done] + block + keep
        rows.remove(i)
        rows.insert(k, i)
        picks.append((i, block))
        block_sizes.append(len(block))
        done += len(block)
        k += 1
    state = MatrixState(
        rows=tuple(u.labels[r] for r in rows),
        cols=tuple(ItemSet(u, c) for c in cols),
        t=tuple(tuple(1 if c >> r & 1 else 0 for c in cols) for r in rows),
        block_sizes=tuple(block_sizes),
    )
    return _prune(u, picks, base_masks)[1], state


def check_against_the_loops(space):
    assert greedy_primary_items(space).to_obj() == oracle_greedy(space).to_obj()
    base = irreducible_states(space)
    d, state = matrix_primary_items(base)
    want_d, want_state = oracle_matrix(base)
    assert d == want_d
    assert state.to_obj() == want_state.to_obj()


def test_primary_items_match_the_replaced_loops():
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    spaces += [fixtures.space(name) for name in fixtures.NAMES]
    for u, masks in [*wide_families(seed=17), *normal_families(seed=19)]:
        spaces.append(union_closure(SetFamily.from_masks(u, masks)))
    assert len(spaces) == 2321 + len(fixtures.NAMES) + 60 + 24
    assert max(len(s.universe) for s in spaces) == 64
    for space in spaces:
        check_against_the_loops(space)
    given = 0
    for name in fixtures.NAMES:
        fam = fixtures.family(name)
        if fam.masks() - {0} == irreducible_states(fixtures.space(name)).masks():
            given += 1
            assert matrix_primary_items(fam) == oracle_matrix(fam), name
    assert given == 2


def test_cellularity_examples():
    assert cellularity(fixtures.space("e1_tau")) == 2
    assert cellularity(TWO) == 1
    assert cellularity(POW3) == 3


def test_character_examples():
    assert character(POW3) == 1
    assert character(fixtures.space("e1_tau"), "z1") == 3
    ord6 = fixtures.space("ord6")
    assert all(character(ord6, z) == 1 for z in ord6.universe.labels)


def test_density_at_least_cellularity_and_at_most_weight():
    for name in fixtures.NAMES:
        space = fixtures.space(name)
        d = density_exact(space)[0]
        assert cellularity(space) <= d <= max(1, weight(space)), name
