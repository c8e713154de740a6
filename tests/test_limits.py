"""Size limits: every exponential kernel has one guard, limited per call.

Each guarded call measures one quantity of its input, raises its
documented `BoundExceeded` class when that quantity exceeds the default
limit, and takes `bound=` to move the limit for that call alone. No
environment variable reaches a guard.
"""

import pytest

from pretopo import (
    BoundExceeded,
    CombinatorialBoundExceeded,
    ItemSet,
    PreTopology,
    SetFamily,
    SkillBoundExceeded,
    SkillMultimap,
    Universe,
    cardinal,
    miner,
    operators,
    skills,
    structure,
)
from pretopo.cli import main


def universe(n, prefix="z"):
    return Universe([f"{prefix}{i}" for i in range(1, n + 1)])


def trivial_space(n):
    """{∅, Q} over n items: one universe of the given size."""
    u = universe(n)
    return PreTopology(u, SetFamily.from_masks(u, {0, (1 << n) - 1}))


def space_with_open_sets(k):
    """A space with exactly k nonempty states: the power set of the first
    j items, then a chain of r further items on top (2^j - 1 + r = k)."""
    j = (k + 1).bit_length() - 1
    r = k - ((1 << j) - 1)
    u = universe(j + r)
    masks = set(range(1 << j)) | {(1 << (j + i)) - 1 for i in range(1, r + 1)}
    return PreTopology(u, SetFamily.from_masks(u, masks))


def multimap_with_skills(k):
    """One item whose only competency is the first of k skills."""
    sk = universe(k, "s")
    return SkillMultimap(Universe(["q1"]), sk, {"q1": [ItemSet(sk, 1)]})


def multimap_with_pool(k):
    """One item with k singleton competencies: a pool of k."""
    sk = universe(k, "s")
    return SkillMultimap(
        Universe(["q1"]), sk, {"q1": [ItemSet(sk, 1 << i) for i in range(k)]}
    )


# (call on an input of measured size n with a bound, its error, its default)
GUARDED = {
    "from_relation": (
        lambda n, bound: structure.from_relation(universe(n), [], bound=bound),
        BoundExceeded,
        structure.RELATION_UNIVERSE_BOUND,
    ),
    "density_exact": (
        lambda n, bound: cardinal.density_exact(trivial_space(n), bound=bound),
        BoundExceeded,
        cardinal.DENSITY_UNIVERSE_BOUND,
    ),
    "cellularity": (
        lambda n, bound: cardinal.cellularity(space_with_open_sets(n), bound=bound),
        BoundExceeded,
        cardinal.CELLULARITY_STATES_BOUND,
    ),
    "enumerate_spaces": (
        lambda n, bound: miner.enumerate_spaces(n, bound=bound),
        BoundExceeded,
        miner.MAX_EXHAUSTIVE,
    ),
    "sample_spaces": (
        lambda n, bound: miner.sample_spaces(n, 1, bound=bound),
        BoundExceeded,
        miner.MAX_SAMPLED,
    ),
    "delineate": (
        lambda n, bound: skills.delineate(multimap_with_skills(n), bound=bound),
        SkillBoundExceeded,
        skills.SKILL_BOUND,
    ),
    "is_delineated_space": (
        lambda n, bound: skills.is_delineated_space(multimap_with_skills(n), bound=bound),
        SkillBoundExceeded,
        skills.SKILL_BOUND,
    ),
    "star_condition": (
        lambda n, bound: skills.star_condition(multimap_with_pool(n), bound=bound),
        CombinatorialBoundExceeded,
        skills.POOL_BOUND,
    ),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_guard_raises_past_its_default(name):
    call, error, default = GUARDED[name]
    with pytest.raises(error) as info:
        call(default + 1, None)
    assert type(info.value) is error and isinstance(info.value, BoundExceeded)
    assert str(info.value).endswith(
        f": {default + 1} exceeds the configured bound {default}"
    )


@pytest.mark.parametrize(
    "table",
    [structure.ClosureOperatorTable.of_space, operators.interior_table],
    ids=["of_space", "interior_table"],
)
def test_closure_table_of_a_space_past_the_relation_bound_raises_at_once(table):
    n = structure.RELATION_UNIVERSE_BOUND + 1
    u = universe(n)
    chain = PreTopology(u, SetFamily.from_masks(u, {(1 << i) - 1 for i in range(n + 1)}))
    with pytest.raises(BoundExceeded) as info:
        table(chain)
    assert str(info.value) == f"subset table universe: {n} exceeds the configured bound {n - 1}"


@pytest.mark.parametrize("name", list(GUARDED))
def test_guard_takes_the_bound_of_its_call(name):
    # the full 2^m kernels past the defaults are too slow for a unit
    # test, so the per-call bound is exercised on three-element inputs
    call, error, _ = GUARDED[name]
    call(3, 3)
    with pytest.raises(error, match="exceeds the configured bound 2$"):
        call(3, 2)


def test_the_environment_does_not_reach_a_check_inside_mine(capsys, monkeypatch):
    monkeypatch.setenv("PRETOPO_BOUND", "5")
    code = main(["mine", "-n", "3", "--suite", "dense-ge-cellularity", "--bound", "3"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "holds" in out and "checked=45" in out


def test_the_environment_does_not_lower_a_default(monkeypatch):
    monkeypatch.setenv("PRETOPO_BOUND", "3")
    assert len(miner.enumerate_spaces(4)) == 2271


def test_the_environment_does_not_raise_a_default(monkeypatch):
    monkeypatch.setenv("PRETOPO_BOUND", "100")
    with pytest.raises(SkillBoundExceeded):
        skills.delineate(multimap_with_skills(21))
