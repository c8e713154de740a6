"""Skill multimaps: problem functions, delineation, star condition, bounds."""

import random
import tracemalloc

import pytest

from pretopo import (
    CombinatorialBoundExceeded,
    ItemSet,
    SchemaError,
    SkillBoundExceeded,
    SkillMultimap,
    Universe,
    classify,
    delineate,
    is_completely_discriminative_delineation,
    is_delineated_space,
    problem_function,
    star_condition,
)
from pretopo import miner, skills
from pretopo.separation import is_t2
from pretopo.miner import enumerate_multimaps

ITEMS2 = Universe(["q1", "q2"])
SKILLS2 = Universe(["s1", "s2"])


def mk(items, skills, mu_masks):
    mu = {t: [ItemSet(skills, m) for m in masks] for t, masks in mu_masks.items()}
    return SkillMultimap(items, skills, mu)


def test_problem_function_examples():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b11]})
    assert problem_function(m, ItemSet(SKILLS2, 0b00)).mask == 0
    assert sorted(problem_function(m, ItemSet(SKILLS2, 0b01)).labels) == ["q1"]
    assert sorted(problem_function(m, ItemSet(SKILLS2, 0b10)).labels) == []
    assert sorted(problem_function(m, ItemSet(SKILLS2, 0b11)).labels) == ["q1", "q2"]


def test_full_competency_delineates_the_two_state_structure():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b11], "q2": [0b11]})
    assert delineate(m).states.masks() == {0b00, 0b11}


def test_nested_competencies_delineate_a_chain():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b11]})
    assert delineate(m).states.masks() == {0b00, 0b01, 0b11}


def test_disjoint_singletons_delineate_the_powerset():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b10]})
    assert delineate(m).states.masks() == {0b00, 0b01, 0b10, 0b11}
    report = is_delineated_space(m)
    assert report.space and report.via_characterization and report.agree


def test_delineated_family_contains_empty_and_full():
    for m in enumerate_multimaps(2, 2, 2):
        family = delineate(m).states
        assert family.has_mask(0)
        assert family.has_mask(0b11)


def test_star_condition_examples():
    items3 = Universe(["q1", "q2", "q3"])
    split = mk(items3, SKILLS2, {"q1": [0b11], "q2": [0b01], "q3": [0b10]})
    assert not star_condition(split)
    assert not is_delineated_space(split).space
    assert star_condition(mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b10]}))
    one = mk(Universe(["q1"]), SKILLS2, {"q1": [0b11]})
    assert star_condition(one)


def test_star_condition_implies_a_delineated_space():
    for m in enumerate_multimaps(2, 2, 2):
        if star_condition(m):
            assert classify(delineate(m).states).is_knowledge_space


def test_delineation_characterization_agrees():
    for m in enumerate_multimaps(2, 2, 2):
        assert is_delineated_space(m).agree


def test_complete_discrimination_route_matches_the_direct_check():
    for m in enumerate_multimaps(2, 2, 2):
        direct, _ = is_t2(delineate(m))
        assert is_completely_discriminative_delineation(m) == direct


def test_complete_discrimination_examples():
    assert is_completely_discriminative_delineation(
        mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b10]})
    )
    assert not is_completely_discriminative_delineation(
        mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b01]})
    )
    one = mk(Universe(["q1"]), SKILLS2, {"q1": [0b01]})
    assert is_completely_discriminative_delineation(one)


def test_skill_function_and_minimal_pool():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b01, 0b11], "q2": [0b10]})
    assert not m.is_skill_function()
    assert [c.mask for c in m.mu_min["q1"]] == [0b01]
    pool = m.minimal_pool()
    for c in pool:
        for d in pool:
            assert c.mask == d.mask or not (c <= d)
    assert mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b10]}).is_skill_function()


def test_validation_errors():
    with pytest.raises(ValueError):
        SkillMultimap(ITEMS2, SKILLS2, {"q1": [ItemSet(SKILLS2, 0b01)]})
    with pytest.raises(ValueError):
        mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": []})
    with pytest.raises(ValueError):
        mk(ITEMS2, SKILLS2, {"q1": [0b01], "q2": [0b00]})


def test_skill_bound():
    skills = Universe([f"s{i}" for i in range(1, 22)])
    m = mk(Universe(["q1"]), skills, {"q1": [0b1]})
    with pytest.raises(SkillBoundExceeded):
        delineate(m)
    assert delineate(m, bound=21).states.has_mask(0b1)


def test_pool_bound():
    skills = Universe([f"s{i}" for i in range(1, 18)])
    m = mk(Universe(["q1"]), skills, {"q1": [1 << i for i in range(17)]})
    with pytest.raises(CombinatorialBoundExceeded):
        star_condition(m)


def test_json_round_trip_and_schema():
    m = mk(ITEMS2, SKILLS2, {"q1": [0b01, 0b11], "q2": [0b10]})
    again = SkillMultimap.from_json(m.to_json())
    assert again.to_obj() == m.to_obj()
    with pytest.raises(SchemaError):
        SkillMultimap.from_obj({"items": ["q1"], "skills": ["s1"]})
    with pytest.raises(SchemaError):
        SkillMultimap.from_obj(
            {"items": ["q1"], "skills": ["s1"], "mu": {"q1": [[]]}}
        )


def brute_delineation(m):
    """{p(R) : R a skill set}, over all 2^|S| skill sets."""
    return {
        problem_function(m, ItemSet(m.skills, r)).mask
        for r in range(1 << len(m.skills))
    }


def brute_star(m):
    """The star condition by its definition: every nonempty subfamily of
    the competency pool, for every item."""
    pool = [c.mask for c in m.competency_pool()]
    minimal = {t: [c.mask for c in m.mu_min[t]] for t in m.items.labels}
    for sub in range(1, 1 << len(pool)):
        chosen = [d for i, d in enumerate(pool) if sub >> i & 1]
        union = 0
        for d in chosen:
            union |= d
        for mins in minimal.values():
            if all(c & ~d for c in mins for d in chosen) and any(
                c & ~union == 0 for c in mins
            ):
                return False
    return True


def random_multimap(rng, max_skills=10, max_items=6, max_comps=3):
    skills = Universe([f"s{i + 1}" for i in range(rng.randint(1, max_skills))])
    items = Universe([f"q{i + 1}" for i in range(rng.randint(1, max_items))])
    full = (1 << len(skills)) - 1
    mu = {}
    for t in items.labels:
        comps = []
        for _ in range(rng.randint(1, max_comps)):
            # the meet of two random masks keeps competencies small
            c = rng.randint(1, full) & rng.randint(1, full)
            comps.append(ItemSet(skills, c or 1 << rng.randrange(len(skills))))
        mu[t] = comps
    return SkillMultimap(items, skills, mu)


def small_multimaps():
    for qn, sn in ((1, 3), (2, 2), (2, 3), (3, 2)):
        yield from enumerate_multimaps(qn, sn, 2)


def test_delineate_matches_the_sweep_over_every_skill_set():
    for m in small_multimaps():
        assert delineate(m).states.masks() == brute_delineation(m), m.to_obj()


def test_star_condition_matches_the_sweep_over_every_subfamily():
    for m in small_multimaps():
        assert star_condition(m) == brute_star(m), m.to_obj()


def test_seeded_multimaps_match_the_sweeps():
    rng = random.Random(2111)
    for _ in range(200):
        m = random_multimap(rng)
        family = delineate(m).states.masks()
        assert family == brute_delineation(m), m.to_obj()
        assert star_condition(m) == brute_star(m), m.to_obj()
        report = is_delineated_space(m)
        direct = all(a | b in family for a in family for b in family)
        assert report.agree and report.space == direct, m.to_obj()


def test_delineate_past_the_default_bound_is_output_sensitive():
    skills = Universe([f"s{i}" for i in range(1, 41)])
    items = Universe(["q1", "q2", "q3"])
    m = mk(items, skills, {"q1": [0b1], "q2": [0b10], "q3": [1 << 39 | 0b1]})
    family = {0, 0b1, 0b10, 0b11, 0b101, 0b111}
    assert delineate(m, bound=40).states.masks() == family


def test_delineation_memory_does_not_grow_with_the_skill_count():
    # 20 skills, three competencies: four unions, where a table indexed by
    # skill sets would take 2^20 bytes
    skills = Universe([f"s{i}" for i in range(1, 21)])
    items = Universe(["q1", "q2", "q3"])
    m = mk(items, skills, {"q1": [0b1], "q2": [0b110], "q3": [1 << 19]})
    tracemalloc.start()
    try:
        family = delineate(m).states.masks()
        report = is_delineated_space(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family) == 8 and report.space
    assert peak < 64 * 1024


def test_mask_kernels_match_their_wrappers():
    for qn, sn in ((1, 3), (2, 2), (2, 3), (3, 2)):
        masks = miner._mask_multimaps(qn, sn, 2)
        for (_, mins, pool, _), m in zip(masks, enumerate_multimaps(qn, sn, 2)):
            for r in range(1 << sn):
                assert skills._p(mins, r) == problem_function(m, ItemSet(m.skills, r)).mask
            assert skills._star(pool, mins) == star_condition(m)
            assert skills._refinement_route(mins) == is_completely_discriminative_delineation(m)
            holders = skills._holders(mins)
            family = skills._delineated_masks(holders)
            assert family == delineate(m).states.masks()
            assert skills._delineation_report(holders, family, qn) == is_delineated_space(m)


def test_the_guards_run_on_every_call_after_the_record_is_built():
    skills5 = Universe([f"s{i}" for i in range(1, 6)])
    items = Universe(["q1", "q2", "q3"])
    m = mk(items, skills5, {"q1": [0b1], "q2": [0b110], "q3": [0b11000, 0b1001]})
    family = delineate(m).states.masks()
    report = is_delineated_space(m)
    star = star_condition(m)
    assert m._derived.family == family
    with pytest.raises(SkillBoundExceeded):
        delineate(m, bound=4)
    with pytest.raises(SkillBoundExceeded):
        is_delineated_space(m, bound=4)
    with pytest.raises(CombinatorialBoundExceeded):
        star_condition(m, bound=3)  # four competencies in the pool
    assert delineate(m, bound=5).states.masks() == family
    with pytest.raises(TypeError):
        m.mu_min["q1"] = (ItemSet(skills5, 0b10),)
    assert is_delineated_space(m, bound=5) == report
    assert star_condition(m, bound=4) == star


def test_the_pool_guard_refuses_before_any_union_is_taken(monkeypatch):
    skills17 = Universe([f"s{i}" for i in range(1, 18)])
    m = mk(Universe(["q1"]), skills17, {"q1": [1 << i for i in range(17)]})
    runs = []
    real = skills._delineated_masks
    monkeypatch.setattr(skills, "_delineated_masks", lambda h: runs.append(h) or real(h))
    with pytest.raises(CombinatorialBoundExceeded):
        star_condition(m)
    # star, complete discrimination and p read no delineated family
    assert star_condition(m, bound=17)
    assert is_completely_discriminative_delineation(m)
    assert problem_function(m, ItemSet(skills17, 0b10)).mask == 1
    assert runs == [] and m._derived.family is None


def test_the_cli_delineates_once(monkeypatch, tmp_path):
    from pretopo import cli

    f = tmp_path / "mm.json"
    f.write_text(
        '{"items": ["q1", "q2", "q3"], "skills": ["s1", "s2", "s3"],'
        ' "mu": {"q1": [["s1"]], "q2": [["s1", "s2"], ["s3"]], "q3": [["s2", "s3"]]}}'
    )
    runs = []
    real = skills._delineated_masks
    monkeypatch.setattr(skills, "_delineated_masks", lambda h: runs.append(h) or real(h))
    for form in ("table", "json"):
        runs.clear()
        assert cli.main(["delineate", str(f), "--format", form]) == 0
        assert len(runs) == 1, form


# the five record-backed results, by name
CALLS = {
    "delineate": lambda m, rs: delineate(m, bound=64).states.masks(),
    "is_delineated_space": lambda m, rs: is_delineated_space(m, bound=64),
    "star_condition": lambda m, rs: star_condition(m, bound=64),
    "cd": lambda m, rs: is_completely_discriminative_delineation(m),
    "p": lambda m, rs: [problem_function(m, ItemSet(m.skills, r)).mask for r in rs],
}


def fresh_kernels(m, r_masks):
    """The same results from the mask kernels, with nothing kept."""
    mins = [[c.mask for c in m.mu_min[t]] for t in m.items.labels]
    holders = skills._holders(mins)
    family = skills._delineated_masks(holders)
    return {
        "delineate": family,
        "is_delineated_space": skills._delineation_report(holders, family, len(m.items)),
        "star_condition": skills._star([c.mask for c in m.competency_pool()], mins),
        "cd": skills._refinement_route(mins),
        "p": [skills._p(mins, r) for r in r_masks],
    }


def check_record(m, rng):
    n = len(m.skills)
    r_masks = range(1 << n) if n <= 6 else [rng.getrandbits(n) for _ in range(64)]
    want = fresh_kernels(m, r_masks)
    for order in (list(CALLS), list(CALLS)[::-1]):
        again = SkillMultimap.from_obj(m.to_obj())
        for _ in range(2):
            got = {name: CALLS[name](again, r_masks) for name in order}
            assert got == want, (order, m.to_obj())


def test_the_record_matches_a_fresh_kernel_run_on_every_small_multimap():
    rng = random.Random(2501)
    for m in enumerate_multimaps(2, 2, 2):
        check_record(m, rng)


def test_the_record_matches_a_fresh_kernel_run_on_seeded_multimaps():
    rng = random.Random(2503)
    for _ in range(200):
        check_record(random_multimap(rng, max_skills=16), rng)
