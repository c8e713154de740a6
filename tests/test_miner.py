"""Space enumeration, seeded sampling, and the theorem audit harness."""

import itertools
import json
import pathlib
import random

import pytest

from pretopo import maps, miner, order, skills
from pretopo import (
    ItemSet,
    PreTopology,
    SkillMultimap,
    Universe,
    BoundExceeded,
    PretopoError,
    audit,
    available_theorems,
    enumerate_spaces,
    reports_to_json,
    sample_spaces,
)
from pretopo.core import SetFamily, union_closure_masks
from pretopo.miner import enumerate_multimaps, sample_quasi_orders


def brute_union_closed_families(n):
    """All families over n points with empty set, full set, and unions."""
    full = (1 << n) - 1
    middles = list(range(1, full))
    out = set()
    for k in range(len(middles) + 1):
        for combo in itertools.combinations(middles, k):
            fam = frozenset({0, full, *combo})
            if all(a | b in fam for a in fam for b in fam):
                out.add(fam)
    return out


def test_enumeration_counts_against_the_brute_force_oracle():
    for n, expect in ((1, 1), (2, 4), (3, 45)):
        spaces = enumerate_spaces(n)
        assert len(spaces) == expect
        got = {frozenset(s.states.masks()) for s in spaces}
        assert got == brute_union_closed_families(n)


def test_enumeration_count_at_four():
    spaces = enumerate_spaces(4)
    assert len(spaces) == 2271
    assert len({frozenset(s.states.masks()) for s in spaces}) == 2271


def test_the_four_two_point_families():
    got = [sorted(s.states.masks()) for s in enumerate_spaces(2)]
    assert got == [[0, 3], [0, 1, 3], [0, 2, 3], [0, 1, 2, 3]]


def test_enumeration_bounds():
    with pytest.raises(PretopoError):
        enumerate_spaces(0)
    with pytest.raises(BoundExceeded):
        enumerate_spaces(5)
    assert len(enumerate_spaces(2, bound=5)) == 4
    with pytest.raises(PretopoError):
        sample_spaces(0, 1)


def test_sampling_is_reproducible_and_valid():
    a = sample_spaces(4, 25, seed=9)
    b = sample_spaces(4, 25, seed=9)
    assert [s.states.masks() for s in a] == [s.states.masks() for s in b]
    for s in a:
        masks = s.states.masks()
        assert 0 in masks and s.universe.full.mask in masks
        for x in masks:
            for y in masks:
                assert x | y in masks


def test_quasi_order_sampling_is_reproducible():
    a = sample_quasi_orders(4, 20, seed=3)
    b = sample_quasi_orders(4, 20, seed=3)
    assert a == b
    assert len(a) == 20


def test_multimap_enumeration_counts():
    assert sum(1 for _ in enumerate_multimaps(1, 1, 1)) == 1
    assert sum(1 for _ in enumerate_multimaps(1, 2, 2)) == 6
    assert sum(1 for _ in enumerate_multimaps(2, 2, 2)) == 36


def test_theorem_registry():
    ths = available_theorems()
    assert len(ths) == 52
    assert len(set(ths)) == 52
    for ident in (
        "closure-axioms",
        "closure-derived-union",
        "derived-set-definition",
        "boundary-formulas",
        "interior-closure-duality",
        "fringe-characterizations",
        "separation-hierarchy",
        "chain-connected-iff-connected",
        "tight1-iff-well-graded",
        "size-weight-bound",
        "dense-ge-cellularity",
    ):
        assert ident in ths


def test_a_registered_id_takes_passes_only_from_per_space(monkeypatch):
    """A runner id, a step id or a skill id cannot be registered as a
    runner again, and `_per_space` cannot add a pass to a runner or a
    skill check; a repeated `_per_space` adds a pass."""
    monkeypatch.setattr(miner, "_REGISTRY", dict(miner._REGISTRY))

    def runner(spaces, rng):
        return 0, [], None

    def step(space, rng):
        yield from ()

    for ident in ("distance-metric", "closure-axioms", "p-monotone-union"):
        with pytest.raises(ValueError, match=ident):
            miner._register(ident)(runner)
    for ident in ("distance-metric", "p-monotone-union"):
        with pytest.raises(ValueError, match=ident):
            miner._per_space(ident)(step)
    before = miner._REGISTRY["closure-axioms"].passes
    miner._per_space("closure-axioms", cap=7)(step)
    assert miner._REGISTRY["closure-axioms"].passes == (*before, (step, 7, None))
    assert len(available_theorems()) == 52


def test_unknown_theorem_id():
    with pytest.raises(PretopoError):
        audit("no-such-theorem", 2)


def test_audit_needs_at_least_one_sample():
    for samples in (0, -3):
        with pytest.raises(PretopoError, match="samples must be at least 1"):
            audit("all", 5, samples=samples)


def test_audit_is_a_pure_function_of_its_arguments():
    args = (["closure-axioms", "boundary-formulas"], 3, 1)
    assert reports_to_json(audit(*args)) == reports_to_json(audit(*args))
    sampled = ("closure-axioms", 5, 2, 40)
    assert reports_to_json(audit(*sampled)) == reports_to_json(audit(*sampled))


def test_audit_samples_the_default_count_beyond_four_points():
    default = reports_to_json(audit("closure-axioms", 5))
    assert default == reports_to_json(audit("closure-axioms", 5, samples=2000))


def test_audit_statuses_at_three():
    reports = audit("all", 3, seed=0)
    assert len(reports) == 52
    for r in reports:
        assert r.status in ("holds", "fails", "audit-only")
        assert r.status != "fails", r.theorem
        if r.status == "holds":
            assert not r.violations


def test_atom_pre_base_audit_witness_at_two():
    report = audit("atom-pre-base-of-minimal", 2, seed=0)[0]
    assert report.status == "audit-only"
    assert report.checked == 4
    spaces = [json.loads(s)["states"] for s, _ in report.violations]
    assert [[], ["z1"], ["z1", "z2"]] in spaces


def test_product_of_maps_statements_hold_on_every_small_product():
    """Both statements of `product-of-maps`, on every map from a space B
    on at most 3 points into a product of two spaces on at most 2 points
    each: a continuous map has continuous coordinates, and continuous
    coordinates make the map continuous when B is quasi-ordinal."""
    domains = [space for n in (1, 2, 3) for space in enumerate_spaces(n)]
    factors = [space for n in (1, 2) for space in enumerate_spaces(n)]
    cases = 0
    for x1, x2 in itertools.product(factors, repeat=2):
        prod = maps.product([x1, x2])
        for b in domains:
            labels = b.universe.labels
            for images in itertools.product(
                itertools.product(x1.universe.labels, repeat=len(labels)),
                itertools.product(x2.universe.labels, repeat=len(labels)),
            ):
                h1, h2 = (
                    maps.PointMap(b.universe, x.universe, dict(zip(labels, image)))
                    for x, image in zip((x1, x2), images)
                )
                cases += 1
                assert list(miner._product_of_maps_findings(b, x1, x2, prod, h1, h2)) == []
    assert cases == 50242


def test_product_of_maps_converse_needs_a_quasi_ordinal_domain():
    """The diagonal of B = {∅, ab, bc, abc} into B × B has continuous
    coordinates, the identity, but the preimage of the box ab × bc is
    {b}, which is not open. B is not closed under intersection, so the
    check reports nothing."""
    u = Universe(["a", "b", "c"])
    b = PreTopology(u, SetFamily.of(u, [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]))
    prod = maps.product([b, b])
    identity = maps.PointMap(u, u, {t: t for t in u.labels})
    diagonal = maps.PointMap(u, prod.universe, {t: f"({t},{t})" for t in u.labels})
    assert maps.is_pre_continuous(identity, b, b)
    assert not maps.is_pre_continuous(diagonal, b, prod)
    assert not order.is_quasi_ordinal(b)
    assert list(miner._product_of_maps_findings(b, b, b, prod, identity, identity)) == []


def test_report_serialization_schema():
    report = audit("closure-axioms", 2, seed=0)[0]
    obj = report.to_obj()
    assert obj["theorem"] == "closure-axioms"
    assert obj["status"] == "holds"
    assert obj["checked"] == 4
    assert obj["violations"] == []
    parsed = json.loads(reports_to_json([report]))
    assert parsed[0]["theorem"] == "closure-axioms"


def test_a_report_does_not_depend_on_the_other_checks_of_its_call():
    """No rng, collector or count is shared across checks or repeats: each
    check reports in a selection with every id, in reverse order, or twice
    what it reports alone."""
    ids = list(available_theorems())
    alone = {ident: audit(ident, 3)[0].to_obj() for ident in ids}
    for selection in (ids, ids[::-1], ids * 2):
        reports = audit(selection, 3)
        assert [r.theorem for r in reports] == selection
        for report in reports:
            assert report.to_obj() == alone[report.theorem]


def per_pick_minimal_base_check(spaces, rng):
    """The minimal-base audit by its definition: one union closure per
    pick of nonzero states, every pick up to 10 states, else 200 drawn."""
    stored = []
    checked = 0
    for space in spaces:
        irr_masks = set(miner.irreducible_states(space).masks()) - {0}
        opens = sorted(space.states.masks())
        nonzero = [m for m in opens if m]
        k = len(nonzero)
        if k <= 10:
            pool = range(1, 1 << k)
        else:
            pool = [rng.randrange(1, 1 << k) for _ in range(200)]
        for pick in pool:
            fam = [nonzero[i] for i in range(k) if pick >> i & 1]
            checked += 1
            if union_closure_masks(fam) == set(opens) and not irr_masks <= set(fam):
                if len(stored) < miner.MAX_STORED:
                    ser = json.dumps(space.to_obj(), separators=(",", ":"))
                    stored.append((ser, f"pre-base {fam} misses an irreducible state"))
    return checked, stored


def minimal_base_spaces():
    spaces = [s for n in (1, 2, 3) for s in enumerate_spaces(n)]
    spaces += enumerate_spaces(4)[:400]
    spaces += sample_spaces(5, 200, seed=11)
    return spaces


def both_minimal_base_routes(spaces):
    check = miner._REGISTRY["minimal-base-in-every-pre-base"]
    checked, stored, _ = miner._walk(check, spaces, random.Random(5))
    return (checked, stored), per_pick_minimal_base_check(spaces, random.Random(5))


def test_minimal_base_audit_matches_the_per_pick_route():
    spaces = minimal_base_spaces()
    sizes = [len(space.states) - 1 for space in spaces]
    # both the all-picks bitsets and the sampled picks are exercised
    assert min(sizes) <= 10 < max(sizes)
    fast, slow = both_minimal_base_routes(spaces)
    assert fast == slow
    assert fast[1] == []


def union_find_chain_connected(fam, n):
    """The union-find route to chain-connected covers: components of the
    intersection graph, a component bitset per item, then every pair of
    items must share a component."""
    parent = list(range(len(fam)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(fam)), 2):
        if fam[i] & fam[j]:
            parent[find(i)] = find(j)
    comp_mask = [0] * n
    for i, member in enumerate(fam):
        for x in range(n):
            if member >> x & 1:
                comp_mask[x] |= 1 << find(i)
    return all(comp_mask[x] & comp_mask[y] for x, y in itertools.combinations(range(n), 2))


def test_the_component_merge_matches_the_union_find_route():
    """Every cover of every space on up to 3 points, the covers the
    miner draws for every space on 4 points, and seeded covers of 5-8
    items, each in both member orders; both verdicts occur."""
    rng = random.Random(11)
    covers = []
    for n in range(1, 5):
        for space in enumerate_spaces(n):
            covers += [(fam, n) for fam in miner._covers_for(space, rng)]
    for _ in range(400):
        n = rng.randint(5, 8)
        fam = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 9))]
        for x in range(n):  # each uncovered item joins a random member
            if not any(member >> x & 1 for member in fam):
                fam[rng.randrange(len(fam))] |= 1 << x
        covers.append((fam, n))
    verdicts = set()
    for fam, n in covers:
        want = union_find_chain_connected(fam, n)
        assert miner._cover_chain_connected(fam, n) == want, (fam, n)
        assert miner._cover_chain_connected(fam[::-1], n) == want, (fam, n)
        verdicts.add(want)
    assert verdicts == {False, True}


def test_minimal_base_audit_fails_with_the_per_pick_route_on_a_wrong_base(monkeypatch):
    """A reducible state put in place of an irreducible one, added, or
    claimed as the whole base, and a set that is no state, are each
    missed by some generating pick; a dropped irreducible state only
    weakens the claim, so neither route can report it. The wrong base is
    served per space by the miner's `irreducible_states`, which both
    routes read."""
    true_base = miner.irreducible_states
    wrong = {}
    monkeypatch.setattr(
        miner,
        "irreducible_states",
        lambda space: wrong[id(space)] if id(space) in wrong else true_base(space),
    )
    mutations = ("swap", "add", "only", "foreign", "drop")
    for mutate in mutations:
        spaces = minimal_base_spaces()
        wrong.clear()
        for space in spaces:
            opens = sorted(space.states.masks())
            irr = set(true_base(space).masks()) - {0}
            reducible = [s for s in opens if s and s not in irr]
            outside = [a for a in range(1, space.universe._full) if a not in opens]
            if mutate == "drop":
                irr.discard(max(irr))
            elif mutate == "foreign" and outside:
                irr.add(outside[0])
            elif mutate == "only" and reducible:
                irr = {reducible[0]}
            elif mutate in ("swap", "add") and reducible:
                if mutate == "swap":
                    irr.discard(max(irr))
                irr.add(reducible[0])
            else:
                continue
            wrong[id(space)] = SetFamily.from_masks(space.universe, irr)
        assert len(wrong) > 100
        fast, slow = both_minimal_base_routes(spaces)
        assert fast == slow, mutate
        assert bool(fast[1]) == (mutate != "drop"), mutate


def object_enumerate_multimaps(n_items, n_skills, max_competencies):
    """The multimap enumerator before the mask sweep: one SkillMultimap per
    assignment of competency choices, in `itertools.product` order."""
    items = Universe([f"q{i + 1}" for i in range(n_items)])
    skill_u = Universe([f"s{i + 1}" for i in range(n_skills)])
    choices = []
    for size in range(1, max_competencies + 1):
        choices.extend(itertools.combinations(range(1, 1 << n_skills), size))
    for assignment in itertools.product(choices, repeat=n_items):
        mu = {
            label: [ItemSet(skill_u, m) for m in comps]
            for label, comps in zip(items.labels, assignment)
        }
        yield SkillMultimap(items, skill_u, mu)


def test_mask_enumerator_matches_the_object_enumerator():
    for qn, sn, k in ((1, 1, 1), (1, 4, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        old = list(object_enumerate_multimaps(qn, sn, k))
        masks = list(miner._mask_multimaps(qn, sn, k))
        assert len(masks) == len(old)
        for m, (comps, mins, pool, min_pool) in zip(old, masks):
            labels = m.items.labels
            assert comps == tuple(tuple(c.mask for c in m.mu[t]) for t in labels)
            assert mins == tuple(tuple(c.mask for c in m.mu_min[t]) for t in labels)
            assert pool == tuple(c.mask for c in m.competency_pool())
            assert min_pool == tuple(c.mask for c in m.minimal_pool())
        new = [m.to_obj() for m in enumerate_multimaps(qn, sn, k)]
        assert new == [m.to_obj() for m in old]


# 261 multimaps: up to 3 items, 2 skills and 2 competencies per item, enough
# for a delineated family that is not a knowledge space
SMALL_SWEEP = (3, 2, 2)


def test_a_clean_sweep_builds_no_multimap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a SkillMultimap")

    monkeypatch.setattr(SkillMultimap, "__init__", refuse)
    results = miner.run_skills_suite(*SMALL_SWEEP)
    assert {ident: (c, s) for ident, (c, s, _) in results.items()} == {
        ident: (261, []) for ident in miner._SKILLS_IDS
    }


def wrong_p(real):
    # p of the full skill set of two skills drops every item
    return lambda mins, r: 0 if r == 0b11 else real(mins, r)


def wrong_report(real):
    # the characterization route forgets all holders but the first
    return lambda holders, family, n: real(dict(list(holders.items())[:1]), family, n)


# each skill kernel, a wrong version of it, and the check that must catch it
WRONG_KERNELS = [
    ("_p", wrong_p, "p-monotone-union"),
    ("_star", lambda real: lambda pool, mins: True, "star-implies-space"),
    ("_refinement_route", lambda real: lambda mins: True, "cd-thm-agrees"),
    ("_delineation_report", wrong_report, "delineation-theorem-agree"),
]


@pytest.mark.parametrize("kernel, mutate, ident", WRONG_KERNELS)
def test_a_wrong_skill_kernel_fails_its_check(monkeypatch, kernel, mutate, ident):
    monkeypatch.setattr(skills, kernel, mutate(getattr(skills, kernel)))
    checked, stored, _ = miner.run_skills_suite(*SMALL_SWEEP)[ident]
    assert checked == 261 and stored
    witness = SkillMultimap.from_json(stored[0][0])
    assert json.loads(stored[0][0]) == witness.to_obj()


def test_collector_builds_a_witness_only_when_it_stores_it(monkeypatch):
    built = []

    def ser():
        built.append(1)
        return "{}"

    col = miner._Collector()
    for _ in range(miner.MAX_STORED + 5):
        col.add(ser, "witness")
    assert col.total == miner.MAX_STORED + 5
    assert len(col.stored) == len(built) == miner.MAX_STORED

    real = miner._ser
    monkeypatch.setattr(miner, "_ser", lambda space: built.append(space) or real(space))
    space = enumerate_spaces(2)[1]
    col = miner._Collector()
    for _ in range(miner.MAX_STORED + 5):
        col.add(space, "witness")
    assert len(built) == 2 * miner.MAX_STORED
    assert col.stored[0] == (json.dumps(space.to_obj(), separators=(",", ":")), "witness")


def test_audit_sweeps_the_multimaps_once_per_call(monkeypatch):
    calls = []
    real = miner.run_skills_suite

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(miner, "run_skills_suite", counted)
    ids = list(miner._SKILLS_IDS) + ["closure-axioms"]
    first = reports_to_json(audit(ids, 2))
    assert len(calls) == 1
    assert reports_to_json(audit(ids, 2)) == first
    assert len(calls) == 2


def per_multimap_skills_suite(max_items, max_skills, max_comps):
    """The multimap sweep run check by check on every multimap, with no
    sharing between multimaps: the oracle of the profile-factored sweep.
    The union of each pick and the disjoint-states route are spelled out
    by brute force; the witnesses are those of `run_skills_suite`."""
    cols = {ident: miner._Collector() for ident in miner._SKILLS_IDS}
    checked = 0
    for qn in range(1, max_items + 1):
        for sn in range(1, max_skills + 1):
            sfull = (1 << sn) - 1
            steps = [
                (r, 1 << i) for r in range(sfull + 1) for i in range(sn) if not r >> i & 1
            ]
            for comps, mins, pool, min_pool in miner._mask_multimaps(qn, sn, max_comps):
                checked += 1
                ser = json.dumps(miner._multimap(comps, sn).to_obj(), separators=(",", ":"))
                holders = skills._holders(mins)
                family = skills._delineated_masks(holders)
                rep = skills._delineation_report(holders, family, qn)
                star = skills._star(pool, mins)
                if not rep.agree:
                    cols["delineation-theorem-agree"].add(
                        ser, f"direct={rep.space} characterization={rep.via_characterization}"
                    )
                if star and not rep.space:
                    cols["star-implies-space"].add(
                        ser, "pooling condition without a delineated space"
                    )
                p = [skills._p(mins, r) for r in range(sfull + 1)]
                if set(p) != family:
                    cols["delineation-theorem-agree"].add(
                        ser, "delineate differs from p over every skill set"
                    )
                for r, low in steps:
                    if p[r] & ~p[r | low]:
                        cols["p-monotone-union"].add(ser, f"p not monotone at {r:b}+{low:b}")
                for pick in range(1, 1 << len(min_pool)):
                    members = [c for i, c in enumerate(min_pool) if pick >> i & 1]
                    union = up = 0
                    for c in members:
                        union |= c
                        up |= p[c]
                    if up & ~p[union]:
                        cols["p-monotone-union"].add(
                            ser, f"union lower bound fails at {pick:b}"
                        )
                    if star and p[union] != up:
                        cols["p-monotone-union"].add(
                            ser, f"union equality under pooling fails at {pick:b}"
                        )
                via = skills._refinement_route(mins)
                direct = all(
                    any(h >> a & 1 and k >> b & 1 and not h & k for h in family for k in family)
                    for a in range(qn)
                    for b in range(a + 1, qn)
                )
                if via != direct:
                    cols["cd-thm-agrees"].add(
                        ser, f"competency route={via} direct={direct}"
                    )
    return {ident: (checked, cols[ident].stored, None) for ident in miner._SKILLS_IDS}


@pytest.mark.parametrize("sizes", [(3, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("wrong", [None, *WRONG_KERNELS])
def test_the_factored_sweep_matches_the_per_multimap_sweep(monkeypatch, sizes, wrong):
    if wrong is not None:
        kernel, mutate, _ = wrong
        monkeypatch.setattr(skills, kernel, mutate(getattr(skills, kernel)))
    assert miner.run_skills_suite(*sizes) == per_multimap_skills_suite(*sizes)


def test_the_sweep_runs_each_pool_free_kernel_once_per_profile(monkeypatch):
    calls = {"_star": 0, "_delineation_report": 0, "_refinement_route": 0}

    def counted(name):
        real = getattr(skills, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in calls:
        monkeypatch.setattr(skills, name, counted(name))
    max_items, max_skills, max_comps = SMALL_SWEEP
    profiles = {
        (qn, sn, mins)
        for qn in range(1, max_items + 1)
        for sn in range(1, max_skills + 1)
        for _, mins, _, _ in miner._mask_multimaps(qn, sn, max_comps)
    }
    results = miner.run_skills_suite(*SMALL_SWEEP)
    assert calls["_star"] == results["star-implies-space"][0] == 261
    assert calls["_delineation_report"] == calls["_refinement_route"] == len(profiles)
    assert len(profiles) < 261


GOLDEN_REPORTS = pathlib.Path(__file__).resolve().parent / "goldens" / "miner_reports.json"
GOLDEN_RUNS = {
    "n=1": {"n": 1},
    "n=2": {"n": 2},
    "n=3": {"n": 3},
    "n=4": {"n": 4},
    "n=5 samples=500": {"n": 5, "samples": 500},
}


@pytest.mark.parametrize("run", list(GOLDEN_RUNS))
def test_audit_reports_match_their_goldens(run):
    golden = json.loads(GOLDEN_REPORTS.read_text())[run]
    text = reports_to_json(audit("all", seed=0, **GOLDEN_RUNS[run]))
    assert text == json.dumps(golden, indent=2) + "\n"
