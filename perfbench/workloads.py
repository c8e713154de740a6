"""Seeded inputs, the timed job and the correctness gate of each workload.

Inputs are plain masks and labels made from the seed alone; the library
sees them only inside the timed ops. Every library call in an op goes
through ``call(name, fn, *args, **kwargs)``, which is a plain call in an
untraced pass and a recorded span in a traced one. The oracles below are
written against the bitmasks directly and share no code with the library.
"""

from __future__ import annotations

import hashlib
import json
import random

# (m, |K| low, |K| high, count): union closures on m items whose size lies
# in the band. The density-exact search is guarded at 24 items. The ops
# of the last two rungs cost about the same and hold the median op, so
# op_p50_ms does not straddle rungs of unlike cost. At equal |K| a space's
# cost still varies by up to a third with its structure, so the dense
# middle band is 7 spaces: their median moves less with the seed.
DENSE_LADDER = ((14, 500, 550, 2), (16, 1000, 1100, 5), (18, 1000, 1100, 2))
SPARSE_LADDER = ((40, 600, 660, 2), (48, 800, 880, 4), (64, 800, 880, 2))
DENSITY_BOUND = 24
QUERIES_PER_SPACE = 6
DENSE_QUERY_DENSITIES = (0.25, 0.6)

# (|S| skills, items, pool size, star): "star" rungs use pairwise disjoint
# competencies, for which the star condition holds and sweeps every one of
# the 2^pool subfamilies; the others are random and fail it early. The
# random ones on 16 skills sit in the middle, so the median op is one of them.
# Every random competency has COMPETENCY_SKILLS skills: then no competency
# holds another, and the chance that a skill set holds one is the same for
# every seed, so the cost of an op does not depend on the seed. A sweep
# costs about the same per skill set whatever the number of items, so the
# 18-skill rung has few items to keep a pass near 6 s.
SKILLS_LADDER = (
    (14, 12, 12, False),
    *[(16, 8, 12, False)] * 3,
    (16, 8, 14, True),
    (18, 6, 8, False),
)
STAR_POOL_BOUND = 16
SKILLS_BAND = (16, 1024)
COMPETENCY_SKILLS = 3

MINE_N = 4
MINE_SUITE = (3, 3, 2)

WORKLOADS = ("mine", "spaces-dense", "spaces-sparse", "skills")


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, ("perfbench", workload, seed, *parts))))


def _random_mask(rng: random.Random, m: int, p: float) -> int:
    mask = 0
    for i in range(m):
        if rng.random() < p:
            mask |= 1 << i
    return mask


# ------------------------------------------------------------------ spaces


def banded_family(rng: random.Random, m: int, lo: int, hi: int) -> list[int]:
    """Masks of a union-closed family on m items with lo <= |K| <= hi.

    Random generators are added one at a time. A generator that would push
    the family past hi is rejected, and the next one is drawn denser, since
    a denser generator adds fewer unions; a family that stalls below lo is
    dropped and started again.
    """
    full = (1 << m) - 1
    base = 0.5 if m <= 24 else 0.3
    while True:
        closed = {0}
        p = base
        rejected = 0
        while len(closed | {full}) < lo and rejected < 200:
            g = _random_mask(rng, m, p)
            grown = closed | {x | g for x in closed}
            if g == 0 or g in closed or len(grown | {full}) > hi:
                rejected += 1
                p = min(0.95, p + 0.05)
                continue
            closed = grown
            p = base
        closed.add(full)
        if lo <= len(closed) <= hi:
            return sorted(closed)


def make_spaces(workload: str, seed: int) -> list[dict]:
    ladder = DENSE_LADDER if workload == "spaces-dense" else SPARSE_LADDER
    out = []
    for rung, (m, lo, hi, count) in enumerate(ladder):
        for k in range(count):
            rng = _rng(workload, seed, rung, k)
            masks = banded_family(rng, m, lo, hi)
            out.append(
                {
                    "labels": [f"x{i + 1}" for i in range(m)],
                    "masks": masks,
                    "queries": [rng.getrandbits(m) for _ in range(QUERIES_PER_SPACE)],
                    "dense_queries": [
                        _random_mask(rng, m, p) for p in DENSE_QUERY_DENSITIES
                    ],
                    "density": m <= DENSITY_BOUND and workload == "spaces-dense",
                }
            )
    return out


def analyse_space(call, pretopo, inp: dict) -> dict:
    """One op: the full analysis of one space."""
    core, ops, card = pretopo.core, pretopo.operators, pretopo.cardinal
    u = core.Universe(inp["labels"])
    family = call("core.family", core.SetFamily.from_masks, u, inp["masks"])
    space = call("core.validate", core.PreTopology, u, family)
    cls = call("structure.classify", pretopo.structure.classify, family)
    irr = call("core.irreducible", core.irreducible_states, space)
    w = call("cardinal.weight", card.weight, space)
    queries = []
    for q in inp["queries"]:
        a = u.from_mask(q)
        fr = call("operators.fringes", ops.fringes, space, a)
        queries.append(
            (
                call("operators.closure", ops.closure, space, a).mask,
                call("operators.interior", ops.interior, space, a).mask,
                call("operators.boundary", ops.boundary, space, a).mask,
                call("operators.derived_set", ops.derived_set, space, a).mask,
                fr.inner.mask,
                fr.outer.mask,
            )
        )
    dense = [
        call("operators.is_dense", ops.is_dense, space, u.from_mask(d))
        for d in inp["dense_queries"]
    ]
    profile = call("separation.profile", pretopo.separation.separation_profile, space)
    conn = call("connectivity.connectedness", pretopo.connectivity.connectedness, space)
    red = call("order.reduction", pretopo.order.discriminative_reduction, space)
    exact = None
    if inp["density"]:
        exact = call(
            "cardinal.density_exact", card.density_exact, space, bound=DENSITY_BOUND
        )
    greedy = call("cardinal.greedy", card.greedy_primary_items, space)
    matrix = call("cardinal.matrix", card.matrix_primary_items, irr)
    return {
        "classify": cls.to_obj(),
        "irreducible": sorted(irr.masks()),
        "weight": w,
        "queries": queries,
        "dense": dense,
        "separation": profile.to_obj(),
        "connectedness": conn.to_obj(),
        "reduction": red.to_obj(),
        "density_exact": None if exact is None else [exact[0], exact[1].mask],
        "greedy": greedy.to_obj(),
        "matrix": [matrix[0].mask, matrix[1].to_obj()],
    }


def _closure_by_points(opens: list[int], m: int, a: int) -> int:
    """z lies in cl(a) iff every open through z meets a."""
    out = 0
    for i in range(m):
        bit = 1 << i
        if all(o & a for o in opens if o & bit):
            out |= bit
    return out


def _union_close(masks) -> set[int]:
    closed = {0}
    for g in masks:
        closed |= {x | g for x in closed}
    return closed


def check_space(inp: dict, out: dict) -> list[str]:
    """Independent oracles for one analysed space; returns the failures."""
    errors = []
    m = len(inp["labels"])
    full = (1 << m) - 1
    opens = inp["masks"]
    for q, res in zip(inp["queries"], out["queries"]):
        if res[0] != _closure_by_points(opens, m, q):
            errors.append(f"closure of {q:#x} differs from the point test")
    if _union_close(out["irreducible"]) != set(opens):
        errors.append("irreducible states do not generate the family")
    for d, got in zip(inp["dense_queries"], out["dense"]):
        if got != (_closure_by_points(opens, m, d) == full):
            errors.append(f"is_dense({d:#x}) disagrees with closure")
    if out["density_exact"] is not None:
        size, hit = out["density_exact"]
        if hit.bit_count() != size or any(not b & hit for b in out["irreducible"]):
            errors.append("density_exact answer misses a base member")
        greedy = sum(1 << inp["labels"].index(t) for t in out["greedy"]["result"])
        if size > greedy.bit_count():
            errors.append("density_exact answer is larger than the greedy one")
    return errors


# ------------------------------------------------------------------ skills


def make_multimaps(seed: int) -> list[dict]:
    out = []
    for rung, (n_skills, n_items, pool_size, star) in enumerate(SKILLS_LADDER):
        rng = _rng("skills", seed, rung)
        # items with two competencies, enough for every pool member to be used
        pairs = max(n_items // 2, pool_size - n_items)
        while True:
            if star:
                block_of = list(range(pool_size)) + [
                    rng.randrange(pool_size) for _ in range(n_skills - pool_size)
                ]
                rng.shuffle(block_of)
                pool = [0] * pool_size
                for s, b in enumerate(block_of):
                    pool[b] |= 1 << s
            else:
                pool = set()
                while len(pool) < pool_size:
                    skills = rng.sample(range(n_skills), COMPETENCY_SKILLS)
                    pool.add(sum(1 << s for s in skills))
                pool = sorted(pool)
            sizes = [2] * pairs + [1] * (n_items - pairs)
            rng.shuffle(sizes)
            picks = rng.sample(pool, pool_size)
            picks += [rng.choice(pool) for _ in range(sum(sizes) - pool_size)]
            mu, k = [], 0
            for size in sizes:
                mu.append(picks[k : k + size])
                k += size
            if any(len(set(comps)) < len(comps) for comps in mu):
                continue
            # a star rung picks each of its disjoint blocks exactly once, so
            # every set of items is a state; the gate still checks this
            size = 1 << n_items if star else len(delineated_by_pool(mu))
            if SKILLS_BAND[0] <= size <= SKILLS_BAND[1]:
                break
        out.append({"skills": n_skills, "mu": mu, "star": star})
    return out


def _minimal(comps: list[int]) -> list[int]:
    return [c for c in comps if not any(o != c and o & ~c == 0 for o in comps)]


def delineated_by_pool(mu: list[list[int]]) -> set[int]:
    """{p(V) : V a union of minimal competencies}, by direct evaluation."""
    holders: dict[int, int] = {}
    for i, comps in enumerate(mu):
        for c in _minimal(comps):
            holders[c] = holders.get(c, 0) | 1 << i
    pairs = list(holders.items())
    states = set()
    for v in _union_close(holders):
        p = 0
        for c, items in pairs:
            if c & ~v == 0:
                p |= items
        states.add(p)
    return states


def build_multimap(pretopo, inp: dict):
    core = pretopo.core
    items = core.Universe([f"q{i + 1}" for i in range(len(inp["mu"]))])
    skills = core.Universe([f"s{i + 1}" for i in range(inp["skills"])])
    mu = {
        t: [skills.from_mask(c) for c in comps] for t, comps in zip(items.labels, inp["mu"])
    }
    return pretopo.skills.SkillMultimap(items, skills, mu)


def analyse_multimap(call, pretopo, inp: dict) -> dict:
    """One op: the four skill-map calls on one multimap."""
    sk = pretopo.skills
    mm = build_multimap(pretopo, inp)
    n = inp["skills"]
    k = call("skills.delineate", sk.delineate, mm, bound=n)
    rep = call("skills.is_delineated_space", sk.is_delineated_space, mm, bound=n)
    star = call("skills.star_condition", sk.star_condition, mm, bound=STAR_POOL_BOUND)
    cd = call(
        "skills.cd_delineation", sk.is_completely_discriminative_delineation, mm
    )
    return {
        "states": sorted(k.states.masks()),
        "report": rep.to_obj(),
        "star": star,
        "cd": cd,
    }


def check_multimap(inp: dict, out: dict) -> list[str]:
    errors = []
    if set(out["states"]) != delineated_by_pool(inp["mu"]):
        errors.append("delineate differs from the pool-union evaluation")
    if not out["report"]["agree"]:
        errors.append("is_delineated_space routes disagree")
    if inp["star"] and not out["star"]:
        errors.append("star condition fails on disjoint competencies")
    return errors


# -------------------------------------------------------------------- mine


def mine_job(call, pretopo, seed: int) -> dict:
    """One op: the exhaustive audit and the tiny-multimap sweep."""
    miner = pretopo.miner
    reports = call("miner.audit", miner.audit, "all", MINE_N, seed=seed)
    suite = call("miner.skills_suite", miner.run_skills_suite, *MINE_SUITE)
    return {
        "audit": {r.theorem: [r.checked, r.status] for r in reports},
        "suite": {k: [v[0], len(v[1])] for k, v in suite.items()},
    }


def check_mine(out: dict, expected: dict, seed: int) -> tuple[list[str], list[str]]:
    """Failures, and the seed-dependent counts that had no recorded value."""
    errors, unrecorded = [], []
    counts = dict(expected["checked"])
    counts.update(expected["checked_by_seed"].get(str(seed), {}))
    for ident, (checked, status) in out["audit"].items():
        if status not in ("holds", "audit-only"):
            errors.append(f"{ident}: {status}")
        if ident not in counts:
            unrecorded.append(ident)
        elif checked != counts[ident]:
            errors.append(f"{ident}: checked {checked}, recorded {counts[ident]}")
    if set(out["audit"]) != set(expected["checked"]) | set(expected["seed_dependent"]):
        errors.append("the set of registered checks changed")
    for ident, (checked, violations) in out["suite"].items():
        if violations or checked != expected["suite_checked"]:
            errors.append(f"sweep {ident}: {checked} checked, {violations} violations")
    return errors, unrecorded


# ------------------------------------------------------------ trace counts


def trace_counts(workload: str, pretopo, inputs: list, outputs: list) -> dict:
    """Work counts of a traced pass, computed from its inputs and outputs."""
    if workload == "mine":
        spaces = pretopo.miner.enumerate_spaces(MINE_N, bound=MINE_N)
        return {
            "miner.spaces": len(spaces),
            "miner.multimaps": outputs[0]["suite"]["p-monotone-union"][0],
        }
    if workload == "skills":
        skill_sets = sum(1 << inp["skills"] for inp in inputs)
        states = sum(len(out["states"]) for out in outputs)
        return {
            "skills.skill_sets": skill_sets,
            "skills.states": states,
            "skills.useful_ratio": states / skill_sets,
        }
    sizes = [len(inp["masks"]) for inp in inputs]
    return {
        "core.states": sum(sizes),
        "core.pairs": sum(k * (k - 1) // 2 for k in sizes),
        "operators.queries": sum(
            len(inp["queries"]) + len(inp["dense_queries"]) for inp in inputs
        ),
    }


# ------------------------------------------------------------------ digest


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
