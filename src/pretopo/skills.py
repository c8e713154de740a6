"""Skill multimaps, problem functions, delineation, and its characterizations.

A skill multimap assigns every item a non-empty finite set of non-empty
competencies over a skill universe. The problem function p sends a skill
set R to the items having some competency inside R; the delineated
structure is the family of all p(R).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence, Set
from dataclasses import asdict, dataclass

from .core import (
    ItemSet,
    KnowledgeStructure,
    SetFamily,
    Universe,
    _canonical_key,
    _guard,
    _read_labels,
    _read_universe,
    union_closure_masks,
)
from .errors import CombinatorialBoundExceeded, SchemaError, SkillBoundExceeded
from .structure import classify

SKILL_BOUND = 20
POOL_BOUND = 16


class SkillMultimap:
    """Items, skills, and the competency assignment with minimal members."""

    __slots__ = ("items", "skills", "mu", "mu_min")

    def __init__(
        self,
        items: Universe,
        skills: Universe,
        mu: dict[str, list[ItemSet]],
    ):
        for t in items.labels:
            if t not in mu or not mu[t]:
                raise ValueError(f"item {t!r} needs at least one competency")
        for t in mu:
            if t not in items:
                raise ValueError(f"competencies given for unknown item {t!r}")
        clean: dict[str, tuple[ItemSet, ...]] = {}
        minimal: dict[str, tuple[ItemSet, ...]] = {}
        for t in items.labels:
            for c in mu[t]:
                if c.universe != skills:
                    raise ValueError("competency over a different skill universe")
                if c.is_empty():
                    raise ValueError(f"item {t!r} has an empty competency")
            by_mask = {c.mask: c for c in mu[t]}
            comps, mins = _competencies(by_mask)
            clean[t] = tuple(by_mask[c] for c in comps)
            minimal[t] = tuple(by_mask[c] for c in mins)
        self.items = items
        self.skills = skills
        self.mu = clean
        self.mu_min = minimal

    def is_skill_function(self) -> bool:
        """Competencies of each item pairwise incomparable."""
        return all(self.mu[t] == self.mu_min[t] for t in self.items.labels)

    def competency_pool(self) -> tuple[ItemSet, ...]:
        """Deduplicated union of all competencies, canonical order."""
        return self._pool(self.mu)

    def minimal_pool(self) -> tuple[ItemSet, ...]:
        return self._pool(self.mu_min)

    def _pool(self, comps: dict[str, tuple[ItemSet, ...]]) -> tuple[ItemSet, ...]:
        seen = {c.mask: c for t in self.items.labels for c in comps[t]}
        return tuple(seen[c] for c in sorted(seen, key=_canonical_key))

    def to_obj(self) -> dict:
        return {
            "items": list(self.items.labels),
            "skills": list(self.skills.labels),
            "mu": {t: [list(c.labels) for c in self.mu[t]] for t in self.items.labels},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"

    @classmethod
    def from_obj(cls, obj: object) -> "SkillMultimap":
        if (
            not isinstance(obj, dict)
            or "items" not in obj
            or "skills" not in obj
            or "mu" not in obj
        ):
            raise SchemaError("skill-map JSON needs 'items', 'skills' and 'mu'")
        items = _read_universe(obj["items"], "items")
        skills = _read_universe(obj["skills"], "skills")
        raw = obj["mu"]
        if not isinstance(raw, dict):
            raise SchemaError("'mu' must map items to competency arrays")
        mu: dict[str, list[ItemSet]] = {}
        for t, comps in raw.items():
            if not isinstance(comps, list):
                raise SchemaError(f"competencies of {t!r} must be an array")
            what = f"competency for {t!r}"
            mu[t] = [skills.subset(_read_labels(skills, c, what)) for c in comps]
        try:
            return cls(items, skills, mu)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "SkillMultimap":
        return cls.from_obj(json.loads(text))


def _competencies(masks: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One item's competencies as masks: the distinct ones in canonical
    order, and the ⊆-minimal ones among them, in the same order."""
    comps = tuple(sorted(set(masks), key=_canonical_key))
    mins = tuple(c for c in comps if not any(o != c and o & ~c == 0 for o in comps))
    return comps, mins


def problem_function(m: SkillMultimap, r: ItemSet) -> ItemSet:
    """Items with some competency contained in r; monotone in r."""
    if r.universe != m.skills:
        raise ValueError("skill set over a different universe")
    return ItemSet(m.items, _p(_min_masks(m), r.mask))


def _min_masks(m: SkillMultimap) -> list[tuple[int, ...]]:
    """The minimal competencies of each item as masks, items in order."""
    return [tuple(c.mask for c in m.mu_min[t]) for t in m.items.labels]


def _p(mins: Sequence[Sequence[int]], r: int) -> int:
    """p(R) on masks: the items with a minimal competency inside r."""
    mask = 0
    for i, comps in enumerate(mins):
        for c in comps:
            if c & ~r == 0:
                mask |= 1 << i
                break
    return mask


def _holders(mins: Sequence[Sequence[int]]) -> dict[int, int]:
    """Each competency of the minimal pool -> mask of the items holding it
    as a minimal competency, so p(R) is the union of the masks whose key
    lies inside R."""
    table: dict[int, int] = {}
    for i, comps in enumerate(mins):
        for c in comps:
            table[c] = table.get(c, 0) | 1 << i
    return table


def _delineated_masks(holders: dict[int, int]) -> set[int]:
    """{p(V) : V a union of keys of the holder table}, one p per union."""
    # A key inside u | g but not inside u meets g, so p(u | g) is p(u),
    # the holders of g, and those of the other keys meeting g that fit.
    meets = {
        g: [(c, h) for c, h in holders.items() if c & g and c != g] for g in holders
    }
    unions = [0]
    images = [0]
    seen = {0}
    for g, held in holders.items():
        extra = meets[g]
        for i in range(len(unions)):
            v = unions[i] | g
            if v in seen:
                continue
            seen.add(v)
            p = images[i] | held
            for c, h in extra:
                if c & ~v == 0:
                    p |= h
            unions.append(v)
            images.append(p)
    return set(images)


def delineate(m: SkillMultimap, bound: int | None = None) -> KnowledgeStructure:
    """Family of all p(R) over the skill sets R, in output-sensitive time.

    Lemma: p(R) = p(V_R) with V_R the union of the minimal competencies
    inside R, and every union V of minimal competencies is a skill set
    with V_R = V. So the family is {p(V) : V a union of the minimal
    pool}, and p is evaluated once per distinct union. Cost: O(U * k)
    time for U distinct unions of the minimal pool and k pool members
    meeting a given one (U is at most 2^|S| and at most 2^|pool|), and
    O(U) memory for the set of unions seen. The skill guard is kept as
    the bound on |S|.
    """
    _guard(len(m.skills), SKILL_BOUND, "delineation skills", bound, SkillBoundExceeded)
    states = _delineated_masks(_holders(_min_masks(m)))
    return KnowledgeStructure(m.items, SetFamily.from_masks(m.items, states))


@dataclass(frozen=True)
class DelineationReport:
    space: bool
    via_characterization: bool
    agree: bool

    def to_obj(self) -> dict:
        return asdict(self)


def is_delineated_space(
    m: SkillMultimap, bound: int | None = None
) -> DelineationReport:
    """Union-closedness of the delineated family, via two routes.

    Direct route: classify the delineated family. Characterization
    route: the family must coincide with all unions of p(D) for D drawn
    from the minimal competencies of all items. Both read one holder
    table; neither uses the other's result.
    """
    _guard(len(m.skills), SKILL_BOUND, "delineation skills", bound, SkillBoundExceeded)
    holders = _holders(_min_masks(m))
    family = _delineated_masks(holders)
    return _delineation_report(holders, family, len(m.items))


def _delineation_report(
    holders: dict[int, int], family: Set[int], n_items: int
) -> DelineationReport:
    """Both routes of `is_delineated_space` on the delineated family, as
    masks, of the multimap over n_items items whose holder table is given."""
    universe = Universe(map(str, range(n_items)))
    space = classify(SetFamily.from_masks(universe, family)).is_knowledge_space
    images = []
    for d in holders:
        pd = 0
        for c, h in holders.items():
            if c & ~d == 0:
                pd |= h
        images.append(pd)
    via = union_closure_masks(images) == family
    return DelineationReport(space=space, via_characterization=via, agree=space == via)


def star_condition(m: SkillMultimap, bound: int | None = None) -> bool:
    """Covering condition on competency subfamilies.

    For every item g and every subfamily M of the global competency pool:
    if every minimal competency of g leaves a remainder against each
    member of M separately, it must leave a remainder against the union
    of M. The item-provenance quantifier collapses onto the full pool.

    Lemma: for a fixed g the antecedent holds exactly for the subfamilies
    of A_g, the pool members holding none of g's minimal competencies,
    and the consequent only gets harder as M grows. So the condition
    holds iff, for every g, no minimal competency of g lies inside the
    union of A_g. Cost: O(|items| * |pool| * c) for at most c minimal
    competencies per item, where the definition ranges over 2^|pool|
    subfamilies. The pool guard is kept as an API contract.
    """
    pool = m.competency_pool()
    _guard(len(pool), POOL_BOUND, "competency pool", bound, CombinatorialBoundExceeded)
    return _star([c.mask for c in pool], _min_masks(m))


def _star(pool: Iterable[int], mins: Sequence[Sequence[int]]) -> bool:
    """`star_condition` on masks: the competency pool and each item's
    minimal competencies."""
    for comps in mins:
        reach = 0
        for d in pool:
            for c in comps:
                if c & ~d == 0:
                    break
            else:
                reach |= d
        for c in comps:
            if c & ~reach == 0:
                return False
    return True


def is_completely_discriminative_delineation(m: SkillMultimap) -> bool:
    """Minimal-competency route to complete discrimination.

    For each pair of distinct items there must be minimal competencies
    whose refinement marks never overlap across items.
    """
    return _refinement_route(_min_masks(m))


def _refinement_route(mins: Sequence[Sequence[int]]) -> bool:
    """`is_completely_discriminative_delineation` on masks. The marks of a
    competency c are the items g that c refines (some minimal competency
    of g lies inside c); a pair of items passes when a minimal competency
    of each has marks disjoint from the other's."""
    marks: dict[int, int] = {}
    for comps in mins:
        for c in comps:
            if c not in marks:
                marked = 0
                for g, own in enumerate(mins):
                    for w in own:
                        if w & ~c == 0:
                            marked |= 1 << g
                            break
                marks[c] = marked
    item_marks = [[marks[c] for c in comps] for comps in mins]
    for i, mh in enumerate(item_marks):
        for mq in item_marks[i + 1 :]:
            if not any(not x & y for x in mh for y in mq):
                return False
    return True
