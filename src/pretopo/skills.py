"""Skill multimaps, problem functions, delineation, and its characterizations.

A skill multimap assigns every item a non-empty finite set of non-empty
competencies over a skill universe. The problem function p sends a skill
set R to the items having some competency inside R; the delineated
structure is the family of all p(R).

What the skill calls read is derived once per multimap, on first use,
and kept for the object's lifetime (`SkillMultimap._delineation`): the
minimal competencies as masks, the holder table, the competency pool
and, once a call needs it, the delineated family. `delineate`,
`is_delineated_space`, `star_condition`,
`is_completely_discriminative_delineation` and `problem_function` read
that record. The guarded calls still run their size guards on every
call, before the family is read, so a smaller `bound=` refuses a
multimap whose record is already built.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    ItemSet,
    KnowledgeStructure,
    SetFamily,
    Universe,
    _canonical_key,
    _guard,
    _minimal_masks,
    _read_labels,
    _read_universe,
    union_closure_masks,
)
from .errors import CombinatorialBoundExceeded, SchemaError, SkillBoundExceeded
from .structure import classify

SKILL_BOUND = 20
POOL_BOUND = 16


class SkillMultimap:
    """Items, skills, and the competency assignment with minimal members.

    `mu` and `mu_min` are read-only views, since what the skill calls
    derive from them is computed once and kept in `_derived` (see
    `_delineation`).
    """

    __slots__ = ("items", "skills", "mu", "mu_min", "_derived")

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
        self.mu = MappingProxyType(clean)
        self.mu_min = MappingProxyType(minimal)
        self._derived: _Delineation | None = None

    def is_skill_function(self) -> bool:
        """Competencies of each item pairwise incomparable."""
        return all(self.mu[t] == self.mu_min[t] for t in self.items.labels)

    def competency_pool(self) -> tuple[ItemSet, ...]:
        """Deduplicated union of all competencies, canonical order."""
        return self._pool(self.mu)

    def minimal_pool(self) -> tuple[ItemSet, ...]:
        return self._pool(self.mu_min)

    def _pool(self, comps: Mapping[str, tuple[ItemSet, ...]]) -> tuple[ItemSet, ...]:
        seen = {c.mask: c for t in self.items.labels for c in comps[t]}
        return tuple(seen[c] for c in sorted(seen, key=_canonical_key))

    def _delineation(self) -> "_Delineation":
        """The minimal competencies as masks, the holder table and the
        competency pool, computed on the first call and shared by every
        later one, with the delineated family once `_delineated_family`
        has run. No guard runs here: each public call guards first."""
        if self._derived is None:
            mins = tuple(tuple(c.mask for c in self.mu_min[t]) for t in self.items.labels)
            pool = tuple(c.mask for c in self.competency_pool())
            self._derived = _Delineation(
                mins, MappingProxyType(_holders(mins)), pool, None
            )
        return self._derived

    def _delineated_family(self) -> frozenset[int]:
        """The delineated family as masks, from one `_delineated_masks`
        run on the first call, kept with the record."""
        record = self._delineation()
        if record.family is None:
            record = self._derived = record._replace(
                family=frozenset(_delineated_masks(record.holders))
            )
        return record.family

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


class _Delineation(NamedTuple):
    """What a multimap derives for the skill calls (`SkillMultimap._delineation`)."""

    mins: tuple[tuple[int, ...], ...]  # each item's minimal competencies, items in order
    holders: Mapping[int, int]  # `_holders(mins)`, read-only
    pool: tuple[int, ...]  # the competency pool as masks, in canonical order
    family: frozenset[int] | None  # `_delineated_family`; None until it runs


def _competencies(masks: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One item's competencies as masks: the distinct ones in canonical
    order, and the ⊆-minimal ones among them, in the same order."""
    comps = tuple(sorted(set(masks), key=_canonical_key))
    return comps, tuple(_minimal_masks(comps))


def problem_function(m: SkillMultimap, r: ItemSet) -> ItemSet:
    """Items with some competency contained in r; monotone in r."""
    if r.universe != m.skills:
        raise ValueError("skill set over a different universe")
    return ItemSet(m.items, _p(m._delineation().mins, r.mask))


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


def _delineated_masks(holders: Mapping[int, int]) -> set[int]:
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
    the bound on |S|, and runs on every call.

    The family is computed once per multimap and kept for the object's
    lifetime, so `is_delineated_space` and a second call read it back.

    >>> items, skills = Universe(["q1", "q2"]), Universe(["s1", "s2"])
    >>> m = SkillMultimap(items, skills, {
    ...     "q1": [skills.subset(["s1"])], "q2": [skills.subset(["s1", "s2"])]})
    >>> [str(s) for s in delineate(m).states]
    ['{}', '{q1}', '{q1,q2}']
    >>> delineate(m, bound=1)
    Traceback (most recent call last):
    ...
    pretopo.errors.SkillBoundExceeded: delineation skills: 2 exceeds the configured bound 1
    """
    _guard(len(m.skills), SKILL_BOUND, "delineation skills", bound, SkillBoundExceeded)
    states = m._delineated_family()
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
    table; neither uses the other's result. The holder table and the
    family are those of the multimap's record, computed once per multimap
    and kept for the object's lifetime (shared with `delineate`); the
    skill guard runs on every call.
    """
    _guard(len(m.skills), SKILL_BOUND, "delineation skills", bound, SkillBoundExceeded)
    family = m._delineated_family()
    return _delineation_report(m._delineation().holders, family, len(m.items))


def _delineation_report(
    holders: Mapping[int, int], family: Set[int], n_items: int
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
    subfamilies. The pool guard is kept as an API contract, and runs on
    every call; it reads only the pool of the multimap's record, so no
    union is taken before it.
    """
    record = m._delineation()
    _guard(len(record.pool), POOL_BOUND, "competency pool", bound, CombinatorialBoundExceeded)
    return _star(record.pool, record.mins)


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
    return _refinement_route(m._delineation().mins)


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
