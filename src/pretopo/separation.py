"""Separation axioms and the discrimination notions, with witnesses.

T3 and T4 are layered on top of T1; the bare point/closed-set and
closed/closed separation properties are reported independently as
regular_property and normal_property because several order-theoretic
results need them in spaces that fail T1. Witnesses are the first failing
pair in canonical scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Iterable

from .core import ItemSet, PreTopology, Universe, _canonical_key
from .operators import fringes


@dataclass(frozen=True)
class SeparationProfile:
    t0: bool
    t1: bool
    t2: bool
    regular_property: bool
    t3: bool
    normal_property: bool
    t4: bool
    discriminative: bool
    bi_discriminative: bool
    completely_discriminative: bool
    witnesses: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        out = {
            "t0": self.t0,
            "t1": self.t1,
            "t2": self.t2,
            "regular_property": self.regular_property,
            "t3": self.t3,
            "normal_property": self.normal_property,
            "t4": self.t4,
            "discriminative": self.discriminative,
            "bi_discriminative": self.bi_discriminative,
            "completely_discriminative": self.completely_discriminative,
        }
        out["witnesses"] = self.witnesses
        return out


def is_t0(space: PreTopology) -> tuple[bool, tuple[str, str] | None]:
    """Some open contains exactly one of each pair of distinct points.

    No open separates i and j iff each lies in every open through the
    other: j ∈ N(i) and i ∈ N(j), with N the per-item meets
    (`core._item_meets`). Fails at the first such pair i < j. T0 is the
    discriminative condition (distinct points, distinct state systems).
    """
    u = space.universe
    meets = space.states._base().meets
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if meets[i] >> j & 1 and meets[j] >> i & 1:
                return False, (u.labels[i], u.labels[j])
    return True, None


# one notion, one implementation
is_discriminative = is_t0


def is_t1(space: PreTopology) -> tuple[bool, tuple[str, str] | None]:
    """Each point of a pair lies in an open missing the other.

    Failure witness (p, q): every state containing p contains q, that is
    q ∈ N(p); the first p, then the least such q ≠ p.
    """
    for p, meet in enumerate(space.states._base().meets):
        rest = meet & ~(1 << p)
        if rest:
            labels = space.universe.labels
            return False, (labels[p], labels[(rest & -rest).bit_length() - 1])
    return True, None


def is_t2(space: PreTopology) -> tuple[bool, tuple[str, str] | None]:
    """Distinct points admit disjoint opens.

    An open through a point contains a base member through it, so
    disjoint opens through i and j exist iff disjoint base members do:
    j must lie in the reach of some base member through i.
    O(|B|² + m·|B|) for |B| base members.
    """
    u = space.universe
    base = space.states._base().masks
    reach = _reach(base, base)
    for i in range(len(u)):
        apart = 0
        for b in base:
            if b >> i & 1:
                apart |= reach[b]
        for j in range(i + 1, len(u)):
            if not apart >> j & 1:
                return False, (u.labels[i], u.labels[j])
    return True, None


def _reach(opens: Iterable[int], base: Iterable[int]) -> dict[int, int]:
    """For each open W, the union of the base members disjoint from W.

    Every open is a union of base members, so this is the union of all
    opens disjoint from W: the largest open disjoint from W. O(|opens|·|B|).
    """
    out: dict[int, int] = {}
    for w in opens:
        r = 0
        for b in base:
            if not b & w:
                r |= b
        out[w] = r
    return out


def is_regular_property(
    space: PreTopology,
) -> tuple[bool, tuple[str, tuple[str, ...]] | None]:
    """Point and avoiding closed set separated by disjoint opens."""
    u = space.universe
    opens = space.states.masks()
    return _regular(u, opens, _closed(u, opens), _reach(opens, space.states._base().masks))


def _closed(u: Universe, opens: Iterable[int]) -> list[int]:
    """The closed sets in witness scan order: by size, then by indices."""
    return sorted((u._full & ~m for m in opens), key=_canonical_key)


def _regular(
    u: Universe, opens: Iterable[int], closed: list[int], reach: dict[int, int]
) -> tuple[bool, tuple[str, tuple[str, ...]] | None]:
    for i in range(len(u)):
        bit = 1 << i
        for f in closed:
            if f & bit:
                continue
            if not any(f & ~w == 0 and reach[w] & bit for w in opens):
                return False, (u.labels[i], ItemSet(u, f).labels)
    return True, None


def is_normal_property(
    space: PreTopology,
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Disjoint closed sets separated by disjoint opens.

    e and f are separated iff some open U ⊇ e has f ⊆ reach[U], the
    largest open disjoint from U: one scan of the opens per pair of
    closed sets, O(|K|³) at worst, instead of a scan of pairs of opens.
    """
    u = space.universe
    opens = space.states.masks()
    return _normal(u, opens, _closed(u, opens), _reach(opens, space.states._base().masks))


def _normal(
    u: Universe, opens: Iterable[int], closed: list[int], reach: dict[int, int]
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    opens = sorted(opens)
    for idx_e, e in enumerate(closed):
        for f in closed[idx_e + 1 :]:
            if e & f:
                continue
            if not any(not e & ~uu and not f & ~reach[uu] for uu in opens):
                return False, (ItemSet(u, e).labels, ItemSet(u, f).labels)
    return True, None


def is_completely_discriminative(space: PreTopology) -> bool:
    """Every pair of distinct points lies in some pair of disjoint states.

    The same condition as T2, so it is decided by `is_t2`.
    """
    return is_t2(space)[0]


def bi_discriminative_via_fringe(space: PreTopology) -> bool:
    """T1 criterion through the inner fringe of the whole universe."""
    return fringes(space, space.universe.full).inner == space.universe.full


def separation_profile(space: PreTopology) -> SeparationProfile:
    """Every axiom once; the discrimination flags are T0, T1 and T2 under
    their knowledge-space names, with the same witnesses.

    The base and the per-item meets come from the space's cache; the
    closed sets and the reach of every open are computed once and shared
    by the regular and normal kernels.
    """
    u = space.universe
    opens = space.states.masks()
    closed = _closed(u, opens)
    reach = _reach(opens, space.states._base().masks)
    witnesses: dict = {}
    t0, w = is_t0(space)
    if w:
        witnesses["t0"] = witnesses["discriminative"] = list(w)
    t1, w = is_t1(space)
    if w:
        witnesses["t1"] = witnesses["bi_discriminative"] = list(w)
    t2, w = is_t2(space)
    if w:
        witnesses["t2"] = list(w)
        witnesses["completely_discriminative"] = list(w)
    reg, w = _regular(u, opens, closed, reach)
    if w:
        witnesses["regular_property"] = [w[0], list(w[1])]
    norm, w = _normal(u, opens, closed, reach)
    if w:
        witnesses["normal_property"] = [list(w[0]), list(w[1])]
    return SeparationProfile(
        t0=t0,
        t1=t1,
        t2=t2,
        regular_property=reg,
        t3=t1 and reg,
        normal_property=norm,
        t4=t1 and norm,
        discriminative=t0,
        bi_discriminative=t1,
        completely_discriminative=t2,
        witnesses=witnesses,
    )
