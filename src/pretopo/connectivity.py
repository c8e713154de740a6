"""Connectedness, separations, chains over covers, tight 1-connectedness.

A separation is a pair of disjoint nonempty opens covering the universe;
the space is connected when none exists (equivalently, when no proper
nonempty clopen set exists). The reported witness is the most balanced
separation, which matches the worked counterexamples; ties break to the
canonically least part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import ItemSet, PreTopology, SetFamily, _canonical_key
from .errors import NotACover
from .operators import _fringe_masks


@dataclass(frozen=True)
class ChainWitness:
    covers_used: tuple[ItemSet, ...]
    endpoints: tuple[str, str]
    kind: str


@dataclass(frozen=True)
class ConnectednessReport:
    connected: bool
    separation: tuple[ItemSet, ItemSet] | None

    def to_obj(self) -> dict:
        return {
            "connected": self.connected,
            "separation": None
            if self.separation is None
            else [list(self.separation[0].labels), list(self.separation[1].labels)],
        }


def clopen_sets(space: PreTopology) -> list[ItemSet]:
    """Proper nonempty sets that are both open and closed, canonical order."""
    full = space.universe._full
    out = [
        m
        for m in space.states.masks()
        if m not in (0, full) and space.states.has_mask(full & ~m)
    ]
    return [ItemSet(space.universe, m) for m in sorted(out, key=_canonical_key)]


def connectedness(space: PreTopology) -> ConnectednessReport:
    clopens = clopen_sets(space)
    if not clopens:
        return ConnectednessReport(connected=True, separation=None)
    # the complement of a clopen is clopen, so the most balanced separation
    # has a part of at most half the items; max keeps the first of the
    # largest such parts, and the clopens come in canonical order
    half = len(space.universe) // 2
    best = max((c for c in clopens if len(c) <= half), key=len)
    return ConnectednessReport(connected=False, separation=(best, best.complement()))


def is_connected(space: PreTopology) -> bool:
    return connectedness(space).connected


def find_simple_chain(
    space: PreTopology, cover: SetFamily, x: str, y: str
) -> ChainWitness | None:
    """Shortest intersecting chain of cover members from x to y, or None
    when no chain joins them.

    Breadth-first over the cover intersection graph, members visited in
    canonical order; a shortest chain is automatically simple (a link
    between non-adjacent members would shortcut it).
    """
    u = space.universe
    if cover.universe != u:
        raise NotACover("cover is over a different universe")
    if any(m not in space.states for m in cover):
        raise NotACover("cover members must be states of the space")
    if cover.union_of_members().mask != u._full:
        raise NotACover("family does not cover the universe")
    bx, by = 1 << u.index(x), 1 << u.index(y)
    members = [m for m in cover.members if m.mask]
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for i, m in enumerate(members):
        if m.mask & bx:
            parent[i] = None
            queue.append(i)
    while queue:
        i = queue.popleft()
        if members[i].mask & by:
            path = []
            at: int | None = i
            while at is not None:
                path.append(members[at])
                at = parent[at]
            path.reverse()
            return ChainWitness(
                covers_used=tuple(path), endpoints=(x, y), kind="simple"
            )
        for j, m in enumerate(members):
            if j not in parent and m.mask & members[i].mask:
                parent[j] = i
                queue.append(j)
    return None


def is_well_graded(family: SetFamily) -> bool:
    """Any two members joined inside the family by unit steps, tightly.

    Breadth-first distances in the one-element-change graph must equal the
    symmetric-difference distance for every pair.
    """
    members = list(family.members)
    masks = [m.mask for m in members]
    k = len(members)
    adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if (masks[i] ^ masks[j]).bit_count() == 1:
                adj[i].append(j)
                adj[j].append(i)
    for s in range(k):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        for t in range(k):
            if dist.get(t) != (masks[s] ^ masks[t]).bit_count():
                return False
    return True


def is_tight_n_connected(space: PreTopology, n: int) -> bool:
    """Tight 1-connectedness: any two distinct opens U, W are joined
    through opens by |U Δ W| steps of one item each.

    Decided by the locally-closed-points criterion (U Δ W) ∩ U^LC ≠ ∅
    for distinct opens U, W. Only n = 1 is defined; any other n raises
    ValueError.
    """
    if n != 1:
        raise ValueError(f"tight n-connectedness is defined for n = 1 only, got {n}")
    opens = space.states.masks()
    for u_ in opens:
        inner, outer = _fringe_masks(space, u_)
        for w in opens:
            if w != u_ and not (u_ ^ w) & (inner | outer):
                return False
    return True
