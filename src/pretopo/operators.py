"""Point-set operators on a pre-topology, read from its minimal pre-base.

Every open is a union of members of the minimal pre-base B, the
irreducible states the space computes once and keeps, and every open
through a point holds a member of B through it. So each operator is one
pass over B, O(|B|) per query:

- the closure of a is Q minus the union of the members of B disjoint
  from a: z lies in it iff every open through z meets a;
- the interior of a is the union of the members of B inside a;
- z is an accumulation point of a iff every member of B through z meets
  a minus {z}.

The tables of every subset's interior and closure cost O(2^m·m), not 2^m
queries, and the space keeps them with its base (`interior_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ItemSet, KnowledgeStructure, PreTopology, _guard
from .structure import RELATION_UNIVERSE_BOUND


def _check_subset(space: KnowledgeStructure, a: ItemSet) -> None:
    if a.universe != space.universe:
        raise ValueError("subset belongs to a different universe")


def closure(space: PreTopology, a: ItemSet) -> ItemSet:
    """Smallest closed superset of a."""
    _check_subset(space, a)
    miss = 0
    for b in space.states._base().masks:
        if not b & a.mask:
            miss |= b
    return ItemSet(space.universe, space.universe._full & ~miss)


def interior(space: PreTopology, a: ItemSet) -> ItemSet:
    """Largest open subset of a (the union of opens inside it)."""
    _check_subset(space, a)
    out = 0
    for b in space.states._base().masks:
        if b & ~a.mask == 0:
            out |= b
    return ItemSet(space.universe, out)


def interior_table(space: PreTopology) -> tuple[int, ...]:
    """The interior of every subset, indexed by its mask, built once per
    space: a state is its own interior, and any other S has the union of
    the interiors of S minus one item, as an open inside S misses an item.
    The universe is guarded by the bound of `structure.from_relation`.

    >>> from pretopo.core import SetFamily, Universe
    >>> u = Universe(["a", "b"])
    >>> sierpinski = PreTopology(u, SetFamily.of(u, [[], ["a"], ["a", "b"]]))
    >>> interior_table(sierpinski)  # ∅, {a}, {b}, {a,b}
    (0, 1, 0, 3)
    >>> closure_table(sierpinski)
    (0, 3, 2, 3)
    """
    _guard(len(space.universe), RELATION_UNIVERSE_BOUND, "subset table universe", None)
    states = space.states
    base = states._base()
    if base.interiors is None:
        opens = states.masks()
        itr = [0] * (1 << len(space.universe))
        for s in range(1, len(itr)):
            if s in opens:
                itr[s] = s
                continue
            acc = 0
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                acc |= itr[s ^ low]
            itr[s] = acc
        base = states._derived = base._replace(interiors=tuple(itr))
    return base.interiors


def closure_table(space: PreTopology) -> tuple[int, ...]:
    """The closure of every subset, cl[A] = Q minus itr[Q minus A], read
    from `interior_table`."""
    full = space.universe._full
    return tuple(map(full.__xor__, reversed(interior_table(space))))


def boundary(space: PreTopology, a: ItemSet) -> ItemSet:
    """closure(a) ∩ closure(complement); equals closure(a) minus interior(a)."""
    return closure(space, a) & closure(space, a.complement())


def derived_set(space: PreTopology, a: ItemSet) -> ItemSet:
    """Accumulation points: every open through z meets a \\ {z}."""
    _check_subset(space, a)
    u = space.universe
    base = space.states._base().masks
    out = 0
    for i in range(len(u)):
        bit = 1 << i
        rest = a.mask & ~bit
        if all(b & rest for b in base if b & bit):
            out |= bit
    return ItemSet(u, out)


def is_dense(space: PreTopology, d: ItemSet) -> bool:
    """True iff closure(d) is the whole universe: d meets every member
    of the minimal pre-base (each nonempty open contains one)."""
    _check_subset(space, d)
    return all(b & d.mask for b in space.states._base().masks)


@dataclass(frozen=True)
class FringeReport:
    inner: ItemSet
    outer: ItemSet

    @property
    def full(self) -> ItemSet:
        return self.inner | self.outer


def fringes(space: PreTopology, w: ItemSet) -> FringeReport:
    """One-element moves that stay inside the family.

    inner: z in w with w \\ {z} a state; outer: z outside w with w ∪ {z} a
    state. w need not itself be open.
    """
    _check_subset(space, w)
    inner, outer = _fringe_masks(space, w.mask)
    u = space.universe
    return FringeReport(inner=ItemSet(u, inner), outer=ItemSet(u, outer))


def _fringe_masks(space: PreTopology, w: int) -> tuple[int, int]:
    """The inner and outer fringes of the subset mask w, as masks."""
    opens = space.states.masks()
    inner = 0
    outer = 0
    for i in range(len(space.universe.labels)):
        bit = 1 << i
        if w & bit:
            if w ^ bit in opens:
                inner |= bit
        elif w | bit in opens:
            outer |= bit
    return inner, outer
