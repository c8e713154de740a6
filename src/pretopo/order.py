"""Quasi-order correspondence, minimal states, atoms, reduction.

The primitive is N(q), the meet of the states containing q, read from
the irreducible states (`core._item_meets`). It gives the specialization
order: x ⪯ y iff x lies in every open containing y, that is x ∈ N(y). A
space is intersection-closed (quasi-ordinal / Alexandroff) iff every N(q)
is a state, which is then the minimal state at q. Such spaces are in
bijection with quasi-orders, and the space is regenerated as the union
closure of the principal down-sets N(q).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ItemSet,
    KnowledgeStructure,
    PreTopology,
    SetFamily,
    Universe,
    _minimal_masks,
    _read_labels,
    _read_universe,
    union_closure_masks,
)
from .errors import AxiomViolation, NotQuasiOrdinal, SchemaError
from .maps import PointMap, quotient_projection
from .operators import _fringe_masks


class QuasiOrder:
    """Reflexive transitive relation, rows packed as successor masks."""

    __slots__ = ("universe", "up")

    def __init__(self, universe: Universe, up: tuple[int, ...]):
        if len(up) != len(universe):
            raise ValueError("relation rows do not match the universe")
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise AxiomViolation("reflexive", witness=universe.labels[i])
        for i, row in enumerate(up):
            rest = row
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                if up[j] & ~row:
                    k = (up[j] & ~row).bit_length() - 1
                    raise AxiomViolation(
                        "transitive",
                        witness=(
                            universe.labels[i],
                            universe.labels[j],
                            universe.labels[k],
                        ),
                    )
        self.universe = universe
        self.up = tuple(up)

    def leq(self, x: str, y: str) -> bool:
        return bool(self.up[self.universe.index(x)] >> self.universe.index(y) & 1)

    def down_set(self, q: str) -> ItemSet:
        qi = self.universe.index(q)
        mask = 0
        for i, row in enumerate(self.up):
            if row >> qi & 1:
                mask |= 1 << i
        return ItemSet(self.universe, mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuasiOrder)
            and self.universe == other.universe
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.up))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}<={b}" for a, b in self.to_obj()["leq"])
        return f"QuasiOrder({pairs})"

    def to_obj(self) -> dict:
        return {
            "universe": list(self.universe.labels),
            "leq": [
                [a, b]
                for i, a in enumerate(self.universe.labels)
                for j, b in enumerate(self.universe.labels)
                if i != j and self.up[i] >> j & 1
            ],
        }

    @classmethod
    def from_pairs(
        cls, universe: Universe, pairs: list[tuple[str, str]]
    ) -> "QuasiOrder":
        up = [1 << i for i in range(len(universe))]
        for a, b in pairs:
            up[universe.index(a)] |= 1 << universe.index(b)
        return cls(universe, tuple(up))

    @classmethod
    def from_obj(cls, obj: object) -> "QuasiOrder":
        if not isinstance(obj, dict) or "universe" not in obj or "leq" not in obj:
            raise SchemaError("quasi-order JSON needs 'universe' and 'leq'")
        universe = _read_universe(obj["universe"], "universe")
        pairs = obj["leq"]
        if not isinstance(pairs, list):
            raise SchemaError("'leq' must be an array of pairs")
        read = [_read_labels(universe, pair, "leq entry") for pair in pairs]
        if any(len(pair) != 2 for pair in read):
            raise SchemaError("bad leq entry: each must be an array of two labels")
        return cls.from_pairs(universe, [(a, b) for a, b in read])


def _minimal_states(space: PreTopology) -> tuple[int, ...] | None:
    """N(q) for every item q when each is a state, else None."""
    meets = space.states._base().meets
    masks = space.states.masks()
    return meets if all(meet in masks for meet in meets) else None


def is_quasi_ordinal(space: PreTopology) -> bool:
    """Union closure is given; intersections must also stay in the family.

    They do iff every N(q) is a state: A ∩ B is then the union of N(q)
    over q ∈ A ∩ B. O(|K|·|B|).
    """
    return _minimal_states(space) is not None


def to_quasi_order(space: PreTopology) -> QuasiOrder:
    """x ⪯ y iff x belongs to every open containing y, i.e. x ∈ N(y).

    >>> uni = Universe(["z1", "z2", "z3"])
    >>> space = PreTopology.from_family(
    ...     SetFamily.from_masks(uni, [0b000, 0b001, 0b011, 0b111])
    ... )
    >>> print(to_quasi_order(space))
    QuasiOrder(z1<=z2, z1<=z3, z2<=z3)
    """
    mins = _minimal_states(space)
    if mins is None:
        raise NotQuasiOrdinal("space is not closed under intersections")
    n = len(mins)
    up = tuple(sum(1 << y for y in range(n) if mins[y] >> x & 1) for x in range(n))
    return QuasiOrder(space.universe, up)


def from_quasi_order(order: QuasiOrder) -> PreTopology:
    """Union closure of the principal down-sets; intersection-closed."""
    u = order.universe
    downs = [order.down_set(q).mask for q in u.labels]
    masks = union_closure_masks(downs)
    return PreTopology(u, SetFamily.from_masks(u, masks), _trusted=True)


def minimal_state(space: PreTopology, t: str) -> ItemSet | None:
    """The minimum of the states containing t, or None if not unique.

    A minimum, if any, is N(t); when N(t) is not a state, at least two
    ⊆-minimal states hold t.
    """
    meet = space.states._base().meets[space.universe.index(t)]
    return ItemSet(space.universe, meet) if space.states.has_mask(meet) else None


def atoms_at(space: PreTopology, t: str) -> SetFamily:
    """⊆-minimal states containing the item, from every state through it:
    this is the T2 route of the miner's `separation-hierarchy`, and a route
    through the base would share the base with `separation.is_t2`."""
    bit = 1 << space.universe.index(t)
    through = [m for m in space.states.masks() if m & bit]
    return SetFamily.from_masks(space.universe, _minimal_masks(through))


def is_antimatroid(space: PreTopology) -> bool:
    """Every nonempty state keeps some single element removable: its inner
    fringe (`operators._fringe_masks`) is nonempty."""
    return all(_fringe_masks(space, m)[0] for m in space.states.masks() if m)


@dataclass(frozen=True)
class Reduction:
    classes: tuple[ItemSet, ...]
    reduced: KnowledgeStructure
    projection: PointMap

    def to_obj(self) -> dict:
        return {
            "classes": [list(c.labels) for c in self.classes],
            "reduced": self.reduced.to_obj(),
            "projection": self.projection.to_obj(),
        }


def discriminative_reduction(structure: KnowledgeStructure) -> Reduction:
    """Quotient by notions: items with identical state systems collapse.

    i and j lie in the same states iff j ∈ N(i) and i ∈ N(j), which holds
    iff N(i) = N(j); so the classes are the items grouped by their meet,
    in order of least item. Every state is saturated under the notion
    partition, so the reduced states are the images of all states under
    `quotient_projection`, at ⌈m/8⌉ table lookups a state; the result is
    discriminative (T0). The image of a union-closed family is
    union-closed, so the quotient of a pre-topology needs no validation.
    """
    u = structure.universe
    class_masks: dict[int, int] = {}
    for i, meet in enumerate(structure.states._base().meets):
        class_masks[meet] = class_masks.get(meet, 0) | 1 << i
    classes = tuple(ItemSet(u, m) for m in class_masks.values())
    projection = quotient_projection(structure, list(classes))
    reduced_universe = projection.codomain
    family = SetFamily.from_masks(
        reduced_universe, projection._image_masks(structure.states.masks())
    )
    reduced: KnowledgeStructure
    if isinstance(structure, PreTopology):
        reduced = PreTopology(reduced_universe, family, _trusted=True)
    else:
        reduced = KnowledgeStructure(reduced_universe, family)
    return Reduction(classes=classes, reduced=reduced, projection=projection)


def m_graph_connected(space: PreTopology) -> bool:
    """Items chained by overlapping minimal states (quasi-ordinal spaces)."""
    mins = _minimal_states(space)
    if mins is None:
        raise NotQuasiOrdinal("minimal-state graph needs a quasi-ordinal space")
    n = len(mins)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and mins[i] & mins[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n
