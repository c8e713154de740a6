"""Maps between pre-topologies and the derived space constructions.

Pre-continuity asks for open preimages of opens; since preimages commute
with unions it suffices to test the minimal pre-base of the codomain,
where the continuity witness is read. Images commute with unions too,
and f(∅) = ∅, so pre-openness tests the images of the domain's base.
Subspace, product and quotient build their family from masks and mark
the space trusted: the traces, the union closure of the base boxes and
the images of the saturated states are union-closed by construction.
The child pre-topology is a bare `SetFamily`. The product's row-major
layout (`_box`) and the subspace inclusion (`_inclusion`) live here only.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from .core import (
    MAX_UNIVERSE,
    ItemSet,
    KnowledgeStructure,
    PreTopology,
    SetFamily,
    Universe,
    irreducible_states,
    union_closure_masks,
)
from .errors import (
    EmptySubspace,
    NotAPartition,
    NotAState,
    NotSurjective,
    SchemaError,
    UniverseOverflow,
)


_Tables = tuple[tuple[int, list[int]], ...]


def _byte_tables(bit_images: Sequence[int]) -> _Tables:
    """Per-byte tables of the union of the images of a mask's bits, bit
    i to `bit_images[i]`: the chunk of up to 8 bits from bit c has the
    unions over its 2^min(8, m−c) subsets, at the subset's byte value, so
    `_push` reads a mask with ⌈m/8⌉ lookups. At most 32·m entries, built
    by doubling the table once per bit."""
    tables = []
    for shift in range(0, len(bit_images), 8):
        table = [0]
        for img in bit_images[shift : shift + 8]:
            table += [t | img for t in table]
        tables.append((shift, table))
    return tuple(tables)


def _push(tables: _Tables, mask: int) -> int:
    """The image of a mask under per-byte OR tables (`_byte_tables`)."""
    out = 0
    for shift, table in tables:
        out |= table[mask >> shift & 255]
    return out


class PointMap:
    """Total map between two universes, one codomain item per domain item.

    `image_mask` and `preimage_mask` are the one place where masks cross
    an item map: each reads per-byte tables (`_byte_tables`), built on
    first use and kept on the map, at ⌈m/8⌉ lookups a mask for m items on
    the side it reads.
    """

    __slots__ = ("domain", "codomain", "assignment", "_targets", "_image", "_preimage")

    def __init__(self, domain: Universe, codomain: Universe, assignment: dict[str, str]):
        missing = [t for t in domain.labels if t not in assignment]
        if missing:
            raise ValueError(f"assignment misses domain items: {missing}")
        extra = [t for t in assignment if t not in domain]
        if extra:
            raise ValueError(f"assignment has unknown domain items: {extra}")
        self.domain = domain
        self.codomain = codomain
        self.assignment = {t: assignment[t] for t in domain.labels}
        self._targets = tuple(
            codomain.index(self.assignment[t]) for t in domain.labels
        )
        self._image: _Tables | None = None
        self._preimage: _Tables | None = None

    def __call__(self, t: str) -> str:
        return self.assignment[t]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{a}->{b}" for a, b in self.assignment.items())
        return f"PointMap({body})"

    def _image_tables(self) -> _Tables:
        if self._image is None:
            self._image = _byte_tables([1 << j for j in self._targets])
        return self._image

    def _preimage_tables(self) -> _Tables:
        if self._preimage is None:
            fibres = [0] * len(self.codomain)
            for i, j in enumerate(self._targets):
                fibres[j] |= 1 << i
            self._preimage = _byte_tables(fibres)
        return self._preimage

    def image_mask(self, domain_mask: int) -> int:
        return _push(self._image_tables(), domain_mask)

    def preimage_mask(self, codomain_mask: int) -> int:
        return _push(self._preimage_tables(), codomain_mask)

    def _image_masks(self, masks: Iterable[int]) -> list[int]:
        """`image_mask` of each mask, reading the tables once."""
        tables = self._image_tables()
        return [_push(tables, m) for m in masks]

    def image(self, a: ItemSet) -> ItemSet:
        return ItemSet(self.codomain, self.image_mask(a.mask))

    def preimage(self, b: ItemSet) -> ItemSet:
        return ItemSet(self.domain, self.preimage_mask(b.mask))

    def is_surjective(self) -> bool:
        return len(set(self._targets)) == len(self.codomain)

    def is_injective(self) -> bool:
        return len(set(self._targets)) == len(self._targets)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "PointMap":
        if not self.is_bijective():
            raise ValueError("only bijections invert")
        return PointMap(
            self.codomain,
            self.domain,
            {b: a for a, b in self.assignment.items()},
        )

    def then(self, other: "PointMap") -> "PointMap":
        if other.domain != self.codomain:
            raise ValueError("maps do not compose: universes differ")
        return PointMap(
            self.domain,
            other.codomain,
            {t: other.assignment[v] for t, v in self.assignment.items()},
        )

    @classmethod
    def identity(cls, universe: Universe) -> "PointMap":
        return cls(universe, universe, {t: t for t in universe.labels})

    def to_obj(self) -> dict:
        return {"map": dict(self.assignment)}

    @classmethod
    def from_obj(cls, obj: object, domain: Universe, codomain: Universe) -> "PointMap":
        if not isinstance(obj, dict) or "map" not in obj or not isinstance(obj["map"], dict):
            raise SchemaError("point-map JSON needs a 'map' object")
        bad = [t for t, v in obj["map"].items() if not isinstance(v, str)]
        if bad:
            raise SchemaError(f"point-map targets must be labels: {bad}")
        try:
            return cls(domain, codomain, dict(obj["map"]))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str, domain: Universe, codomain: Universe) -> "PointMap":
        return cls.from_obj(json.loads(text), domain, codomain)


def pre_continuity_witness(
    f: PointMap, x: PreTopology, y: PreTopology
) -> ItemSet | None:
    """Canonically least open of the codomain with a non-open preimage,
    read from the base of y in canonical order. That open W is a base
    member: otherwise W is the union of the base members strictly inside
    it, which come before W in canonical order and so have open
    preimages, and the preimage of that union would be open."""
    _check_map(f, x, y)
    for w in irreducible_states(y).members:
        if not x.states.has_mask(f.preimage_mask(w.mask)):
            return w
    return None


def _check_map(f: PointMap, x: PreTopology, y: PreTopology) -> None:
    if f.domain != x.universe or f.codomain != y.universe:
        raise ValueError("map universes do not match the given spaces")


def is_pre_continuous(f: PointMap, x: PreTopology, y: PreTopology) -> bool:
    """Preimages of opens are open: no base member of y is a witness."""
    return pre_continuity_witness(f, x, y) is None


def is_pre_continuous_at(
    f: PointMap, x: PreTopology, y: PreTopology, point: str
) -> bool:
    """Every open around f(point) pulls back to an open set."""
    _check_map(f, x, y)
    bit = 1 << y.universe.index(f(point))
    return all(
        x.states.has_mask(f.preimage_mask(w))
        for w in y.states.masks()
        if w & bit
    )


def is_pre_open(f: PointMap, x: PreTopology, y: PreTopology) -> bool:
    """Images of opens are open; tested on the minimal pre-base of x."""
    _check_map(f, x, y)
    return all(y.states.has_mask(f.image_mask(b)) for b in irreducible_states(x).masks())


def is_pre_closed(f: PointMap, x: PreTopology, y: PreTopology) -> bool:
    _check_map(f, x, y)
    full_x = x.universe._full
    full_y = y.universe._full
    for o in x.states.masks():
        closed = full_x & ~o
        if not y.states.has_mask(full_y & ~f.image_mask(closed)):
            return False
    return True


def _saturated_images(f: PointMap, masks: Iterable[int]) -> set[int]:
    """f(o) for each o that is the preimage of its own image.

    For a surjective f these images and the sets W with f⁻¹(W) among the
    masks are the same: W = f(f⁻¹(W)), and f⁻¹(W) is saturated.
    """
    images = f._image_tables()
    fibres = f._preimage_tables()
    out = set()
    for o in masks:
        w = _push(images, o)
        if _push(fibres, w) == o:
            out.add(w)
    return out


def is_pre_quotient(f: PointMap, x: PreTopology, y: PreTopology) -> bool:
    """Surjective, with opens of the codomain exactly the open-preimage sets.

    The sets with an open preimage are the images of the saturated opens
    of x (`_saturated_images`), so one comparison covers continuity (each
    open of y is among them) and finality (each of them is open in y):
    O(|K|·⌈m/8⌉) for the |K| opens of x on m items.
    """
    _check_map(f, x, y)
    if not f.is_surjective():
        raise NotSurjective("quotient maps must be surjective")
    return _saturated_images(f, x.states.masks()) == y.states.masks()


@dataclass(frozen=True)
class MapClassification:
    pre_continuous: bool
    pre_open: bool
    pre_closed: bool
    pre_quotient: bool | None
    pre_homeomorphism: bool

    def to_obj(self) -> dict:
        return asdict(self)


def classify_map(f: PointMap, x: PreTopology, y: PreTopology) -> MapClassification:
    """The map's properties. A bijection is a pre-homeomorphism when it is
    pre-continuous and pre-open: the preimage of U under f⁻¹ is f(U)."""
    cont = is_pre_continuous(f, x, y)
    pre_open = is_pre_open(f, x, y)
    quotient: bool | None
    if f.is_surjective():
        quotient = is_pre_quotient(f, x, y)
    else:
        quotient = None
    return MapClassification(
        pre_continuous=cont,
        pre_open=pre_open,
        pre_closed=is_pre_closed(f, x, y),
        pre_quotient=quotient,
        pre_homeomorphism=f.is_bijective() and cont and pre_open,
    )


def subspace(space: PreTopology, y: ItemSet) -> PreTopology:
    """Trace family on a nonempty subset, relabelled to its own universe."""
    if y.universe != space.universe:
        raise ValueError("subspace carrier is over a different universe")
    if y.is_empty():
        raise EmptySubspace("subspace carrier must be non-empty")
    sub_universe = Universe(y.labels)
    positions = [space.universe.index(t) for t in sub_universe.labels]
    traces = set()
    for m in space.states.masks():
        t = 0
        for new_i, old_i in enumerate(positions):
            if m >> old_i & 1:
                t |= 1 << new_i
        traces.add(t)
    return PreTopology(
        sub_universe, SetFamily.from_masks(sub_universe, traces), _trusted=True
    )


def _inclusion(sub: PreTopology, space: PreTopology) -> PointMap:
    """The inclusion of a subspace's universe into the space's; preimages are traces."""
    return PointMap(sub.universe, space.universe, {t: t for t in sub.universe.labels})


def _box(sizes: Sequence[int], masks: Sequence[int]) -> int:
    """The mask of m1 × m2 × … over universes of the given sizes, row-major
    as `itertools.product` lists the label tuples: (i1, i2, …) is item
    (…(i1·s2 + i2)·s3 + …). The shifted copies summed are disjoint."""
    out, width = 1, 1
    for size, m in zip(reversed(sizes), reversed(masks)):
        out = sum(out << i * width for i in range(size) if m >> i & 1)
        width *= size
    return out


def product(xs: list[PreTopology]) -> PreTopology:
    """Union closure of the boxes U1 × U2 × … of opens, on the label tuples
    '(a,b,…)' in row-major order (`_box`), from the Π|Bi| boxes of the
    factors' base members alone: each Ui is the union of the base members
    inside it and × distributes over ∪, so every box of opens is a union
    of base boxes (∅ the empty one, the universe that of the covers)."""
    if not xs:
        raise ValueError("product needs at least one factor")
    total = 1
    for s in xs:
        total *= len(s.universe)
    if total > MAX_UNIVERSE:
        raise UniverseOverflow(
            f"product universe would have {total} items (cap {MAX_UNIVERSE})"
        )
    tuples = itertools.product(*(s.universe.labels for s in xs))
    universe = Universe(["(" + ",".join(t) + ")" for t in tuples])
    sizes = [len(s.universe) for s in xs]
    bases = [irreducible_states(s).masks() for s in xs]
    masks = union_closure_masks(_box(sizes, ms) for ms in itertools.product(*bases))
    return PreTopology(universe, SetFamily.from_masks(universe, masks), _trusted=True)


def _partition_masks(space: KnowledgeStructure, classes: list[ItemSet]) -> list[int]:
    seen = 0
    for c in classes:
        if c.universe != space.universe:
            raise NotAPartition("class over a different universe")
        if c.is_empty():
            raise NotAPartition("empty class")
        if c.mask & seen:
            raise NotAPartition(f"classes overlap at {c}")
        seen |= c.mask
    if seen != space.universe._full:
        raise NotAPartition("classes do not cover the universe")
    return [c.mask for c in classes]


def quotient(space: PreTopology, classes: list[ItemSet]) -> PreTopology:
    """Finest pre-topology on the classes making the projection continuous.

    A class set is open exactly when its preimage is open. Those sets are
    the images of the saturated states, the states that are the preimage
    of their own image, so the quotient is read from the |K| states under
    `quotient_projection`: O(|K|·⌈m/8⌉) for m items. A union of
    saturated states is saturated, so the family is union-closed.
    """
    p = quotient_projection(space, classes)
    family = SetFamily.from_masks(p.codomain, _saturated_images(p, space.states.masks()))
    return PreTopology(p.codomain, family, _trusted=True)


def quotient_projection(space: KnowledgeStructure, classes: list[ItemSet]) -> PointMap:
    """Map of each item to its class, labelled by joining its items with
    '+' (`_class_labels`)."""
    masks = _partition_masks(space, classes)
    names = [ItemSet(space.universe, m).labels for m in masks]
    labels = _class_labels(names)
    assignment = {t: label for ts, label in zip(names, labels) for t in ts}
    return PointMap(space.universe, Universe(labels), assignment)


def _class_labels(names: list[tuple[str, ...]]) -> list[str]:
    """One distinct label per class, from the item labels of each class.

    A class is labelled by joining its items with '+'. Two classes can
    get the same label only when an item label holds '+', as {a, b} and
    {a+b} both give 'a+b'. Then every class whose joined label is shared
    gets '#k' appended, with the least k ≥ 1 that gives a label no other
    class has, the classes taken in the given order: 'a+b#1' and 'a+b#2'.
    Labels that no two classes share are kept as they are.
    """
    labels = ["+".join(ts) for ts in names]
    shared = {label for label, n in Counter(labels).items() if n > 1}
    taken = set(labels)
    for i, label in enumerate(labels):
        if label in shared:
            k = 1
            while f"{label}#{k}" in taken:
                k += 1
            labels[i] = f"{label}#{k}"
            taken.add(labels[i])
    return labels


@dataclass(frozen=True)
class ChildPretopology:
    family: SetFamily
    carrier: ItemSet
    coarser_than_subspace: bool

    def to_obj(self) -> dict:
        return {
            "family": [list(m.labels) for m in self.family.members],
            "carrier": list(self.carrier.labels),
            "coarser_than_subspace": self.coarser_than_subspace,
        }


def child_pretopology(space: PreTopology, b: ItemSet, u: ItemSet) -> ChildPretopology:
    """Family of trace-class members with the common core removed.

    The trace class of u on b is every open with the same intersection
    with b; subtracting the class intersection yields a union-closed
    family on its own carrier.
    """
    if b.universe != space.universe or u.universe != space.universe:
        raise ValueError("arguments over a different universe")
    if u not in space.states:
        raise NotAState(f"{u} is not a state")
    trace = u.mask & b.mask
    cls = [m for m in space.states.masks() if m & b.mask == trace]
    core = space.universe._full
    for m in cls:
        core &= m
    gamma = {m & ~core for m in cls}
    gamma.add(0)
    family = SetFamily.from_masks(space.universe, gamma)
    carrier = family.union_of_members()
    if carrier.is_empty():
        coarser = True
    else:
        traces = subspace(space, carrier)
        inc = _inclusion(traces, space)
        coarser = all(traces.states.has_mask(inc.preimage_mask(g)) for g in gamma)
    return ChildPretopology(
        family=family, carrier=carrier, coarser_than_subspace=coarser
    )
