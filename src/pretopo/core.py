"""Universes, packed item sets, and canonical set families.

A universe is an ordered list of at most 64 item labels; subsets are packed
into plain ints, one bit per item. Families of subsets are kept in a single
canonical order -- (cardinality, then position-lexicographic) -- so that
serialization round-trips byte for byte and every downstream tie-break is
deterministic. A family keeps only its set of masks, orders them by one
integer key (`_canonical_key`), and builds its member item sets the first
time someone iterates over them.

Examples
--------
>>> u = Universe(["z1", "z2", "z3"])
>>> space = union_closure(SetFamily.of(u, [["z1"], ["z2", "z3"]]))
>>> [str(s) for s in space.states]
['{}', '{z1}', '{z2,z3}', '{z1,z2,z3}']
>>> distance(u.subset(["z1", "z2"]), u.subset(["z2", "z3"]))
2
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import compress, count
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    AxiomViolation,
    BoundExceeded,
    CoverError,
    SchemaError,
    UniverseOverflow,
)

MAX_UNIVERSE = 64

# byte b -> the complement of b with its 8 bits reversed
_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _canonical_key(mask: int) -> int:
    """The sort key of the canonical order of masks (0 <= mask < 2^64).

    By size, then, between members of one size, the one holding the
    lowest item in which they differ first: exactly the order of
    `ItemSet.sort_key`, (size, indices()). Below the size, the key holds
    the bit reversal of the mask over 64 bits, complemented, so that the
    lowest item is the most significant bit and a held bit sorts first.
    One integer built by C-level calls, where `sort_key` builds a tuple
    of the item indices.

    >>> sorted([0b110, 0b011, 0b101, 0b1000], key=_canonical_key)
    [8, 3, 5, 6]
    """
    return mask.bit_count() << 64 | int.from_bytes(
        mask.to_bytes(8, "little").translate(_REVERSED_COMPLEMENT), "big"
    )


_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """One byte per item up to the highest held one, item 0 first: 1 if
    the mask holds the item, else 0. A selector for `itertools.compress`,
    so that the held items are picked by C-level calls instead of a
    Python loop over the bits."""
    return f"{mask:b}"[::-1].encode().translate(_FLAG)


def _guard(
    size: int,
    default: int,
    what: str,
    bound: int | None,
    error: type[BoundExceeded] = BoundExceeded,
) -> None:
    """The size guard of every exponential kernel: raise `error` when
    `size` exceeds `bound`, or `default` when no bound is passed. It
    reads no global setting, so each call is limited by its own bound."""
    limit = default if bound is None else bound
    if size > limit:
        raise error(f"{what}: {size} exceeds the configured bound {limit}")


class Universe:
    """Ordered ground set of distinct item labels (at most 64).

    The declared order is the canonical order: it drives subset
    serialization, family sorting, and every "least item" tie-break.
    """

    __slots__ = ("labels", "_index", "_full")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("a universe needs at least one item")
        if len(labels) > MAX_UNIVERSE:
            raise UniverseOverflow(
                f"{len(labels)} items exceed the {MAX_UNIVERSE}-item packed representation"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate item labels in universe")
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        self._full = (1 << len(labels)) - 1

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Universe) and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Universe({list(self.labels)!r})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown item {label!r}") from None

    def subset(self, labels: Iterable[str]) -> "ItemSet":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return ItemSet(self, mask)

    def from_mask(self, mask: int) -> "ItemSet":
        return ItemSet(self, mask)

    def item(self, label: str) -> "ItemSet":
        return ItemSet(self, 1 << self.index(label))

    @property
    def empty(self) -> "ItemSet":
        return ItemSet(self, 0)

    @property
    def full(self) -> "ItemSet":
        return ItemSet(self, self._full)

    def subsets(self) -> Iterator["ItemSet"]:
        """All 2^m subsets in mask order. Caller is responsible for bounding m."""
        for mask in range(1 << len(self.labels)):
            yield ItemSet(self, mask)


def _read_universe(labels: object, key: str) -> Universe:
    """The universe under `key` of a JSON input: an array of distinct
    labels, at least one. A malformed one is a SchemaError."""
    if not isinstance(labels, list):
        raise SchemaError(f"{key!r} must be an array of labels")
    try:
        return Universe(labels)
    except ValueError as exc:
        raise SchemaError(f"{key!r}: {exc}") from None


def _read_labels(universe: Universe, labels: object, what: str) -> list[str]:
    """A subset (or a pair) in a JSON input: an array of labels of the
    universe. Anything else is a SchemaError, a string too, which would
    otherwise be read as its characters."""
    if not isinstance(labels, list):
        raise SchemaError(f"bad {what}: {labels!r} is not an array of labels")
    for label in labels:
        if not isinstance(label, str) or label not in universe:
            raise SchemaError(f"bad {what}: unknown item {label!r}")
    return labels


class ItemSet:
    """Immutable subset of a universe, packed into an int."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask & ~universe._full:
            raise ValueError("mask has bits outside the universe")
        self.universe = universe
        self.mask = mask

    @property
    def labels(self) -> tuple[str, ...]:
        names = self.universe.labels
        return tuple(compress(names, _flags(self.mask)))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.universe._index and bool(
            self.mask >> self.universe._index[label] & 1
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ItemSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(self.labels) + "}"

    def __repr__(self) -> str:
        return f"ItemSet({str(self)})"

    def _check(self, other: "ItemSet") -> None:
        if self.universe is not other.universe and self.universe != other.universe:
            raise ValueError("item sets belong to different universes")

    def __or__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.universe, self.mask & ~other.mask)

    def __xor__(self, other: "ItemSet") -> "ItemSet":
        self._check(other)
        return ItemSet(self.universe, self.mask ^ other.mask)

    def __le__(self, other: "ItemSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ItemSet") -> bool:
        return self <= other and self.mask != other.mask

    def complement(self) -> "ItemSet":
        return ItemSet(self.universe, self.universe._full & ~self.mask)

    def is_empty(self) -> bool:
        return self.mask == 0

    def indices(self) -> tuple[int, ...]:
        return tuple(compress(count(), _flags(self.mask)))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """The canonical order: by size, then by the item indices. Sorting
        by it gives the same order as sorting the masks by `_canonical_key`,
        which is what the package sorts with."""
        return (self.mask.bit_count(), self.indices())


def distance(a: ItemSet, b: ItemSet) -> int:
    """Symmetric-difference size |a Δ b| (a metric on subsets of one universe)."""
    a._check(b)
    return (a.mask ^ b.mask).bit_count()


class SetFamily:
    """Duplicate-free collection of item sets in canonical order.

    The family keeps its set of member masks and nothing else up front:
    the canonical order is one integer key per mask (`_canonical_key`),
    and `members`, the item sets in that order, is built the first time
    someone iterates, indexes or prints the family. Kernels that read
    `masks()`, `has_mask` or the base build no item set, and neither does
    `to_obj`, which picks each state's labels from its mask.

    The union-irreducible members and the per-item meets are derived
    once, on first use, and kept in `_derived` (see `_base`), next to the
    union-closure verdict once a test has computed it (`_union_closed`)
    and the interior of every subset once `operators.interior_table` has
    built it; the family is immutable, so neither slot goes stale.
    """

    __slots__ = ("universe", "_mask_set", "_members", "_derived")

    def __init__(self, universe: Universe, members: Iterable[ItemSet] = ()):
        seen: set[int] = set()
        for m in members:
            if not isinstance(m, ItemSet):
                raise TypeError("SetFamily members must be ItemSets")
            if m.universe != universe:
                raise ValueError("member belongs to a different universe")
            seen.add(m.mask)
        self.universe = universe
        self._mask_set = frozenset(seen)
        self._members: tuple[ItemSet, ...] | None = None
        self._derived: _Base | None = None

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Iterable[str]]) -> "SetFamily":
        return cls(universe, [universe.subset(m) for m in members])

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> "SetFamily":
        mask_set = frozenset(masks)
        if reduce(or_, mask_set, 0) & ~universe._full:
            raise ValueError("mask has bits outside the universe")
        family = cls(universe)
        family._mask_set = mask_set
        return family

    @property
    def members(self) -> tuple[ItemSet, ...]:
        """The members as item sets, in canonical order."""
        if self._members is None:
            u = self.universe
            self._members = tuple(
                ItemSet(u, m) for m in sorted(self._mask_set, key=_canonical_key)
            )
        return self._members

    def __len__(self) -> int:
        return len(self._mask_set)

    def __iter__(self) -> Iterator[ItemSet]:
        return iter(self.members)

    def __getitem__(self, i: int) -> ItemSet:
        return self.members[i]

    def __contains__(self, s: object) -> bool:
        return (
            isinstance(s, ItemSet)
            and s.universe == self.universe
            and s.mask in self._mask_set
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.universe == other.universe
            and self._mask_set == other._mask_set
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self._mask_set))

    def __repr__(self) -> str:
        return "SetFamily(" + ", ".join(str(m) for m in self.members) + ")"

    def masks(self) -> frozenset[int]:
        return self._mask_set

    def has_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    def union_of_members(self) -> ItemSet:
        return ItemSet(self.universe, reduce(or_, self._mask_set, 0))

    def nonempty_members(self) -> tuple[ItemSet, ...]:
        return tuple(m for m in self.members if m.mask)

    def _base(self) -> "_Base":
        """The union-irreducible members and the per-item meets N(q),
        computed on the first call and shared by every later one."""
        if self._derived is None:
            irreducible = _irreducible_masks(self._mask_set)
            masks = tuple(sorted(irreducible, key=_canonical_key))
            irreducibles = SetFamily.from_masks(self.universe, masks)
            meets = tuple(_item_meets(masks, len(self.universe)))
            self._derived = _Base(irreducibles, masks, meets, None, None)
        return self._derived

    def _union_closed(self) -> bool:
        """Whether the members, which must include ∅, are closed under
        union (`_is_union_closed`), tested on the first call and kept with
        the base. `PreTopology` validation makes that call; a trusted
        construction does not, so the first `classify` of a trusted family
        runs the test."""
        base = self._base()
        if base.union_closed is None:
            base = self._derived = base._replace(
                union_closed=_is_union_closed(self._mask_set, base.masks)
            )
        return base.union_closed

    def to_obj(self) -> dict:
        """The universe and the states, in canonical order, as label lists.

        Read from the masks: one sort by `_canonical_key`, then each
        state's labels picked by `compress` over its `_flags`, as
        `ItemSet.labels` reads them. No item set is built and `members`
        stays unset.
        """
        labels = self.universe.labels
        return {
            "universe": list(labels),
            "states": [
                list(compress(labels, _flags(m)))
                for m in sorted(self._mask_set, key=_canonical_key)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"

    @classmethod
    def from_obj(cls, obj: object) -> "SetFamily":
        if not isinstance(obj, dict):
            raise SchemaError("set-family JSON must be an object")
        try:
            labels = obj["universe"]
            states = obj["states"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"set-family JSON missing key: {exc}") from None
        if not isinstance(labels, list) or not isinstance(states, list):
            raise SchemaError("'universe' and 'states' must be arrays")
        universe = _read_universe(labels, "universe")
        members = [
            universe.subset(_read_labels(universe, s, "state entry")) for s in states
        ]
        return cls(universe, members)

    @classmethod
    def from_json(cls, text: str) -> "SetFamily":
        return cls.from_obj(json.loads(text))


class _Base(NamedTuple):
    """What a family derives from its members (`SetFamily._base`)."""

    irreducibles: SetFamily  # the minimal pre-base, as `irreducible_states` gives it
    masks: tuple[int, ...]  # the same members as masks, in canonical order
    meets: tuple[int, ...]  # N(q) for each item q (`_item_meets`)
    union_closed: bool | None  # the verdict of `_union_closed`; None until tested
    interiors: tuple[int, ...] | None  # `operators.interior_table`; None until built


class KnowledgeStructure:
    """A set family containing the empty set and the whole universe."""

    __slots__ = ("universe", "states")

    def __init__(self, universe: Universe, states: SetFamily):
        if states.universe != universe:
            raise ValueError("states family is over a different universe")
        if not states.has_mask(0):
            raise AxiomViolation("empty-set-membership", witness="{}")
        if not states.has_mask(universe._full):
            raise CoverError("states do not cover the universe: Q is not a state")
        self.universe = universe
        self.states = states

    @classmethod
    def from_family(cls, family: SetFamily) -> "KnowledgeStructure":
        return cls(family.universe, family)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeStructure) and self.states == getattr(
            other, "states", None
        )

    def __hash__(self) -> int:
        return hash(self.states)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.states!r})"

    def is_state(self, s: ItemSet) -> bool:
        return s in self.states

    def to_obj(self) -> dict:
        return self.states.to_obj()

    def to_json(self) -> str:
        return self.states.to_json()


class PreTopology(KnowledgeStructure):
    """A knowledge space: states closed under arbitrary unions.

    For a finite family, closure under binary unions is equivalent.
    Construction accepts K iff the union closure of its minimal pre-base
    is K (`_is_union_closed`): every state is a union of base members, so
    K lies in that closure, with equality iff K is union-closed. Closing
    the base stops once it outgrows |K|, O(|K|·|B|) at worst; only a
    rejected family is scanned pair by pair, to report the first missing
    union in mask order as the witness. The verdict is kept on the family
    (`SetFamily._union_closed`), so `classify` of a validated family
    reads it instead of testing again.

    The specialization order is read from N(q), the meet of the states
    containing q (`_item_meets`): x ⪯ y iff x ∈ N(y). T0 says ⪯ is
    antisymmetric, T1 that it is equality, and the space is quasi-ordinal
    iff every N(q) is a state, the minimal state at q.
    """

    __slots__ = ()

    def __init__(self, universe: Universe, states: SetFamily, _trusted: bool = False):
        super().__init__(universe, states)
        if not _trusted and not states._union_closed():
            mask_set = states.masks()
            masks = sorted(mask_set)
            for i, a in enumerate(masks):
                for b in masks[i + 1 :]:
                    if a | b not in mask_set:
                        raise AxiomViolation(
                            "union-closure",
                            witness=(
                                str(ItemSet(universe, a)),
                                str(ItemSet(universe, b)),
                            ),
                        )

    @classmethod
    def from_family(cls, family: SetFamily) -> "PreTopology":
        return cls(family.universe, family)

    @classmethod
    def from_obj(cls, obj: object) -> "PreTopology":
        return cls.from_family(SetFamily.from_obj(obj))

    @classmethod
    def from_json(cls, text: str) -> "PreTopology":
        return cls.from_obj(json.loads(text))


def _require_cover(base: SetFamily) -> None:
    """Raise CoverError unless the members of the family cover the universe."""
    u = base.universe
    missing = u._full & ~base.union_of_members().mask
    if missing:
        raise CoverError(
            f"generators do not cover the universe: {ItemSet(u, missing)} uncovered"
        )


def union_closure(base: SetFamily) -> PreTopology:
    """Close a generating family under arbitrary unions.

    The empty union contributes the empty set; the family covering the
    universe makes the result a pre-topology, otherwise the generating
    family is rejected.

    >>> u = Universe(["a", "b"])
    >>> [str(s) for s in union_closure(SetFamily.of(u, [["a"], ["b"]])).states]
    ['{}', '{a}', '{b}', '{a,b}']
    """
    universe = base.universe
    _require_cover(base)
    closed = union_closure_masks(base.masks())
    return PreTopology(universe, SetFamily.from_masks(universe, closed), _trusted=True)


def union_closure_masks(masks: Iterable[int]) -> set[int]:
    """Union-close raw masks (no cover requirement); always contains 0."""
    closed: set[int] = {0}
    for g in masks:
        closed |= {m | g for m in closed}
    return closed


def _irreducible_masks(masks: Iterable[int]) -> list[int]:
    """Union-irreducible nonempty masks of any family, by ascending size.

    A mask is kept when the union of the already kept masks strictly
    inside it is not the mask itself. This is the definition, because the
    members strictly below s and the irreducibles strictly below s have
    the same union: by induction on size, every member is the union of the
    irreducibles inside it. Union-closure is not needed. O(|K|·|B|) for
    |K| members and |B| irreducibles.
    """
    keep: list[int] = []
    for s in sorted(masks, key=int.bit_count):
        below = 0
        for b in keep:
            if b | s == s:
                below |= b
        if below != s:
            keep.append(s)
    return keep


def _item_meets(base: Iterable[int], m: int) -> list[int]:
    """N(q) for each of the m items: the meet of the given masks through q.

    Given the irreducibles of any family (`_irreducible_masks`), this is
    the meet of all its members through q: every member through q is a
    union of irreducibles inside it, one of them through q. Union-closure
    is not needed. O(m·|B|) for |B| irreducibles; the full mask for an
    item that no mask holds.
    """
    meets = [(1 << m) - 1] * m
    for b in base:
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            meets[low.bit_length() - 1] &= b
    return meets


def _is_union_closed(masks: frozenset[int], base: Sequence[int]) -> bool:
    """Whether K, a family that holds ∅, is closed under union, given its
    irreducibles.

    Every member is a union of irreducibles, so K ⊆ UC(B), the union
    closure of the base, and K is union-closed iff UC(B) = K, that is iff
    UC(B) is no larger than K. The base, given by ascending size, is
    closed one member at a time, the largest first, since unions of large
    members are few and the early closures stay small. Each step is a
    pass over the closure so far, and the test stops as soon as the
    closure outgrows |K|: O(|K|·|B|) at worst. The closure always holds
    ∅, so the test needs ∅ ∈ K; every caller checks that first.
    """
    limit = len(masks)
    closed = {0}
    for b in reversed(base):
        closed |= {s | b for s in closed}
        if len(closed) > limit:
            return False
    return True


def irreducible_states(space: KnowledgeStructure) -> SetFamily:
    """Union-irreducible nonempty states: the unique minimal pre-base.

    A nonempty state is irreducible when it is not the union of the states
    properly below it. Every state is the union of the irreducibles it
    contains (Doignon & Falmagne's base); O(|K|·|B|) the first time.

    The result is cached on the states family and shared: every later
    call, and every kernel that reads the base or the per-item meets of
    the same family (validation, `classify`, the operators, separation,
    order, cardinal), gets the same object without recomputing it.

    >>> u = Universe(["a", "b", "c"])
    >>> space = union_closure(SetFamily.of(u, [["a"], ["a", "b"], ["c"]]))
    >>> [str(s) for s in irreducible_states(space)]
    ['{a}', '{c}', '{a,b}']
    """
    return space.states._base().irreducibles


def is_pre_base_for(candidate: SetFamily, space: PreTopology) -> bool:
    """Does the candidate generate the space?

    Checked via the point criterion (every open W and z in W admit a
    candidate member H with z in H and H inside W), which for candidates
    drawn from the states is equivalent to union_closure(candidate) == space.
    """
    if candidate.universe != space.universe:
        raise ValueError("candidate and space use different universes")
    if any(m not in space.states for m in candidate):
        return False
    cand_masks = tuple(candidate.masks())
    for w in space.states.masks():
        covered = 0
        for h in cand_masks:
            if h & ~w == 0:
                covered |= h
        if covered != w:
            return False
    return True
