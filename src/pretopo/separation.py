"""Separation axioms and the discrimination notions, with witnesses.

T3 and T4 are layered on top of T1; the bare point/closed-set and
closed/closed separation properties are reported independently as
regular_property and normal_property because several order-theoretic
results need them in spaces that fail T1. Witnesses are the first failing
pair in canonical scan order.

T2, regularity and normality ask whether two things lie in disjoint
opens, and all three are decided over one structure, R = {reach[U] :
U open}, where reach[U] is the largest open disjoint from U
(`_separators`): an open U may be replaced by the member of R that
contains it and has the same reach, so a point, or a closed set, is
separated from a point or a closed set e iff it lies in reach[g] for
some g ∈ R containing e. R is small (2 to 20 members on the benchmark
ladder spaces of seeds 0-9), is built from the base alone, in
O(|B|² + |R|·|B|), and is kept with the base, so it is built once per
space whichever of these is asked first. The normal kernel is then
near-linear in |K| where normality holds, instead of a scan of the
opens for every pair of closed sets. What still grows with |K| is the
closed sets, grouped by size with one C-level sort, and the scans over
them. The scan order within a size is read only as far as a scan
reaches (`_closed`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import chain, compress, groupby, takewhile
from operator import and_, or_

from .core import ItemSet, PreTopology, Universe, _canonical_key, _flags
from .operators import _fringe_masks


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
        return asdict(self)


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

    Disjoint opens U ∋ i and V ∋ j exist iff j lies in reach[g] for some
    g ∈ R through i: U may be replaced by g = reach[reach[U]], which holds
    U and has the same reach (`_separator_pairs`), and g and reach[g] are
    disjoint opens. O(m·|R|) once R is built.
    """
    u = space.universe
    separators = _separators(space)
    for i in range(len(u)):
        apart = 0
        for g, r in separators:
            if g >> i & 1:
                apart |= r
        for j in range(i + 1, len(u)):
            if not apart >> j & 1:
                return False, (u.labels[i], u.labels[j])
    return True, None


def _separators(space: PreTopology) -> tuple[tuple[int, int], ...]:
    """R, built on the first call for a family (`_separator_pairs`) and
    kept with its base, so every later call returns the same tuple."""
    states = space.states
    return states._kept("separators", lambda: _separator_pairs(states._base().masks))


def _separator_pairs(base: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(g, reach[g]) for every g in R = {reach[U] : U open}, from the
    base B of the space.

    reach is a Galois connection on the opens: U ⊆ reach[reach[U]] and
    reach[reach[reach[U]]] = reach[U]. So an open U may be replaced by
    g = reach[reach[U]] ∈ R, which contains U and leaves reach[U]
    unchanged, and a set lies in an open whose reach holds a second set
    iff it lies in such a g. Separation then needs the few pairs of R
    instead of all |K| opens.

    R is built from the base B alone. Let D(b) be the base members
    disjoint from b. A base member misses U iff it misses every base
    member inside U, so the members disjoint from U are T(U), the
    intersection of D(b) over the b ⊆ U (all of B for U = ∅), and
    reach[U] = ∪T(U). The sets T(U) are the ∩-closure of {D(b)} ∪ {B},
    and T ↦ ∪T is injective on them (T = {b : b ⊆ ∪T}), so the closure
    has exactly |R| members. reach[g] for g = ∪T is the union of the
    intersection of D(b) over b ∈ T. Sets of base members are bit masks
    over base positions: O(|B|² + |R|·|B|), with no pass over the opens.
    """
    every = (1 << len(base)) - 1
    # D(b) for each base member b, as bits over base positions
    apart = [
        sum(1 << k for k, c in enumerate(base) if not b & c) for b in base
    ]
    misses = {every}  # the sets T(U)
    for d in set(apart):
        misses |= {t & d for t in misses}
    out = []
    for t in misses:
        chosen = _flags(t)
        g = reduce(or_, compress(base, chosen), 0)
        far = reduce(and_, compress(apart, chosen), every)
        out.append((g, reduce(or_, compress(base, _flags(far)), 0)))
    return tuple(out)


def is_regular_property(
    space: PreTopology,
) -> tuple[bool, tuple[str, tuple[str, ...]] | None]:
    """Point and avoiding closed set separated by disjoint opens."""
    u = space.universe
    return _regular(u, _closed(u, space.states.masks()), _separators(space))


def _closed(u: Universe, opens: Iterable[int]) -> list[int]:
    """The closed sets grouped by size, smallest first: one C-level sort
    by `int.bit_count`.

    The witness scan order, by size and then by `_canonical_key`, is
    produced lazily: a scan reads the list one size class at a time, in
    list order. `_regular` sorts no class; it reads the key only on the
    failing members of the first class where it fails. `_normal` sorts
    a class only once one of its members fails.
    """
    return sorted(map(u._full.__xor__, opens), key=int.bit_count)


def _first_in_scan_order(masks: Iterable[int]) -> int:
    """The first of the masks, at least one, in witness scan order, given
    them grouped by size, smallest first: the least `_canonical_key`
    among those of the first size. Reads the masks only up to the first
    one of a larger size. Both callers pass the partners of a failing
    point or closed set, which hold its witness."""
    masks = iter(masks)
    first = next(masks)
    size = first.bit_count()
    same = takewhile(lambda f: f.bit_count() == size, masks)
    return min(chain((first,), same), key=_canonical_key)


def _regular(
    u: Universe, closed: list[int], separators: tuple[tuple[int, int], ...]
) -> tuple[bool, tuple[str, tuple[str, ...]] | None]:
    """A point i ∉ f is separated from the closed set f iff some g ∈ R
    has f ⊆ g and i ∈ reach[g]. Fails at the least such i that is not,
    then the first f in scan order.

    near(f), f and the points separated from it, is computed one size
    class at a time, and the points missing from some near(f) are
    gathered as the classes are read. Item 0 is the least point, so the
    scan stops at the first class that misses it; otherwise it reads
    every class, O(|K|·|R|). The key is read only on the members of the
    first class that misses the failing point.
    """
    full = u._full
    near: list[int] = []  # per closed set read, in list order
    missing = 0  # the points missing from some near(f) read so far
    for _, members in groupby(closed, int.bit_count):
        for f in members:
            reached = f
            for g, r in separators:
                if not f & ~g:
                    reached |= r
            near.append(reached)
            missing |= full & ~reached
        if missing & 1:
            break
    if not missing:
        return True, None
    bit = missing & -missing
    f = _first_in_scan_order(f for f, n in zip(closed, near) if not n & bit)
    return False, (u.labels[bit.bit_length() - 1], ItemSet(u, f).labels)


def is_normal_property(
    space: PreTopology,
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Disjoint closed sets separated by disjoint opens.

    e and f are separated iff some g ∈ R = {reach[U] : U open} has
    e ⊆ g and f ⊆ reach[g] (`_separators`). `_normal` decides that with
    one scan of the closed sets per distinct set of such reach[g]:
    O(|K|·|R|) when normality holds and those sets are few, instead of a
    scan of the opens for each pair of closed sets.
    """
    u = space.universe
    return _normal(u, _closed(u, space.states.masks()), _separators(space))


def _normal(
    u: Universe, closed: list[int], separators: tuple[tuple[int, int], ...]
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Fails at the first pair (e, f) of the scan of pairs e before f.

    under(e) holds reach[g] for each g ∈ R with e ⊆ g; f fails with e iff
    f is disjoint from e and lies in no member of under(e) (`_partners`).
    Failing is symmetric, so the first e with any failing partner has
    them all later in the scan: they lie in e's size class or after it,
    and the first of them in scan order is the witness's f.

    Only the first member of the scan with a given under(e) is tested.
    Let the scan read d before e, with no failing partner and the same
    under(e), while no member read before e fails, so that no closed set
    smaller than e fails. If e failed with some f, f would meet d, as
    otherwise it would fail with d. d ∩ f is disjoint from e and lies in
    no member of under(e), each of which is disjoint from d, so it fails
    with e. It is no larger than d, so it is no smaller than e only if it
    is d, and then d fails with e.

    A size class is scanned in list order, unsorted, and a member is
    only tested for some failing partner. Once one fails, that class is
    sorted and the witness's e is its first member in key order with a
    failing partner (`_least_failing`); its f is found last. A normal
    space sorts no class.
    """
    passed: set[tuple[int, ...]] = set()  # under(e) of the members without a partner
    start = 0  # where the current size class begins in `closed`
    for _, members in groupby(closed, int.bit_count):
        members = list(members)
        for e in members:
            under = _under(e, separators)
            if under in passed:
                continue
            later = closed[start:]
            if next(_partners(e, under, later), None) is None:
                passed.add(under)
                continue
            e = _least_failing(members, separators, passed, later)
            f = _first_in_scan_order(_partners(e, _under(e, separators), later))
            return False, (ItemSet(u, e).labels, ItemSet(u, f).labels)
        start += len(members)
    return True, None


def _under(e: int, separators: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """reach[g] for each g in R with e ⊆ g: a closed set is separated
    from e iff it lies in one of them."""
    return tuple([r for g, r in separators if not e & ~g])


def _least_failing(
    members: list[int],
    separators: tuple[tuple[int, int], ...],
    passed: set[tuple[int, ...]],
    later: list[int],
) -> int:
    """The member of least key of a size class that has a failing partner
    in `later`, given that one does. The members are tested in key order;
    one whose under(e) is among those that `passed` the scan has no
    failing partner (see `_normal`), and every member that the scan read
    before the failing one is such a member."""
    for d in sorted(members, key=_canonical_key):
        under = _under(d, separators)
        if under not in passed and next(_partners(d, under, later), None) is not None:
            return d


def _partners(e: int, under: tuple[int, ...], closed: list[int]) -> Iterator[int]:
    """The closed sets, in list order, that fail with e: disjoint from e
    and in no member of under."""
    for f in closed:
        if e & f:
            continue
        for r in under:
            if not f & ~r:
                break
        else:
            yield f


def is_completely_discriminative(space: PreTopology) -> bool:
    """Every pair of distinct points lies in some pair of disjoint states.

    The same condition as T2, so it is decided by `is_t2`.
    """
    return is_t2(space)[0]


def bi_discriminative_via_fringe(space: PreTopology) -> bool:
    """T1 criterion through the inner fringe of the whole universe."""
    full = space.universe._full
    return _fringe_masks(space, full)[0] == full


def separation_profile(space: PreTopology) -> SeparationProfile:
    """Every axiom once; the discrimination flags are T0, T1 and T2 under
    their knowledge-space names, with the same witnesses.

    The base, the per-item meets and the pairs (g, reach[g]) over R come
    from the space's base record, R built on first use in
    O(|B|² + |R|·|B|) (`_separators`) and read by T2, the regular and the
    normal kernels. The closed sets are computed once and shared by the
    last two; they cost one C-level sort by size, and the scan order
    within a size is read only as far as a kernel's scan reaches
    (`_closed`). Each kernel costs O(|K|·|R|) when the property holds and
    the normal kernel's tables are few.
    """
    u = space.universe
    closed = _closed(u, space.states.masks())
    separators = _separators(space)
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
    reg, w = _regular(u, closed, separators)
    if w:
        witnesses["regular_property"] = [w[0], list(w[1])]
    norm, w = _normal(u, closed, separators)
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
