"""Separation axioms and the discrimination notions, with witnesses.

T3 and T4 are layered on top of T1; the bare point/closed-set and
closed/closed separation properties are reported independently as
regular_property and normal_property because several order-theoretic
results need them in spaces that fail T1. Witnesses are the first failing
pair in canonical scan order.

Both are decided over R = {reach[U] : U open}, where reach[U] is the
largest open disjoint from U (`_separators`): an open U ⊇ e may be
replaced by the member of R that contains it and has the same reach, so
a point or closed set is separated from a closed set e iff it lies in
reach[g] for some g ∈ R containing e. R is small (2 to 20 members on
the benchmark ladder spaces of seeds 0-9) and is built from the base
alone, in O(|B|² + |R|·|B|), so the normal kernel is near-linear in |K|
where normality holds, instead of a scan of the opens for every pair of
closed sets. What still grows with |K| is the closed sets, grouped by
size with one C-level sort, and the scans over them. The scan order
within a size is read only as far as a scan reaches (`_closed`).
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


def _separators(space: PreTopology) -> list[tuple[int, int]]:
    """(g, reach[g]) for every g in R = {reach[U] : U open}.

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
    base = space.states._base().masks
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
    return out


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
    the rest of a class only once one of its members fails.
    """
    return sorted(map(u._full.__xor__, opens), key=int.bit_count)


def _first_in_scan_order(masks: Iterable[int]) -> int | None:
    """The first of the masks in witness scan order, given them grouped
    by size, smallest first: the least `_canonical_key` among those of
    the first size, or None when there are none. Reads the masks only up
    to the first one of a larger size."""
    masks = iter(masks)
    first = next(masks, None)
    if first is None:
        return None
    size = first.bit_count()
    same = takewhile(lambda f: f.bit_count() == size, masks)
    return min(chain((first,), same), key=_canonical_key)


def _regular(
    u: Universe, closed: list[int], separators: list[tuple[int, int]]
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
    one table per distinct set of such reach[g]: O(|K|·|R|) when
    normality holds and the tables are few, instead of a scan of the
    opens for each pair of closed sets.
    """
    u = space.universe
    return _normal(u, _closed(u, space.states.masks()), _separators(space))


def _normal(
    u: Universe, closed: list[int], separators: list[tuple[int, int]]
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Fails at the first pair (e, f) of the scan of pairs e before f.

    under(e) holds reach[g] for each g ∈ R with e ⊆ g; f fails with e iff
    f is disjoint from e and lies in no member of under(e) (`_partners`).
    The closed sets in no member are closed upward, so e has a failing
    partner iff it is disjoint from one of their ⊆-minimal members, kept
    in a table per distinct under(e). Failing is symmetric, so the first
    e with any failing partner has them all later in the scan: they lie
    in e's size class or after it, and the first of them in scan order is
    the witness's f. A table is built the second time its under(e) is
    seen; the first time, those closed sets are scanned directly.

    A size class is scanned in list order, unsorted, and a member is
    only tested for some failing partner. Once one fails, the witness's
    e is the failing member of least key (`_least_failing`), the only
    part of the class ever sorted, and its f is found last. A normal
    space sorts no class.
    """
    tables: dict[tuple[int, ...], list[int] | None] = {}
    start = 0  # where the current size class begins in `closed`
    for _, members in groupby(closed, int.bit_count):
        members = list(members)
        for i, e in enumerate(members):
            under = _under(e, separators)
            if under in tables:
                mins = tables[under]
                if mins is None:
                    mins = tables[under] = _minimal_outside(closed, under)
                for f in mins:
                    if not e & f:
                        break
                else:
                    continue
            else:
                tables[under] = None
                if next(_partners(e, under, closed[start:]), None) is None:
                    continue
            later = closed[start:]
            e = _least_failing(e, members[i + 1 :], separators, tables, later)
            f = _first_in_scan_order(_partners(e, _under(e, separators), later))
            return False, (ItemSet(u, e).labels, ItemSet(u, f).labels)
        start += len(members)
    return True, None


def _under(e: int, separators: list[tuple[int, int]]) -> tuple[int, ...]:
    """reach[g] for each g in R with e ⊆ g: a closed set is separated
    from e iff it lies in one of them."""
    return tuple([r for g, r in separators if not e & ~g])


def _least_failing(
    e: int,
    rest: list[int],
    separators: list[tuple[int, int]],
    tables: dict[tuple[int, ...], list[int] | None],
    later: list[int],
) -> int:
    """The member of least key among e, which has a failing partner in
    `later`, and those of `rest` that have one. Only the members of rest
    with a smaller key than e are tested, in key order; a table built by
    the scan answers for its under(e), any other is scanned directly."""
    key = _canonical_key(e)
    for d in sorted(rest, key=_canonical_key):
        if _canonical_key(d) > key:
            break
        under = _under(d, separators)
        mins = tables.get(under)
        if mins is not None:
            if any(not d & f for f in mins):
                return d
        elif next(_partners(d, under, later), None) is not None:
            return d
    return e


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


def _minimal_outside(closed: list[int], under: tuple[int, ...]) -> list[int]:
    """The ⊆-minimal closed sets that lie in no member of under."""
    mins: list[int] = []
    for f in closed:  # by size, so every subset of f comes before it
        for r in under:
            if not f & ~r:
                break
        else:
            if all(m & ~f for m in mins):
                mins.append(f)
    return mins


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

    The base and the per-item meets come from the space's cache; the
    closed sets and the pairs (g, reach[g]) over R are computed once and
    shared by the regular and normal kernels. The pairs cost
    O(|B|² + |R|·|B|), read from the base; the closed sets cost one
    C-level sort by size, and the scan order within a size is read only
    as far as a kernel's scan reaches (`_closed`). Each kernel costs
    O(|K|·|R|) when the property holds and the normal kernel's tables
    are few.
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
