"""Cardinal functions and the primary-items algorithms.

Weight, density, cellularity and character of a finite space, the
greedy max-coverage construction of a dense item set with its prune
pass, the row/column matrix formulation of the same procedure, and an
exact branch-and-bound density oracle. The greedy selection runs once,
in `_greedy_picks`: the greedy trace reports its picks, and the matrix
is those picks laid out as rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import (
    ItemSet,
    PreTopology,
    SetFamily,
    _guard,
    _require_cover,
)
from .errors import NotMinimalPreBase
from .order import atoms_at

DENSITY_UNIVERSE_BOUND = 24
CELLULARITY_STATES_BOUND = 4096


def weight(space: PreTopology) -> int:
    """Size of the minimal pre-base, counted on the cached base masks."""
    return len(space.states._base().masks)


def _disjoint_lower_bound(members: list[int]) -> int:
    """Pairwise disjoint members each need their own hitter."""
    used = 0
    count = 0
    for b in members:
        if not b & used:
            used |= b
            count += 1
    return count


def density_exact(
    space: PreTopology, bound: int | None = None
) -> tuple[int, ItemSet]:
    """Minimum dense set as a minimum hitting set of the minimal pre-base.

    A set is dense iff it meets every member of the minimal pre-base.
    Returns the lexicographically least optimum: of the smallest dense
    sets, the one whose sorted item indices come first.

    The search branches on the items of the first base member, in base
    order, that the chosen items miss: the smallest such member b. Every
    dense set must hit b, so every optimum stays reachable. The child
    that adds the k-th item of b bans the items before it, so each set is
    reached once: the children split the dense sets by their first item
    in b. The nodes number at most the product of the member sizes, not
    the number of item subsets. The best so far starts as the whole universe, which is dense, and a
    node whose chosen items plus a count of pairwise disjoint missed
    members exceed the best size is cut.

    >>> from pretopo.core import SetFamily, Universe, union_closure
    >>> u = Universe(["a", "b", "c", "d"])
    >>> space = union_closure(SetFamily.of(u, [["c", "d"], ["a", "b", "c"], ["b", "d"]]))
    >>> n, dense = density_exact(space)  # {b,c}, {b,d} and {c,d} tie with it
    >>> n, str(dense)
    (2, '{a,d}')
    """
    u = space.universe
    m = len(u)
    _guard(m, DENSITY_UNIVERSE_BOUND, "density universe", bound)
    members = list(space.states._base().masks)
    best_key = (m, list(range(m)))

    # left: the members that chosen misses, in base order; a child
    # filters its parent's left by the one item it adds. banned: the items
    # of earlier siblings, which this subtree may not choose
    def rec(chosen: list[int], left: list[int], banned: int) -> None:
        nonlocal best_key
        if not left:
            key = (len(chosen), sorted(chosen))
            if key < best_key:
                best_key = key
            return
        if len(chosen) + _disjoint_lower_bound(left) > best_key[0]:
            return
        rest = left[0] & ~banned
        while rest:
            bit = rest & -rest
            rest ^= bit
            chosen.append(bit.bit_length() - 1)
            rec(chosen, [b for b in left if not b & bit], banned)
            chosen.pop()
            banned |= bit

    rec([], members, 0)
    mask = 0
    for i in best_key[1]:
        mask |= 1 << i
    return best_key[0], ItemSet(u, mask)


@dataclass(frozen=True)
class PrimaryItemsTrace:
    """Pick-by-pick record of the greedy construction and its prune."""

    picked: tuple[tuple[str, SetFamily], ...]
    pruned: tuple[ItemSet, ...]
    result: ItemSet

    def to_obj(self) -> dict:
        return {
            "picked": [
                {"item": p, "block": [list(b.labels) for b in blk.members]}
                for p, blk in self.picked
            ],
            "pruned": [list(b.labels) for b in self.pruned],
            "result": list(self.result.labels),
        }


def _select(masks: list[int], consumed_items: int) -> int:
    """One greedy pick over the remaining base members.

    Maximum hit count; when that count is 1 prefer items outside every
    already consumed member; then maximum covered-item count, then the
    first in universe order. Only the items of the remaining members are
    counted: any other item hits none, below the top count.
    """
    union = reduce(or_, masks)
    counts = {
        i: sum(1 for b in masks if b >> i & 1)
        for i in range(union.bit_length())
        if union >> i & 1
    }
    top = max(counts.values())
    cand = [i for i, count in counts.items() if count == top]
    if top == 1:
        outside = [i for i in cand if not consumed_items >> i & 1]
        if outside:
            cand = outside
    best_i = cand[0]
    best_cov = -1
    for i in cand:
        cov = 0
        for b in masks:
            if b >> i & 1:
                cov |= b
        cov_n = bin(cov).count("1")
        if cov_n > best_cov:
            best_i, best_cov = i, cov_n
    return best_i


def _greedy_picks(base: list[int]) -> list[tuple[int, list[int]]]:
    """The greedy run over the nonempty base masks: (item, block) pairs,
    a block being the members the item hits among those that no earlier
    pick hit, in base order. The blocks partition the base."""
    remaining = base
    consumed = 0
    picks: list[tuple[int, list[int]]] = []
    while remaining:
        i = _select(remaining, consumed)
        block = [b for b in remaining if b >> i & 1]
        remaining = [b for b in remaining if not b >> i & 1]
        for b in block:
            consumed |= b
        picks.append((i, block))
    return picks


def _prune(
    u, picks: list[tuple[int, list[int]]], all_members: list[int]
) -> tuple[tuple[ItemSet, ...], ItemSet]:
    """Drop a pick when the survivors still hit every base member."""
    current = 0
    for i, _ in picks:
        current |= 1 << i
    stages: list[ItemSet] = []
    for i, _ in picks:
        trial = current & ~(1 << i)
        if all(b & trial for b in all_members):
            current = trial
        stages.append(ItemSet(u, current))
    return tuple(stages), ItemSet(u, current)


def greedy_primary_items(space: PreTopology) -> PrimaryItemsTrace:
    """Greedy dense-set construction over the minimal pre-base."""
    u = space.universe
    base = list(space.states._base().masks)
    picks = _greedy_picks(base)
    pruned, result = _prune(u, picks, base)
    picked = tuple(
        (u.labels[i], SetFamily.from_masks(u, blk)) for i, blk in picks
    )
    return PrimaryItemsTrace(picked=picked, pruned=pruned, result=result)


@dataclass(frozen=True)
class MatrixState:
    """Permuted incidence matrix with its block decomposition."""

    rows: tuple[str, ...]
    cols: tuple[ItemSet, ...]
    t: tuple[tuple[int, ...], ...]
    block_sizes: tuple[int, ...]

    def final_submatrix(self) -> tuple[tuple[int, ...], ...]:
        n_rows = len(self.block_sizes)
        n_cols = sum(self.block_sizes)
        return tuple(row[:n_cols] for row in self.t[:n_rows])

    def to_obj(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": [list(c.labels) for c in self.cols],
            "t": [list(r) for r in self.t],
            "block_sizes": list(self.block_sizes),
        }


def matrix_primary_items(base: SetFamily) -> tuple[ItemSet, MatrixState]:
    """Row/column form of the greedy construction plus prune.

    The matrix is the greedy run laid out: the rows are the picked items
    in pick order, then the other items in universe order; the columns
    are the picks' blocks joined in pick order, and `block_sizes` are the
    block lengths. The result is the pruned pick set, as in
    `greedy_primary_items`.

    The base must cover the universe (CoverError) and be the minimal
    pre-base of the space it generates (NotMinimalPreBase): no nonempty
    member is the union of the members strictly inside it, which is
    decided on the base alone in O(|B|²).
    """
    u = base.universe
    _require_cover(base)
    base_masks = [s.mask for s in base.nonempty_members()]
    if len(base._base().masks) != len(base_masks):
        raise NotMinimalPreBase("base is not the minimal pre-base of its space")
    m = len(u)
    picks = _greedy_picks(base_masks)
    picked = [i for i, _ in picks]
    rows = picked + sorted(set(range(m)).difference(picked))
    cols = [b for _, block in picks for b in block]
    t = tuple(
        tuple(1 if c >> r & 1 else 0 for c in cols) for r in rows
    )
    state = MatrixState(
        rows=tuple(u.labels[r] for r in rows),
        cols=tuple(ItemSet(u, c) for c in cols),
        t=t,
        block_sizes=tuple(len(block) for _, block in picks),
    )
    _, result = _prune(u, picks, base_masks)
    return result, state


def cellularity(space: PreTopology, bound: int | None = None) -> int:
    """Maximum number of pairwise disjoint nonempty open sets."""
    opens = sorted(b for b in space.states.masks() if b)
    _guard(len(opens), CELLULARITY_STATES_BOUND, "cellularity states", bound)
    best = 0

    def rec(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + len(opens) - idx <= best:
            return
        for j in range(idx, len(opens)):
            if not opens[j] & used:
                rec(j + 1, used | opens[j], count + 1)

    rec(0, 0, 0)
    return best


def character(space: PreTopology, z: str | None = None) -> int:
    """Size of the minimal neighborhood pre-base at z (its ⊆-minimal
    states, `atoms_at`), or the maximum over the items."""
    if z is not None:
        return len(atoms_at(space, z))
    return max(character(space, t) for t in space.universe.labels)
