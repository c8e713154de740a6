"""Every per-space check can still fail.

Each entry monkeypatches one library function, or one of the miner's
own routes, so that it breaks the statement one check audits. The
check must report `fails` under the mutant and `holds` without it, at
the smallest universe size where the mutant shows. A test body that no
longer ran, or whose violations were no longer collected, would leave
the check at `holds`. Every pass of a check registered with steps has a
mutant here or a reason in `NO_MUTANT`. A pass is keyed by its check id,
with `/k` for the k-th pass from the second on. Its mutant must fail the
pass alone as well as the check, and every other pass of the check, run
alone under a later pass's mutant, must hold: that mutant breaks nothing
another pass reads, so a pass that stopped running would leave its check
at `holds`.
"""

import dataclasses
from functools import reduce
from operator import or_

import pytest

from pretopo import audit, cardinal, connectivity, core, maps, miner, operators
from pretopo import order, separation, structure
from pretopo.core import ItemSet, SetFamily, union_closure


def _powerset_of(universe):
    return union_closure(
        SetFamily.from_masks(universe, [1 << i for i in range(len(universe))])
    )


def _closure_of_universe_empty(real):
    def closure(space, a):
        got = real(space, a)
        return ItemSet(a.universe, 0) if a == a.universe.full else got

    return closure


def _closure_drops_lowest_item(real):
    return lambda space, a: ItemSet(a.universe, real(space, a).mask & ~1)


def _flip_low_bit(real):
    return lambda space: [x ^ 1 for x in real(space)]


def _swap_fringes(real):
    def fringes(space, w):
        got = real(space, w)
        return operators.FringeReport(inner=got.outer, outer=got.inner)

    return fringes


def _full_fringes(real):
    return lambda space, w: (space.universe.full.mask,) * 2


def _forced(value):
    return lambda real: lambda *args: value


def _negated(real):
    return lambda *args: not real(*args)


def _flag_negated(real):
    return lambda *args: (not real(*args)[0], None)


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _every_nonzero_state(real):
    return lambda space: SetFamily.from_masks(
        space.universe, [m for m in space.states.masks() if m]
    )


def _keeping_the_universe(real):
    """The irreducible masks, and the union of all masks even when it is
    the union of others."""

    def irreducible(masks):
        got = real(masks)
        full = reduce(or_, masks, 0)
        return got if full in got else [*got, full]

    return irreducible


# check id -> (owner, attribute, mutant factory taking the real attribute, n)
MUTANTS = {
    "union-closure-laws": (
        miner, "union_closure", lambda real: lambda base: _powerset_of(base.universe), 2
    ),
    "minimal-base-in-every-pre-base": (miner, "irreducible_states", _every_nonzero_state, 2),
    "minimal-pre-base-recognized": (structure, "is_minimal_pre_base", _forced(False), 1),
    # the first pass compares the base with `irreducible_states` itself,
    # so only the drop-one probe sees the extra member
    "minimal-pre-base-recognized/2": (core, "_irreducible_masks", _keeping_the_universe, 2),
    "closure-operator-round-trip": (
        structure, "from_closure_operator",
        lambda real: lambda table: _powerset_of(table.universe), 2,
    ),
    "classify-monotone": (
        structure, "classify",
        lambda real: lambda fam: dataclasses.replace(
            real(fam), is_quasi_ordinal=not real(fam).is_quasi_ordinal
        ), 1,
    ),
    "closure-axioms": (
        operators, "closure_table", lambda real: lambda space: [c & ~1 for c in real(space)], 1
    ),
    "closure-point-test": (operators, "closure", _closure_of_universe_empty, 1),
    "derived-set-definition": (
        operators, "derived_set",
        lambda real: lambda space, a: ItemSet(
            a.universe, a.universe.full.mask & ~real(space, a).mask
        ), 1,
    ),
    "closure-derived-union": (
        miner, "_derived", lambda real: lambda opens, full, a: real(opens, full, a) ^ 1, 1
    ),
    "closure-union-superadditive": (
        operators, "closure_table", lambda real: lambda space: [*real(space)[:-1], 0], 2
    ),
    "interior-closure-duality": (
        operators, "interior", lambda real: lambda space, a: ItemSet(a.universe, 0), 1
    ),
    "fringe-characterizations": (operators, "fringes", _swap_fringes, 1),
    "size-weight-bound": (cardinal, "weight", lambda real: lambda sp: real(sp) - 1, 1),
    "locally-closed-uniqueness": (operators, "_fringe_masks", _full_fringes, 1),
    "tight1-equivalences": (connectivity, "_fringe_masks", _forced((0, 0)), 1),
    "bi-discriminative-quasi-ordinal-powerset": (
        separation, "is_t1", _forced((True, None)), 2
    ),
    "quasi-ordinal-regularity": (
        separation, "is_regular_property", _forced((False, None)), 1
    ),
    "ordinal-connectivity": (order, "m_graph_connected", _negated, 1),
    "t0-quasi-ordinal-antimatroid-tight1": (order, "is_antimatroid", _forced(False), 1),
    "regular-atom-complement": (
        separation, "is_regular_property", _forced((True, None)), 2
    ),
    "granular-regular-disconnected": (connectivity, "is_connected", _forced(True), 2),
    "quasi-ordinal-regular-normal": (
        separation, "is_normal_property", _forced((False, None)), 1
    ),
    "reduction-pre-quotient": (separation, "is_t0", _flag_negated, 1),
    "subspace-pre-base-trace": (miner, "is_pre_base_for", _forced(False), 1),
    "subspace-closed-trace": (operators, "closure", _closure_drops_lowest_item, 2),
    "quotient-finest": (maps, "is_pre_quotient", _forced(False), 1),
    "density-exact-minimal": (
        cardinal, "density_exact", lambda real: lambda sp: (real(sp)[0] + 1, real(sp)[1]), 1
    ),
    "primary-items-dense": (
        cardinal, "matrix_primary_items",
        lambda real: lambda base: (ItemSet(base.universe, 0), real(base)[1]), 1,
    ),
    "dense-ge-cellularity": (cardinal, "cellularity", _plus_one, 1),
    "hausdorff-trace-density-bound": (
        cardinal, "density_exact", lambda real: lambda sp: (0, sp.universe.full), 3
    ),
    # the closure table is the complement dual of the interior table, so
    # the flip reaches both; the first pass reads the interior from the
    # opens, and the two boundary formulas split
    "boundary-formulas": (operators, "interior_table", _flip_low_bit, 1),
    "boundary-formulas/2": (
        operators, "boundary", lambda real: lambda space, a: ItemSet(a.universe, 0), 2
    ),
    "separation-hierarchy": (separation, "bi_discriminative_via_fringe", _negated, 1),
    # Every state through the point in place of the minimal ones would be
    # an equivalent mutant: two points lie in disjoint states exactly when
    # they lie in disjoint minimal states. The universe alone at every
    # point is not.
    "separation-hierarchy/2": (
        order, "atoms_at",
        lambda real: lambda space, t: SetFamily.from_masks(
            space.universe, [space.universe.full.mask]
        ), 2,
    ),
    "separation-hierarchy/3": (
        separation, "separation_profile",
        lambda real: lambda sp: dataclasses.replace(real(sp), t4=True, t0=False), 1,
    ),
    "chain-connected-iff-connected": (connectivity, "is_connected", _negated, 1),
    "chain-connected-iff-connected/2": (
        connectivity, "find_simple_chain", _forced(None), 2
    ),
    "tight1-iff-well-graded": (connectivity, "is_tight_n_connected", _forced(False), 1),
    "tight1-iff-well-graded/2": (connectivity, "is_well_graded", _negated, 1),
}

# Steps that no library mutant can fail, each with the reason.
NO_MUTANT = {
    # A lemma about any finite family: items i and j of the maximal count
    # c whose intersections share an item k would give k a count of at
    # least |S_i ∪ S_j| > c, where S_i is the set of members holding i.
    "block-disjointness",
}


def pass_keys():
    for ident, chk in miner._REGISTRY.items():
        for k in range(len(chk.passes)):
            yield ident if k == 0 else f"{ident}/{k + 1}"


def test_every_step_has_a_mutant_or_a_reason():
    assert not set(MUTANTS) & NO_MUTANT
    assert sorted(pass_keys()) == sorted(set(MUTANTS) | NO_MUTANT)


@pytest.mark.parametrize("key", list(MUTANTS))
def test_a_mutant_fails_the_check(monkeypatch, key):
    """The mutant fails the check, and the pass it is keyed by alone."""
    ident, _, k = key.partition("/")
    k = int(k or 1) - 1
    chk = miner._REGISTRY[ident]
    owner, name, mutant, n = MUTANTS[key]
    real = getattr(owner, name)
    for registered in (chk, dataclasses.replace(chk, passes=chk.passes[k : k + 1])):
        monkeypatch.setitem(miner._REGISTRY, ident, registered)
        monkeypatch.setattr(owner, name, real)
        (report,) = audit(ident, n)
        assert report.status == "holds" and report.checked > 0
        monkeypatch.setattr(owner, name, mutant(real))
        (report,) = audit(ident, n)
        assert report.status == "fails"
        assert report.violations


@pytest.mark.parametrize("key", [key for key in MUTANTS if "/" in key])
def test_a_later_pass_mutant_leaves_the_other_passes_holding(monkeypatch, key):
    ident, _, k = key.partition("/")
    k = int(k) - 1
    chk = miner._REGISTRY[ident]
    owner, name, mutant, n = MUTANTS[key]
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    for j in range(len(chk.passes)):
        if j == k:
            continue
        alone = dataclasses.replace(chk, passes=chk.passes[j : j + 1])
        monkeypatch.setitem(miner._REGISTRY, ident, alone)
        (report,) = audit(ident, n)
        assert report.status == "holds" and report.checked > 0, f"pass {j + 1}"
