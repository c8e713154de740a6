"""Closure, interior, boundary, derived set, density, fringes.

The e0 goldens come from the four-point space whose closure operator is
not union-additive; R = {z2,z3} and T = {z3,z4} are its witness pair.
"""

from hypothesis import given, strategies as st

from pretopo import (
    PreTopology,
    SetFamily,
    Universe,
    boundary,
    closure,
    derived_set,
    fringes,
    interior,
    is_dense,
)

import fixture_files as fixtures

E0 = fixtures.space("e0")


def s(space, labels):
    return space.universe.subset(labels)


def test_closure_goldens_on_e0():
    assert closure(E0, s(E0, ["z2", "z3"])) == s(E0, ["z2", "z3"])
    assert closure(E0, s(E0, ["z2", "z3", "z4"])) == E0.universe.full
    assert closure(E0, E0.universe.empty) == E0.universe.empty


def test_closure_union_strictly_superadditive_on_e0():
    r, t = s(E0, ["z2", "z3"]), s(E0, ["z3", "z4"])
    assert closure(E0, r) == r
    assert closure(E0, t) == t
    assert closure(E0, r | t) == E0.universe.full
    assert closure(E0, r | t) != closure(E0, r) | closure(E0, t)


def test_interior_goldens_on_e0():
    assert interior(E0, s(E0, ["z1", "z2", "z3"])) == s(E0, ["z1", "z2", "z3"])
    assert interior(E0, s(E0, ["z2", "z3", "z4"])) == E0.universe.empty


def test_interior_closure_duality_exhaustive_on_e0():
    full = E0.universe.full.mask
    for m in range(16):
        a = E0.universe.from_mask(m)
        co = E0.universe.from_mask(full & ~m)
        assert interior(E0, a).mask == full & ~closure(E0, co).mask


def test_boundary_goldens_on_e0():
    r, t = s(E0, ["z2", "z3"]), s(E0, ["z3", "z4"])
    assert boundary(E0, r) == r
    assert boundary(E0, t) == t
    assert boundary(E0, r | t) == E0.universe.full
    union = boundary(E0, r) | boundary(E0, t)
    assert boundary(E0, r | t).mask & ~union.mask != 0  # subadditivity fails


def test_boundary_of_clopen_is_empty():
    tight = fixtures.space("tight")
    assert boundary(tight, s(tight, ["z1", "z2"])) == tight.universe.empty


def test_boundary_symmetric_in_complement_and_closed():
    full = E0.universe.full.mask
    for m in range(16):
        a = E0.universe.from_mask(m)
        co = E0.universe.from_mask(full & ~m)
        bd = boundary(E0, a)
        assert bd == boundary(E0, co)
        assert closure(E0, bd) == bd


def test_boundary_equals_closure_minus_interior():
    for name in ("e0", "tight", "t2nr"):
        space = fixtures.space(name)
        for m in range(1 << len(space.universe)):
            a = space.universe.from_mask(m)
            assert (
                boundary(space, a).mask
                == closure(space, a).mask & ~interior(space, a).mask
            )


def test_derived_set_golden_on_e0():
    assert derived_set(E0, s(E0, ["z1"])) == s(E0, ["z2", "z3", "z4"])
    assert derived_set(E0, E0.universe.empty) == E0.universe.empty


def test_closure_is_set_plus_derived_set():
    tau = fixtures.space("e1_tau")
    for m in range(16):
        a = tau.universe.from_mask(m)
        assert closure(tau, a) == a | derived_set(tau, a)


def test_is_dense_examples():
    tau = fixtures.space("e1_tau")
    assert is_dense(tau, s(tau, ["z1", "z2", "z3"]))
    assert not is_dense(tau, s(tau, ["z1", "z2"]))
    assert is_dense(tau, tau.universe.full)


def test_fringes_tight_golden():
    tight = fixtures.space("tight")
    rep = fringes(tight, s(tight, ["z1", "z2"]))
    assert rep.inner == s(tight, ["z2"])
    assert rep.outer == s(tight, ["z3", "z4"])
    assert rep.full == s(tight, ["z2", "z3", "z4"])


def test_fringes_full_universe_on_t1c():
    t1c = fixtures.space("t1c")
    assert fringes(t1c, t1c.universe.full).inner == t1c.universe.full


def test_fringes_of_empty_set():
    tau = fixtures.space("e1_tau")
    rep = fringes(tau, tau.universe.empty)
    assert rep.inner == tau.universe.empty
    assert rep.outer == tau.universe.empty  # no singleton is open

    uni = Universe(["z1", "z2"])
    power = PreTopology.from_family(SetFamily.from_masks(uni, range(4)))
    assert fringes(power, uni.empty).outer == uni.full


@given(st.integers(0, 15))
def test_fringe_invariants_on_tight(mask):
    tight = fixtures.space("tight")
    w = tight.universe.from_mask(mask)
    rep = fringes(tight, w)
    assert rep.inner.mask & ~w.mask == 0
    assert rep.outer.mask & w.mask == 0
    assert rep.full.mask == rep.inner.mask | rep.outer.mask


@given(st.integers(0, 15), st.integers(0, 15))
def test_closure_monotone_on_e0(a, b):
    x = E0.universe.from_mask(a & b)
    y = E0.universe.from_mask(b)
    assert closure(E0, x).mask & ~closure(E0, y).mask == 0


def test_closure_idempotent_on_fixture_subsets():
    for name in ("e0", "e1_tau", "tight"):
        space = fixtures.space(name)
        for m in range(1 << len(space.universe)):
            a = space.universe.from_mask(m)
            c = closure(space, a)
            assert a.mask & ~c.mask == 0
            assert closure(space, c) == c
