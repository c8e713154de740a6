"""Acceptance gate: the nine golden criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the
summary lines on passing runs as well).
"""

import json
import time

from pretopo import (
    ItemSet,
    PointMap,
    SetFamily,
    audit,
    boundary,
    closure,
    connectedness,
    density_exact,
    from_quasi_order,
    greedy_primary_items,
    is_antimatroid,
    is_connected,
    is_pre_continuous,
    is_quasi_ordinal,
    is_tight_n_connected,
    matrix_primary_items,
    minimal_state,
    pre_continuity_witness,
    reports_to_json,
    separation_profile,
    subspace,
    to_quasi_order,
)
from pretopo.miner import enumerate_spaces, run_skills_suite, sample_quasi_orders

import fixture_files as fixtures

PROPERTY_SUITE = [
    "closure-axioms",
    "closure-derived-union",
    "derived-set-definition",
    "boundary-formulas",
    "interior-closure-duality",
    "fringe-characterizations",
    "separation-hierarchy",
    "chain-connected-iff-connected",
    "tight1-iff-well-graded",
    "size-weight-bound",
    "dense-ge-cellularity",
]


def gate(num, text, failures):
    tag = "PASS" if not failures else "FAIL"
    print(f"[{tag}] criterion {num}: {text}")
    assert not failures, f"criterion {num}: {failures}"


def need(failures, ok, what):
    if not ok:
        failures.append(what)


def sub(space, labels):
    mask = sum(1 << space.universe.index(l) for l in labels)
    return ItemSet(space.universe, mask)


def test_criterion_1_primary_items_golden():
    failures = []
    space = fixtures.space("alg5")
    base = fixtures.family("alg5")
    started = time.time()
    greedy = greedy_primary_items(space).result
    matrix_d, state = matrix_primary_items(base)
    exact_n, exact_d = density_exact(space)
    elapsed = time.time() - started

    for name, got in (("greedy", greedy), ("matrix", matrix_d), ("exact", exact_d)):
        need(failures, sorted(got.labels) == ["z1", "z2"], f"{name} D != {{z1,z2}}")
        need(failures, len(got) == 2, f"{name} |D| != 2")
    need(failures, exact_n == 2, "d(Q) != 2")

    initial = tuple(
        tuple(1 if c.mask >> r & 1 else 0 for c in base.nonempty_members())
        for r in range(5)
    )
    need(failures, initial == (
        (1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1),
    ), "initial incidence table off")
    need(failures, state.rows == ("z3", "z1", "z2", "z4", "z5"), "permuted rows off")
    need(failures, tuple(tuple(sorted(c.labels)) for c in state.cols) == (
        ("z1", "z3"),
        ("z2", "z3", "z4"),
        ("z1", "z3", "z4", "z5"),
        ("z1",),
        ("z2",),
    ), "permuted columns off")
    need(failures, state.t == (
        (1, 1, 1, 0, 0),
        (1, 0, 1, 1, 0),
        (0, 1, 0, 0, 1),
        (0, 1, 1, 0, 0),
        (0, 0, 1, 0, 0),
    ), "permuted table off")
    need(failures, state.block_sizes == (3, 1, 1), "block sizes off")
    need(failures, state.final_submatrix() == (
        (1, 1, 1, 0, 0),
        (1, 0, 1, 1, 0),
        (0, 1, 0, 0, 1),
    ), "final 3x5 block matrix off")
    need(failures, elapsed < 1.0, f"took {elapsed:.2f}s")
    gate(1, "primary items on the ten-state space, three methods, tables exact",
         failures)


def test_criterion_2_operator_goldens():
    failures = []
    space = fixtures.space("e0")
    r = sub(space, ["z2", "z3"])
    t = sub(space, ["z3", "z4"])
    full = space.universe.full

    need(failures, closure(space, r) == r, "closure({z2,z3}) != {z2,z3}")
    need(failures, closure(space, r | t) == full, "closure({z2,z3,z4}) != Q")
    need(failures, boundary(space, r) == r, "boundary({z2,z3}) != {z2,z3}")
    need(failures, boundary(space, r | t) == full, "boundary({z2,z3,z4}) != Q")

    cl_union = closure(space, r) | closure(space, t)
    need(failures, closure(space, r | t).mask & ~cl_union.mask != 0,
         "closure-union inequality not strict")
    bd_union = boundary(space, r) | boundary(space, t)
    need(failures, boundary(space, r | t).mask & ~bd_union.mask != 0,
         "boundary-union inequality not strict")
    gate(2, "operator goldens and both strict union counterexamples", failures)


def test_criterion_3_separation_goldens():
    failures = []
    p = separation_profile(fixtures.space("e0"))
    need(failures, p.t0 and not p.t1, "e0 not (T0 and not T1)")
    need(failures, separation_profile(fixtures.space("e1_tau")).t2, "e1_tau not T2")
    p = separation_profile(fixtures.space("t2nr"))
    need(failures, p.t2 and not p.regular_property, "t2nr not (T2 and not regular)")
    p = separation_profile(fixtures.space("rnn"))
    need(failures, p.regular_property and not p.normal_property,
         "rnn not (regular and not normal)")
    need(failures, not separation_profile(fixtures.space("ord6")).t0,
         "six-point family is T0")
    t1c = fixtures.space("t1c")
    need(failures, separation_profile(t1c).t1 and is_connected(t1c),
         "t1c not (T1 and connected)")
    gate(3, "separation goldens across the six families", failures)


def test_criterion_4_connectivity_goldens():
    failures = []
    tight = fixtures.space("tight")
    need(failures, is_tight_n_connected(tight, 1), "tight fixture not tight-1")
    report = connectedness(tight)
    need(failures, not report.connected, "tight fixture connected")
    need(failures,
         report.separation is not None
         and sorted(report.separation[0].labels) == ["z1", "z2"],
         "witness clopen != {z1,z2}")
    conn = fixtures.space("conn")
    need(failures, is_connected(conn), "conn fixture disconnected")
    need(failures, not is_tight_n_connected(conn, 1), "conn fixture tight-1")
    gate(4, "tight-1 versus connected on the two witnesses", failures)


def test_criterion_5_pre_continuity_golden():
    failures = []
    tau = fixtures.space("e1_tau")
    delta = fixtures.space("e1_delta")
    ident = PointMap(tau.universe, delta.universe,
                     {t: t for t in tau.universe.labels})
    need(failures, not is_pre_continuous(ident, tau, delta),
         "identity map is pre-continuous")
    w = pre_continuity_witness(ident, tau, delta)
    need(failures, w is not None and sorted(w.labels) == ["z3"],
         "witness != {z3}")
    for pair in (["z1", "z2"], ["z3", "z4"]):
        restriction = subspace(tau, sub(tau, pair))
        inc = PointMap(restriction.universe, delta.universe, {t: t for t in pair})
        need(failures, is_pre_continuous(inc, restriction, delta),
             f"restriction to {pair} fails")
    gate(5, "identity fails with witness {z3}, both restrictions pass", failures)


def test_criterion_6_property_suite():
    failures = []
    for n in (1, 2, 3):
        for report in audit(PROPERTY_SUITE, n, seed=0):
            need(failures, report.status == "holds",
                 f"{report.theorem} at n={n}: {report.status}")
    sampled = 0
    for n, seed in ((4, 4), (5, 5)):
        reports = audit(PROPERTY_SUITE, n, seed=seed, samples=5000)
        sampled += 5000
        for report in reports:
            need(failures, report.status == "holds",
                 f"{report.theorem} sampled at n={n}: {report.status}")
            if report.theorem == "closure-axioms":
                need(failures, report.checked == 5000,
                     f"sampled stream short at n={n}")
    need(failures, sampled >= 10_000, "fewer than 10^4 sampled spaces")
    gate(6, "property suite exhaustive at n<=3 and on 10^4 sampled spaces",
         failures)


def test_criterion_7_order_suite():
    failures = []
    trips = 0
    for n in (1, 2, 3):
        for space in enumerate_spaces(n):
            if not is_quasi_ordinal(space):
                continue
            back = from_quasi_order(to_quasi_order(space))
            trips += 1
            need(failures, back.states.masks() == space.states.masks(),
                 "space round trip broke")
    need(failures, trips > 0, "no intersection-closed spaces enumerated")
    orders = 0
    for n in range(2, 7):
        for qo in sample_quasi_orders(n, 200, seed=n):
            orders += 1
            need(failures, to_quasi_order(from_quasi_order(qo)) == qo,
                 "order round trip broke")
    need(failures, orders == 1000, "fewer than 10^3 seeded quasi-orders")

    for n in (2, 3):
        for space in enumerate_spaces(n):
            if not is_quasi_ordinal(space):
                continue
            profile = separation_profile(space)
            full = space.universe.full.mask
            if profile.t1:
                need(failures,
                     len(space.states) == 1 << len(space.universe),
                     "bi-discriminative quasi-ordinal space not a powerset")
            complements_open = all(
                space.states.has_mask(full & ~minimal_state(space, t).mask)
                for t in space.universe.labels
            )
            need(failures, profile.regular_property == complements_open,
                 "regularity differs from the minimal-state complements")
            if profile.t0:
                need(failures,
                     is_antimatroid(space) and is_tight_n_connected(space, 1),
                     "T0 quasi-ordinal space not antimatroid or not tight-1")

    for ident in (
        "quasi-order-round-trip",
        "bi-discriminative-quasi-ordinal-powerset",
        "quasi-ordinal-regularity",
        "t0-quasi-ordinal-antimatroid-tight1",
    ):
        report = audit(ident, 3, seed=0)[0]
        need(failures, report.status == "holds", f"{ident}: {report.status}")
    gate(7, "quasi-order round trips and the three order implications", failures)


def test_criterion_8_skills_suite():
    failures = []
    results = run_skills_suite(3, 3, 2)
    for ident, (checked, stored, _) in results.items():
        need(failures, checked == 23025, f"{ident} swept {checked} multimaps")
        need(failures, not stored, f"{ident} found disagreements")

    from pretopo import SkillMultimap, Universe, delineate

    skills = Universe(["s1", "s2", "s3"])
    items = Universe(["q1", "q2"])
    full = ItemSet(skills, 0b111)
    m = SkillMultimap(items, skills, {"q1": [full], "q2": [full]})
    got = delineate(m).states.masks()
    need(failures, got == {0b00, 0b11}, "full-competency delineation != {0,Q}")
    gate(8, "skills sweep of 23025 multimaps with zero disagreements", failures)


def test_criterion_9_audit_only_reports():
    failures = []
    atom = audit("atom-pre-base-of-minimal", 2, seed=0)[0]
    need(failures, atom.status == "audit-only", "atom check not audit-only")
    witnessed = [json.loads(s)["states"] for s, _ in atom.violations]
    need(failures, [[], ["z1"], ["z1", "z2"]] in witnessed,
         "missing the {0,{z1},{z1,z2}} witness")

    gap = audit("greedy-matrix-dense-gap", 3, seed=0)[0]
    need(failures, gap.status == "audit-only", "gap check not audit-only")
    need(failures, gap.summary is not None and "gap" in gap.summary,
         "gap distribution missing")

    vc = fixtures.space("vertex_cover")
    greedy_n = len(greedy_primary_items(vc).result)
    matrix_n = len(matrix_primary_items(fixtures.family("vertex_cover"))[0])
    exact_n = density_exact(vc)[0]
    need(failures, greedy_n == matrix_n == exact_n == 2,
         "vertex-cover sizes diverge from the optimum")

    for report in (atom, gap):
        obj = report.to_obj()
        for key in ("theorem", "checked", "violations", "status"):
            need(failures, key in obj, f"report missing {key}")
        parsed = json.loads(reports_to_json([report]))
        need(failures, parsed[0]["theorem"] == report.theorem,
             "serialized report mangled")
    gate(9, "audit-only witnesses and schema-valid reports", failures)
