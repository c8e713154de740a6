"""Exhaustive small-universe enumeration and automated theorem audits.

Enumerates every union-closed family on small universes (and seeded
random families on slightly larger ones), then runs a registry of
checks, one per documented claim, reporting counterexamples instead of
raising. Claims the library does not assert (the literal atom-pre-base
reading, greedy optimality, boundary-union subadditivity) run in
audit-only mode: their reports carry witnesses and frequencies without
a pass/fail verdict.

A check that tests one space at a time is a step, a generator
`test(space, rng)` registered with `_per_space`, which states how
`audit`, the one loop over the spaces, drives it. The checks that need
the whole list register a runner with `_register`: those that sample
across spaces, run at the level of the universe, or write a summary or
skip with a message after the loop. The four skill checks read their
reports from one multimap sweep, `run_skills_suite`.

The miner keeps no per-space tables. The closure and interior of every
subset come from `operators.closure_table` and `interior_table`, which
the space builds once, and `closure-point-test` and
`interior-closure-duality` compare them with the per-subset operators.
A step that reads the opens sorts them numerically, the order of its
witnesses and samples.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Generator, Iterable, Iterator

from . import cardinal, connectivity, maps, operators, order, separation, skills, structure
from .core import (
    ItemSet,
    PreTopology,
    SetFamily,
    Universe,
    _canonical_key,
    _guard,
    distance,
    irreducible_states,
    is_pre_base_for,
    union_closure,
)
from .errors import PretopoError
from .skills import SkillMultimap

MAX_EXHAUSTIVE = 4
MAX_SAMPLED = 6
DEFAULT_SAMPLES = 2000
MAX_STORED = 20

# checks that would dominate the sampled sweeps run on deterministic
# prefixes of this many spaces, in exhaustive runs too: at n = 4 they
# cut the stream of 2,271 spaces
CAP_HEAVY = 2000
CAP_VERY_HEAVY = 500


def _universe(n: int) -> Universe:
    return Universe([f"z{i + 1}" for i in range(n)])


def enumerate_spaces(n: int, bound: int | None = None) -> list[PreTopology]:
    """Every union-closed family containing the empty set and the
    whole universe, exactly once, in canonical order.

    Masks are decided in increasing numeric order; a union of already
    chosen members is numerically larger than each operand, so pending
    union obligations always sit strictly ahead of the cursor.
    """
    if n < 1:
        raise PretopoError("universe size must be at least 1")
    _guard(n, MAX_EXHAUSTIVE, "exhaustive enumeration universe", bound)
    u = _universe(n)
    full = (1 << n) - 1
    found: list[tuple[int, ...]] = []

    def rec(m: int, chosen: list[int], forced: frozenset[int]) -> None:
        if m == full:
            found.append(tuple(chosen))
            return
        if m not in forced:
            rec(m + 1, chosen, forced)
        unions = {m | c for c in chosen}
        nf = (forced | {x for x in unions if m < x < full}) - {m}
        chosen.append(m)
        rec(m + 1, chosen, frozenset(nf))
        chosen.pop()

    rec(1, [], frozenset())
    found.sort(key=lambda masks: (len(masks), masks))
    return [
        PreTopology(u, SetFamily.from_masks(u, {0, full, *masks}), _trusted=True)
        for masks in found
    ]


def sample_spaces(
    n: int, count: int, seed: int = 0, bound: int | None = None
) -> list[PreTopology]:
    """Seeded stream of union closures of random generator families.

    Repetition is allowed; the stream is reproducible from (n, count,
    seed) alone.
    """
    if n < 1:
        raise PretopoError("universe size must be at least 1")
    _guard(n, MAX_SAMPLED, "sampled enumeration universe", bound)
    rng = random.Random(f"spaces:{n}:{seed}")
    u = _universe(n)
    return [_random_space(u, rng) for _ in range(count)]


@dataclass(frozen=True)
class MinerReport:
    theorem: str
    checked: int
    violations: tuple[tuple[str, str], ...]
    status: str
    summary: str | None = None

    def to_obj(self) -> dict:
        obj = {
            "theorem": self.theorem,
            "checked": self.checked,
            "violations": [
                {"space": s, "witness": w} for s, w in self.violations
            ],
            "status": self.status,
        }
        if self.summary is not None:
            obj["summary"] = self.summary
        return obj


def reports_to_json(reports: Iterable[MinerReport]) -> str:
    return json.dumps([r.to_obj() for r in reports], indent=2) + "\n"


class _Collector:
    """Counts every violation, stores the first MAX_STORED."""

    __slots__ = ("stored", "total")

    def __init__(self) -> None:
        self.stored: list[tuple[str, str]] = []
        self.total = 0

    def add(self, source: PreTopology | str | Callable[[], str], witness: str) -> None:
        """Count a violation; a space is serialized, and a callable
        called, only when the violation is stored."""
        self.total += 1
        if len(self.stored) < MAX_STORED:
            if isinstance(source, PreTopology):
                source = _ser(source)
            elif callable(source):
                source = source()
            self.stored.append((source, witness))


def _ser(space: PreTopology) -> str:
    return json.dumps(space.to_obj(), separators=(",", ":"))


_RunResult = tuple[int, list[tuple[str, str]], str | None]
_Runner = Callable[[list[PreTopology], random.Random], _RunResult]
# a step yields the witnesses it finds on one space and may return its units
_Test = Callable[[PreTopology, random.Random], Generator[str, None, int | None]]
# a pass: a step, the prefix `spaces[:cap]` it reads and its hypothesis
_Pass = tuple[_Test, int | None, Callable[[PreTopology], bool] | None]


@dataclass(frozen=True)
class _Check:
    """A registered check: passes of steps driven by `audit`; a runner
    over every space; or neither, for a skill check read from the
    multimap sweep."""

    ident: str
    audit_only: bool = False
    run: _Runner | None = None
    passes: tuple[_Pass, ...] = ()


_REGISTRY: dict[str, _Check] = {}


def _register(ident: str, audit_only: bool = False):
    def deco(fn: _Runner) -> _Runner:
        if ident in _REGISTRY:
            raise ValueError(f"check id registered twice: {ident}")
        _REGISTRY[ident] = _Check(ident, audit_only, run=fn)
        return fn

    return deco


def _per_space(
    ident: str, cap: int | None = None, when: Callable[[PreTopology], bool] | None = None
):
    """Register a check that tests each space on its own, or add a pass
    to one registered so.

    The decorated step `test(space, rng)` yields a witness for each
    violation it finds on one space. It may `return` the number of units
    it checked there; returning nothing counts the space once. `audit`
    drives the step over the prefix `spaces[:cap]` (every space when cap
    is None, a deterministic prefix for heavy checks) and skips a space
    outside the hypothesis, where `when(space)` is false. The passes of
    one id run in registration order, and `checked` counts the units of
    the first pass only: later passes re-examine a prefix of the same
    spaces.
    """

    def deco(test: _Test) -> _Test:
        chk = _REGISTRY.get(ident)
        if chk is None:
            chk = _Check(ident)
        elif not chk.passes:
            raise ValueError(f"check id registered without passes: {ident}")
        _REGISTRY[ident] = replace(chk, passes=(*chk.passes, (test, cap, when)))
        return test

    return deco


def _walk(chk: _Check, spaces: list[PreTopology], rng: random.Random) -> _RunResult:
    """Drive the passes of a check over their spaces: store each witness
    with its space, and add up the units the first pass returns."""
    col = _Collector()
    units = []
    for test, cap, when in chk.passes:
        checked = 0
        for space in spaces[:cap]:
            if when is None or when(space):
                witnesses = test(space, rng)
                try:
                    while True:
                        col.add(space, next(witnesses))
                except StopIteration as done:
                    checked += 1 if done.value is None else done.value
        units.append(checked)
    return units[0], col.stored, None


def _t0(space: PreTopology) -> bool:
    return separation.is_t0(space)[0]


def _regular(space: PreTopology) -> bool:
    return separation.is_regular_property(space)[0]


def available_theorems() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _random_space(u: Universe, rng: random.Random) -> PreTopology:
    gens = [rng.randint(1, u._full) for _ in range(rng.randint(1, 2 * len(u)))]
    return union_closure(SetFamily.from_masks(u, [*gens, u._full]))


def _random_map(
    x: Universe, y: Universe, rng: random.Random
) -> maps.PointMap:
    return maps.PointMap(
        x, y, {a: rng.choice(y.labels) for a in x.labels}
    )


def sample_quasi_orders(n: int, count: int, seed: int = 0) -> list[order.QuasiOrder]:
    """Seeded random quasi-orders: transitive closures of sparse
    random relations over the reflexive diagonal."""
    rng = random.Random(f"quasi-orders:{n}:{seed}")
    u = _universe(n)
    out = []
    for _ in range(count):
        up = [
            sum(1 << j for j in range(n) if i == j or rng.random() < 0.3)
            for i in range(n)
        ]
        # Warshall on the successor masks
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        out.append(order.QuasiOrder(u, tuple(up)))
    return out


def enumerate_multimaps(
    n_items: int, n_skills: int, max_competencies: int
) -> Iterator[SkillMultimap]:
    """All skill multimaps with the given exact universe sizes and at
    most max_competencies competencies per item."""
    for comps, _, _, _ in _mask_multimaps(n_items, n_skills, max_competencies):
        yield _multimap(comps, n_skills)


_Masks = tuple[int, ...]


def _mask_multimaps(
    n_items: int, n_skills: int, max_competencies: int
) -> Iterator[tuple[tuple[_Masks, ...], tuple[_Masks, ...], _Masks, _Masks]]:
    """The multimaps of `enumerate_multimaps`, in its order, as masks: per
    item its competencies and its minimal ones, then the competency pool
    and the minimal pool, each in the canonical order of `SkillMultimap`.

    A choice is one item's set of competencies; its sorted and minimal
    members are found once by `skills._competencies`, and pools are
    sorted by a table of `_canonical_key` over the skill masks.
    """
    rank = {c: _canonical_key(c) for c in range(1 << n_skills)}
    choices = [
        skills._competencies(combo)
        for size in range(1, max_competencies + 1)
        for combo in itertools.combinations(range(1, 1 << n_skills), size)
    ]
    for assignment in itertools.product(choices, repeat=n_items):
        comps, mins = zip(*assignment)
        pool = tuple(sorted(set().union(*comps), key=rank.__getitem__))
        min_pool = tuple(sorted(set().union(*mins), key=rank.__getitem__))
        yield comps, mins, pool, min_pool


def _skill_universe(n_skills: int) -> Universe:
    return Universe([f"s{i + 1}" for i in range(n_skills)])


def _multimap(comps: tuple[_Masks, ...], n_skills: int) -> SkillMultimap:
    """The multimap whose items q1, q2, ... have the given competency masks
    over the skills s1, s2, ..."""
    items = Universe([f"q{i + 1}" for i in range(len(comps))])
    skill_u = _skill_universe(n_skills)
    mu = {t: [ItemSet(skill_u, c) for c in cs] for t, cs in zip(items.labels, comps)}
    return SkillMultimap(items, skill_u, mu)


def audit(
    theorem_set: str | Iterable[str] = "all",
    n: int = 3,
    seed: int = 0,
    samples: int | None = None,
    bound: int | None = None,
) -> list[MinerReport]:
    """Run the selected checks over the size-n space stream.

    Exhaustive for n up to 4, seeded sampling beyond. Reports are a
    pure function of (theorem_set, n, seed, samples). The bound
    overrides the size guard of the space stream only.
    """
    if isinstance(theorem_set, str):
        idents = list(_REGISTRY) if theorem_set == "all" else [theorem_set]
    else:
        idents = list(theorem_set)
    for ident in idents:
        if ident not in _REGISTRY:
            raise PretopoError(f"unknown theorem id: {ident}")
    if samples is not None:
        if samples < 1:
            raise PretopoError("samples must be at least 1")
        spaces = sample_spaces(n, samples, seed, bound)
    elif n <= MAX_EXHAUSTIVE:
        spaces = enumerate_spaces(n, bound)
    else:
        spaces = sample_spaces(n, DEFAULT_SAMPLES, seed, bound)
    sweep = None  # one multimap sweep serves every skill check of this call
    reports = []
    for ident in idents:
        chk = _REGISTRY[ident]
        rng = random.Random(f"{seed}:{ident}")
        if chk.passes:
            checked, stored, summary = _walk(chk, spaces, rng)
        elif chk.run is not None:
            checked, stored, summary = chk.run(spaces, rng)
        else:
            if sweep is None:
                sweep = run_skills_suite()
            checked, stored, summary = sweep[ident]
        if chk.audit_only:
            status = "audit-only"
        else:
            status = "holds" if not stored else "fails"
        reports.append(
            MinerReport(
                theorem=ident,
                checked=checked,
                violations=tuple(stored),
                status=status,
                summary=summary,
            )
        )
    return reports


# ---------------------------------------------------------------- structure


@_per_space("union-closure-laws")
def _chk_union_closure_laws(space, rng):
    sp = union_closure(irreducible_states(space))
    if sp.states.masks() != space.states.masks():
        yield "union closure of the minimal pre-base differs"
        return
    if not (sp.states.has_mask(0) and sp.states.has_mask(space.universe._full)):
        yield "closure dropped the empty set or the universe"
    if union_closure(sp.states).states.masks() != sp.states.masks():
        yield "union closure is not idempotent"


@functools.cache
def _pick_columns(k: int) -> tuple[int, ...]:
    """Per member i of k, the picks of members that hold it, as a
    2^k-bit int over the picks."""
    return tuple(
        sum(1 << pick for pick in range(1 << k) if pick >> i & 1) for i in range(k)
    )


@_per_space("minimal-base-in-every-pre-base")
def _chk_minimal_base_containment(space, rng):
    """The union-irreducible states sit inside every generating
    subfamily, so the minimal pre-base really is minimum. Unit:
    sub-families.

    Cover lemma: a subfamily F of the nonzero states generates K exactly
    when, for every nonzero state s and every item x in s, F has a member
    b with x in b and b inside s. The test never reads the base, so the
    audit stays independent of `irreducible_states`. Each pair (s, x)
    gives the index mask of its members b. Up to 10 nonzero states all
    2^k - 1 picks are decided at once, with ints as bitsets over the
    picks: column i holds the picks that contain member i, a pair is met
    by the OR of its members' columns, and the generating picks are the
    AND of those over the pairs. Past 10, the 200 sampled picks are
    tested against the pair masks one at a time. Cost per space:
    O(|K|·m·k) operations on 2^k-bit ints, where a union closure per pick
    costs 2^k·O(|K|·k).
    """
    irr_masks = set(irreducible_states(space).masks()) - {0}
    nonzero = sorted(space.states.masks() - {0})
    k = len(nonzero)
    pairs = set()
    for s in nonzero:
        inside = [(i, b) for i, b in enumerate(nonzero) if b | s == s]
        rest = s
        while rest:
            x = rest & -rest
            rest ^= x
            pairs.add(sum(1 << i for i, b in inside if b & x))
    if k <= 10:
        cols = _pick_columns(k)
        generates = (1 << (1 << k)) - 2  # every pick but the empty one
        for need in pairs:
            met = 0
            for i in range(k):
                if need >> i & 1:
                    met |= cols[i]
            generates &= met
        keeps = generates
        for b in irr_masks:
            keeps &= cols[nonzero.index(b)] if b in nonzero else 0
        checked = (1 << k) - 1
        bad = generates & ~keeps
        picks = []
        while bad:
            low = bad & -bad
            bad ^= low
            picks.append(low.bit_length() - 1)
    else:
        sampled = [rng.randrange(1, 1 << k) for _ in range(200)]
        checked = len(sampled)
        picks = [
            pick
            for pick in sampled
            if all(need & pick for need in pairs)
            and not irr_masks <= {nonzero[i] for i in range(k) if pick >> i & 1}
        ]
    for pick in picks:
        fam = [nonzero[i] for i in range(k) if pick >> i & 1]
        yield f"pre-base {fam} misses an irreducible state"
    return checked


@_register("distance-metric")
def _chk_distance_metric(spaces, rng):
    u = spaces[0].universe if spaces else _universe(2)
    full = (1 << len(u)) - 1
    pts = [ItemSet(u, m) for m in range(full + 1)]
    col = _Collector()
    checked = 0
    for a in pts:
        for b in pts:
            checked += 1
            d = distance(a, b)
            if d != len(a - b) + len(b - a):
                col.add("-", f"d({a.labels},{b.labels}) wrong")
            if (d == 0) != (a.mask == b.mask):
                col.add("-", f"identity fails at ({a.labels},{b.labels})")
            if d != distance(b, a):
                col.add("-", f"symmetry fails at ({a.labels},{b.labels})")
            for c in pts:
                if distance(a, c) > d + distance(b, c):
                    col.add("-", f"triangle fails at ({a.labels},{b.labels},{c.labels})")
    return checked, col.stored, None


@_per_space("minimal-pre-base-recognized")
def _chk_minimal_pre_base_recognized(space, rng):
    base = irreducible_states(space)
    if not is_pre_base_for(base, space):
        yield "irreducible states rejected as a pre-base"
    elif not structure.is_minimal_pre_base(base, space):
        yield "irreducible states rejected as the minimal pre-base"


@_per_space("minimal-pre-base-recognized", cap=CAP_VERY_HEAVY)
def _chk_minimal_pre_base_literal(space, rng):
    """Literal minimality, through `is_pre_base_for`, which reads no
    base: no member of the irreducible states can be dropped from them
    and leave a pre-base."""
    base = irreducible_states(space).masks()
    for b in sorted(base, key=_canonical_key):
        if is_pre_base_for(SetFamily.from_masks(space.universe, base - {b}), space):
            yield f"pre-base stays without {ItemSet(space.universe, b)}"


@_per_space("closure-operator-round-trip", cap=CAP_HEAVY)
def _chk_closure_round_trip(space, rng):
    table = structure.ClosureOperatorTable.of_space(space)
    back = structure.from_closure_operator(table)
    if back.states.masks() != space.states.masks():
        yield "closure-operator round trip changed the family"


@_per_space("classify-monotone")
def _chk_classify_monotone(space, rng):
    c = structure.classify(space.states)
    if not c.is_knowledge_space:
        yield "enumerated family not classified as a space"
    if c.is_knowledge_space and not c.is_knowledge_structure:
        yield "space flag without structure flag"
    if c.is_quasi_ordinal and not c.is_knowledge_space:
        yield "quasi-ordinal flag without space flag"
    masks = space.states.masks()
    opens = sorted(masks)
    pairwise = all(a & b in masks for i, a in enumerate(opens) for b in opens[i + 1 :])
    if c.is_quasi_ordinal != pairwise:
        yield "classification disagrees with the intersection test"


@_register("atom-pre-base-of-minimal", audit_only=True)
def _chk_atom_pre_base(spaces, rng):
    """Literal reading: the minimal pre-base is an atom pre-base.

    False whenever two irreducible states are nested, e.g. the family
    containing only {z1} and {z1,z2} besides the trivial members.
    """
    col = _Collector()
    for space in spaces:
        if not structure.is_atom_pre_base(irreducible_states(space), space):
            col.add(space, "minimal pre-base is not an antichain")
    frac = f"{col.total}/{len(spaces)} minimal pre-bases are not atom pre-bases"
    return len(spaces), col.stored, frac


# ---------------------------------------------------------------- operators


@_per_space("closure-axioms")
def _chk_closure_axioms(space, rng):
    """Empty set fixed, extensive, idempotent and monotone: the closure
    table's first failing axiom (`structure._closure_axiom_violation`)."""
    violation = structure._closure_axiom_violation(
        space.universe, operators.closure_table(space)
    )
    if violation is not None:
        yield str(violation)


@_per_space("closure-point-test", cap=CAP_HEAVY)
def _chk_closure_point_test(space, rng):
    """z lies in the closure of A exactly when every open through z meets
    A: the point test against `operators.closure` and the closure table."""
    cl = operators.closure_table(space)
    u = space.universe
    opens = space.states.masks()
    for a in range(u._full + 1):
        miss = 0
        for o in opens:
            if not o & a:
                miss |= o
        point = u._full & ~miss
        if operators.closure(space, ItemSet(u, a)).mask != point or cl[a] != point:
            yield f"point test disagrees at {a:b}"


@_per_space("derived-set-definition", cap=CAP_VERY_HEAVY)
def _chk_derived_set_definition(space, rng):
    u, opens = space.universe, space.states.masks()
    for a in range(u._full + 1):
        if operators.derived_set(space, ItemSet(u, a)).mask != _derived(opens, u._full, a):
            yield f"derived set disagrees at {a:b}"


def _derived(opens: frozenset[int], full: int, a: int) -> int:
    """The derived set of a by its definition over the opens: no z that
    an open through z meets a in nothing or in z alone."""
    d = full
    for o in opens:
        x = o & a
        if x == 0:
            d &= ~o
        elif x & (x - 1) == 0:
            d &= ~x
    return d


@_per_space("closure-derived-union")
def _chk_closure_derived_union(space, rng):
    opens = space.states.masks()
    for a, c in enumerate(operators.closure_table(space)):
        if c != a | _derived(opens, space.universe._full, a):
            yield f"closure != set plus derived set at {a:b}"


@_per_space("closure-union-superadditive", cap=CAP_HEAVY)
def _chk_closure_union_superadditive(space, rng):
    cl = operators.closure_table(space)
    for a, ca in enumerate(cl):
        for b in range(a, len(cl)):
            if (ca | cl[b]) & ~cl[a | b]:
                yield f"union closure too small at {a:b},{b:b}"


@_per_space("boundary-formulas")
def _chk_boundary_formulas(space, rng):
    """cl(a) ∩ cl(Q∖a) is cl(a) minus the base members inside a, and is
    closed; the interior table is the dual of the closure table, so not read."""
    cl = operators.closure_table(space)
    full = space.universe._full
    base = irreducible_states(space).masks()
    for a in range(full + 1):
        bd = cl[a] & cl[full & ~a]
        inside = 0
        for o in base:
            if not o & ~a:
                inside |= o
        if bd != cl[a] & ~inside:
            yield f"boundary formulas split at {a:b}"
        if cl[bd] != bd:
            yield f"boundary not closed at {a:b}"


@_per_space("boundary-formulas", cap=CAP_VERY_HEAVY)
def _chk_boundary_operator(space, rng):
    """`operators.boundary` against the closure-minus-interior route,
    which it does not evaluate, and its complement symmetry."""
    cl, itr = operators.closure_table(space), operators.interior_table(space)
    u = space.universe
    for a in range(u._full + 1):
        got = operators.boundary(space, ItemSet(u, a)).mask
        if got != cl[a] & ~itr[a]:
            yield f"boundary() disagrees at {a:b}"
        comp = operators.boundary(space, ItemSet(u, u._full & ~a)).mask
        if got != comp:
            yield f"boundary not complement-symmetric at {a:b}"


@_per_space("interior-closure-duality")
def _chk_interior_closure_duality(space, rng):
    """`operators.interior` against the dual of the closure table."""
    cl = operators.closure_table(space)
    u = space.universe
    for a in range(u._full + 1):
        if operators.interior(space, ItemSet(u, a)).mask != u._full & ~cl[u._full & ~a]:
            yield f"duality fails at {a:b}"


@_register("boundary-union-subadditivity", audit_only=True)
def _chk_boundary_union_subadditivity(spaces, rng):
    """Boundary of a union inside the union of boundaries: fails in
    general; the audit records how often."""
    col = _Collector()
    capped = spaces[:CAP_VERY_HEAVY]
    pairs = 0
    bad_pairs = 0
    for space in capped:
        cl, itr = operators.closure_table(space), operators.interior_table(space)
        bd = [c & ~i for c, i in zip(cl, itr)]
        hit = False
        for a in range(len(bd)):
            for b in range(a, len(bd)):
                pairs += 1
                if bd[a | b] & ~(bd[a] | bd[b]):
                    bad_pairs += 1
                    if not hit:
                        hit = True
                        col.add(space, f"strict at {a:b},{b:b}")
    summary = f"{bad_pairs}/{pairs} subset pairs violate subadditivity"
    return len(capped), col.stored, summary


@_per_space("fringe-characterizations")
def _chk_fringe_characterizations(space, rng):
    """Inner fringe via the closure of the complement of H minus the
    candidate; outer fringe via the derived set of the complement."""
    cl = operators.closure_table(space)
    full = space.universe._full
    for h in sorted(space.states.masks()):
        rep = operators.fringes(space, ItemSet(space.universe, h))
        inner, outer = rep.inner.mask, rep.outer.mask
        want_inner = 0
        rest = h
        while rest:
            low = rest & -rest
            rest ^= low
            hm = h & ~low
            if not hm & cl[full & ~hm]:
                want_inner |= low
        if inner != want_inner:
            yield f"inner fringe of {h:b} disagrees"
        want_outer = (full & ~h) & ~_derived(space.states.masks(), full, full & ~h)
        if outer != want_outer:
            yield f"outer fringe of {h:b} disagrees"
        rest = outer
        while rest:
            low = rest & -rest
            rest ^= low
            if not space.states.has_mask(h | low):
                yield f"outer fringe item {low:b} does not extend {h:b}"


# --------------------------------------------------------------- separation


def _signatures(space: PreTopology) -> list[int]:
    """Per item, the bitmask over the indices of the opens containing it,
    in numeric order. Direct from the family, independent of the
    separation predicates under audit."""
    sigs = [0] * len(space.universe)
    for i, o in enumerate(sorted(space.states.masks())):
        rest = o
        while rest:
            low = rest & -rest
            rest ^= low
            sigs[low.bit_length() - 1] |= 1 << i
    return sigs


@_per_space("separation-hierarchy")
def _chk_separation_hierarchy(space, rng):
    """T0 against signature distinctness, T1 against the
    bi-discriminative signatures and the inner fringe of the universe;
    the next two passes test T2 and the implication chain of the
    profile flags."""
    sigs = _signatures(space)
    n = len(sigs)
    t0 = len(set(sigs)) == n
    if separation.is_t0(space)[0] != t0:
        yield "T0 disagrees with signature distinctness"
    bi = all(
        sigs[p] & ~sigs[q] and sigs[q] & ~sigs[p]
        for p in range(n)
        for q in range(p + 1, n)
    )
    t1 = separation.is_t1(space)[0]
    if t1 != bi:
        yield "T1 disagrees with bi-discrimination"
    if separation.bi_discriminative_via_fringe(space) != t1:
        yield "fringe route to bi-discrimination disagrees"


@_per_space("separation-hierarchy", cap=CAP_HEAVY)
def _chk_t2_minimal_states(space, rng):
    """T2 against disjoint ⊆-minimal states at the two points."""
    atoms = [order.atoms_at(space, t).masks() for t in space.universe.labels]
    apart = all(
        any(not a & b for a in atoms[p] for b in atoms[q])
        for p in range(len(atoms))
        for q in range(p + 1, len(atoms))
    )
    if separation.is_t2(space)[0] != apart:
        yield "T2 disagrees with disjoint minimal states"


@_per_space("separation-hierarchy", cap=CAP_VERY_HEAVY)
def _chk_separation_chain(space, rng):
    p = separation.separation_profile(space)
    chain = (p.t4, p.t3, p.t2, p.t1, p.t0)
    for hi, lo in zip(chain, chain[1:]):
        if hi and not lo:
            yield "separation hierarchy implication fails"
            break


@_per_space("size-weight-bound", when=_t0)
def _chk_size_weight_bound(space, rng):
    if len(space.states) > 1 << cardinal.weight(space):
        yield "family larger than 2^weight on a T0 space"


@_per_space("locally-closed-uniqueness", cap=CAP_HEAVY, when=_t0)
def _chk_locally_closed_uniqueness(space, rng):
    """On T0 spaces, two opens whose symmetric difference sits inside
    one of their locally-closed fringes and whose fringes agree must
    be equal."""
    opens = sorted(space.states.masks())
    fr = {o: operators._fringe_masks(space, o) for o in opens}
    for a in opens:
        ia, oa = fr[a]
        for b in opens:
            if a == b:
                continue
            ib, ob = fr[b]
            delta = a ^ b
            if delta & ~(ia | oa) and delta & ~(ib | ob):
                continue
            if ia == ib and oa == ob:
                yield f"{a:b} and {b:b} share fringes"


# -------------------------------------------------------------- connectivity


def _covers_for(space: PreTopology, rng: random.Random) -> list[list[int]]:
    full = space.universe._full
    nonzero = sorted(space.states.masks() - {0})
    out = []
    if len(space.universe) <= 3:
        k = len(nonzero)
        for pick in range(1, 1 << k):
            fam = [nonzero[i] for i in range(k) if pick >> i & 1]
            acc = 0
            for m in fam:
                acc |= m
            if acc == full:
                out.append(fam)
        return out
    out.append([m for m in irreducible_states(space).masks() if m])
    out.append(nonzero)
    for m in nonzero:
        if m != full and space.states.has_mask(full & ~m):
            out.append([m, full & ~m])
            if len(out) > 8:
                break
    for _ in range(3):
        shuffled = nonzero[:]
        rng.shuffle(shuffled)
        acc = 0
        fam = []
        for m in shuffled:
            fam.append(m)
            acc |= m
            if acc == full:
                break
        out.append(fam)
    return out


def _cover_chain_connected(fam: list[int], n: int) -> bool:
    """Every pair of items admits a simple chain. Each member absorbs the
    components it meets, so every item lies in the one component of the
    members that hold it, and every pair of items shares a component iff
    one component is the whole universe."""
    comps: list[int] = []
    for b in fam:
        met = [c for c in comps if c & b]
        comps = [c for c in comps if not c & b]
        comps.append(functools.reduce(int.__or__, met, b))
    return (1 << n) - 1 in comps


@_per_space("chain-connected-iff-connected")
def _chk_chain_connected_iff_connected(space, rng):
    conn = connectivity.is_connected(space)
    n = len(space.universe)
    chain = all(_cover_chain_connected(fam, n) for fam in _covers_for(space, rng))
    if conn != chain:
        yield f"connected={conn} but chain-connected={chain}"


@_per_space("chain-connected-iff-connected", cap=200)
def _chk_cover_components(space, rng):
    """The component route of `_cover_chain_connected` against a chain
    search for every item pair."""
    labels = space.universe.labels
    for fam in _covers_for(space, rng)[:2]:
        family = SetFamily.from_masks(space.universe, fam)
        fast = _cover_chain_connected(fam, len(labels))
        slow = all(
            connectivity.find_simple_chain(space, family, x, y) is not None
            for x in labels
            for y in labels
            if x < y
        )
        if fast != slow:
            yield "component route disagrees with chain search"


@_per_space("tight1-iff-well-graded")
def _chk_tight1_iff_well_graded(space, rng):
    tight1 = connectivity.is_tight_n_connected(space, 1)
    graded = _one_step_graded(space)
    if tight1 != graded:
        yield f"tight-1={tight1} well-graded={graded}"


@_per_space("tight1-iff-well-graded", cap=CAP_VERY_HEAVY)
def _chk_well_graded_path_lengths(space, rng):
    if connectivity.is_well_graded(space.states) != _one_step_graded(space):
        yield "one-step form disagrees with path lengths"


def _one_step_graded(space: PreTopology) -> bool:
    """Well-gradedness in one-step-descent form: every pair of states
    admits a state one toggled differing item closer; chains then
    compose."""
    opens = space.states.masks()
    for k in opens:
        for h in opens:
            rest = k ^ h
            while rest and k ^ (rest & -rest) not in opens:
                rest &= rest - 1
            if k != h and not rest:
                return False
    return True


@_per_space("tight1-equivalences")
def _chk_tight1_equivalences(space, rng):
    """The chain form agrees with the rigidity form: no two distinct
    opens U and W have the inner fringe of U inside W and its outer
    fringe outside W. The fringes, fr[u] the items whose toggle keeps u
    open, are read from the states and not from the fringe kernel that
    `is_tight_n_connected` evaluates, so a wrong kernel shows."""
    opens = space.states.masks()
    bits = [1 << i for i in range(len(space.universe))]
    fr = {u: sum(b for b in bits if u ^ b in opens) for u in opens}
    rigid = not any(
        u != w and not fr[u] & u & ~w and not fr[u] & ~u & w
        for u in opens
        for w in opens
    )
    tight1 = connectivity.is_tight_n_connected(space, 1)
    if tight1 != rigid:
        yield f"tight1={tight1} rigidity={rigid}"


# --------------------------------------------------------------------- order


@_register("quasi-order-round-trip")
def _chk_quasi_order_round_trip(spaces, rng):
    """Every open is a down-set of the specialization order; the
    Alexandroff family it generates equals the original exactly when
    the original is quasi-ordinal."""
    col = _Collector()
    n = len(spaces[0].universe) if spaces else 3
    for space in spaces:
        sigs = _signatures(space)
        up = tuple(
            sum(1 << y for y in range(len(sigs)) if not sigs[y] & ~sigs[x])
            for x in range(len(sigs))
        )
        spec = order.QuasiOrder(space.universe, up)
        back = order.from_quasi_order(spec)
        masks = back.states.masks()
        if not space.states.masks() <= masks:
            col.add(space, "an open set is not a down-set of the specialization order")
        if order.is_quasi_ordinal(space) != (masks == space.states.masks()):
            col.add(space, "Alexandroff fixed point disagrees with quasi-ordinality")
        if order.is_quasi_ordinal(space):
            qo = order.to_quasi_order(space)
            if qo.up != up:
                col.add(space, "specialization order disagrees with the intersection route")
            if order.from_quasi_order(qo).states.masks() != space.states.masks():
                col.add(space, "quasi-ordinal space does not round trip")
    checked = len(spaces)
    for qo in sample_quasi_orders(n, 40, rng.randrange(1 << 30)):
        checked += 1
        back = order.to_quasi_order(order.from_quasi_order(qo))
        if back.up != qo.up:
            col.add(json.dumps(qo.to_obj()), "quasi-order round trip changed the order")
    return checked, col.stored, None


@_register("alexandroff-equality")
def _chk_alexandroff_equality(spaces, rng):
    """Two quasi-ordinal families coincide exactly when the inclusion
    order of their per-item open systems is the same relation."""
    col = _Collector()
    qos = [space for space in spaces if order.is_quasi_ordinal(space)]
    pairs = [(a, b) for i, a in enumerate(qos) for b in qos[i:]]
    if len(pairs) > CAP_HEAVY:
        pairs = rng.sample(pairs, CAP_HEAVY)
    for a, b in pairs:
        sa, sb = _signatures(a), _signatures(b)
        same_rel = all(
            (sa[p] & ~sa[q] == 0) == (sb[p] & ~sb[q] == 0)
            for p in range(len(sa))
            for q in range(len(sa))
        )
        same_fam = a.states.masks() == b.states.masks()
        if same_rel != same_fam:
            col.add(a, f"versus {_ser(b)}")
    return len(pairs), col.stored, None


@_per_space(
    "bi-discriminative-quasi-ordinal-powerset",
    when=lambda space: order.is_quasi_ordinal(space) and separation.is_t1(space)[0],
)
def _chk_bi_discriminative_powerset(space, rng):
    if len(space.states) != 1 << len(space.universe):
        yield "bi-discriminative quasi-ordinal family is not the powerset"


@_per_space("quasi-ordinal-regularity", when=order.is_quasi_ordinal)
def _chk_quasi_ordinal_regularity(space, rng):
    reg = separation.is_regular_property(space)[0]
    via_m = all(
        space.states.has_mask(
            space.universe._full & ~order.minimal_state(space, t).mask
        )
        for t in space.universe.labels
    )
    if reg != via_m:
        yield "regularity disagrees with open complements of minimal states"


@_per_space(
    "ordinal-connectivity", when=lambda space: order.is_quasi_ordinal(space) and _t0(space)
)
def _chk_ordinal_connectivity(space, rng):
    if connectivity.is_connected(space) != order.m_graph_connected(space):
        yield "connectivity disagrees with the minimal-state graph"


@_per_space(
    "t0-quasi-ordinal-antimatroid-tight1",
    when=lambda space: order.is_quasi_ordinal(space) and _t0(space),
)
def _chk_t0_quasi_ordinal_antimatroid(space, rng):
    if not order.is_antimatroid(space):
        yield "T0 quasi-ordinal space is not an antimatroid"
    if not connectivity.is_tight_n_connected(space, 1):
        yield "T0 quasi-ordinal space is not tight 1-connected"


@_per_space("regular-atom-complement", cap=CAP_HEAVY, when=_regular)
def _chk_regular_atom_complement(space, rng):
    """In regular spaces a state is either co-open or not an atom at
    any of its items; likewise one step above an open set."""
    atom_masks = {
        t: {a.mask for a in order.atoms_at(space, t).members}
        for t in space.universe.labels
    }
    full = space.universe._full
    opens = sorted(space.states.masks())
    for o in opens:
        rest = o
        while rest:
            low = rest & -rest
            rest ^= low
            t = space.universe.labels[low.bit_length() - 1]
            if not space.states.has_mask(full & ~o) and o in atom_masks[t]:
                yield f"atom {o:b} at {t} with closed complement missing"
    for k in opens:
        rest = operators._fringe_masks(space, k)[1]
        while rest:
            low = rest & -rest
            rest ^= low
            t = space.universe.labels[low.bit_length() - 1]
            ell = k | low
            if not space.states.has_mask(full & ~ell) and ell in atom_masks[t]:
                yield f"outer-fringe extension {ell:b} at {t} fails"


@_per_space(
    "granular-regular-disconnected",
    cap=CAP_HEAVY,
    when=lambda space: len(space.universe) >= 2
    and separation.is_t1(space)[0]
    and _regular(space),
)
def _chk_granular_regular_disconnected(space, rng):
    if connectivity.is_connected(space):
        yield "granular regular bi-discriminative space is connected"


@_per_space(
    "quasi-ordinal-regular-normal",
    when=lambda space: order.is_quasi_ordinal(space) and _regular(space),
)
def _chk_quasi_ordinal_regular_normal(space, rng):
    if not separation.is_normal_property(space)[0]:
        yield "regular quasi-ordinal space is not normal"


@_per_space("reduction-pre-quotient", cap=CAP_HEAVY)
def _chk_reduction_pre_quotient(space, rng):
    red = order.discriminative_reduction(space)
    if not separation.is_t0(red.reduced)[0]:
        yield "reduction is not discriminative"
    if not structure.classify(red.reduced.states).is_knowledge_space:
        yield "reduction is not a space"
    if not maps.is_pre_quotient(red.projection, space, red.reduced):
        yield "reduction projection is not a pre-quotient"


# ---------------------------------------------------------------------- maps


def _random_partition(u: Universe, rng: random.Random) -> list[ItemSet]:
    labels = list(u.labels)
    rng.shuffle(labels)
    k = rng.randint(1, len(labels))
    blocks: list[list[str]] = [[] for _ in range(k)]
    for i, label in enumerate(labels):
        blocks[i % k].append(label)
    return [u.subset(b) for b in blocks if b]


@_per_space("subspace-pre-base-trace", cap=CAP_HEAVY)
def _chk_subspace_pre_base_trace(space, rng):
    """Traces of a pre-base generate the subspace. Unit: (space, subset)
    pairs."""
    u = space.universe
    for _ in range(2):
        ymask = rng.randint(1, u._full)
        sub = maps.subspace(space, ItemSet(u, ymask))
        inc = maps._inclusion(sub, space)
        base = irreducible_states(space).masks()
        trace = SetFamily.from_masks(sub.universe, {inc.preimage_mask(b) for b in base})
        if not is_pre_base_for(trace, sub):
            yield f"trace of the minimal pre-base on {ymask:b} fails"
    return 2


@_per_space("subspace-closed-trace", cap=CAP_VERY_HEAVY)
def _chk_subspace_closed_trace(space, rng):
    """Closure inside a subspace is the trace of the parent closure;
    inside a closed subspace, closed means closed in the parent. Unit:
    (space, subset) pairs, two random subsets and one closed one, which
    always exists: the complement of the empty open is the universe."""
    cl = operators.closure_table(space)
    u = space.universe
    for _ in range(2):
        ymask = rng.randint(1, u._full)
        sub = maps.subspace(space, ItemSet(u, ymask))
        inc = maps._inclusion(sub, space)
        for fsub in range(1 << len(sub.universe)):
            got = operators.closure(sub, ItemSet(sub.universe, fsub)).mask
            if got != inc.preimage_mask(cl[inc.image_mask(fsub)]):
                yield f"closure trace fails on {ymask:b} at {fsub:b}"
                break
    ymask = rng.choice([u._full & ~o for o in sorted(space.states.masks()) if o != u._full])
    sub = maps.subspace(space, ItemSet(u, ymask))
    inc = maps._inclusion(sub, space)
    subfull = (1 << len(sub.universe)) - 1
    for asub in range(subfull + 1):
        in_sub = sub.states.has_mask(subfull & ~asub)
        in_parent = space.states.has_mask(u._full & ~inc.image_mask(asub))
        if in_sub != in_parent:
            yield f"closed-in-closed fails on {ymask:b} at {asub:b}"
            break
    return 3


@_register("map-composition")
def _chk_map_composition(spaces, rng):
    """Continuity composes and is pointwise; quotient projections
    compose to quotients; a quotient map factors continuity and
    quotients through itself."""
    col = _Collector()
    checked = 0
    for _ in range(min(300, 3 * len(spaces))):
        x, y, z = rng.choice(spaces), rng.choice(spaces), rng.choice(spaces)
        f = _random_map(x.universe, y.universe, rng)
        g = _random_map(y.universe, z.universe, rng)
        cf = maps.is_pre_continuous(f, x, y)
        pointwise = all(
            maps.is_pre_continuous_at(f, x, y, p)
            for p in x.universe.labels
        )
        checked += 1
        if cf != pointwise:
            col.add(x, "pointwise continuity disagrees with continuity")
        if cf and maps.is_pre_continuous(g, y, z):
            if not maps.is_pre_continuous(f.then(g), x, z):
                col.add(x, "composition of continuous maps fails")
    for _ in range(min(120, 2 * len(spaces))):
        x = rng.choice(spaces)
        cls1 = _random_partition(x.universe, rng)
        q1 = maps.quotient(x, cls1)
        p1 = maps.quotient_projection(x, cls1)
        cls2 = _random_partition(q1.universe, rng)
        q2 = maps.quotient(q1, cls2)
        p2 = maps.quotient_projection(q1, cls2)
        comp = p1.then(p2)
        checked += 1
        if not maps.is_pre_quotient(comp, x, q2):
            col.add(x, "quotient projections do not compose to a quotient")
        k = rng.randint(1, max(1, len(x.universe) - 1))
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(k)]), rng
        )
        g = _random_map(q2.universe, target.universe, rng)
        through = maps.is_pre_continuous(comp.then(g), x, target)
        direct = maps.is_pre_continuous(g, q2, target)
        if through != direct:
            col.add(x, "factoring continuity through a quotient fails")
        onto = g.image_mask((1 << len(q2.universe)) - 1) == (1 << len(target.universe)) - 1
        if onto:
            tq = maps.is_pre_quotient(comp.then(g), x, target)
            dq = maps.is_pre_quotient(g, q2, target)
            if tq != dq:
                col.add(x, "factoring quotients through a quotient fails")
    return checked, col.stored, None


@_register("continuous-open-closed-quotient")
def _chk_continuous_open_closed_quotient(spaces, rng):
    col = _Collector()
    checked = 0
    for _ in range(min(300, 3 * len(spaces))):
        x = rng.choice(spaces)
        cls = _random_partition(x.universe, rng)
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(len(cls))]), rng
        )
        assign = {}
        for i, c in enumerate(cls):
            for label in c.labels:
                assign[label] = f"w{i + 1}"
        f = maps.PointMap(x.universe, target.universe, assign)
        checked += 1
        if maps.is_pre_continuous(f, x, target) and (
            maps.is_pre_open(f, x, target)
            or maps.is_pre_closed(f, x, target)
        ):
            if not maps.is_pre_quotient(f, x, target):
                col.add(x, "continuous open/closed surjection is not a quotient")
    return checked, col.stored, None


@_register("pre-continuous-bijection-equivalences")
def _chk_bijection_equivalences(spaces, rng):
    col = _Collector()
    checked = 0
    for _ in range(min(400, 4 * len(spaces))):
        x, y = rng.choice(spaces), rng.choice(spaces)
        u = x.universe
        perm = list(u.labels)
        rng.shuffle(perm)
        f = maps.PointMap(u, u, dict(zip(u.labels, perm)))
        if not maps.is_pre_continuous(f, x, y):
            continue
        checked += 1
        homeo = maps.is_pre_continuous(f.inverse(), y, x)
        po = maps.is_pre_open(f, x, y)
        pc = maps.is_pre_closed(f, x, y)
        pq = maps.is_pre_quotient(f, x, y)
        if not (homeo == po == pc == pq):
            col.add(
                x,
                f"bijection flags diverge: homeo={homeo} open={po} closed={pc} quotient={pq}",
            )
    return checked, col.stored, None


@_register("partial-pasting")
def _chk_partial_pasting(spaces, rng):
    """Closed pieces covering the domain, each closed preimage inside
    one piece, restrictions continuous: then the whole map is."""
    col = _Collector()
    checked = 0
    for _ in range(min(400, 4 * len(spaces))):
        space = rng.choice(spaces)
        u = space.universe
        closed = [u._full & ~o for o in sorted(space.states.masks())]
        c = rng.choice([c for c in closed if c])
        d = rng.choice([d for d in closed if d and (c | d) == u._full])
        k = rng.randint(1, max(1, len(u) - 1))
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(k)]), rng
        )
        h = _random_map(space.universe, target.universe, rng)
        tfull = (1 << k) - 1
        hyp = True
        for w in target.states.masks():
            pre = h.preimage_mask(tfull & ~w)
            if pre & ~c and pre & ~d:
                hyp = False
                break
        if not hyp:
            continue
        subc = maps.subspace(space, ItemSet(u, c))
        subd = maps.subspace(space, ItemSet(u, d))
        hc = maps._inclusion(subc, space).then(h)
        hd = maps._inclusion(subd, space).then(h)
        if not (
            maps.is_pre_continuous(hc, subc, target)
            and maps.is_pre_continuous(hd, subd, target)
        ):
            continue
        checked += 1
        if not maps.is_pre_continuous(h, space, target):
            col.add(space, f"pasting over {c:b} and {d:b} fails")
    return checked, col.stored, None


@_register("product-of-maps")
def _chk_product_of_maps(spaces, rng):
    """A continuous map h: B → X1 × X2 has continuous coordinates h1, h2,
    and continuous coordinates make h continuous when B is quasi-ordinal.
    Without that, the preimage h1⁻¹(U1) ∩ h2⁻¹(U2) of a box need not be
    open, as for the diagonal of B = {∅, ab, bc, abc} into B × B."""
    if not spaces or len(spaces[0].universe) > 3:
        return 0, [], "skipped beyond 3 items per factor"
    col = _Collector()
    checked = 0
    for _ in range(min(150, 2 * len(spaces))):
        x1, x2, b = rng.choice(spaces), rng.choice(spaces), rng.choice(spaces)
        prod = maps.product([x1, x2])
        h1 = _random_map(b.universe, x1.universe, rng)
        h2 = _random_map(b.universe, x2.universe, rng)
        checked += 1
        for witness in _product_of_maps_findings(b, x1, x2, prod, h1, h2):
            col.add(b, witness)
    return checked, col.stored, None


def _product_of_maps_findings(b, x1, x2, prod, h1, h2) -> Iterator[str]:
    """The two statements of `product-of-maps` on the map from the space
    b with coordinates h1 and h2 into prod, the product of x1 and x2."""
    h = maps.PointMap(
        b.universe,
        prod.universe,
        {label: f"({h1(label)},{h2(label)})" for label in b.universe.labels},
    )
    joint = maps.is_pre_continuous(h, b, prod)
    split = maps.is_pre_continuous(h1, b, x1) and maps.is_pre_continuous(h2, b, x2)
    if joint and not split:
        yield "continuous map with a discontinuous coordinate"
    if split and not joint and order.is_quasi_ordinal(b):
        yield "continuous coordinates on a quasi-ordinal domain, map not continuous"


@_register("product-closure-law")
def _chk_product_closure_law(spaces, rng):
    if not spaces or len(spaces[0].universe) > 3:
        return 0, [], "skipped beyond 3 items per factor"
    col = _Collector()
    checked = 0
    for _ in range(min(100, len(spaces))):
        v1, v2 = rng.choice(spaces), rng.choice(spaces)
        prod = maps.product([v1, v2])
        sizes = (len(v1.universe), len(v2.universe))
        checked += 1
        for _ in range(3):
            a1 = ItemSet(v1.universe, rng.randint(0, v1.universe._full))
            a2 = ItemSet(v2.universe, rng.randint(0, v2.universe._full))
            box = ItemSet(prod.universe, maps._box(sizes, (a1.mask, a2.mask)))
            got = operators.closure(prod, box).mask
            want = maps._box(
                sizes, (operators.closure(v1, a1).mask, operators.closure(v2, a2).mask)
            )
            if got != want:
                col.add(v1, f"with {_ser(v2)}: closure of a box is not the box of closures")
    return checked, col.stored, None


@_per_space("quotient-finest", cap=CAP_HEAVY)
def _chk_quotient_finest(space, rng):
    cls = _random_partition(space.universe, rng)
    q = maps.quotient(space, cls)
    proj = maps.quotient_projection(space, cls)
    if not maps.is_pre_quotient(proj, space, q):
        yield "projection onto the quotient is not a quotient"
    qfull = (1 << len(q.universe)) - 1
    for w in range(qfull + 1):
        if space.states.has_mask(proj.preimage_mask(w)) != q.states.has_mask(w):
            yield "quotient family is not the open-preimage family"
            break


# -------------------------------------------------------------------- skills


# The skill checks read their reports from one `run_skills_suite` sweep;
# `checked` counts multimaps. What each audits:
# - p-monotone-union: p grows with the skill set, p of a union of minimal
#   competencies holds the p's of its members, and equals their union
#   under the star condition;
# - delineation-theorem-agree: the two routes of `is_delineated_space`
#   agree, and the delineated family is p over every skill set;
# - star-implies-space: the star condition makes the delineated family a
#   knowledge space;
# - cd-thm-agrees: the competency route to complete discrimination agrees
#   with the delineated family's disjoint states.
_SKILLS_IDS = (
    "p-monotone-union",
    "delineation-theorem-agree",
    "star-implies-space",
    "cd-thm-agrees",
)
_REGISTRY.update((ident, _Check(ident)) for ident in _SKILLS_IDS)


def run_skills_suite(
    max_items: int = 2, max_skills: int = 2, max_comps: int = 2
) -> dict[str, _RunResult]:
    """One sweep over every multimap up to the given sizes, shared by the
    four skill checks; `checked` counts multimaps.

    The sweep reads masks from `_mask_multimaps` and calls the mask
    kernels of `skills`, so a `SkillMultimap` is built only for a stored
    witness. p(R) depends only on the minimal competencies inside R, so
    every check but the star condition is fixed by the profile: each
    item's minimal competencies. Within one block of item and skill
    counts, every pool-free check runs once per distinct profile
    (`_profile_findings`) and `_star` once per multimap, whose findings
    are then replayed in the order of a per-multimap run. p is evaluated
    by its kernel on every skill set of every distinct profile, so the
    monotonicity checks test p itself, not a table built to be monotone.
    """
    cols = {ident: _Collector() for ident in _SKILLS_IDS}
    checked = 0
    for qn in range(1, max_items + 1):
        for sn in range(1, max_skills + 1):
            # each skill set r and a skill low outside it
            steps = [
                (r, 1 << i) for r in range(1 << sn) for i in range(sn) if not r >> i & 1
            ]
            # the findings of each profile met in this block; they read sn,
            # so the table is not shared across blocks
            profiles: dict[tuple[_Masks, ...], _Findings] = {}
            for comps, mins, pool, min_pool in _mask_multimaps(qn, sn, max_comps):
                checked += 1
                found = profiles.get(mins)
                if found is None:
                    found = profiles[mins] = _profile_findings(mins, min_pool, qn, sn, steps)
                space, findings, unpooled = found
                star = skills._star(pool, mins)
                # without the star condition only the unpooled findings count
                if not (unpooled or star and (findings or not space)):
                    continue
                ser = functools.partial(_multimap_ser, comps, sn)
                for ident, pooled, witness in findings:
                    if star or not pooled:
                        cols[ident].add(ser, witness)
                if star and not space:
                    cols["star-implies-space"].add(
                        ser, "pooling condition without a delineated space"
                    )
    return {ident: (checked, cols[ident].stored, None) for ident in _SKILLS_IDS}


# Whether the delineated family is a space, the pool-free violations of a
# profile in the order a per-multimap run finds them, each as (check,
# pooled, witness) with pooled set when it counts only under the star
# condition, and whether any of them is not pooled.
_Findings = tuple[bool, tuple[tuple[str, bool, str], ...], bool]


def _profile_findings(
    mins: tuple[_Masks, ...],
    min_pool: _Masks,
    qn: int,
    sn: int,
    steps: list[tuple[int, int]],
) -> _Findings:
    """Every skill check that does not read the competency pool, on the
    minimal competencies of qn items over sn skills, and the minimal pool."""
    out: list[tuple[str, bool, str]] = []
    # one delineation serves the family and both report routes
    holders = skills._holders(mins)
    family = skills._delineated_masks(holders)
    rep = skills._delineation_report(holders, family, qn)
    if not rep.agree:
        out.append((
            "delineation-theorem-agree", False,
            f"direct={rep.space} characterization={rep.via_characterization}",
        ))
    p = [skills._p(mins, r) for r in range(1 << sn)]
    if set(p) != family:
        out.append((
            "delineation-theorem-agree", False, "delineate differs from p over every skill set"
        ))
    for r, low in steps:
        if p[r] & ~p[r | low]:
            out.append(("p-monotone-union", False, f"p not monotone at {r:b}+{low:b}"))
    # the union of each pick of the minimal pool, and the union of the p's
    # of its members, from the pick without its lowest member
    unions = [0] * (1 << len(min_pool))
    ups = [0] * (1 << len(min_pool))
    for pick in range(1, 1 << len(min_pool)):
        low = pick & -pick
        c = min_pool[low.bit_length() - 1]
        union = unions[pick] = unions[pick ^ low] | c
        up = ups[pick] = ups[pick ^ low] | p[c]
        if up & ~p[union]:
            out.append(("p-monotone-union", False, f"union lower bound fails at {pick:b}"))
        if p[union] != up:
            out.append((
                "p-monotone-union", True, f"union equality under pooling fails at {pick:b}"
            ))
    via = skills._refinement_route(mins)
    # items a < b lie in disjoint states iff b is in some state disjoint
    # from a state through a: b in apart[a], where apart[a] is the union
    # over the states h through a of the states disjoint from h
    apart = [0] * qn
    for h in family:
        away = 0
        for other in family:
            if not h & other:
                away |= other
        for a in range(qn):
            if h >> a & 1:
                apart[a] |= away
    # every_item & -(2 << a): the items above a
    every_item = (1 << qn) - 1
    direct = all(every_item & -(2 << a) & ~apart[a] == 0 for a in range(qn))
    if via != direct:
        out.append(("cd-thm-agrees", False, f"competency route={via} direct={direct}"))
    return rep.space, tuple(out), any(not pooled for _, pooled, _ in out)


def _multimap_ser(comps: tuple[_Masks, ...], n_skills: int) -> str:
    """The JSON witness of a multimap, made only when a violation is kept."""
    return json.dumps(_multimap(comps, n_skills).to_obj(), separators=(",", ":"))


# ------------------------------------------------------------------ cardinal


@_per_space("density-exact-minimal", cap=CAP_HEAVY)
def _chk_density_exact_minimal(space, rng):
    """The exact answer is dense, minimum, and the least such set in
    the canonical subset order."""
    k, dset = cardinal.density_exact(space)
    blocks = [b for b in irreducible_states(space).masks() if b]
    if not all(dset.mask & b for b in blocks):
        yield "exact answer is not dense"
    if not operators.is_dense(space, dset):
        yield "is_dense rejects the exact answer"
    first = None
    for size in range(k + 1):
        for combo in itertools.combinations(range(len(space.universe)), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(mask & b for b in blocks):
                first = (size, mask)
                break
        if first:
            break
    if first != (k, dset.mask):
        yield f"exact density {k} is not the least optimum"


@_per_space("primary-items-dense", cap=CAP_HEAVY)
def _chk_primary_items_dense(space, rng):
    blocks = [b for b in irreducible_states(space).masks() if b]
    tr = cardinal.greedy_primary_items(space)
    dm, _ = cardinal.matrix_primary_items(irreducible_states(space))
    for name, got in (("greedy", tr.result), ("matrix", dm)):
        if not all(got.mask & b for b in blocks):
            yield f"{name} output is not dense"


@_register("greedy-matrix-dense-gap", audit_only=True)
def _chk_greedy_matrix_gap(spaces, rng):
    """Greedy and matrix runs against the exact optimum; gaps are a
    known possibility, recorded as a distribution."""
    col = _Collector()
    capped = spaces[:CAP_HEAVY]
    hist: dict[str, int] = {}
    for space in capped:
        k, _ = cardinal.density_exact(space)
        tr = cardinal.greedy_primary_items(space)
        dm, _ = cardinal.matrix_primary_items(irreducible_states(space))
        g_gap = len(tr.result.labels) - k
        m_gap = len(dm.labels) - k
        key = f"greedy+{g_gap} matrix+{m_gap}"
        hist[key] = hist.get(key, 0) + 1
        if g_gap or m_gap:
            col.add(space, f"greedy={len(tr.result.labels)} matrix={len(dm.labels)} exact={k}")
    summary = "gap distribution: " + "; ".join(
        f"{key}: {cnt}" for key, cnt in sorted(hist.items())
    )
    return len(capped), col.stored, summary


@_per_space("dense-ge-cellularity")
def _chk_dense_ge_cellularity(space, rng):
    k, _ = cardinal.density_exact(space)
    c = cardinal.cellularity(space)
    if k < c:
        yield f"density {k} below cellularity {c}"


@_per_space(
    "hausdorff-trace-density-bound",
    cap=CAP_HEAVY,
    when=lambda space: separation.is_t2(space)[0],
)
def _chk_hausdorff_trace_density_bound(space, rng):
    """Complete discrimination plus a dense set whose trace preserves
    state closures caps the universe by a double exponential."""
    k, dset = cardinal.density_exact(space)
    cl = operators.closure_table(space)
    if not all(cl[h & dset.mask] == cl[h] for h in space.states.masks()):
        return 0
    if len(space.universe) > 1 << (1 << k):
        yield f"universe exceeds the bound at density {k}"


@_per_space("block-disjointness", cap=CAP_HEAVY)
def _chk_block_disjointness(space, rng):
    """Items hit by the maximum number of members of a subfamily have
    pairwise equal or disjoint intersections of their members. Unit:
    sub-families."""
    n = len(space.universe)
    nonzero = sorted(space.states.masks() - {0})
    for _ in range(3):
        fam = rng.sample(nonzero, rng.randint(1, min(6, len(nonzero))))
        counts = [0] * n
        for m in fam:
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                counts[low.bit_length() - 1] += 1
        best = max(counts)
        inters = []
        for i in range(n):
            if counts[i] == best:
                inter = space.universe._full
                for m in fam:
                    if m >> i & 1:
                        inter &= m
                inters.append(inter)
        for a in range(len(inters)):
            for b in range(a + 1, len(inters)):
                if inters[a] != inters[b] and inters[a] & inters[b]:
                    yield "maximum-count intersections overlap partially"
    return 3


@_register("cover-dense-subfamily")
def _chk_cover_dense_subfamily(spaces, rng):
    """Every open cover has at most cellularity-many members whose
    union is dense. Checked by sweep; kept to small universes."""
    if not spaces or len(spaces[0].universe) > 4:
        return 0, [], "skipped beyond 4 items"
    col = _Collector()
    checked = 0
    for space in spaces if len(spaces[0].universe) <= 3 else spaces[:300]:
        c = cardinal.cellularity(space)
        cl = operators.closure_table(space)
        for fam in _covers_for(space, rng):
            checked += 1
            found = False
            for size in range(1, min(c, len(fam)) + 1):
                for combo in itertools.combinations(fam, size):
                    acc = 0
                    for m in combo:
                        acc |= m
                    if cl[acc] == space.universe._full:
                        found = True
                        break
                if found:
                    break
            if not found:
                col.add(space, f"no dense subfamily of size {c} in a {len(fam)}-member cover")
    return checked, col.stored, None
