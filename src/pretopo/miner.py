"""Exhaustive small-universe enumeration and automated theorem audits.

Enumerates every union-closed family on small universes (and seeded
random families on slightly larger ones), then runs a registry of
checks, one per documented claim, reporting counterexamples instead of
raising. Claims the library does not assert (the literal atom-pre-base
reading, greedy optimality, boundary-union subadditivity) run in
audit-only mode: their reports carry witnesses and frequencies without
a pass/fail verdict.

A check that tests one space at a time is a step: a generator
`test(v, rng)` registered with `_per_space(ident, cap, when)`. It yields
a witness for each violation on that view and may `return` the units it
checked there; returning nothing counts the space once. A second
`_per_space` on the same id adds a pass to the check. `audit` alone
walks the views for the steps: it runs the passes in registration
order, each over its deterministic prefix `views[:cap]` (for heavy
checks), skips the views outside a pass's hypothesis `when` and
collects the witnesses. `checked` adds up the units of the first pass;
later passes re-examine a prefix of the same spaces and count nothing.
The checks that need the whole list register a runner with `_register`:
those that sample across spaces, run at the level of the universe, or
write a summary or skip with a message after the loop. The four skill
checks read their reports from one multimap sweep, `run_skills_suite`.

Fast in-loop formulas are tied back to the public operators by
dedicated definition checks so the audited statements always rest on
library behaviour.
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
    union_closure_masks,
)
from .errors import PretopoError
from .skills import SkillMultimap

MAX_EXHAUSTIVE = 4
MAX_SAMPLED = 6
DEFAULT_SAMPLES = 2000
MAX_STORED = 20

# checks that would dominate the sampled sweeps run on deterministic
# prefixes of this many spaces; exhaustive runs are never truncated
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

    def add(self, space_ser: str | Callable[[], str], witness: str) -> None:
        """Count a violation; a callable space_ser is called only when
        the violation is stored."""
        self.total += 1
        if len(self.stored) < MAX_STORED:
            if callable(space_ser):
                space_ser = space_ser()
            self.stored.append((space_ser, witness))


class _View:
    """One enumerated space with lazily shared tables.

    The closure and interior tables are built with the public
    operators; the derived-set table uses an in-place rewriting of the
    definition for speed and is reconciled with the public function by
    the derived-set-definition check.
    """

    __slots__ = (
        "space", "n", "full", "opens",
        "_cl", "_itr", "_der", "_fr", "_ser", "_wg", "_tight1",
    )

    def __init__(self, space: PreTopology):
        self.space = space
        self.n = len(space.universe)
        self.full = (1 << self.n) - 1
        self.opens = sorted(space.states.masks())
        self._cl = None
        self._itr = None
        self._der = None
        self._fr = None
        self._ser = None
        self._wg = None
        self._tight1 = None

    def item(self, mask: int) -> ItemSet:
        return ItemSet(self.space.universe, mask)

    def ser(self) -> str:
        if self._ser is None:
            self._ser = json.dumps(self.space.to_obj(), separators=(",", ":"))
        return self._ser

    def cl(self) -> list[int]:
        if self._cl is None:
            sp = self.space
            self._cl = [
                operators.closure(sp, self.item(a)).mask
                for a in range(self.full + 1)
            ]
        return self._cl

    def itr(self) -> list[int]:
        if self._itr is None:
            sp = self.space
            self._itr = [
                operators.interior(sp, self.item(a)).mask
                for a in range(self.full + 1)
            ]
        return self._itr

    def der(self) -> list[int]:
        if self._der is None:
            table = []
            for a in range(self.full + 1):
                d = self.full
                for o in self.opens:
                    x = o & a
                    if x == 0:
                        d &= ~o
                    elif x & (x - 1) == 0:
                        d &= ~x
                table.append(d)
            self._der = table
        return self._der

    def fr(self) -> dict[int, tuple[int, int]]:
        if self._fr is None:
            sp = self.space
            out = {}
            for o in self.opens:
                rep = operators.fringes(sp, self.item(o))
                out[o] = (rep.inner.mask, rep.outer.mask)
            self._fr = out
        return self._fr

    def well_graded(self) -> bool:
        """One-step-descent form: every pair of states admits a state
        one toggled differing item closer; chains then compose."""
        if self._wg is None:
            has = self.space.states.has_mask
            ok = True
            for k in self.opens:
                for h in self.opens:
                    delta = k ^ h
                    if not delta:
                        continue
                    rest = delta
                    step = False
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        if has(k ^ low):
                            step = True
                            break
                    if not step:
                        ok = False
                        break
                if not ok:
                    break
            self._wg = ok
        return self._wg

    def tight1(self) -> bool:
        if self._tight1 is None:
            self._tight1 = connectivity.is_tight_n_connected(self.space, 1)
        return self._tight1


_RunResult = tuple[int, list[tuple[str, str]], str | None]
_Runner = Callable[[list[_View], random.Random], _RunResult]
# a step yields the witnesses it finds on one view and may return its units
_Test = Callable[[_View, random.Random], Generator[str, None, int | None]]
# a pass: a step, the prefix `views[:cap]` it reads and its hypothesis
_Pass = tuple[_Test, int | None, Callable[[_View], bool] | None]


@dataclass(frozen=True)
class _Check:
    """A registered check: passes of steps driven by `audit`; a runner
    over every view; or neither, for a skill check read from the
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
    ident: str, cap: int | None = None, when: Callable[[_View], bool] | None = None
):
    """Register a check that tests each space on its own, or add a pass
    to one registered so.

    The decorated step `test(v, rng)` yields a witness for each violation
    it finds on one view. It may `return` the number of units it checked
    there; returning nothing counts the space once. `audit` drives the
    step over the prefix `views[:cap]` (every view when cap is None) and
    skips a view outside the hypothesis, where `when(v)` is false. The
    passes of one id run in registration order, and `checked` counts the
    units of the first pass only.
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


def _walk(chk: _Check, views: list[_View], rng: random.Random) -> _RunResult:
    """Drive the passes of a check over their views: store each witness
    with its space, and add up the units the first pass returns."""
    col = _Collector()
    units = []
    for test, cap, when in chk.passes:
        checked = 0
        for v in views[:cap]:
            if when is None or when(v):
                witnesses = test(v, rng)
                try:
                    while True:
                        col.add(v.ser, next(witnesses))
                except StopIteration as done:
                    checked += 1 if done.value is None else done.value
        units.append(checked)
    return units[0], col.stored, None


def _t0(v: _View) -> bool:
    return separation.is_t0(v.space)[0]


def _quasi_ordinal(v: _View) -> bool:
    return order.is_quasi_ordinal(v.space)


def _regular(v: _View) -> bool:
    return separation.is_regular_property(v.space)[0]


def available_theorems() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _random_space(u: Universe, rng: random.Random) -> PreTopology:
    full = (1 << len(u)) - 1
    gens = [rng.randint(1, full) for _ in range(rng.randint(1, 2 * len(u)))]
    gens.append(full)
    return PreTopology(
        u, SetFamily.from_masks(u, union_closure_masks(gens)), _trusted=True
    )


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
        rel = [
            [i == j or rng.random() < 0.3 for j in range(n)] for i in range(n)
        ]
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    for j in range(n):
                        if rel[k][j]:
                            rel[i][j] = True
        up = tuple(
            sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)
        )
        out.append(order.QuasiOrder(u, up))
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
    members are found once, and pools are sorted by a table of
    `_canonical_key` over the skill masks.
    """
    rank = {c: _canonical_key(c) for c in range(1 << n_skills)}
    choices = []
    for size in range(1, max_competencies + 1):
        for combo in itertools.combinations(range(1, 1 << n_skills), size):
            comps = tuple(sorted(combo, key=rank.__getitem__))
            mins = tuple(c for c in comps if not any(o != c and o & ~c == 0 for o in comps))
            choices.append((comps, mins))
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
        spaces = sample_spaces(n, samples, seed, bound)
    elif n <= MAX_EXHAUSTIVE:
        spaces = enumerate_spaces(n, bound)
    else:
        spaces = sample_spaces(n, DEFAULT_SAMPLES, seed, bound)
    views = [_View(s) for s in spaces]
    sweep = None  # one multimap sweep serves every skill check of this call
    reports = []
    for ident in idents:
        chk = _REGISTRY[ident]
        rng = random.Random(f"{seed}:{ident}")
        if chk.passes:
            checked, stored, summary = _walk(chk, views, rng)
        elif chk.run is not None:
            checked, stored, summary = chk.run(views, rng)
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
def _chk_union_closure_laws(v, rng):
    sp = union_closure(irreducible_states(v.space))
    if sp.states.masks() != v.space.states.masks():
        yield "union closure of the minimal pre-base differs"
        return
    if not (sp.states.has_mask(0) and sp.states.has_mask(v.full)):
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
def _chk_minimal_base_containment(v, rng):
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
    irr_masks = set(irreducible_states(v.space).masks()) - {0}
    nonzero = [m for m in v.opens if m]
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
def _chk_distance_metric(views, rng):
    u = views[0].space.universe if views else _universe(2)
    full = (1 << len(u)) - 1
    pts = [ItemSet(u, m) for m in range(full + 1)]
    col = _Collector()
    checked = 0
    for a in pts:
        for b in pts:
            checked += 1
            d = distance(a, b)
            if d != bin(a.mask ^ b.mask).count("1"):
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
def _chk_minimal_pre_base_recognized(v, rng):
    base = irreducible_states(v.space)
    if not is_pre_base_for(base, v.space):
        yield "irreducible states rejected as a pre-base"
    if not structure.is_minimal_pre_base(base, v.space):
        yield "irreducible states rejected as the minimal pre-base"


@_per_space("closure-operator-round-trip", cap=CAP_HEAVY)
def _chk_closure_round_trip(v, rng):
    table = structure.ClosureOperatorTable.of_space(v.space)
    back = structure.from_closure_operator(table)
    if back.states.masks() != v.space.states.masks():
        yield "closure-operator round trip changed the family"


@_per_space("classify-monotone")
def _chk_classify_monotone(v, rng):
    c = structure.classify(v.space.states)
    if not c.is_knowledge_space:
        yield "enumerated family not classified as a space"
    if c.is_knowledge_space and not c.is_knowledge_structure:
        yield "space flag without structure flag"
    if c.is_quasi_ordinal and not c.is_knowledge_space:
        yield "quasi-ordinal flag without space flag"
    masks = v.space.states.masks()
    pairwise = all(
        a & b in masks for i, a in enumerate(v.opens) for b in v.opens[i + 1 :]
    )
    if c.is_quasi_ordinal != pairwise:
        yield "classification disagrees with the intersection test"


@_register("atom-pre-base-of-minimal", audit_only=True)
def _chk_atom_pre_base(views, rng):
    """Literal reading: the minimal pre-base is an atom pre-base.

    False whenever two irreducible states are nested, e.g. the family
    containing only {z1} and {z1,z2} besides the trivial members.
    """
    col = _Collector()
    for v in views:
        if not structure.is_atom_pre_base(irreducible_states(v.space), v.space):
            col.add(v.ser, "minimal pre-base is not an antichain")
    frac = f"{col.total}/{len(views)} minimal pre-bases are not atom pre-bases"
    return len(views), col.stored, frac


# ---------------------------------------------------------------- operators


@_per_space("closure-axioms")
def _chk_closure_axioms(v, rng):
    """Empty set fixed, extensive, idempotent; monotone via
    single-item extensions, which compose along chains."""
    cl = v.cl()
    if cl[0] != 0:
        yield "closure of the empty set is nonempty"
    for a in range(v.full + 1):
        c = cl[a]
        if a & ~c:
            yield f"not extensive at {a:b}"
        if cl[c] != c:
            yield f"not idempotent at {a:b}"
        rest = v.full & ~a
        while rest:
            low = rest & -rest
            rest ^= low
            if c & ~cl[a | low]:
                yield f"not monotone at {a:b}+{low:b}"


@_per_space("closure-point-test", cap=CAP_HEAVY)
def _chk_closure_point_test(v, rng):
    """z lies in the closure of A exactly when every open set
    containing z meets A."""
    cl = v.cl()
    for a in range(v.full + 1):
        miss = 0
        for o in v.opens:
            if not o & a:
                miss |= o
        if cl[a] != v.full & ~miss:
            yield f"point test disagrees at {a:b}"


@_per_space("derived-set-definition", cap=CAP_VERY_HEAVY)
def _chk_derived_set_definition(v, rng):
    der = v.der()
    for a in range(v.full + 1):
        got = operators.derived_set(v.space, v.item(a)).mask
        if got != der[a]:
            yield f"derived set disagrees at {a:b}"


@_per_space("closure-derived-union")
def _chk_closure_derived_union(v, rng):
    cl = v.cl()
    der = v.der()
    for a in range(v.full + 1):
        if cl[a] != a | der[a]:
            yield f"closure != set plus derived set at {a:b}"


@_per_space("closure-union-superadditive", cap=CAP_HEAVY)
def _chk_closure_union_superadditive(v, rng):
    cl = v.cl()
    for a in range(v.full + 1):
        ca = cl[a]
        for b in range(a, v.full + 1):
            if (ca | cl[b]) & ~cl[a | b]:
                yield f"union closure too small at {a:b},{b:b}"


@_per_space("boundary-formulas")
def _chk_boundary_formulas(v, rng):
    cl = v.cl()
    itr = v.itr()
    for a in range(v.full + 1):
        bd = cl[a] & cl[v.full & ~a]
        if bd != cl[a] & ~itr[a]:
            yield f"boundary formulas split at {a:b}"
        if cl[bd] != bd:
            yield f"boundary not closed at {a:b}"


@_per_space("boundary-formulas", cap=CAP_VERY_HEAVY)
def _chk_boundary_operator(v, rng):
    """`operators.boundary` against the closure-minus-interior route,
    which it does not evaluate, and its complement symmetry."""
    cl = v.cl()
    itr = v.itr()
    for a in range(v.full + 1):
        got = operators.boundary(v.space, v.item(a)).mask
        if got != cl[a] & ~itr[a]:
            yield f"boundary() disagrees at {a:b}"
        comp = operators.boundary(v.space, v.item(v.full & ~a)).mask
        if got != comp:
            yield f"boundary not complement-symmetric at {a:b}"


@_per_space("interior-closure-duality")
def _chk_interior_closure_duality(v, rng):
    cl = v.cl()
    itr = v.itr()
    for a in range(v.full + 1):
        if itr[a] != v.full & ~cl[v.full & ~a]:
            yield f"duality fails at {a:b}"


@_register("boundary-union-subadditivity", audit_only=True)
def _chk_boundary_union_subadditivity(views, rng):
    """Boundary of a union inside the union of boundaries: fails in
    general; the audit records how often."""
    col = _Collector()
    vs = views[:CAP_VERY_HEAVY]
    pairs = 0
    bad_pairs = 0
    for v in vs:
        cl = v.cl()
        itr = v.itr()

        def bd(a: int) -> int:
            return cl[a] & ~itr[a]

        hit = False
        for a in range(v.full + 1):
            for b in range(a, v.full + 1):
                pairs += 1
                if bd(a | b) & ~(bd(a) | bd(b)):
                    bad_pairs += 1
                    if not hit:
                        hit = True
                        col.add(v.ser, f"strict at {a:b},{b:b}")
    summary = f"{bad_pairs}/{pairs} subset pairs violate subadditivity"
    return len(vs), col.stored, summary


@_per_space("fringe-characterizations")
def _chk_fringe_characterizations(v, rng):
    """Inner fringe via the closure of the complement of H minus the
    candidate; outer fringe via the derived set of the complement."""
    cl = v.cl()
    der = v.der()
    for h, (inner, outer) in v.fr().items():
        want_inner = 0
        rest = h
        while rest:
            low = rest & -rest
            rest ^= low
            hm = h & ~low
            if not hm & cl[v.full & ~hm]:
                want_inner |= low
        if inner != want_inner:
            yield f"inner fringe of {h:b} disagrees"
        want_outer = (v.full & ~h) & ~der[v.full & ~h]
        if outer != want_outer:
            yield f"outer fringe of {h:b} disagrees"
        rest = outer
        while rest:
            low = rest & -rest
            rest ^= low
            if not v.space.states.has_mask(h | low):
                yield f"outer fringe item {low:b} does not extend {h:b}"


# --------------------------------------------------------------- separation


def _signatures(v: _View) -> list[int]:
    """Per item, the bitmask over open-set indices of the opens
    containing it. Direct from the family, independent of the
    separation predicates under audit."""
    sigs = [0] * v.n
    for i, o in enumerate(v.opens):
        rest = o
        while rest:
            low = rest & -rest
            rest ^= low
            sigs[low.bit_length() - 1] |= 1 << i
    return sigs


@_per_space("separation-hierarchy")
def _chk_separation_hierarchy(v, rng):
    """T0 against signature distinctness, T1 against the
    bi-discriminative signatures and the inner fringe of the universe;
    the next two passes test T2 and the implication chain of the
    profile flags."""
    sigs = _signatures(v)
    t0 = len(set(sigs)) == v.n
    if separation.is_t0(v.space)[0] != t0:
        yield "T0 disagrees with signature distinctness"
    bi = all(
        sigs[p] & ~sigs[q] and sigs[q] & ~sigs[p]
        for p in range(v.n)
        for q in range(p + 1, v.n)
    )
    t1 = separation.is_t1(v.space)[0]
    if t1 != bi:
        yield "T1 disagrees with bi-discrimination"
    if separation.bi_discriminative_via_fringe(v.space) != t1:
        yield "fringe route to bi-discrimination disagrees"


@_per_space("separation-hierarchy", cap=CAP_HEAVY)
def _chk_t2_minimal_states(v, rng):
    """T2 against disjoint ⊆-minimal states at the two points."""
    atoms = [order.atoms_at(v.space, t).masks() for t in v.space.universe.labels]
    apart = all(
        any(not a & b for a in atoms[p] for b in atoms[q])
        for p in range(v.n)
        for q in range(p + 1, v.n)
    )
    if separation.is_t2(v.space)[0] != apart:
        yield "T2 disagrees with disjoint minimal states"


@_per_space("separation-hierarchy", cap=CAP_VERY_HEAVY)
def _chk_separation_chain(v, rng):
    p = separation.separation_profile(v.space)
    chain = (p.t4, p.t3, p.t2, p.t1, p.t0)
    for hi, lo in zip(chain, chain[1:]):
        if hi and not lo:
            yield "separation hierarchy implication fails"
            break


@_per_space("size-weight-bound", when=_t0)
def _chk_size_weight_bound(v, rng):
    if len(v.opens) > 1 << cardinal.weight(v.space):
        yield "family larger than 2^weight on a T0 space"


@_per_space("locally-closed-uniqueness", cap=CAP_HEAVY, when=_t0)
def _chk_locally_closed_uniqueness(v, rng):
    """On T0 spaces, two opens whose symmetric difference sits inside
    one of their locally-closed fringes and whose fringes agree must
    be equal."""
    fr = v.fr()
    for a in v.opens:
        ia, oa = fr[a]
        for b in v.opens:
            if a == b:
                continue
            ib, ob = fr[b]
            delta = a ^ b
            if delta & ~(ia | oa) and delta & ~(ib | ob):
                continue
            if ia == ib and oa == ob:
                yield f"{a:b} and {b:b} share fringes"


# -------------------------------------------------------------- connectivity


def _covers_for(v: _View, rng: random.Random) -> list[list[int]]:
    nonzero = [m for m in v.opens if m]
    out = []
    if v.n <= 3:
        k = len(nonzero)
        for pick in range(1, 1 << k):
            fam = [nonzero[i] for i in range(k) if pick >> i & 1]
            acc = 0
            for m in fam:
                acc |= m
            if acc == v.full:
                out.append(fam)
        return out
    out.append([m for m in irreducible_states(v.space).masks() if m])
    out.append(nonzero)
    for m in nonzero:
        if m != v.full and v.space.states.has_mask(v.full & ~m):
            out.append([m, v.full & ~m])
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
            if acc == v.full:
                break
        out.append(fam)
    return out


def _cover_chain_connected(fam: list[int], n: int) -> bool:
    """Every pair of items admits a simple chain: components of the
    intersection graph, then a shared component per item pair."""
    k = len(fam)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if fam[i] & fam[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comp_mask = [0] * n
    for i in range(k):
        r = find(i)
        rest = fam[i]
        while rest:
            low = rest & -rest
            rest ^= low
            comp_mask[low.bit_length() - 1] |= 1 << r
    return all(
        comp_mask[x] & comp_mask[y]
        for x in range(n)
        for y in range(x + 1, n)
    )


@_per_space("chain-connected-iff-connected")
def _chk_chain_connected_iff_connected(v, rng):
    conn = connectivity.is_connected(v.space)
    chain = all(_cover_chain_connected(fam, v.n) for fam in _covers_for(v, rng))
    if conn != chain:
        yield f"connected={conn} but chain-connected={chain}"


@_per_space("chain-connected-iff-connected", cap=200)
def _chk_cover_components(v, rng):
    """The component route of `_cover_chain_connected` against a chain
    search for every item pair."""
    labels = v.space.universe.labels
    for fam in _covers_for(v, rng)[:2]:
        family = SetFamily.from_masks(v.space.universe, fam)
        fast = _cover_chain_connected(fam, v.n)
        slow = all(
            not isinstance(
                connectivity.find_simple_chain(v.space, family, x, y),
                connectivity._NoChain,
            )
            for x in labels
            for y in labels
            if x < y
        )
        if fast != slow:
            yield "component route disagrees with chain search"


@_per_space("tight1-iff-well-graded")
def _chk_tight1_iff_well_graded(v, rng):
    if v.tight1() != v.well_graded():
        yield f"tight-1={v.tight1()} well-graded={v.well_graded()}"


@_per_space("tight1-iff-well-graded", cap=CAP_VERY_HEAVY)
def _chk_well_graded_path_lengths(v, rng):
    if connectivity.is_well_graded(v.space.states) != v.well_graded():
        yield "one-step form disagrees with path lengths"


@_per_space("tight1-equivalences")
def _chk_tight1_equivalences(v, rng):
    """The chain form agrees with the rigidity form: no two distinct
    opens U and W have the inner fringe of U inside W and its outer
    fringe outside W. (The fringe-difference form is the formula that
    `is_tight_n_connected` evaluates, so it is not compared.)"""
    fr = v.fr()
    rigid = not any(
        u != w and not fr[u][0] & ~w and not fr[u][1] & w
        for u in v.opens
        for w in v.opens
    )
    if v.tight1() != rigid:
        yield f"tight1={v.tight1()} rigidity={rigid}"


# --------------------------------------------------------------------- order


@_register("quasi-order-round-trip")
def _chk_quasi_order_round_trip(views, rng):
    """Every open is a down-set of the specialization order; the
    Alexandroff family it generates equals the original exactly when
    the original is quasi-ordinal."""
    col = _Collector()
    n = views[0].n if views else 3
    for v in views:
        sigs = _signatures(v)
        up = tuple(
            sum(
                1 << y
                for y in range(v.n)
                if not sigs[y] & ~sigs[x]
            )
            for x in range(v.n)
        )
        spec = order.QuasiOrder(v.space.universe, up)
        back = order.from_quasi_order(spec)
        masks = back.states.masks()
        if not v.space.states.masks() <= masks:
            col.add(v.ser, "an open set is not a down-set of the specialization order")
        if order.is_quasi_ordinal(v.space) != (masks == v.space.states.masks()):
            col.add(v.ser, "Alexandroff fixed point disagrees with quasi-ordinality")
        if order.is_quasi_ordinal(v.space):
            qo = order.to_quasi_order(v.space)
            if qo.up != up:
                col.add(v.ser, "specialization order disagrees with the intersection route")
            if order.from_quasi_order(qo).states.masks() != v.space.states.masks():
                col.add(v.ser, "quasi-ordinal space does not round trip")
    checked = len(views)
    for qo in sample_quasi_orders(n, 40, rng.randrange(1 << 30)):
        checked += 1
        back = order.to_quasi_order(order.from_quasi_order(qo))
        if back.up != qo.up:
            col.add(json.dumps(qo.to_obj()), "quasi-order round trip changed the order")
    return checked, col.stored, None


@_register("alexandroff-equality")
def _chk_alexandroff_equality(views, rng):
    """Two quasi-ordinal families coincide exactly when the inclusion
    order of their per-item open systems is the same relation."""
    col = _Collector()
    qos = [v for v in views if _quasi_ordinal(v)]
    pairs = [(a, b) for i, a in enumerate(qos) for b in qos[i:]]
    if len(pairs) > CAP_HEAVY:
        pairs = rng.sample(pairs, CAP_HEAVY)
    for a, b in pairs:
        sa, sb = _signatures(a), _signatures(b)
        same_rel = all(
            (sa[p] & ~sa[q] == 0) == (sb[p] & ~sb[q] == 0)
            for p in range(a.n)
            for q in range(a.n)
        )
        same_fam = a.space.states.masks() == b.space.states.masks()
        if same_rel != same_fam:
            col.add(a.ser, f"versus {b.ser()}")
    return len(pairs), col.stored, None


@_per_space(
    "bi-discriminative-quasi-ordinal-powerset",
    when=lambda v: _quasi_ordinal(v) and separation.is_t1(v.space)[0],
)
def _chk_bi_discriminative_powerset(v, rng):
    if len(v.opens) != 1 << v.n:
        yield "bi-discriminative quasi-ordinal family is not the powerset"


@_per_space("quasi-ordinal-regularity", when=_quasi_ordinal)
def _chk_quasi_ordinal_regularity(v, rng):
    reg = separation.is_regular_property(v.space)[0]
    via_m = all(
        v.space.states.has_mask(
            v.full & ~order.minimal_state(v.space, t).mask
        )
        for t in v.space.universe.labels
    )
    if reg != via_m:
        yield "regularity disagrees with open complements of minimal states"


@_per_space("ordinal-connectivity", when=lambda v: _quasi_ordinal(v) and _t0(v))
def _chk_ordinal_connectivity(v, rng):
    if connectivity.is_connected(v.space) != order.m_graph_connected(v.space):
        yield "connectivity disagrees with the minimal-state graph"


@_per_space(
    "t0-quasi-ordinal-antimatroid-tight1", when=lambda v: _quasi_ordinal(v) and _t0(v)
)
def _chk_t0_quasi_ordinal_antimatroid(v, rng):
    if not order.is_antimatroid(v.space):
        yield "T0 quasi-ordinal space is not an antimatroid"
    if not v.tight1():
        yield "T0 quasi-ordinal space is not tight 1-connected"


@_per_space("regular-atom-complement", cap=CAP_HEAVY, when=_regular)
def _chk_regular_atom_complement(v, rng):
    """In regular spaces a state is either co-open or not an atom at
    any of its items; likewise one step above an open set."""
    atom_masks = {
        t: {a.mask for a in order.atoms_at(v.space, t).members}
        for t in v.space.universe.labels
    }
    for o in v.opens:
        rest = o
        while rest:
            low = rest & -rest
            rest ^= low
            t = v.space.universe.labels[low.bit_length() - 1]
            if not v.space.states.has_mask(v.full & ~o) and o in atom_masks[t]:
                yield f"atom {o:b} at {t} with closed complement missing"
    fr = v.fr()
    for k in v.opens:
        outer = fr[k][1]
        rest = outer
        while rest:
            low = rest & -rest
            rest ^= low
            t = v.space.universe.labels[low.bit_length() - 1]
            ell = k | low
            if not v.space.states.has_mask(v.full & ~ell) and ell in atom_masks[t]:
                yield f"outer-fringe extension {ell:b} at {t} fails"


@_per_space(
    "granular-regular-disconnected",
    cap=CAP_HEAVY,
    when=lambda v: v.n >= 2 and separation.is_t1(v.space)[0] and _regular(v),
)
def _chk_granular_regular_disconnected(v, rng):
    if not order.is_granular(v.space):
        yield "finite space not granular"
        return 0
    if connectivity.is_connected(v.space):
        yield "granular regular bi-discriminative space is connected"


@_per_space(
    "quasi-ordinal-regular-normal", when=lambda v: _quasi_ordinal(v) and _regular(v)
)
def _chk_quasi_ordinal_regular_normal(v, rng):
    if not separation.is_normal_property(v.space)[0]:
        yield "regular quasi-ordinal space is not normal"


@_per_space("reduction-pre-quotient", cap=CAP_HEAVY)
def _chk_reduction_pre_quotient(v, rng):
    red = order.discriminative_reduction(v.space)
    if not separation.is_t0(red.reduced)[0]:
        yield "reduction is not discriminative"
    if not structure.classify(red.reduced.states).is_knowledge_space:
        yield "reduction is not a space"
    if not maps.is_pre_quotient(red.projection, v.space, red.reduced):
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


def _inclusion(sub: PreTopology, v: _View) -> maps.PointMap:
    """The inclusion of a subspace's universe into the view's."""
    return maps.PointMap(sub.universe, v.space.universe, {t: t for t in sub.universe.labels})


@_per_space("subspace-pre-base-trace", cap=CAP_HEAVY)
def _chk_subspace_pre_base_trace(v, rng):
    """Traces of a pre-base generate the subspace. Unit: (space, subset)
    pairs."""
    for _ in range(2):
        ymask = rng.randint(1, v.full)
        sub = maps.subspace(v.space, v.item(ymask))
        inc = _inclusion(sub, v)
        base = irreducible_states(v.space).masks()
        trace = SetFamily.from_masks(sub.universe, {inc.preimage_mask(b) for b in base})
        if not is_pre_base_for(trace, sub):
            yield f"trace of the minimal pre-base on {ymask:b} fails"
    return 2


@_per_space("subspace-closed-trace", cap=CAP_VERY_HEAVY)
def _chk_subspace_closed_trace(v, rng):
    """Closure inside a subspace is the trace of the parent closure;
    inside a closed subspace, closed means closed in the parent. Unit:
    (space, subset) pairs, two random subsets and one closed one, which
    always exists: the complement of the empty open is the universe."""
    cl = v.cl()
    for _ in range(2):
        ymask = rng.randint(1, v.full)
        sub = maps.subspace(v.space, v.item(ymask))
        inc = _inclusion(sub, v)
        for fsub in range(1 << len(sub.universe)):
            got = operators.closure(sub, ItemSet(sub.universe, fsub)).mask
            if got != inc.preimage_mask(cl[inc.image_mask(fsub)]):
                yield f"closure trace fails on {ymask:b} at {fsub:b}"
                break
    ymask = rng.choice([v.full & ~o for o in v.opens if o != v.full])
    sub = maps.subspace(v.space, v.item(ymask))
    inc = _inclusion(sub, v)
    subfull = (1 << len(sub.universe)) - 1
    for asub in range(subfull + 1):
        in_sub = sub.states.has_mask(subfull & ~asub)
        in_parent = v.space.states.has_mask(v.full & ~inc.image_mask(asub))
        if in_sub != in_parent:
            yield f"closed-in-closed fails on {ymask:b} at {asub:b}"
            break
    return 3


@_register("map-composition")
def _chk_map_composition(views, rng):
    """Continuity composes and is pointwise; quotient projections
    compose to quotients; a quotient map factors continuity and
    quotients through itself."""
    col = _Collector()
    checked = 0
    for _ in range(min(300, 3 * len(views))):
        x, y, z = rng.choice(views), rng.choice(views), rng.choice(views)
        f = _random_map(x.space.universe, y.space.universe, rng)
        g = _random_map(y.space.universe, z.space.universe, rng)
        cf = maps.is_pre_continuous(f, x.space, y.space)
        pointwise = all(
            maps.is_pre_continuous_at(f, x.space, y.space, p)
            for p in x.space.universe.labels
        )
        checked += 1
        if cf != pointwise:
            col.add(x.ser, "pointwise continuity disagrees with continuity")
        if cf and maps.is_pre_continuous(g, y.space, z.space):
            if not maps.is_pre_continuous(f.then(g), x.space, z.space):
                col.add(x.ser, "composition of continuous maps fails")
    for _ in range(min(120, 2 * len(views))):
        x = rng.choice(views)
        cls1 = _random_partition(x.space.universe, rng)
        q1 = maps.quotient(x.space, cls1)
        p1 = maps.quotient_projection(x.space, cls1)
        cls2 = _random_partition(q1.universe, rng)
        q2 = maps.quotient(q1, cls2)
        p2 = maps.quotient_projection(q1, cls2)
        comp = p1.then(p2)
        checked += 1
        if not maps.is_pre_quotient(comp, x.space, q2):
            col.add(x.ser, "quotient projections do not compose to a quotient")
        k = rng.randint(1, max(1, x.n - 1))
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(k)]), rng
        )
        g = _random_map(q2.universe, target.universe, rng)
        through = maps.is_pre_continuous(comp.then(g), x.space, target)
        direct = maps.is_pre_continuous(g, q2, target)
        if through != direct:
            col.add(x.ser, "factoring continuity through a quotient fails")
        onto = g.image_mask((1 << len(q2.universe)) - 1) == (1 << len(target.universe)) - 1
        if onto:
            tq = maps.is_pre_quotient(comp.then(g), x.space, target)
            dq = maps.is_pre_quotient(g, q2, target)
            if tq != dq:
                col.add(x.ser, "factoring quotients through a quotient fails")
    return checked, col.stored, None


@_register("continuous-open-closed-quotient")
def _chk_continuous_open_closed_quotient(views, rng):
    col = _Collector()
    checked = 0
    for _ in range(min(300, 3 * len(views))):
        x = rng.choice(views)
        cls = _random_partition(x.space.universe, rng)
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(len(cls))]), rng
        )
        assign = {}
        for i, c in enumerate(cls):
            for label in c.labels:
                assign[label] = f"w{i + 1}"
        f = maps.PointMap(x.space.universe, target.universe, assign)
        checked += 1
        if maps.is_pre_continuous(f, x.space, target) and (
            maps.is_pre_open(f, x.space, target)
            or maps.is_pre_closed(f, x.space, target)
        ):
            if not maps.is_pre_quotient(f, x.space, target):
                col.add(x.ser, "continuous open/closed surjection is not a quotient")
    return checked, col.stored, None


@_register("pre-continuous-bijection-equivalences")
def _chk_bijection_equivalences(views, rng):
    col = _Collector()
    checked = 0
    for _ in range(min(400, 4 * len(views))):
        x, y = rng.choice(views), rng.choice(views)
        u = x.space.universe
        perm = list(u.labels)
        rng.shuffle(perm)
        f = maps.PointMap(u, u, dict(zip(u.labels, perm)))
        if not maps.is_pre_continuous(f, x.space, y.space):
            continue
        checked += 1
        homeo = maps.is_pre_continuous(f.inverse(), y.space, x.space)
        po = maps.is_pre_open(f, x.space, y.space)
        pc = maps.is_pre_closed(f, x.space, y.space)
        pq = maps.is_pre_quotient(f, x.space, y.space)
        if not (homeo == po == pc == pq):
            col.add(
                x.ser,
                f"bijection flags diverge: homeo={homeo} open={po} closed={pc} quotient={pq}",
            )
    return checked, col.stored, None


@_register("partial-pasting")
def _chk_partial_pasting(views, rng):
    """Closed pieces covering the domain, each closed preimage inside
    one piece, restrictions continuous: then the whole map is."""
    col = _Collector()
    checked = 0
    for _ in range(min(400, 4 * len(views))):
        v = rng.choice(views)
        closed = [v.full & ~o for o in v.opens]
        cs = [c for c in closed if c]
        if not cs:
            continue
        c = rng.choice(cs)
        ds = [d for d in closed if d and (c | d) == v.full]
        if not ds:
            continue
        d = rng.choice(ds)
        k = rng.randint(1, max(1, v.n - 1))
        target = _random_space(
            Universe([f"w{i + 1}" for i in range(k)]), rng
        )
        h = _random_map(v.space.universe, target.universe, rng)
        tfull = (1 << k) - 1
        hyp = True
        for w in target.states.masks():
            pre = h.preimage_mask(tfull & ~w)
            if pre & ~c and pre & ~d:
                hyp = False
                break
        if not hyp:
            continue
        subc = maps.subspace(v.space, v.item(c))
        subd = maps.subspace(v.space, v.item(d))
        hc = _inclusion(subc, v).then(h)
        hd = _inclusion(subd, v).then(h)
        if not (
            maps.is_pre_continuous(hc, subc, target)
            and maps.is_pre_continuous(hd, subd, target)
        ):
            continue
        checked += 1
        if not maps.is_pre_continuous(h, v.space, target):
            col.add(v.ser, f"pasting over {c:b} and {d:b} fails")
    return checked, col.stored, None


@_register("product-of-maps")
def _chk_product_of_maps(views, rng):
    if not views or views[0].n > 3:
        return 0, [], "skipped beyond 3 items per factor"
    col = _Collector()
    checked = 0
    for _ in range(min(150, 2 * len(views))):
        x1, x2, b = rng.choice(views), rng.choice(views), rng.choice(views)
        prod = maps.product([x1.space, x2.space])
        h1 = _random_map(b.space.universe, x1.space.universe, rng)
        h2 = _random_map(b.space.universe, x2.space.universe, rng)
        h = maps.PointMap(
            b.space.universe,
            prod.universe,
            {label: f"({h1(label)},{h2(label)})" for label in b.space.universe.labels},
        )
        checked += 1
        joint = maps.is_pre_continuous(h, b.space, prod)
        split = maps.is_pre_continuous(
            h1, b.space, x1.space
        ) and maps.is_pre_continuous(h2, b.space, x2.space)
        if joint != split:
            col.add(b.ser, f"joint={joint} coordinates={split}")
    return checked, col.stored, None


@_register("product-closure-law")
def _chk_product_closure_law(views, rng):
    if not views or views[0].n > 3:
        return 0, [], "skipped beyond 3 items per factor"
    col = _Collector()
    checked = 0

    def box(prod: PreTopology, a1: ItemSet, a2: ItemSet) -> int:
        mask = 0
        for la in a1.labels:
            for lb in a2.labels:
                mask |= 1 << prod.universe.index(f"({la},{lb})")
        return mask

    for _ in range(min(100, len(views))):
        v1, v2 = rng.choice(views), rng.choice(views)
        prod = maps.product([v1.space, v2.space])
        checked += 1
        for _ in range(3):
            a1 = v1.item(rng.randint(0, v1.full))
            a2 = v2.item(rng.randint(0, v2.full))
            got = operators.closure(prod, ItemSet(prod.universe, box(prod, a1, a2))).mask
            want = box(
                prod,
                operators.closure(v1.space, a1),
                operators.closure(v2.space, a2),
            )
            if got != want:
                col.add(v1.ser, f"with {v2.ser()}: closure of a box is not the box of closures")
    return checked, col.stored, None


@_per_space("quotient-finest", cap=CAP_HEAVY)
def _chk_quotient_finest(v, rng):
    cls = _random_partition(v.space.universe, rng)
    q = maps.quotient(v.space, cls)
    proj = maps.quotient_projection(v.space, cls)
    if not maps.is_pre_quotient(proj, v.space, q):
        yield "projection onto the quotient is not a quotient"
    qfull = (1 << len(q.universe)) - 1
    for w in range(qfull + 1):
        if v.space.states.has_mask(proj.preimage_mask(w)) != q.states.has_mask(w):
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
    family = skills._delineated_masks(holders, sn)
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
def _chk_density_exact_minimal(v, rng):
    """The exact answer is dense, minimum, and the least such set in
    the canonical subset order."""
    k, dset = cardinal.density_exact(v.space)
    blocks = [b for b in irreducible_states(v.space).masks() if b]
    if not all(dset.mask & b for b in blocks):
        yield "exact answer is not dense"
    if not operators.is_dense(v.space, dset):
        yield "is_dense rejects the exact answer"
    first = None
    for size in range(k + 1):
        for combo in itertools.combinations(range(v.n), size):
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
def _chk_primary_items_dense(v, rng):
    blocks = [b for b in irreducible_states(v.space).masks() if b]
    tr = cardinal.greedy_primary_items(v.space)
    dm, _ = cardinal.matrix_primary_items(irreducible_states(v.space))
    for name, got in (("greedy", tr.result), ("matrix", dm)):
        if not all(got.mask & b for b in blocks):
            yield f"{name} output is not dense"


@_register("greedy-matrix-dense-gap", audit_only=True)
def _chk_greedy_matrix_gap(views, rng):
    """Greedy and matrix runs against the exact optimum; gaps are a
    known possibility, recorded as a distribution."""
    col = _Collector()
    vs = views[:CAP_HEAVY]
    hist: dict[str, int] = {}
    for v in vs:
        k, _ = cardinal.density_exact(v.space)
        tr = cardinal.greedy_primary_items(v.space)
        dm, _ = cardinal.matrix_primary_items(irreducible_states(v.space))
        g_gap = len(tr.result.labels) - k
        m_gap = len(dm.labels) - k
        key = f"greedy+{g_gap} matrix+{m_gap}"
        hist[key] = hist.get(key, 0) + 1
        if g_gap or m_gap:
            col.add(
                v.ser,
                f"greedy={len(tr.result.labels)} matrix={len(dm.labels)} exact={k}",
            )
    summary = "gap distribution: " + "; ".join(
        f"{key}: {cnt}" for key, cnt in sorted(hist.items())
    )
    return len(vs), col.stored, summary


@_per_space("dense-ge-cellularity")
def _chk_dense_ge_cellularity(v, rng):
    k, _ = cardinal.density_exact(v.space)
    c = cardinal.cellularity(v.space)
    if k < c:
        yield f"density {k} below cellularity {c}"


@_per_space(
    "hausdorff-trace-density-bound",
    cap=CAP_HEAVY,
    when=lambda v: separation.is_t2(v.space)[0],
)
def _chk_hausdorff_trace_density_bound(v, rng):
    """Complete discrimination plus a dense set whose trace preserves
    state closures caps the universe by a double exponential."""
    k, dset = cardinal.density_exact(v.space)
    cl = v.cl()
    if not all(cl[h & dset.mask] == cl[h] for h in v.opens):
        return 0
    if v.n > 1 << (1 << k):
        yield f"universe exceeds the bound at density {k}"


@_per_space("block-disjointness", cap=CAP_HEAVY)
def _chk_block_disjointness(v, rng):
    """Items hit by the maximum number of members of a subfamily have
    pairwise equal or disjoint intersections of their members. Unit:
    sub-families."""
    nonzero = [m for m in v.opens if m]
    for _ in range(3):
        fam = rng.sample(nonzero, rng.randint(1, min(6, len(nonzero))))
        counts = [0] * v.n
        for m in fam:
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                counts[low.bit_length() - 1] += 1
        best = max(counts)
        inters = []
        for i in range(v.n):
            if counts[i] == best:
                inter = v.full
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
def _chk_cover_dense_subfamily(views, rng):
    """Every open cover has at most cellularity-many members whose
    union is dense. Checked by sweep; kept to small universes."""
    if not views or views[0].n > 4:
        return 0, [], "skipped beyond 4 items"
    col = _Collector()
    checked = 0
    vs = views if views[0].n <= 3 else views[:300]
    for v in vs:
        c = cardinal.cellularity(v.space)
        cl = v.cl()
        for fam in _covers_for(v, rng):
            checked += 1
            found = False
            for size in range(1, min(c, len(fam)) + 1):
                for combo in itertools.combinations(fam, size):
                    acc = 0
                    for m in combo:
                        acc |= m
                    if cl[acc] == v.full:
                        found = True
                        break
                if found:
                    break
            if not found:
                col.add(v.ser, f"no dense subfamily of size {c} in a {len(fam)}-member cover")
    return checked, col.stored, None
