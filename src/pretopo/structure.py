"""Structure classification and constructors.

Distinguishes knowledge structures, knowledge spaces (pre-topologies),
topologies and quasi-ordinal (Alexandroff) families, and builds spaces
from binary relations and extensional closure operators.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .core import (
    ItemSet,
    PreTopology,
    SetFamily,
    Universe,
    _guard,
    _read_labels,
    _read_universe,
    irreducible_states,
    is_pre_base_for,
)
from .errors import (
    AxiomViolation,
    EmptyMemberError,
    NotAPreBase,
    SchemaError,
)

RELATION_UNIVERSE_BOUND = 20


@dataclass(frozen=True)
class Classification:
    is_knowledge_structure: bool
    is_knowledge_space: bool
    is_topology: bool
    is_quasi_ordinal: bool

    def to_obj(self) -> dict:
        return asdict(self)


def classify(family: SetFamily) -> Classification:
    """Flags for the structure hierarchy; monotone along it.

    Finite families make topology and quasi-ordinality coincide (both
    reduce to closure under binary intersection on top of a knowledge
    space); the two flags are kept separate for reporting.

    Union-closure is the test of `PreTopology`: the union closure of the
    base must be the family, and closing it stops once it outgrows |K|
    (`_is_union_closed`, O(|K|·|B|) at worst). It runs only on a
    structure, which holds ∅ as the test needs. The family keeps its
    verdict, so a validated family is not tested again
    (`SetFamily._union_closed`). A union-closed family is closed under
    intersection iff, for each item q, the intersection N(q) of the
    states containing q is a state: then A ∩ B is the union of N(q) over
    q ∈ A ∩ B. Every state through q holds a base member through q, so
    N(q) is the intersection of those base members (`_item_meets`):
    O(m·|B|), read from the family, which computes it once
    (`irreducible_states`).
    """
    masks = family.masks()
    structure = 0 in masks and (1 << len(family.universe)) - 1 in masks
    space = structure and family._union_closed()
    quasi = space and all(meet in masks for meet in family._base().meets)
    return Classification(structure, space, quasi, quasi)


def from_relation(
    universe: Universe,
    pairs: list[tuple[ItemSet, ItemSet]],
    bound: int | None = None,
) -> PreTopology:
    """Space of all sets U with K ∩ U = ∅ ⇒ H ∩ U = ∅ for every pair (K, H).

    The filter ranges over all 2^m subsets, so the universe size is guarded.
    """
    _guard(len(universe), RELATION_UNIVERSE_BOUND, "from_relation universe", bound)
    checked: list[tuple[int, int]] = []
    for k, h in pairs:
        if k.universe != universe or h.universe != universe:
            raise ValueError("relation pair over a different universe")
        if k.is_empty() or h.is_empty():
            raise EmptyMemberError("relation pairs must relate non-empty sets")
        checked.append((k.mask, h.mask))
    opens = []
    for u_mask in range(1 << len(universe)):
        if all(h & u_mask == 0 for k, h in checked if k & u_mask == 0):
            opens.append(u_mask)
    return PreTopology(
        universe, SetFamily.from_masks(universe, opens), _trusted=True
    )


class ClosureOperatorTable:
    """Extensional closure operator: a total map over all 2^m subsets.

    The four axioms (empty fixed, extensive, idempotent, monotone) are
    checked on construction; monotonicity via single-element extensions.
    """

    __slots__ = ("universe", "assignment")

    def __init__(self, universe: Universe, assignment: dict[int, int]):
        m = len(universe)
        if len(assignment) != 1 << m or set(assignment) != set(range(1 << m)):
            raise SchemaError("closure table must cover every subset exactly once")
        if assignment[0] != 0:
            raise AxiomViolation("empty-fixed", witness=str(ItemSet(universe, assignment[0])))
        for b, c in assignment.items():
            if b & ~c:
                raise AxiomViolation("extensive", witness=str(ItemSet(universe, b)))
            if assignment[c] != c:
                raise AxiomViolation("idempotent", witness=str(ItemSet(universe, b)))
            for i in range(m):
                if c & ~assignment[b | (1 << i)]:
                    raise AxiomViolation(
                        "monotone",
                        witness=(
                            str(ItemSet(universe, b)),
                            str(ItemSet(universe, b | (1 << i))),
                        ),
                    )
        self.universe = universe
        self.assignment = dict(assignment)

    def of(self, a: ItemSet) -> ItemSet:
        return ItemSet(self.universe, self.assignment[a.mask])

    @classmethod
    def from_obj(cls, obj: object) -> "ClosureOperatorTable":
        if not isinstance(obj, dict) or "universe" not in obj or "closure" not in obj:
            raise SchemaError("closure-operator JSON needs 'universe' and 'closure'")
        universe = _read_universe(obj["universe"], "universe")
        entries = obj["closure"]
        if not isinstance(entries, list):
            raise SchemaError("'closure' must be an array of {of, is} entries")
        assignment: dict[int, int] = {}
        for entry in entries:
            if not isinstance(entry, dict) or "of" not in entry or "is" not in entry:
                raise SchemaError(f"bad closure entry: {entry!r} needs 'of' and 'is'")
            src = universe.subset(_read_labels(universe, entry["of"], "closure entry"))
            dst = universe.subset(_read_labels(universe, entry["is"], "closure entry"))
            if src.mask in assignment:
                raise SchemaError(f"duplicate closure entry for {src}")
            assignment[src.mask] = dst.mask
        return cls(universe, assignment)

    @classmethod
    def from_json(cls, text: str) -> "ClosureOperatorTable":
        return cls.from_obj(json.loads(text))

    @classmethod
    def of_space(cls, space: PreTopology) -> "ClosureOperatorTable":
        """The closure of every subset, read from `operators.closure_table`,
        the dual of the space's interior table: built once in O(2^m·m),
        with the universe guarded by the bound of `from_relation`."""
        from .operators import closure_table

        return cls(space.universe, dict(enumerate(closure_table(space))))


def from_closure_operator(table: ClosureOperatorTable) -> PreTopology:
    """Opens are the complements of the operator's fixed points.

    The space's closure reproduces the table, by the axioms that the
    table's constructor enforces. ∅ and Q are fixed (empty-fixed,
    extensive). Fixed points A and B have a fixed intersection:
    cl(A∩B) ⊆ cl(A) ∩ cl(B) = A∩B by monotonicity, and ⊇ by extensivity.
    So the opens hold ∅ and Q and are closed under union, and the space
    is built trusted. Its closure of b is the least fixed point above b,
    which is cl(b): cl(b) is fixed (idempotent) and holds b, and a fixed
    F ⊇ b has cl(b) ⊆ cl(F) = F.
    """
    u = table.universe
    full = u._full
    opens = [full & ~b for b, c in table.assignment.items() if b == c]
    return PreTopology(u, SetFamily.from_masks(u, opens), _trusted=True)


def _require_pre_base(candidate: SetFamily, space: PreTopology) -> None:
    if not is_pre_base_for(candidate, space):
        raise NotAPreBase("candidate family does not generate the space")


def is_atom_pre_base(candidate: SetFamily, space: PreTopology) -> bool:
    """Literal per-point minimality: no other member sits below a point.

    True iff for each member B and each z in B there is no other candidate
    member P with z in P and P ⊆ B.
    """
    _require_pre_base(candidate, space)
    masks = [m for m in candidate.masks() if m]
    return not any(p != b and p & ~b == 0 for b in masks for p in masks)


def is_minimal_pre_base(candidate: SetFamily, space: PreTopology) -> bool:
    """True iff the candidate is the union-irreducible family of the space.

    For finite spaces the minimal pre-base is unique and equals the
    union-irreducible states; the drop-one subfamily probe in the tests
    confirms the equivalence with the literal definition.
    """
    _require_pre_base(candidate, space)
    return candidate.masks() - {0} == irreducible_states(space).masks()
