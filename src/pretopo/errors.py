"""Domain errors shared across the package.

Every error that a command-line verb can surface derives from
:class:`PretopoError`, so the CLI maps "domain error" to exit code 1 by
catching one type.
"""

from __future__ import annotations


class PretopoError(Exception):
    """Base class for all domain errors raised by this package."""


class UniverseOverflow(PretopoError):
    """Universe exceeds the 64-item packed representation."""


class CoverError(PretopoError):
    """A family that must cover the universe does not."""


class EmptyMemberError(PretopoError):
    """An empty set appeared where a non-empty one is required."""


class AxiomViolation(PretopoError):
    """A structural axiom failed; records which one and a witness."""

    def __init__(self, which: str, witness=None):
        self.which = which
        self.witness = witness
        detail = f" (witness: {witness})" if witness is not None else ""
        super().__init__(f"axiom violated: {which}{detail}")


class NotAPreBase(PretopoError):
    """Candidate family does not generate the given space."""


class NotMinimalPreBase(PretopoError):
    """Family is not the minimal pre-base required by the algorithm."""


class NotQuasiOrdinal(PretopoError):
    """Space is not closed under intersections."""


class NotACover(PretopoError):
    """Family is not an open cover of the space."""


class NotAState(PretopoError):
    """Subset is not a state of the space."""


class NotAPartition(PretopoError):
    """Class list does not partition the universe."""


class NotSurjective(PretopoError):
    """Map is not onto its codomain."""


class EmptySubspace(PretopoError):
    """Subspace carrier must be non-empty."""


class BoundExceeded(PretopoError):
    """Input exceeds a configured size bound; the message names the
    measured quantity, its size and the limit."""


class SkillBoundExceeded(BoundExceeded):
    """Skill universe too large for exhaustive delineation."""


class CombinatorialBoundExceeded(BoundExceeded):
    """Search space exceeds the configured combinatorial guard."""


class SchemaError(ValueError):
    """Malformed input document (bad JSON shape, unknown labels).

    Deliberately not a PretopoError: schema problems are I/O-level failures
    (CLI exit code 2), domain errors are exit code 1.
    """
