"""Exception types for matroid construction, decompositions, and geometry,
and the one rule by which the volume engines cap their work.

An engine that can be handed an input far past its reach counts its work in
its own units against a fixed budget, through ``work_budget``, and raises
``WorkBudgetExceeded`` once the count passes it, so an oversized input fails
fast with a typed error instead of running for hours.
"""

from __future__ import annotations

from typing import Callable


class MatvolError(Exception):
    """Base class for all errors raised by this package."""


class GroundSetTooLarge(MatvolError):
    """Ground sets are capped at 20 elements; every table here is 2^n-indexed."""


class EmptyBasisFamily(MatvolError):
    """A matroid needs at least one basis."""


class UnequalCardinality(MatvolError):
    """All bases of a matroid have the same cardinality."""


class ExchangeAxiomViolation(MatvolError):
    """The basis exchange axiom failed for a witnessing pair of bases."""


class InvalidTruncationRank(MatvolError):
    """Truncation rank must lie in 1..rank(M)."""


class InvalidUniformParams(MatvolError):
    """Uniform matroids require 0 <= k <= n and n >= 1."""


class FamilyMismatch(MatvolError):
    """Signed decompositions can only be combined within one summand family."""


class DimensionMismatch(MatvolError):
    """Input dimension does not match what the operation requires."""


class DisconnectedMatroid(MatvolError):
    """The requested computation needs a full-dimensional polytope."""


class WorkBudgetExceeded(MatvolError):
    """A computation would do more work than its fixed budget allows."""


def work_budget(limit: int, what: str, units: str) -> Callable[[int], None]:
    """A counter of work: each call adds its argument, in ``units``, and the
    call that takes the total past ``limit`` raises ``WorkBudgetExceeded``
    saying that ``what`` needs more than ``limit`` of them."""
    work = 0

    def charge(amount: int) -> None:
        nonlocal work
        work += amount
        if work > limit:
            raise WorkBudgetExceeded(f"{what} needs more than {limit} {units}; this input is too large for it")

    return charge


class NonIntegerNormalizedVolume(MatvolError):
    """(n-1)! times the base polytope volume must be an integer.

    Nothing raises it since the degree comes from the integer pyramid
    recursion; the class is kept so that code catching it still imports."""


class DegenerateInput(MatvolError):
    """Geometric input has no interior to work with (affine dimension 0)."""


class RankMismatch(MatvolError):
    """A declared rank does not match the rank computed from the generator."""


class ParseError(MatvolError):
    """Matroid file is not well-formed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
