"""Exception types shared across the package.

Every error raised by the library derives from XmodError, so callers can
catch one base class.  Names describe the violated requirement; messages
carry the witnessing indices.
"""

__all__ = [
    "XmodError",
    "NotAssociativeError",
    "NoIdentityError",
    "NoInverseError",
    "IndexOutOfRangeError",
    "NotSubgroupError",
    "NotNormalError",
    "NotHomomorphismError",
    "OrderTooLargeError",
    "PreconditionFailedError",
    "BaseMismatchError",
    "CompositionMismatchError",
    "DiagramMismatchError",
    "NotEquivalenceRelationError",
    "FiberMismatchError",
    "BudgetExceededError",
    "NotMonoError",
    "IsIsoError",
    "NotNaturalError",
    "ReconstructionInvalidError",
    "ShapeMismatchError",
    "ParseError",
    "ValidationError",
    "UnknownCommandError",
    "UnknownNameError",
    "MissingArgumentError",
]


class XmodError(Exception):
    """Base class for every library error."""


# Group table and subgroup errors.

class NotAssociativeError(XmodError):
    """A multiplication table fails associativity at a witness triple."""


class NoIdentityError(XmodError):
    """A multiplication table has no two-sided identity."""


class NoInverseError(XmodError):
    """Some element of a multiplication table has no two-sided inverse."""


class IndexOutOfRangeError(XmodError):
    """An element index falls outside the group's 0..order-1 range."""


class NotSubgroupError(XmodError):
    """A subset is not closed under product and inverse."""


class NotNormalError(XmodError):
    """A subgroup is not stable under conjugation."""


class NotHomomorphismError(XmodError):
    """A map between groups fails multiplicativity at a witness pair."""


class OrderTooLargeError(XmodError):
    """A brute-force search was asked to exceed its configured order bound."""


# Crossed module errors.

class PreconditionFailedError(XmodError):
    """Input data does not meet a construction's stated precondition."""


class BaseMismatchError(XmodError):
    """Two structures that must share one base group do not."""


class CompositionMismatchError(XmodError):
    """Attempted to compose maps whose source and target do not meet."""


# Diagram and relation errors.

class DiagramMismatchError(XmodError):
    """A limit or colimit was requested for maps that do not form the shape."""


class NotEquivalenceRelationError(XmodError):
    """A pair set fails one of the equivalence relation requirements."""


# Word and free object errors.

class FiberMismatchError(XmodError):
    """An assignment sends a label outside its required boundary fiber."""


# Embedding errors.

class BudgetExceededError(XmodError):
    """The searches of one command used more work than its budget."""


class NotMonoError(XmodError):
    """A map expected to be injective is not."""


class IsIsoError(XmodError):
    """A map expected to be non-surjective is an isomorphism."""


class NotNaturalError(XmodError):
    """A component family fails a naturality square."""


class ReconstructionInvalidError(XmodError):
    """An element map read off a transformation fails validation."""


class ShapeMismatchError(XmodError):
    """A component family does not match the shape of its presheaves."""


# Session file and command errors.

class ParseError(XmodError):
    """Malformed session input (bad JSON or bad schema)."""


class ValidationError(XmodError):
    """A parsed object fails its structural validation."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class UnknownCommandError(XmodError):
    """The requested command does not exist."""


class UnknownNameError(XmodError):
    """A command referenced a session object that is not defined."""


class MissingArgumentError(XmodError):
    """A command was invoked without a required argument."""
