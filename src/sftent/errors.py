"""Exception types shared across the package."""


class SftentError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceeded(SftentError):
    """An enumeration or DP call would exceed its configured work budget."""


class SubsetViolation(SftentError):
    """A lattice argument was required to be a subset of another and is not."""


class SymbolOutOfRange(SftentError):
    """A pattern uses a symbol outside the spec's alphabet 0..N-1."""


class NonPrimitiveVector(SftentError, ValueError):
    """A direction vector must be nonzero with coprime components."""


class OverlapError(SftentError):
    """Two lattice parts that must be disjoint overlap."""


class NotDecomposable(SftentError):
    """The lattice cannot be cut along full lines into rectangles."""
