"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input (parsing, dimension or
containment violations) exits 2, capacity overruns exit 3.
"""

# Memory budget of exact mode, decoders, and Monte Carlo's one class-count array with
# its float64 breakdown (CapacityError beyond).  Each check depends on the codes only.
MAX_EXACT_BYTES = 2**31


class CsspairError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CsspairError, ValueError):
    """Operands have incompatible shapes (e.g. differing column counts)."""


class ContainmentError(CsspairError, ValueError):
    """A required subspace containment does not hold."""


class SingularMatrixError(CsspairError, ValueError):
    """A square matrix that must be invertible over GF(2) is singular."""


class EncodingError(CsspairError, ValueError):
    """A supplied coset-representative matrix is not a valid encoding."""


class CapacityError(CsspairError, RuntimeError):
    """The requested computation exceeds a documented size limit."""


class ParseError(CsspairError, ValueError):
    """A text input (matrix, code file, or config) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonTransversalError(CsspairError, RuntimeError):
    """Protocol refused to run on a pair that is not CNOT-transversal."""
