"""Exceptions shared across the package."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular."""


class NotFullDimensionalError(ValueError):
    """The polyhedron has empty interior in its ambient space."""


class UnboundedError(ValueError):
    """The polyhedron is unbounded where a polytope was required."""


class DegenerateConeError(ValueError):
    """A cone violated a rank or pointedness requirement."""


class OracleTooLargeError(ValueError):
    """The brute-force enumeration region exceeds the configured cap."""


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"
