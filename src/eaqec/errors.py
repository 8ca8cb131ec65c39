"""Exception types raised by the eaqec package."""

from __future__ import annotations


class EaqecError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EaqecError):
    """Operands act on different numbers of qubits, or a length is out of range."""


class BudgetError(EaqecError):
    """An enumeration would visit more group elements than the configured
    budget, or an exact simplex solve ran past its pivot cap."""


class InconsistencyError(EaqecError):
    """A transform produced a non-integer coefficient, so the input could not
    have been the weight distribution of a group."""


class StructureError(EaqecError):
    """Generator counts or commutation structure are inconsistent with the
    declared code parameters."""


class UndefinedDistanceError(EaqecError):
    """The set of operators defining the minimum distance is empty."""


class ParseError(EaqecError):
    """A code file could not be parsed.  Carries position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column
