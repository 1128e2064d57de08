"""Exception types shared across the engine.

Every error the engine raises deliberately derives from EngineError so the
CLI can map failures to exit codes without guessing.
"""


class EngineError(Exception):
    """Base class for all deliberate engine errors."""


class FieldMismatch(EngineError):
    """Operands live over different coefficient fields."""


class VariableMismatch(EngineError):
    """Operands disagree on the ambient variable list."""


class InvalidArc(EngineError):
    """Arc violates its invariants (nonzero constant term, all components zero)."""


class ParseError(EngineError):
    """Malformed input text; carries position information when available."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


class PrecisionExhausted(EngineError):
    """A needed t-order is indeterminate at the current truncation."""


class DivisionOrderError(EngineError):
    """Series division with divisor order exceeding the dividend order."""


class NotInSingularLocus(EngineError):
    """Order of a Rees algebra requested at a point outside its singular locus."""


class NotPermissible(EngineError):
    """Weighted transform at a center not contained in the singular locus."""


class ArcNotOnVariety(EngineError):
    """An arc required to lie on the hypersurface does not."""


class CharDividesDegree(EngineError):
    """Tschirnhausen transformation unavailable: characteristic divides the degree."""


class NoRationalUnit(EngineError):
    """No unit tuple over the base field avoids the initial form's zero set."""
