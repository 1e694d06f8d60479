"""Exception types shared across the package."""


class ParteqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ParteqError, ValueError):
    """Malformed partition text. Carries the character position of the fault."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DomainError(ParteqError, ValueError):
    """Argument outside the domain of a map (bad modulus, bad parts, ...)."""


class UnsupportedModulus(DomainError):
    """The constructive bijection requires a modulus of at least 2."""


class NotInClassA(ParteqError, ValueError):
    """Input partition is not a member of the A-class for the given params."""


class NotInClassB(ParteqError, ValueError):
    """Input partition is not a member of the B-class for the given params."""


class InternalError(ParteqError, RuntimeError):
    """A self-check inside the bijection failed; indicates a bug, not bad input."""


class BudgetExceeded(ParteqError, RuntimeError):
    """An enumeration would produce more partitions than the configured cap."""


class DegreeMismatch(ParteqError, ValueError):
    """Binary series operation on series with different truncation degrees."""


class OutOfRange(ParteqError, IndexError):
    """Coefficient index beyond the truncation degree."""
