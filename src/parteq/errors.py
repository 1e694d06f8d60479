"""Exception types shared across the package, and the one parameter check."""


class ParteqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ParteqError, ValueError):
    """Malformed partition text. Carries the character position of the fault."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DomainError(ParteqError, ValueError):
    """Argument outside the domain of a map (bad modulus, bad parts, ...)."""


def check_int(name: str, value, low: int) -> None:
    """Raise DomainError unless value is exactly an int, not a bool, and >= low.

    Exactly int: a bool, a float or an int subclass would pass the
    comparison and then render, hash or index as something else.
    """
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


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
