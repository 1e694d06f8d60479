"""Exception types shared across the package, the one parameter check, and
the one way a message quotes the input it rejects.

Each type carries the exit status the `parteq` command returns for it:
2 (usage) unless a type says otherwise, 1 where a checked claim failed,
3 where the enumeration budget was exceeded. A subclass inherits its
parent's status.
"""


class ParteqError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParseError(ParteqError, ValueError):
    """Malformed partition text; the message names the character position of the fault."""


class DomainError(ParteqError, ValueError):
    """Argument outside the domain of a map (bad modulus, bad parts, ...)."""


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise DomainError unless value is exactly an int, not a bool, and >= low.

    Exactly int: a bool, a float or an int subclass would pass the
    comparison and then render, hash or index as something else. Without
    low, only the type is checked, for a caller whose range check raises
    its own error.
    """
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


def quote(text: str) -> str:
    """repr(text), or for text over 40 characters the repr of its first 20 and its length.

    A message that quotes a rejected token stays one short line however
    long the token is.
    """
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


class UnsupportedModulus(DomainError):
    """The constructive bijection requires a modulus of at least 2."""


class NotInClassA(ParteqError, ValueError):
    """Input partition is not a member of the A-class for the given params."""

    exit_code = 1


class NotInClassB(ParteqError, ValueError):
    """Input partition is not a member of the B-class for the given params."""

    exit_code = 1


class InternalError(ParteqError, RuntimeError):
    """A self-check inside the bijection failed; indicates a bug, not bad input."""

    exit_code = 1


class BudgetExceeded(ParteqError, RuntimeError):
    """An enumeration would produce more partitions than the configured cap."""

    exit_code = 3


class DegreeMismatch(ParteqError, ValueError):
    """Binary series operation on series with different truncation degrees."""


class OutOfRange(ParteqError, IndexError):
    """Coefficient index beyond the truncation degree."""
