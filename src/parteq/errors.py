"""Exception types shared across the package, the one parameter check,
the one way a message quotes the input it rejects, and Value, the base of
the immutable values: the leaf module that classes, partition and qseries
all import.

Each type carries the exit status the `parteq` command returns for it:
2 (usage) unless a type says otherwise, 1 where a checked claim failed,
3 where the enumeration budget was exceeded. A subclass inherits its
parent's status.
"""

from operator import attrgetter


class ParteqError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParseError(ParteqError, ValueError):
    """Malformed partition text; the message names the character position of the fault."""


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


def quote(text: str) -> str:
    """repr(text), or for text over 40 characters the repr of its first 20 and its length.

    A message that quotes a rejected token stays one short line however
    long the token is.
    """
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


class Value:
    """An immutable value, equal and hashed by its fields.

    A subclass names its fields in its class statement, as in
    class Partition(Value, fields=("entries",)), and its __init__ sets each
    once through object.__setattr__. Values of different classes are never
    equal; the hash is that of the one field, or of the tuple of several.
    """

    def __init_subclass__(cls, fields: tuple[str, ...], **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields
        cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
