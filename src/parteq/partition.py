"""Canonical integer partition representation and structural operations.

A partition is its descending tuple of (part, multiplicity) pairs and
nothing else. Zero multiplicities are never stored, so equal partitions
compare equal structurally and hash consistently. All operations are
pure; instances are immutable and safe to share.

Canonical text format: space-separated tokens ``part`` or ``part^mult``
with parts strictly descending, the ``^mult`` suffix only for mult >= 2,
and no leading zeros. The empty string denotes the empty partition.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import DomainError, ParseError, check_int, quote

_TOKEN_RE = re.compile(r"([1-9][0-9]*)(?:\^([2-9]|[1-9][0-9]+))?")


def canonical(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The canonical entries of a bag of (part, multiplicity) pairs.

    Adds up the multiplicities of each part and sorts by descending part.
    No validation: every caller passes parts and multiplicities >= 1.
    """
    acc: dict[int, int] = {}
    for part, mult in pairs:
        acc[part] = acc.get(part, 0) + mult
    return tuple(sorted(acc.items(), reverse=True))


def _conjugate(entries: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The canonical entries of the transpose of a canonical partition.

    Part i of the result occurs (#parts >= i) - (#parts >= i+1) times;
    equivalently the columns of the diagram become the rows.
    """
    # The column height at position i is the count of parts >= i; it is
    # constant on each run between consecutive distinct parts, so each
    # run contributes one entry (height, run length) to the conjugate.
    heights: list[tuple[int, int]] = []  # (height, run_length)
    total = 0
    prev = 0
    for part, mult in entries:
        if total:
            heights.append((total, prev - part))
        total += mult
        prev = part
    if total:
        heights.append((total, prev))
    # heights is strictly ascending in height (descending part ⇒ growing
    # count) with every run >= 1, so reversed it is already canonical.
    heights.reverse()
    return tuple(heights)


def _render(entries: tuple[tuple[int, int], ...]) -> str:
    """The canonical text of canonical entries; see Partition.render."""
    return " ".join([f"{part}^{mult}" if mult >= 2 else str(part) for part, mult in entries])


def _weigh(entries: tuple[tuple[int, int], ...]) -> int:
    """The weight of canonical entries: each part times its multiplicity, summed."""
    weight = 0
    for part, mult in entries:
        weight += part * mult
    return weight


class Partition:
    """A partition of a nonnegative integer, as (part, multiplicity) pairs.

    An immutable value with one field, entries, set once through
    object.__setattr__ past the guard below; equal entries give equal
    partitions with equal hashes.
    """

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()):
        if type(entries) is not tuple:
            kind = type(entries).__name__
            raise DomainError(f"entries must be a tuple of (part, multiplicity) tuples, got a {kind}")
        prev = None
        for entry in entries:
            if type(entry) is not tuple or len(entry) != 2:
                raise DomainError(f"invalid entry {entry!r}: expected a (part, multiplicity) tuple")
            part, mult = entry
            check_int("part", part, 1)
            check_int("multiplicity", mult, 1)
            if prev is not None and part >= prev:
                raise DomainError("entries must be strictly descending by part")
            prev = part
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...]) -> "Partition":
        """Wrap entries that are canonical by construction, without validating.

        Only for three kinds of entries: a subsequence of canonical
        entries, entries generated in canonical order, or the output of
        canonical(). parse (the tokens it checked, read in canonical
        order) and from_pairs (canonical() of the pairs it checked) build
        through here; any other input goes through Partition(...).
        """
        p = object.__new__(cls)
        # the field __init__ sets, set the way __init__ sets it: a write
        # through __dict__ would give the instance a real dict, and every
        # later read of entries would get slower
        object.__setattr__(p, "entries", entries)
        return p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Partition(entries={self.entries!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Build from (part, multiplicity) pairs in any order; merges duplicates."""
        kept = []
        for pair in pairs:
            try:
                part, mult = pair
            except (TypeError, ValueError):
                raise DomainError(
                    f"expected a (part, multiplicity) pair, got a {type(pair).__name__}"
                ) from None
            # checked per pair, so a negative multiplicity cannot hide
            # behind another pair for the same part
            check_int("part", part, 1)
            check_int("multiplicity", mult, 0)
            if mult:
                kept.append((part, mult))
        return cls._trusted(canonical(kept))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        """Build from a bag of parts, e.g. [4, 2, 2, 1]."""
        return cls.from_pairs((p, 1) for p in parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; see _conjugate."""
        return Partition._trusted(_conjugate(self.entries))

    def render(self) -> str:
        """Canonical text form, e.g. '7^4 6^2 5 1'. Empty partition -> ''."""
        return _render(self.entries)

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the canonical text format; strict inverse of render()."""
        if type(text) is not str:
            raise DomainError(f"expected partition text, got a {type(text).__name__}")
        entries: list[tuple[int, int]] = []
        pos = 0
        for token in text.split(" ") if text else ():
            match = _TOKEN_RE.fullmatch(token)
            if match is None:
                raise ParseError(f"malformed token {quote(token)} at position {pos}")
            try:
                part = int(match.group(1))
                mult = int(match.group(2) or 1)
            except ValueError:
                # the token is all ASCII digits, so this is the interpreter's
                # limit on the digits int() reads from text
                raise ParseError(f"integer too long in token at position {pos}") from None
            if entries and part >= entries[-1][0]:
                raise ParseError(f"parts must be strictly descending at position {pos}")
            entries.append((part, mult))
            pos += len(token) + 1
        return Partition._trusted(tuple(entries))
