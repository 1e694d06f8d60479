"""Canonical integer partition representation and structural operations.

A partition is its descending tuple of (part, multiplicity) pairs and
nothing else. Zero multiplicities are never stored, so equal partitions
compare equal structurally and hash consistently. The weight is derived
from the entries on first read. All operations are pure; instances are
immutable and safe to share.

Canonical text format: space-separated tokens ``part`` or ``part^mult``
with parts strictly descending, the ``^mult`` suffix only for mult >= 2,
and no leading zeros. The empty string denotes the empty partition.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError

_TOKEN_RE = re.compile(r"([1-9][0-9]*)(?:\^([2-9]|[1-9][0-9]+))?")


@dataclass(frozen=True)
class Partition:
    """A partition of a nonnegative integer, as (part, multiplicity) pairs.

    The entries are the only field. The weight is summed from them on
    first read and cached in the instance dict; it takes no part in
    equality, hashing or repr.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if type(self.entries) is not tuple:
            kind = type(self.entries).__name__
            raise ValueError(f"entries must be a tuple of (part, multiplicity) tuples, got a {kind}")
        prev = None
        for entry in self.entries:
            if type(entry) is not tuple or len(entry) != 2:
                raise ValueError(f"invalid entry {entry!r}: expected a (part, multiplicity) tuple")
            part, mult = entry
            # exactly int: a bool or a float would pass the comparisons
            # below and then render or hash as something else
            if type(part) is not int or type(mult) is not int:
                raise ValueError(f"invalid entry {entry!r}: parts and multiplicities must be ints")
            if part < 1 or mult < 1:
                raise ValueError(f"invalid entry ({part}, {mult}): parts and multiplicities must be >= 1")
            if prev is not None and part >= prev:
                raise ValueError("entries must be strictly descending by part")
            prev = part

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...]) -> "Partition":
        """Wrap entries that are canonical by construction, without validating.

        Only for callers whose entries are strictly descending with every
        part and multiplicity >= 1 because of how they were built. Any
        other input goes through Partition(...) or from_pairs.
        """
        p = object.__new__(cls)
        # the instance dict, written directly: the one field __init__
        # sets, without the frozen __setattr__ guard
        p.__dict__["entries"] = entries
        return p

    @functools.cached_property
    def _weight(self) -> int:
        # summed on first read, then an ordinary instance-dict attribute;
        # cached_property writes the dict directly, past the frozen guard
        weight = 0
        for part, mult in self.entries:
            weight += part * mult
        return weight

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Build from (part, multiplicity) pairs in any order; merges duplicates."""
        acc: dict[int, int] = {}
        for part, mult in pairs:
            # checked per pair, so a negative multiplicity cannot hide
            # behind another pair for the same part
            if part < 1 or mult < 0:
                raise ValueError(f"invalid pair ({part}, {mult}): parts must be >= 1, multiplicities >= 0")
            if mult:
                acc[part] = acc.get(part, 0) + mult
        return cls(tuple(sorted(acc.items(), reverse=True)))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        """Build from a bag of parts, e.g. [4, 2, 2, 1]."""
        return cls.from_pairs((p, 1) for p in parts)

    def weight(self) -> int:
        """Sum of all parts with multiplicity (the 'n' this partitions)."""
        return self._weight

    def multiplicity(self, part: int) -> int:
        for p, mult in self.entries:
            if p == part:
                return mult
        return 0

    def is_empty(self) -> bool:
        return not self.entries

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram.

        Part i of the result occurs (#parts >= i) - (#parts >= i+1) times;
        equivalently the columns of the diagram become the rows.
        """
        # The column height at position i is the count of parts >= i; it is
        # constant on each run between consecutive distinct parts, so each
        # run contributes one entry (height, run length) to the conjugate.
        heights: list[tuple[int, int]] = []  # (height, run_length)
        total = 0
        entries = self.entries
        for idx, (part, mult) in enumerate(entries):
            total += mult
            lower = entries[idx + 1][0] if idx + 1 < len(entries) else 0
            heights.append((total, part - lower))
        # heights is strictly ascending in height (descending part ⇒ growing
        # count) with every run >= 1, so reversed it is already canonical.
        return Partition._trusted(tuple(reversed(heights)))

    def __add__(self, other: "Partition") -> "Partition":
        """Multiset union: multiplicities add pointwise.

        One merge of the two descending entry lists; a part in both gets
        the sum of its multiplicities, so the result is canonical as built.
        """
        a, b = self.entries, other.entries
        if not b:
            return self
        if not a:
            return other
        merged = []
        len_a, len_b = len(a), len(b)
        i = j = 0
        while i < len_a and j < len_b:
            x = a[i]
            y = b[j]
            if x[0] > y[0]:
                merged.append(x)
                i += 1
            elif x[0] < y[0]:
                merged.append(y)
                j += 1
            else:
                merged.append((x[0], x[1] + y[1]))
                i += 1
                j += 1
        merged += a[i:]
        merged += b[j:]
        return Partition._trusted(tuple(merged))

    def render(self) -> str:
        """Canonical text form, e.g. '7^4 6^2 5 1'. Empty partition -> ''."""
        tokens = []
        for part, mult in self.entries:
            tokens.append(f"{part}^{mult}" if mult >= 2 else str(part))
        return " ".join(tokens)

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the canonical text format; strict inverse of render()."""
        entries: list[tuple[int, int]] = []
        pos = 0
        for token in text.split(" ") if text else ():
            match = _TOKEN_RE.fullmatch(token)
            if match is None:
                raise ParseError(f"malformed token {token!r} at position {pos}", position=pos)
            part = int(match.group(1))
            if entries and part >= entries[-1][0]:
                raise ParseError(f"parts must be strictly descending at position {pos}", position=pos)
            entries.append((part, int(match.group(2) or 1)))
            pos += len(token) + 1
        return Partition(tuple(entries))
