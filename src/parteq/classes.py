"""The partition classes A(n,k,d,m) and B(n,k,d,m).

A(n,k,d,m): partitions of n with exactly k parts divisible by d, all other
parts strictly less than m*d.

B(n,k,d,m), branching on m vs k:
  m <  k: the largest part equals k*d and every part above m*d is divisible
          by d (parts up to m*d are unrestricted);
  m >= k: the part k occurs at least d times, no part exceeds m*d, and every
          part i with k < i <= m occurs fewer than d times (parts in
          (m, m*d] unrestricted in multiplicity).

Enumeration is by brute force over all partitions of n in descending
lexicographic order of part sequences, generated directly as
(part, multiplicity) entries. The enumerators take no cap; check_budget
tells a caller whether the partitions of n fit one.
The independent count comes from the q-series module.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceeded, DomainError, check_int
from .partition import Partition

_INTEGER_RE = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """The integer written as ASCII digits with an optional leading minus.

    int() alone also reads any Unicode digit, underscores and surrounding
    whitespace, so '٣' or '1_0' would pass silently as 3 or 10.
    """
    if _INTEGER_RE.fullmatch(text) is None:
        raise DomainError(f"expected an integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class ClassParams:
    """The quadruple (n, k, d, m) parameterizing A and B."""

    n: int
    k: int
    d: int
    m: int

    def __post_init__(self):
        check_int("n", self.n, 0)
        check_int("k", self.k, 1)
        check_int("d", self.d, 1)
        check_int("m", self.m, 1)

    @classmethod
    def parse(cls, text: str) -> "ClassParams":
        """Parse the comma-joined quadruple 'n,k,d,m'."""
        fields = text.split(",")
        if len(fields) != 4:
            raise DomainError(f"expected 'n,k,d,m', got {text!r}")
        try:
            n, k, d, m = (parse_int(f) for f in fields)
        except ValueError as exc:
            raise DomainError(f"non-integer in params {text!r}") from exc
        return cls(n, k, d, m)


@functools.cache
def count_partitions(n: int) -> int:
    """Number of partitions of n, by the standard DP, computed once per n.

    Used both as the up-front budget estimate and as an independent oracle
    for the enumerator in tests.
    """
    check_int("n", n, 0)
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def check_budget(n: int, cap: int) -> None:
    """Raise BudgetExceeded when n has more partitions than cap.

    A partition of t < n plus n - t parts 1 is one of n, so t's count is
    at most n's. The counts of t = 64, 128, ... below n are taken first,
    and the first past the cap settles it: an n far over the cap costs
    time bounded by the cap, not by n.
    """
    t = 64
    while t < n:
        total = count_partitions(t)
        if total > cap:
            raise BudgetExceeded(f"partitions of {n} exceed budget {cap}: {t} alone has {total}")
        t *= 2
    total = count_partitions(n)
    if total > cap:
        raise BudgetExceeded(f"{total} partitions of {n} exceeds budget {cap}")


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, descending lex order.

    There is no cap here: a caller that takes n from outside the program
    calls check_budget first.
    """
    check_int("n", n, 0)
    if n == 0:
        yield Partition._trusted(())
        return
    # Descending lex order in multiplicity form (Knuth, TAOCP 4A
    # 7.2.1.4): the first partition is n itself. Each successor drops
    # the trailing 1s, takes one copy off the smallest remaining part p,
    # and refills p plus the dropped 1s greedily with parts <= p - 1.
    # Every entry list stays strictly descending with multiplicities >= 1.
    entries = [(n, 1)]
    while True:
        yield Partition._trusted(tuple(entries))
        part, mult = entries.pop()
        freed = 0
        if part == 1:
            if not entries:
                return
            freed = mult
            part, mult = entries.pop()
        if mult > 1:
            entries.append((part, mult - 1))
        freed += part
        part -= 1
        mult, rest = divmod(freed, part)
        entries.append((part, mult))
        if rest:
            entries.append((rest, 1))


def is_in_A(p: Partition, params: ClassParams) -> bool:
    """Membership in A(n,k,d,m)."""
    if p._weight != params.n:
        return False
    d = params.d
    md = params.m * d
    divisible = 0
    for part, mult in p.entries:
        if part % d == 0:
            divisible += mult
        elif part >= md:
            return False
    return divisible == params.k


def is_in_B(p: Partition, params: ClassParams) -> bool:
    """Membership in B(n,k,d,m); branches on m < k vs m >= k.

    One walk down the descending entries, which stops as soon as the
    answer is known.
    """
    if p._weight != params.n:
        return False
    k, d, m = params.k, params.d, params.m
    md = m * d
    entries = p.entries
    if m < k:
        if not entries or entries[0][0] != k * d:
            return False
        for part, _ in entries:
            if part <= md:
                return True
            if part % d:
                return False
        return True
    if entries and entries[0][0] > md:
        return False
    for part, mult in entries:
        if part > m:
            continue
        if part > k:
            if mult >= d:
                return False
            continue
        # the first part <= k decides: it must be k, occurring at least d times
        return part == k and mult >= d
    return False


def enumerate_A(params: ClassParams) -> Iterator[Partition]:
    """Members of A(n,k,d,m) in descending lex order."""
    for p in enumerate_partitions(params.n):
        if is_in_A(p, params):
            yield p


def enumerate_B(params: ClassParams) -> Iterator[Partition]:
    """Members of B(n,k,d,m) in descending lex order."""
    for p in enumerate_partitions(params.n):
        if is_in_B(p, params):
            yield p

