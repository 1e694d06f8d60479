"""The partition classes A(n,k,d,m) and B(n,k,d,m).

A(n,k,d,m): partitions of n with exactly k parts divisible by d, all other
parts strictly less than m*d.

B(n,k,d,m), branching on m vs k:
  m <  k: the largest part equals k*d and every part above m*d is divisible
          by d (parts up to m*d are unrestricted);
  m >= k: the part k occurs at least d times, no part exceeds m*d, and every
          part i with k < i <= m occurs fewer than d times (parts in
          (m, m*d] unrestricted in multiplicity).

A partition lies in at most one A(n,k,d,m) and at most one B(n,k,d,m)
for given d and m. For A, k is its number of parts divisible by d. For B,
k is its largest part over d when that part is above m*d, and otherwise
its largest part <= m that occurs at least d times. k_of_A and k_of_B
read that k off a partition, and members_by_k sorts the partitions of one
n by it in one pass. is_in_A and is_in_B, which also check the weight, are
for partitions that do not come from a walk over the partitions of n.

Enumeration is by brute force over all partitions of n in descending
lexicographic order of part sequences, generated directly as
(part, multiplicity) entries; classification then keeps the members.
The enumerators take no cap; check_budget tells a caller whether the
partitions of n fit one. The independent count comes from the q-series
module.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Iterator

from .errors import BudgetExceeded, DomainError, Value, check_int, quote
from .partition import Partition, _weigh

_INTEGER_RE = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """The integer written as ASCII digits with an optional leading minus.

    int() alone also reads any Unicode digit, underscores and surrounding
    whitespace, so '٣' or '1_0' would pass silently as 3 or 10.
    """
    if _INTEGER_RE.fullmatch(text) is None:
        raise DomainError(f"expected an integer, got {quote(text)}")
    try:
        return int(text)
    except ValueError:
        # the text is all ASCII digits, so this is the interpreter's limit
        # on the digits int() reads; the digits are not echoed back
        raise DomainError(f"integer too long: {len(text)} characters") from None


class ClassParams(Value, fields=("n", "k", "d", "m")):
    """The quadruple (n, k, d, m) parameterizing A and B, an immutable value."""

    def __init__(self, n: int, k: int, d: int, m: int):
        check_int("n", n, 0)
        check_int("k", k, 1)
        check_int("d", d, 1)
        check_int("m", m, 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)

    @classmethod
    def _trusted(cls, n: int, k: int, d: int, m: int) -> "ClassParams":
        """The params (n, k, d, m), without checking them.

        Only for values already checked: cmd_verify's points, whose ranges
        ascend from a first point it built through ClassParams(...). Any
        other caller goes through ClassParams(...).
        """
        params = object.__new__(cls)
        # set the way __init__ sets them; see Partition._trusted
        set_field = object.__setattr__
        set_field(params, "n", n)
        set_field(params, "k", k)
        set_field(params, "d", d)
        set_field(params, "m", m)
        return params

    @classmethod
    def parse(cls, text: str) -> "ClassParams":
        """Parse the comma-joined quadruple 'n,k,d,m'."""
        fields = text.split(",")
        if len(fields) != 4:
            raise DomainError(f"expected 'n,k,d,m', got {quote(text)}")
        return cls(*map(integer, fields))


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
    time bounded by the cap, not by n. A cap that is not an int >= 0
    raises DomainError.
    """
    check_int("budget", cap, 0)
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


def k_of_A(p: Partition, d: int, m: int) -> int | None:
    """The k with p in A(|p|,k,d,m), or None when there is none.

    k counts the parts divisible by d; every other part must be below m*d.
    """
    md = m * d
    divisible = 0
    for part, mult in p.entries:
        if part % d == 0:
            divisible += mult
        elif part >= md:
            return None
    return divisible or None


def k_of_B(p: Partition, d: int, m: int) -> int | None:
    """The k with p in B(|p|,k,d,m), or None when there is none.

    A largest part above m*d (the case m < k) must be k*d, and every part
    above m*d must be divisible by d. Otherwise (the case m >= k) k is the
    largest part <= m that occurs at least d times; for m >= n that is
    Smoot and Yang's "the largest part repeated at least d times is k".
    """
    md = m * d
    entries = p.entries
    if entries and entries[0][0] > md:
        for part, _ in entries:
            if part <= md:
                break
            if part % d:
                return None
        return entries[0][0] // d
    for part, mult in entries:
        if part <= m and mult >= d:
            return part
    return None


def is_in_A(p: Partition, params: ClassParams) -> bool:
    """Membership in A(n,k,d,m)."""
    return _weigh(p.entries) == params.n and k_of_A(p, params.d, params.m) == params.k


def is_in_B(p: Partition, params: ClassParams) -> bool:
    """Membership in B(n,k,d,m)."""
    return _weigh(p.entries) == params.n and k_of_B(p, params.d, params.m) == params.k


def members_by_k(partitions: Iterable[Partition], d: int, m: int) -> tuple[dict, dict]:
    """Every k's members of A and of B among partitions of one n, in one pass.

    Returns two dicts, k -> members of A(n,k,d,m) and k -> members of
    B(n,k,d,m), each list in input order. The weights are not read: the
    caller passes partitions of n only.
    """
    a, b = {}, {}
    for p in partitions:
        k = k_of_A(p, d, m)
        if k is not None:
            a.setdefault(k, []).append(p)
        k = k_of_B(p, d, m)
        if k is not None:
            b.setdefault(k, []).append(p)
    return a, b


def enumerate_A(params: ClassParams) -> Iterator[Partition]:
    """Members of A(n,k,d,m) in descending lex order."""
    for p in enumerate_partitions(params.n):
        if k_of_A(p, params.d, params.m) == params.k:
            yield p


def enumerate_B(params: ClassParams) -> Iterator[Partition]:
    """Members of B(n,k,d,m) in descending lex order."""
    for p in enumerate_partitions(params.n):
        if k_of_B(p, params.d, params.m) == params.k:
            yield p

