import random

from parteq.classes import ClassParams
from parteq.partition import Partition

EMPTY = Partition()


def largest_part(p: Partition) -> int:
    """Largest part of p, 0 for the empty partition."""
    return p.entries[0][0] if p.entries else 0


def multiplicity(p: Partition, part: int) -> int:
    """How many times part occurs in p, 0 when it does not."""
    for q, mult in p.entries:
        if q == part:
            return mult
    return 0


def random_partition(rng: random.Random, max_weight: int = 40, max_part: int = 15) -> Partition:
    """A partition drawn part-by-part; weight bounded but otherwise unstructured."""
    parts = []
    budget = rng.randint(0, max_weight)
    while budget > 0:
        p = rng.randint(1, min(max_part, budget))
        parts.append(p)
        budget -= p
    return Partition.from_parts(parts)


def random_d_free_partition(rng: random.Random, d: int, max_part: int, max_parts: int = 12) -> Partition:
    """A partition with no part divisible by d and all parts <= max_part."""
    allowed = [j for j in range(1, max_part + 1) if j % d != 0]
    if not allowed:
        return Partition()
    parts = [rng.choice(allowed) for _ in range(rng.randint(0, max_parts))]
    return Partition.from_parts(parts)


def reference_is_in_A(p: Partition, params: ClassParams) -> bool:
    """Membership in A(n,k,d,m), read off the definition through Partition's methods."""
    if p.weight() != params.n:
        return False
    divisible = 0
    for part, mult in p.entries:
        if part % params.d == 0:
            divisible += mult
        elif part >= params.m * params.d:
            return False
    return divisible == params.k


def reference_is_in_B(p: Partition, params: ClassParams) -> bool:
    """Membership in B(n,k,d,m), one condition of the definition at a time."""
    if p.weight() != params.n:
        return False
    k, d, m = params.k, params.d, params.m
    if m < k:
        if largest_part(p) != k * d:
            return False
        for part, _ in p.entries:
            if part > m * d and part % d != 0:
                return False
        return True
    if multiplicity(p, k) < d:
        return False
    if largest_part(p) > m * d:
        return False
    for part, mult in p.entries:
        if k < part <= m and mult >= d:
            return False
    return True
