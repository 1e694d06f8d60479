import random

from parteq.partition import Partition

EMPTY = Partition()


def largest_part(p: Partition) -> int:
    """Largest part of p, 0 for the empty partition."""
    return p.entries[0][0] if p.entries else 0


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
