import random

from parteq.bijection import finite_glaisher_forward, finite_glaisher_inverse
from parteq.classes import ClassParams
from parteq.partition import Partition
from parteq.qseries import solutionI_sides

EMPTY = Partition()

# the order of BijectionTrace.pieces
TRACE_FIELDS = ("lam", "mu", "o", "mu_star", "mu_star_0", "epsilon", "delta", "kappa")


def weight(p: Partition) -> int:
    """Sum of all parts with multiplicity, from the entries: not the weight p caches."""
    return sum(part * mult for part, mult in p.entries)


def union(p: Partition, q: Partition) -> Partition:
    """Multiset union: multiplicities add pointwise."""
    return Partition.from_pairs(p.entries + q.entries)


def glaisher_forward(o: Partition, d: int) -> Partition:
    """Glaisher's map: base-d expand each multiplicity.

    This is the finite-bound map with the bound at the weight: then
    j*d^L_j > m >= j*N_j, so no multiplicity reaches its overflow part.
    """
    return finite_glaisher_forward(o, d, max(1, weight(o)))


def glaisher_inverse(delta: Partition, d: int) -> Partition:
    """Inverse of Glaisher's map: fold each part j*d^l back onto part j."""
    return finite_glaisher_inverse(delta, d, max(1, weight(delta)))


def solutionI_check(k: int, N: int) -> bool:
    """True iff both sides of the classical identity agree up to degree N."""
    lhs, rhs = solutionI_sides(k, N)
    return lhs == rhs


def field(trace, name: str) -> Partition:
    """A trace field as a Partition, through the validating constructor."""
    return Partition(trace.pieces[TRACE_FIELDS.index(name)])


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
    """Membership in A(n,k,d,m), read off the definition one condition at a time."""
    if weight(p) != params.n:
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
    if weight(p) != params.n:
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
