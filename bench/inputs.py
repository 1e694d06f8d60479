"""Seeded inputs for the benchmark, written from the class definitions alone.

Nothing here imports parteq: the bijection must not be checked against
inputs that parteq itself produced. A partition is a dict
{part: multiplicity}; `render` gives the canonical text form that
`parteq map` reads (parts descending, `part^mult` for mult >= 2).

Class definitions (n, k, d, m >= 1):
  A: exactly k parts divisible by d, every other part below m*d.
  B, m <  k: largest part k*d, every part above m*d divisible by d.
  B, m >= k: part k at least d times, no part above m*d, every part i
             with k < i <= m fewer than d times.
"""

from __future__ import annotations

import random

GRID_K = range(1, 7)
GRID_D = range(1, 5)
GRID_M = range(1, 9)

# map-stream draws n here: far past where enumeration can reach.
MAP_N = (60, 200)
MAP_D = range(2, 5)  # the bijection needs a modulus of at least 2

# series-deep truncation degrees. The ranges are narrow on purpose: the
# cost of one check grows with N (finite identity) or N^2 (classical
# identity), and a narrow range keeps the per-op cost, and so the
# latency percentiles, the same from seed to seed.
SERIES_N = (1000, 1063)
SERIES_PASSES = 5  # each grid triple this many times, so a round has over 1000 ops
EQ1_N = (200, 215)
EQ1_OPS = 160


def render(mults: dict[int, int]) -> str:
    return " ".join(f"{p}^{c}" if c > 1 else str(p) for p, c in sorted(mults.items(), reverse=True))


def parse(text: str) -> dict[int, int]:
    mults: dict[int, int] = {}
    for token in text.split():
        part, _, mult = token.partition("^")
        mults[int(part)] = mults.get(int(part), 0) + (int(mult) if mult else 1)
    return mults


def weight(mults: dict[int, int]) -> int:
    return sum(p * c for p, c in mults.items())


def in_A(mults: dict[int, int], n: int, k: int, d: int, m: int) -> bool:
    return (
        weight(mults) == n
        and sum(c for p, c in mults.items() if p % d == 0) == k
        and all(p < m * d for p in mults if p % d)
    )


def in_B(mults: dict[int, int], n: int, k: int, d: int, m: int) -> bool:
    if weight(mults) != n or not mults:
        return False
    if m < k:
        return max(mults) == k * d and all(p % d == 0 for p in mults if p > m * d)
    return (
        mults.get(k, 0) >= d
        and max(mults) <= m * d
        and all(c < d for p, c in mults.items() if k < p <= m)
    )


def count_A_table(k: int, d: int, m: int | None, nmax: int) -> list[int]:
    """|A(n,k,d,m)| for n = 0..nmax by a knapsack over parts; m=None lifts the bound.

    With d = 2 and m = None this counts partitions with exactly k even
    parts, the coefficients of the classical identity's left side.
    """
    ways = [[0] * (nmax + 1) for _ in range(k + 1)]  # ways[j][w]: j parts divisible by d, weight w
    ways[0][0] = 1
    for p in range(1, nmax + 1):
        step = 1 if p % d == 0 else 0
        if not step and m is not None and p >= m * d:
            continue
        for w in range(p, nmax + 1):
            for j in range(step, k + 1):
                ways[j][w] += ways[j - step][w - p]
    return ways[k]


def _fill(rng: random.Random, mults: dict[int, int], remaining: int, parts: list[int], cap=None) -> None:
    """Add random parts from `parts` until `remaining` is used up.

    `parts` must contain 1 with no cap, so the fill always terminates.
    """
    while remaining:
        choices = [p for p in parts if p <= remaining and (cap is None or mults.get(p, 0) < cap(p))]
        p = rng.choice(choices)
        mults[p] = mults.get(p, 0) + 1
        remaining -= p


def _composition(rng: random.Random, total: int, k: int) -> list[int]:
    """A uniformly random composition of total into k positive parts."""
    cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def gen_A(rng: random.Random, n: int, k: int, d: int, m: int) -> dict[int, int]:
    """A member of A(n,k,d,m); needs d >= 2 and n >= k*d."""
    share = rng.uniform(0.2, 0.8)
    scaled = max(k, int(n * share) // d)
    mults: dict[int, int] = {}
    for a in _composition(rng, scaled, k):
        mults[d * a] = mults.get(d * a, 0) + 1
    free = [j for j in range(1, m * d) if j % d]
    _fill(rng, mults, n - d * scaled, free)
    return mults


def gen_B(rng: random.Random, n: int, k: int, d: int, m: int) -> dict[int, int]:
    """A member of B(n,k,d,m); needs d >= 2 and n large enough for the forced parts."""
    if m < k:
        mults = {k * d: 1}
        parts = list(range(1, m * d + 1)) + list(range(d * (m + 1), k * d + 1, d))
        _fill(rng, mults, n - k * d, parts)
        return mults
    copies = d + rng.randint(0, 3)
    mults = {k: copies}
    _fill(rng, mults, n - k * copies, list(range(1, m * d + 1)),
          cap=lambda p: d - 1 if k < p <= m else n)
    return mults


def map_stream_ops(seed: int, count: int) -> list[tuple[str, str, tuple[int, int, int, int]]]:
    """(start class, canonical text, (n,k,d,m)) for `count` round trips.

    Ops alternate between A-start and B-start, so half begin from each
    class; the B-start half covers both B branches because m < k and
    m >= k both occur on the grid.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        k, d, m = rng.choice(GRID_K), rng.choice(MAP_D), rng.choice(GRID_M)
        n = rng.randint(*MAP_N)
        start = "A" if i % 2 == 0 else "B"
        gen = gen_A if start == "A" else gen_B
        ops.append((start, render(gen(rng, n, k, d, m)), (n, k, d, m)))
    return ops


def check_map_ops(ops) -> list[str]:
    """Every way `ops` breaks its own definition; empty when none does.

    Each text must be canonical and a member of its start class, and the
    B-start ops must cover both B branches.
    """
    problems = []
    branches = set()
    for start, text, (n, k, d, m) in ops:
        mults = parse(text)
        member = in_A if start == "A" else in_B
        if render(mults) != text or not member(mults, n, k, d, m):
            problems.append(f"{text!r} is not a canonical member of {start}{(n, k, d, m)}")
        if start == "B":
            branches.add(m < k)
    if branches != {True, False}:
        problems.append("the B-start ops do not cover both B branches")
    return problems


def series_deep_ops(seed: int) -> list[tuple[str, int, int, int, int]]:
    """(identity, k, d, m, N): every grid triple SERIES_PASSES times, plus classical checks.

    The seed picks each truncation degree, the k of each classical check
    and the order; every (k,d,m) of the standard grid occurs equally
    often so that the mix of cheap and costly triples is the same for
    every seed.
    """
    rng = random.Random(seed)
    ops = [
        ("eq2", k, d, m, rng.randint(*SERIES_N))
        for _ in range(SERIES_PASSES) for k in GRID_K for d in GRID_D for m in GRID_M
    ]
    ops += [("eq1", rng.choice(GRID_K), 0, 0, rng.randint(*EQ1_N)) for _ in range(EQ1_OPS)]
    rng.shuffle(ops)
    return ops
