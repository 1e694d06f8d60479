"""The refined claim: A and B agree not only in size but weight by weight.

φ sends o(λ), the parts of λ not divisible by d, through the finite
Glaisher map to δ, and the rest of λ through conjugation; so |o(λ)| is
the weight of δ in κ = φ(λ). δ's weight can be read off any κ ∈ B from
the definition of B alone, with c = min(m, k):

    δ(κ) = Σ_{part ≤ c} part·(mult mod d) + Σ_{c < part ≤ md} part·mult.

Then for every a, three counts agree:

    #{λ ∈ A : |o(λ)| = a} = #{κ ∈ B : δ(κ) = a}
        = [q^{n-a}] q^{dk}/(q^d;q^d)_k · [q^a] (q^d;q^d)_m/(q;q)_{md}.

The first factor is the conjugation step and the second the finite
Glaisher identity. Checking lhs = rhs would miss a fault that both sides
share; these factored products are checked against enumeration instead.

φ carries a second statistic. The largest part of λ divisible by d is the
number of parts of μ*, which φ splits into μ*₀ (κ's multiplicities at
parts ≤ c, less their residues mod d) and ε (κ's parts above md, each
standing for d columns of μ*):

    t(κ) = Σ_{part ≤ c} (mult − mult mod d) + d·Σ_{part > md} mult.

So (|o(λ)|, λ's largest part divisible by d) over A, (δ(κ), t(κ)) over B
and a product count agree. At (a, d·j) the count is the partitions of
(n − a)/d into exactly k parts with largest part j, the q^{(n−a)/d}
coefficient of q^{k+j−1}·[k+j−2 choose k−1]_q (Andrews, The Theory of
Partitions, 1976, ch. 3), times [q^a] (q^d;q^d)_m/(q;q)_{md}.
"""

from collections import Counter

from parteq.bijection import phi
from parteq.classes import ClassParams, enumerate_partitions, is_in_A, is_in_B
from parteq.qseries import _side

GRID_KDM = [(k, d, m) for k in range(1, 7) for d in range(2, 5) for m in range(1, 9)]


def d_free_weight(entries, d):
    """|o(λ)|: the weight of the parts not divisible by d."""
    return sum(part * mult for part, mult in entries if part % d)


def delta_weight(entries, k, d, m):
    """δ(κ) read off κ's entries by the formula above, without φ."""
    c = min(m, k)
    return sum(
        part * (mult % d) if part <= c else part * mult
        for part, mult in entries
        if part <= m * d
    )


def largest_divisible_part(entries, d):
    """λ's largest part divisible by d, or 0 when it has none."""
    return next((part for part, _ in entries if part % d == 0), 0)


def t_weight(entries, k, d, m):
    """t(κ) read off κ's entries by the formula above, without φ."""
    c = min(m, k)
    columns = sum(mult - mult % d for part, mult in entries if part <= c)
    return columns + d * sum(mult for part, mult in entries if part > m * d)


def weight_distributions(N):
    """Assert the refined claim at each grid (k,d,m) and each n <= N.

    Returns (points, A members). Tier-1 runs N = 18 and tests/deep.py N = 28.
    """
    partitions = [list(enumerate_partitions(n)) for n in range(N + 1)]
    # rows[k, j]: partitions into exactly k parts with largest part j, by weight
    rows = {
        (k, j): _side(N, k + j - 1, (1, j, 1, k - 1), (-1, 1, 1, k - 1)).coefficients
        for k in range(1, 7)
        for j in range(1, N + 1)
    }
    points = members = 0
    for k, d, m in GRID_KDM:
        # every factor truncated at N holds every coefficient the n <= N need
        conjugation = _side(N, d * k, (-1, d, d, k)).coefficients
        glaisher = _side(N, 0, (1, d, d, m), (-1, 1, 1, d * m)).coefficients
        for n in range(N + 1):
            params = ClassParams(n, k, d, m)
            a_members = [p for p in partitions[n] if is_in_A(p, params)]
            b_members = [p for p in partitions[n] if is_in_B(p, params)]
            by_o = Counter(d_free_weight(p.entries, d) for p in a_members)
            by_delta = Counter(delta_weight(p.entries, k, d, m) for p in b_members)
            by_series = Counter({a: conjugation[n - a] * glaisher[a] for a in range(n + 1)})
            assert by_o == by_delta == +by_series, params
            by_o_part = Counter((d_free_weight(p.entries, d), largest_divisible_part(p.entries, d)) for p in a_members)
            by_delta_t = Counter((delta_weight(p.entries, k, d, m), t_weight(p.entries, k, d, m)) for p in b_members)
            by_product = Counter({
                (a, d * j): rows[k, j][(n - a) // d] * glaisher[a]
                for a in range(n % d, n + 1, d)
                for j in range(1, (n - a) // d + 1)
            })
            assert by_o_part == by_delta_t == +by_product, params
            for lam in a_members:
                kappa, _ = phi(lam, params)
                assert delta_weight(kappa.entries, k, d, m) == d_free_weight(lam.entries, d), (params, lam)
                assert t_weight(kappa.entries, k, d, m) == largest_divisible_part(lam.entries, d), (params, lam)
            points += 1
            members += len(a_members)
    return points, members


def test_weight_distributions_agree_by_enumeration_bijection_and_series():
    assert weight_distributions(18) == (2736, 20486)
