"""Hypothesis property suites for the structural operations and maps."""

import hypothesis.strategies as st
from hypothesis import given, settings

from parteq.bijection import (
    _split_by_divisibility,
    finite_glaisher_forward,
    finite_glaisher_inverse,
    glaisher_forward,
    glaisher_inverse,
    phi,
    phi_inverse,
)
from parteq.classes import ClassParams, enumerate_partitions, is_in_A, is_in_B
from parteq.partition import Partition

from conftest import largest_part

TRACE_FIELDS = ("lam", "mu", "o", "mu_star", "mu_star_0", "epsilon", "delta", "kappa")


def assert_canonical(p):
    """p is what the validating constructor builds from its entries, weight included."""
    assert p == Partition(p.entries)
    assert p.weight() == sum(part * mult for part, mult in p.entries)


@st.composite
def partitions(draw, max_part=25, max_mult=8, max_distinct=8):
    pairs = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=max_part),
            st.integers(min_value=1, max_value=max_mult),
            max_size=max_distinct,
        )
    )
    return Partition.from_pairs(pairs.items())


@st.composite
def d_free_partitions(draw, d, max_part):
    allowed = [j for j in range(1, max_part + 1) if j % d != 0]
    pairs = draw(
        st.dictionaries(
            st.sampled_from(allowed),
            st.integers(min_value=1, max_value=30),
            max_size=6,
        )
    )
    return Partition.from_pairs(pairs.items())


@given(partitions())
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p


@given(partitions())
def test_conjugate_preserves_weight(p):
    assert p.conjugate().weight() == p.weight()


@given(partitions())
def test_conjugate_exchanges_extremes(p):
    assert largest_part(p.conjugate()) == sum(mult for _, mult in p.entries)
    assert sum(mult for _, mult in p.conjugate().entries) == largest_part(p)


@given(partitions(), partitions())
def test_add_commutative_and_weight_additive(p, r):
    assert p + r == r + p
    assert (p + r).weight() == p.weight() + r.weight()


@given(partitions(), partitions(), partitions())
def test_add_associative(p, r, s):
    assert (p + r) + s == p + (r + s)


@given(partitions())
def test_parse_render_round_trip(p):
    assert Partition.parse(p.render()) == p


@given(st.integers(min_value=0, max_value=25), st.sampled_from([2, 3, 4]))
@settings(max_examples=30, deadline=None)
def test_divisible_parts_conjugate_to_divisible_multiplicities(n, d):
    for p in enumerate_partitions(n):
        parts_divisible = all(part % d == 0 for part, _ in p.entries)
        conj_mults_divisible = all(mult % d == 0 for _, mult in p.conjugate().entries)
        assert parts_divisible == conj_mults_divisible


@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_glaisher_round_trip(d, data):
    o = data.draw(d_free_partitions(d, max_part=20))
    image = glaisher_forward(o, d)
    assert_canonical(image)
    assert image.weight() == o.weight()
    assert all(mult < d for _, mult in image.entries)
    back = glaisher_inverse(image, d)
    assert_canonical(back)
    assert back == o


@given(st.sampled_from([2, 3, 4]), st.integers(min_value=1, max_value=8), st.data())
def test_finite_glaisher_round_trip_and_bounds(d, m, data):
    o = data.draw(d_free_partitions(d, max_part=m * d - 1))
    image = finite_glaisher_forward(o, d, m)
    assert_canonical(image)
    assert image.weight() == o.weight()
    assert largest_part(image) <= m * d
    assert all(mult < d for part, mult in image.entries if part <= m)
    back = finite_glaisher_inverse(image, d, m)
    assert_canonical(back)
    assert back == o


@given(
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_equinumerosity_property(n, k, d, m):
    params = ClassParams(n, k, d, m)
    members = list(enumerate_partitions(n))
    count_a = sum(1 for p in members if is_in_A(p, params))
    count_b = sum(1 for p in members if is_in_B(p, params))
    assert count_a == count_b


@given(partitions())
def test_conjugate_is_canonical(p):
    assert_canonical(p.conjugate())


@given(partitions(), st.sampled_from([2, 3, 4, 5]))
def test_split_by_divisibility_is_canonical(p, d):
    div, rest = _split_by_divisibility(p, d)
    assert_canonical(div)
    assert_canonical(rest)
    assert div + rest == p


@given(st.lists(st.tuples(st.integers(1, 25), st.integers(0, 8)), max_size=10), partitions())
def test_public_construction_paths_weigh_their_entries(pairs, r):
    p = Partition.from_pairs(pairs)
    assert_canonical(p)
    assert p.weight() == sum(part * mult for part, mult in pairs)
    assert_canonical(Partition(p.entries))
    parts = [part for part, mult in pairs for _ in range(mult)]
    assert_canonical(Partition.from_parts(parts))
    assert Partition.from_parts(parts).weight() == sum(parts)
    assert_canonical(Partition.parse(p.render()))
    assert_canonical(p + r)
    assert (p + r).weight() == p.weight() + r.weight()


@given(partitions(), st.data())
def test_add_matches_from_pairs(p, data):
    # r shares some of p's parts, so the merge sums multiplicities
    shared = data.draw(st.lists(st.sampled_from(p.entries), unique=True) if p.entries else st.just([]))
    r = Partition.from_pairs((*data.draw(partitions()).entries, *shared))
    for left, right in ((p, r), (r, p), (p, Partition()), (Partition(), r)):
        total = left + right
        assert total == Partition.from_pairs((*left.entries, *right.entries))
        assert_canonical(total)


def test_trace_partitions_are_canonical_on_the_grid():
    # every A and B member with n <= 14, k <= 6, 2 <= d <= 4, m <= 8
    for n in range(0, 15):
        members = list(enumerate_partitions(n))
        for k in range(1, 7):
            for d in range(2, 5):
                for m in range(1, 9):
                    params = ClassParams(n, k, d, m)
                    for lam in members:
                        traces = []
                        if is_in_A(lam, params):
                            traces.append(phi(lam, params)[1])
                        if is_in_B(lam, params):
                            traces.append(phi_inverse(lam, params)[1])
                        for trace in traces:
                            for name in TRACE_FIELDS:
                                assert_canonical(getattr(trace, name))
