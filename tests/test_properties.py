"""Hypothesis property suites for the structural operations and maps."""

from collections import Counter
from functools import reduce

import hypothesis.strategies as st
from hypothesis import example, given, settings

from parteq.bijection import (
    _glaisher_forward,
    _glaisher_inverse,
    _split_by_divisibility,
    finite_glaisher_forward,
    finite_glaisher_inverse,
    phi,
    phi_inverse,
)
from parteq.classes import ClassParams, enumerate_partitions, is_in_A, is_in_B
from parteq.errors import ParseError
from parteq.partition import Partition, _conjugate, _weigh, canonical

from conftest import (
    TRACE_FIELDS,
    field,
    glaisher_forward,
    glaisher_inverse,
    largest_part,
    reference_is_in_A,
    reference_is_in_B,
    union,
    weight,
)
from test_refined_claim import d_free_weight, delta_weight


def merge_reference(a, b):
    """Two-pointer merge of two descending entry tuples; a shared part sums.

    Written apart from partition.canonical, so the multiset sum is checked
    against a second implementation.
    """
    merged = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] > b[j][0]:
            merged.append(a[i])
            i += 1
        elif a[i][0] < b[j][0]:
            merged.append(b[j])
            j += 1
        else:
            merged.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
    return tuple(merged) + a[i:] + b[j:]


def assert_canonical(p):
    """p is what the validating constructor builds from its entries, and _weigh agrees with weight on it."""
    assert p == Partition(p.entries)
    assert _weigh(p.entries) == weight(p)


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


HUGE = 10**18


def spread(low, high):
    """Integers in [low, high], as likely to be 2^60 above low as 2 above it.

    A size b is drawn first and then an offset in [2^(b-1), 2^b]: a plain
    st.integers(low, high) leans to offsets of a few digits.
    """
    span = high - low
    return st.integers(0, span.bit_length()).flatmap(
        lambda b: st.integers(min(span, 2**b >> 1), min(span, 2**b)).map(lambda x: low + x)
    )


def pairs_of(parts, mults, max_size=5):
    """Up to max_size (part, multiplicity) pairs, no two with the same part."""
    return st.dictionaries(parts, mults, max_size=max_size).map(dict.items)


@st.composite
def huge_members(draw):
    """("A" or "B", a member, its params), built from the class definitions, never from phi.

    Parts, multiplicities, k and m reach about 10^18, with up to 20
    distinct parts; the three starts are A and the two cases of B.
    """
    d = draw(st.integers(2, 7))
    mults = spread(1, HUGE)
    start = draw(st.sampled_from(["A", "B, m < k", "B, m >= k"]))
    if start == "A":
        m = draw(spread(1, HUGE))
        # d-free parts below m*d: q*d + r with q < m and 0 < r < d
        free = st.builds(lambda q, r: q * d + r, spread(0, m - 1), st.integers(1, d - 1))
        divisible = draw(st.dictionaries(spread(1, HUGE).map(lambda t: t * d), mults, min_size=1, max_size=10))
        pairs = [*draw(pairs_of(free, mults, 10)), *divisible.items()]
        k = sum(divisible.values())
    elif start == "B, m < k":
        k = draw(spread(2, HUGE))
        m = draw(spread(1, k - 1))
        # the largest part is k*d; the parts above m*d are multiples of d
        pairs = [(k * d, draw(mults)), *draw(pairs_of(spread(1, m * d), mults))]
        if m + 1 < k:
            pairs += draw(pairs_of(spread(m + 1, k - 1).map(lambda t: t * d), mults))
    else:
        k = draw(spread(1, HUGE))
        m = draw(spread(k, HUGE))
        # k at least d times, each part in (k, m] fewer than d times, no part above m*d
        pairs = [(k, draw(spread(d, HUGE))), *draw(pairs_of(spread(m + 1, m * d), mults))]
        if k > 1:
            pairs += draw(pairs_of(spread(1, k - 1), mults))
        if k < m:
            pairs += draw(pairs_of(spread(k + 1, m), st.integers(1, d - 1)))
    member = Partition.from_pairs(pairs)
    return start[0], member, ClassParams(weight(member), k, d, m)


LAMBDA_HUGE = Partition.parse("600000000000000000^2 2999999999999^5 9^1000000000 7^123456789 1^1000000000000000")
KAPPA_HUGE = Partition.parse("5000000000000015^2 4999999^1000000000000 50^3 3^499999999999999990 2^2")


# the members of CI's installed-script step: an A member whose image is in
# B's m >= k case, and a B member in the m < k case
@example(("A", LAMBDA_HUGE, ClassParams(weight(LAMBDA_HUGE), 1000000002, 3, 10**12)))
@example(("B", KAPPA_HUGE, ClassParams(weight(KAPPA_HUGE), 1000000000000003, 5, 10**6)))
@given(huge_members())
@settings(max_examples=300, deadline=None)
def test_phi_on_astronomical_members(start):
    cls, member, params = start
    k, d, m = params.k, params.d, params.m
    if cls == "A":
        assert reference_is_in_A(member, params)
        lam = member
        kappa = phi(lam, params)[0]
        assert phi_inverse(kappa, params)[0] == lam
    else:
        assert reference_is_in_B(member, params)
        kappa = member
        lam = phi_inverse(kappa, params)[0]
        assert phi(lam, params)[0] == kappa
    for image in (lam, kappa):
        assert_canonical(image)
        assert weight(image) == params.n
    assert reference_is_in_A(lam, params) and reference_is_in_B(kappa, params)
    assert d_free_weight(lam.entries, d) == delta_weight(kappa.entries, k, d, m)


@given(partitions())
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p


@given(partitions())
def test_conjugate_preserves_weight(p):
    assert _weigh(p.conjugate().entries) == weight(p)


@given(partitions())
def test_conjugate_exchanges_extremes(p):
    assert largest_part(p.conjugate()) == sum(mult for _, mult in p.entries)
    assert sum(mult for _, mult in p.conjugate().entries) == largest_part(p)


@given(partitions(), partitions())
def test_add_commutative_and_weight_additive(p, r):
    assert union(p, r) == union(r, p)
    assert _weigh(union(p, r).entries) == weight(p) + weight(r)


@given(partitions(), partitions(), partitions())
def test_add_associative(p, r, s):
    assert union(union(p, r), s) == union(p, union(r, s))


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
    assert weight(image) == weight(o)
    assert all(mult < d for _, mult in image.entries)
    back = glaisher_inverse(image, d)
    assert_canonical(back)
    assert back == o


@given(st.sampled_from([2, 3, 4]), st.integers(min_value=1, max_value=8), st.data())
def test_finite_glaisher_round_trip_and_bounds(d, m, data):
    o = data.draw(d_free_partitions(d, max_part=m * d - 1))
    image = finite_glaisher_forward(o, d, m)
    assert_canonical(image)
    assert weight(image) == weight(o)
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
    div, rest = map(Partition, _split_by_divisibility(p.entries, d))
    assert_canonical(div)
    assert_canonical(rest)
    assert union(div, rest) == p


@given(st.lists(st.tuples(st.integers(1, 25), st.integers(0, 8)), max_size=10), partitions())
def test_public_construction_paths_weigh_their_entries(pairs, r):
    p = Partition.from_pairs(pairs)
    assert_canonical(p)
    assert _weigh(p.entries) == sum(part * mult for part, mult in pairs)
    assert_canonical(Partition(p.entries))
    parts = [part for part, mult in pairs for _ in range(mult)]
    assert_canonical(Partition.from_parts(parts))
    assert _weigh(Partition.from_parts(parts).entries) == sum(parts)
    assert_canonical(Partition.parse(p.render()))
    assert_canonical(union(p, r))
    assert _weigh(union(p, r).entries) == weight(p) + weight(r)


@given(partitions(), st.data())
def test_add_matches_from_pairs(p, data):
    # r shares some of p's parts, so the merge sums multiplicities
    shared = data.draw(st.lists(st.sampled_from(p.entries), unique=True) if p.entries else st.just([]))
    r = Partition.from_pairs((*data.draw(partitions()).entries, *shared))
    for left, right in ((p, r), (r, p), (p, Partition()), (Partition(), r)):
        total = union(left, right)
        assert total.entries == merge_reference(left.entries, right.entries)
        assert_canonical(total)


# bags drawn from few parts, so most repeat a part
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=12))
@example([])
def test_canonical_matches_merge_reference(bag):
    entries = canonical(bag)
    assert entries == reduce(merge_reference, ((pair,) for pair in bag), ())
    assert all(a[0] > b[0] for a, b in zip(entries, entries[1:]))
    assert all(mult >= 1 for _, mult in entries)
    assert sum(part * mult for part, mult in entries) == sum(part * mult for part, mult in bag)


# parse and from_pairs build through Partition._trusted; each is checked
# here against the validating constructor


def test_parse_of_every_small_partition_is_canonical():
    for n in range(0, 19):
        for p in enumerate_partitions(n):
            parsed = Partition.parse(p.render())
            assert parsed == p
            assert_canonical(parsed)


# tokens near the canonical form: zeros, leading zeros, ^0 and ^1, and
# stray characters, so most strings are malformed somewhere
TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda t: f"{t[0]}^{t[1]}"),
    st.text(alphabet="0129^ x-", max_size=4),
)


@given(st.lists(TOKENS, max_size=6).map(" ".join))
@example("7 5^2 3 1^4")
@example("3 03")
def test_parse_rejects_or_builds_canonical(text):
    try:
        parsed = Partition.parse(text)
    except ParseError:
        return
    assert_canonical(parsed)


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4)), max_size=12))
@example([(3, 0)])
def test_from_pairs_matches_validating_constructor(bag):
    total = Counter()
    for part, mult in bag:
        total[part] += mult
    entries = tuple(sorted(((part, mult) for part, mult in total.items() if mult), reverse=True))
    built = Partition.from_pairs(bag)
    assert built == Partition(entries)
    assert_canonical(built)


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
                                assert_canonical(field(trace, name))


# The entry-tuple kernels that phi and phi_inverse call, each against the
# method it serves (or a reference written here) on every partition of
# n <= 16


def small_partitions():
    for n in range(0, 17):
        yield from enumerate_partitions(n)


def test_conjugate_kernel_matches_method_and_reference():
    for p in small_partitions():
        parts = [part for part, mult in p.entries for _ in range(mult)]
        # part i of the transpose is the number of parts >= i
        reference = Partition.from_parts(sum(1 for part in parts if part >= i) for i in range(1, (parts or [0])[0] + 1))
        assert _conjugate(p.entries) == p.conjugate().entries == reference.entries


def test_glaisher_kernels_match_wrappers():
    for p in small_partitions():
        entries = p.entries
        for d in range(2, 5):
            for m in range(1, 9):
                md = m * d
                if all(part % d and part < md for part, _ in entries):
                    image = _glaisher_forward(entries, d, m)
                    assert image == finite_glaisher_forward(p, d, m).entries
                    assert_canonical(Partition(image))
                    assert _glaisher_inverse(image, d, m) == entries
                if all(part <= md and (part > m or mult < d) for part, mult in entries):
                    folded = _glaisher_inverse(entries, d, m)
                    assert folded == finite_glaisher_inverse(p, d, m).entries
                    assert_canonical(Partition(folded))
                    assert _glaisher_forward(folded, d, m) == entries


def test_split_kernel_halves_merge_back():
    for p in small_partitions():
        for d in range(2, 5):
            div, rest = _split_by_divisibility(p.entries, d)
            assert all(part % d == 0 for part, _ in div)
            assert all(part % d for part, _ in rest)
            assert merge_reference(div, rest) == p.entries
