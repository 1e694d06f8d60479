import hashlib
import itertools
import json
import random
from unittest import mock

import pytest

from parteq.bijection import BijectionTrace, finite_glaisher_forward, finite_glaisher_inverse, phi, phi_inverse
from parteq.classes import ClassParams, enumerate_A, enumerate_B, enumerate_partitions, is_in_A, is_in_B, members_by_k
from parteq.errors import DomainError, InternalError, NotInClassA, NotInClassB
from parteq.partition import Partition, _conjugate, _render, _weigh

from conftest import (
    EMPTY,
    TRACE_FIELDS,
    field,
    glaisher_forward,
    glaisher_inverse,
    largest_part,
    multiplicity,
    random_d_free_partition,
    reference_is_in_B,
    union,
    weight,
)

LAMBDA_1 = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
KAPPA_1 = Partition.parse("21 18 11 8 7^4 5 4^3 3^3 2^5 1")
PARAMS_1 = ClassParams(123, 7, 3, 4)

LAMBDA_2 = Partition.parse("24 21 20 17 15 14^4 9 7^2 2^5 1^3")
KAPPA_2 = Partition.parse("20 17 14^4 7^2 6 4^9 3^7 2^8 1^3")
PARAMS_2 = ClassParams(189, 4, 3, 7)


def test_glaisher_forward_empty():
    assert glaisher_forward(EMPTY, 3) == EMPTY


def test_glaisher_forward_trivial_case():
    p = Partition.parse("2^2 1")
    assert glaisher_forward(p, 3) == p


def test_glaisher_forward_binary():
    # 4 = 100 in base 2, so four 1s become one 4
    assert glaisher_forward(Partition.parse("1^4"), 2) == Partition.parse("4")
    # 1000 = 1111101000 in base 2; the bound at the weight leaves no overflow
    assert glaisher_forward(Partition.parse("1^1000"), 2) == Partition.parse("512 256 128 64 32 8")
    assert glaisher_inverse(Partition.parse("512 256 128 64 32 8"), 2) == Partition.parse("1^1000")


def test_glaisher_forward_rejects_divisible_part():
    with pytest.raises(DomainError):
        glaisher_forward(Partition.parse("6 1"), 3)
    # at d = 1 the kernel's loop would never end; phi passes it only empty entries there
    with pytest.raises(DomainError):
        glaisher_forward(Partition.parse("1"), 1)


def test_glaisher_inverse_examples():
    assert glaisher_inverse(Partition.parse("4"), 2) == Partition.parse("1^4")
    # 6 = 2*3 contributes three 2s; 3 = 1*3 contributes three 1s
    assert glaisher_inverse(Partition.parse("6 3"), 3) == Partition.parse("2^3 1^3")
    with pytest.raises(DomainError):
        glaisher_inverse(Partition.parse("2^3"), 3)
    with pytest.raises(DomainError):
        glaisher_inverse(Partition.parse("1"), 1)


def test_glaisher_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(2, 5)
        o = random_d_free_partition(rng, d, max_part=20)
        image = glaisher_forward(o, d)
        assert weight(image) == weight(o)
        assert all(c < d for _, c in image.entries)
        assert glaisher_inverse(image, d) == o


def reference_bound_exponent(j, d, m):
    """L_j from its definition: the smallest L with j*d^L > m."""
    return next(L for L in itertools.count() if j * d**L > m)


def test_forward_map_stops_at_the_bound_exponent():
    # d=3, m=4 and d=3, m=7: the paper's two worked examples
    assert [reference_bound_exponent(j, 3, 4) for j in (11, 8, 7, 5, 2, 1)] == [0, 0, 0, 0, 1, 2]
    assert [reference_bound_exponent(j, 3, 7) for j in (20, 17, 14, 7, 2, 1)] == [0, 0, 0, 1, 2, 2]
    for d in range(2, 6):
        for m in range(1, 13):
            for j in range(1, m * d + 1):
                if j % d == 0:
                    continue
                L = reference_bound_exponent(j, d, m)
                assert m < j * d**L <= m * d
                # d^L copies of j carry past every digit onto j*d^L; d^(L+1)
                # copies stop there too, as d copies, if the loop ends at L
                top = j * d**L
                assert finite_glaisher_forward(Partition(((j, d**L),)), d, m) == Partition(((top, 1),))
                assert finite_glaisher_forward(Partition(((j, d ** (L + 1)),)), d, m) == Partition(((top, d),))
    rng = random.Random(23)
    for _ in range(300):
        d = rng.randint(2, 5)
        m = rng.randint(1, 12)
        free = [j for j in range(1, m * d) if j % d]
        o = Partition.from_pairs((rng.choice(free), rng.randint(1, 10**6)) for _ in range(rng.randint(1, 6)))
        for part, _ in finite_glaisher_forward(o, d, m).entries:
            if part > m:
                j, l = part, 0
                while j % d == 0:
                    j //= d
                    l += 1
                assert l == reference_bound_exponent(j, d, m), (o, d, m, part)


def test_finite_glaisher_forward_worked_example_2():
    o = Partition.parse("20 17 14^4 7^2 2^5 1^3")
    assert finite_glaisher_forward(o, 3, 7) == Partition.parse("20 17 14^4 7^2 6 3 2^2")


def test_finite_glaisher_forward_worked_example_1_trivial():
    o = Partition.parse("11 8 7^4 5 2^2 1")
    assert finite_glaisher_forward(o, 3, 4) == o


def test_finite_glaisher_forward_empty():
    assert finite_glaisher_forward(EMPTY, 3, 4) == EMPTY


def test_finite_glaisher_forward_preconditions():
    with pytest.raises(DomainError):
        finite_glaisher_forward(Partition.parse("6"), 3, 4)  # divisible part
    with pytest.raises(DomainError):
        finite_glaisher_forward(Partition.parse("13"), 3, 4)  # part >= m*d


def test_finite_glaisher_inverse_worked_example_2():
    delta = Partition.parse("20 17 14^4 7^2 6 3 2^2")
    assert finite_glaisher_inverse(delta, 3, 7) == Partition.parse("20 17 14^4 7^2 2^5 1^3")


def test_finite_glaisher_inverse_direct_factoring():
    assert finite_glaisher_inverse(Partition.parse("6 3"), 3, 7) == Partition.parse("2^3 1^3")


def test_finite_glaisher_inverse_preconditions():
    with pytest.raises(DomainError):
        finite_glaisher_inverse(Partition.parse("22"), 3, 7)  # part > m*d
    with pytest.raises(DomainError):
        finite_glaisher_inverse(Partition.parse("2^3"), 3, 7)  # small part too often


def test_finite_glaisher_round_trip_random():
    rng = random.Random(11)
    for _ in range(400):
        d = rng.randint(2, 4)
        m = rng.randint(1, 8)
        o = random_d_free_partition(rng, d, max_part=m * d - 1)
        image = finite_glaisher_forward(o, d, m)
        assert weight(image) == weight(o)
        assert largest_part(image) <= m * d
        assert all(c < d for p, c in image.entries if p <= m)
        assert finite_glaisher_inverse(image, d, m) == o


def test_finite_glaisher_agrees_with_unbounded_when_bound_inactive():
    rng = random.Random(13)
    for _ in range(200):
        d = rng.randint(2, 4)
        o = random_d_free_partition(rng, d, max_part=9)
        m = weight(o) + 1
        assert finite_glaisher_forward(o, d, m) == glaisher_forward(o, d)


def test_phi_golden_example_1():
    kappa, trace = phi(LAMBDA_1, PARAMS_1)
    assert kappa == KAPPA_1
    assert field(trace, "mu") == Partition.parse("15^2 12 9 6^2 3")
    assert field(trace, "o") == Partition.parse("11 8 7^4 5 2^2 1")
    assert field(trace, "mu_star") == Partition.parse("7^3 6^3 4^3 3^3 2^3")
    assert field(trace, "mu_star_0") == Partition.parse("4^3 3^3 2^3")
    assert field(trace, "epsilon") == Partition.parse("21 18")
    assert field(trace, "delta") == Partition.parse("11 8 7^4 5 2^2 1")
    assert trace.direction == "forward"


def test_phi_golden_example_2():
    kappa, trace = phi(LAMBDA_2, PARAMS_2)
    assert kappa == KAPPA_2
    assert field(trace, "mu") == Partition.parse("24 21 15 9")
    assert field(trace, "o") == Partition.parse("20 17 14^4 7^2 2^5 1^3")
    assert field(trace, "mu_star") == Partition.parse("4^9 3^6 2^6 1^3")
    assert field(trace, "mu_star_0") == field(trace, "mu_star")
    assert field(trace, "epsilon") == EMPTY
    assert field(trace, "delta") == Partition.parse("20 17 14^4 7^2 6 3 2^2")


def test_phi_single_part_kd():
    # the single part k*d has exactly one part divisible by d, so k = 1;
    # its image is the column 1^d, i.e. k occurring d times
    for d in (2, 3, 4):
        for m in (1, 3, 9):
            params = ClassParams(d, 1, d, m)
            kappa, _ = phi(Partition.parse(str(d)), params)
            assert kappa == Partition.from_pairs([(1, d)])
            assert is_in_B(kappa, params)


def test_phi_rejects_non_members():
    with pytest.raises(NotInClassA):
        phi(Partition.parse("1"), ClassParams(7, 2, 2, 4))
    # at d = 1 a partition into exactly k parts is in A, and phi conjugates it
    assert phi(Partition.parse("2 1"), ClassParams(3, 2, 1, 4))[0] == Partition.parse("2 1")


def test_phi_inverse_golden_examples():
    lam, trace = phi_inverse(KAPPA_1, PARAMS_1)
    assert lam == LAMBDA_1
    assert trace.direction == "inverse"
    assert field(trace, "mu_star") == Partition.parse("7^3 6^3 4^3 3^3 2^3")
    assert field(trace, "delta") == Partition.parse("11 8 7^4 5 2^2 1")
    lam2, _ = phi_inverse(KAPPA_2, PARAMS_2)
    assert lam2 == LAMBDA_2


def test_phi_inverse_rejects_non_members():
    with pytest.raises(NotInClassB):
        phi_inverse(Partition.parse("1"), ClassParams(7, 2, 2, 4))
    # at d = 1, B holds the partitions with largest part k
    with pytest.raises(NotInClassB):
        phi_inverse(Partition.parse("2^2"), ClassParams(4, 1, 1, 2))


# Each self-check of phi and phi_inverse, made to fail on its own by
# patching one step; correct code never reaches these raises.


def test_phi_self_check_mu_star_multiplicity(monkeypatch):
    monkeypatch.setattr("parteq.bijection._conjugate", lambda entries: Partition.parse("3 2^3").entries)
    with pytest.raises(InternalError, match="multiplicity not divisible"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_self_check_kappa_weight(monkeypatch):
    # without its Glaisher image kappa is light, and the membership check
    # of kappa, which compares the weight first, catches it
    monkeypatch.setattr("parteq.bijection._glaisher_forward", lambda entries, d, m: ())
    with pytest.raises(InternalError, match="outside B"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_self_check_kappa_membership(monkeypatch):
    monkeypatch.setattr("parteq.bijection.is_in_B", lambda p, params: False)
    with pytest.raises(InternalError, match="outside B"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_inverse_self_check_copies_of_k(monkeypatch):
    # "7" has no part 2, so mu_star gets no copies of k = 2; lam = "7" then
    # has no part divisible by 2, and the membership check of lam catches it
    monkeypatch.setattr("parteq.bijection.is_in_B", lambda p, params: True)
    with pytest.raises(InternalError, match="outside A"):
        phi_inverse(Partition.parse("7"), ClassParams(7, 2, 2, 4))


def test_phi_inverse_self_check_lambda_weight(monkeypatch):
    # without o, lam is light, and the membership check of lam catches it
    monkeypatch.setattr("parteq.bijection._glaisher_inverse", lambda entries, d, m: ())
    with pytest.raises(InternalError, match="outside A"):
        phi_inverse(KAPPA_1, PARAMS_1)


def test_phi_inverse_self_check_lambda_membership(monkeypatch):
    monkeypatch.setattr("parteq.bijection.is_in_A", lambda p, params: False)
    with pytest.raises(InternalError, match="outside A"):
        phi_inverse(KAPPA_1, PARAMS_1)


def inverse_without_input_check(N):
    """Run phi_inverse on every partition of n <= N with its input check waved through.

    At every grid point (k <= 6, d 2..4, m <= 8), phi_inverse must return
    exactly on the members of B, by the reference definition, and raise on
    every other partition: its final membership check of lam, together
    with _glaisher_inverse's multiplicity check on delta, catches all that
    its input check would have. The membership check alone does not: at
    (6, 1, 2, 2), kappa = 2^2 1^2 is outside B, delta = 2^2 folds to 1^4,
    and lam = 2 1^4 is in A. Each returned trace's mu_star holds k at least
    d times, which phi_inverse does not check by itself. Returns the number
    of calls that returned. Tier-1 runs N = 12 and tests/deep.py N = 18.
    """
    returned = 0
    with mock.patch("parteq.bijection.is_in_B", lambda p, params: True):
        for n in range(N + 1):
            partitions = list(enumerate_partitions(n))
            for k, d, m in itertools.product(range(1, 7), range(2, 5), range(1, 9)):
                params = ClassParams(n, k, d, m)
                for kappa in partitions:
                    try:
                        _, t = phi_inverse(kappa, params)
                    except (InternalError, DomainError):
                        assert not reference_is_in_B(kappa, params), (kappa.render(), params)
                        continue
                    assert reference_is_in_B(kappa, params), (kappa.render(), params)
                    assert dict(t.pieces[3]).get(k, 0) >= d, (kappa.render(), params)
                    returned += 1
    return returned


def test_phi_inverse_returns_exactly_on_B_without_its_input_check():
    assert inverse_without_input_check(12) == 3058


def trace_invariants(N):
    """Check the decomposition of every trace on the grid, in both directions.

    The grid of test_trace_json_digest_on_the_grid: n <= N, k <= 6,
    2 <= d <= 4, m <= 8, phi on each A member and phi_inverse on each B
    member. Pieces are read through field, which validates each as
    canonical. Besides how the pieces add up, it checks the two facts the
    joins of lam and kappa rest on: mu and o share no part, and every
    epsilon part exceeds m*d. Returns the number of traces. Tier-1 runs
    N = 14 and tests/deep.py N = 18.
    """
    count = 0
    for n in range(N + 1):
        members = list(enumerate_partitions(n))
        for k, d, m in itertools.product(range(1, 7), range(2, 5), range(1, 9)):
            params = ClassParams(n, k, d, m)
            for p in members:
                traces = []
                if is_in_A(p, params):
                    traces.append(phi(p, params)[1])
                if is_in_B(p, params):
                    traces.append(phi_inverse(p, params)[1])
                for t in traces:
                    lam, mu, o, mu_star, mu_star_0, epsilon, delta, kappa = (field(t, name) for name in TRACE_FIELDS)
                    where = (p.render(), params, t.direction)
                    assert lam == union(mu, o), where
                    assert not {q for q, _ in mu.entries} & {q for q, _ in o.entries}, where
                    assert mu_star == mu.conjugate(), where
                    rescaled_back = Partition.from_pairs((q // d, c * d) for q, c in epsilon.entries)
                    assert mu_star == union(mu_star_0, rescaled_back), where
                    assert kappa == union(union(mu_star_0, epsilon), delta), where
                    assert all(q > m * d for q, _ in epsilon.entries), where
                    assert weight(lam) == weight(kappa) == n, where
                    assert all(q % d == 0 for q, _ in mu.entries), where
                    assert all(q % d != 0 and q < m * d for q, _ in o.entries), where
                    if m >= k:
                        assert epsilon == EMPTY, where
                    else:
                        assert largest_part(epsilon) == k * d, where
                    count += 1
    return count


def test_trace_decomposition_invariants():
    assert trace_invariants(14) == 12134


def test_trace_json_round_trip():
    _, t = phi(LAMBDA_1, PARAMS_1)
    doc = json.loads(t.to_json())
    assert doc["direction"] == "forward"
    assert doc["kappa"] == KAPPA_1.render()
    assert doc["params"] == {"n": 123, "k": 7, "d": 3, "m": 4}
    assert Partition.parse(doc["mu_star"]) == field(t, "mu_star")


def test_phi_bijective_on_small_grid():
    for n in range(1, 15):
        for d in (2, 3):
            for k in (1, 2):
                for m in (1, 2, 5):
                    params = ClassParams(n, k, d, m)
                    members_a = list(enumerate_A(params))
                    members_b = list(enumerate_B(params))
                    images = []
                    for lam in members_a:
                        kappa, _ = phi(lam, params)
                        assert _weigh(kappa.entries) == weight(kappa) == n
                        back, _ = phi_inverse(kappa, params)
                        assert back == lam
                        images.append(kappa)
                    assert len(set(images)) == len(images)
                    assert set(images) == set(members_b)
                    for kappa in members_b:
                        lam, _ = phi_inverse(kappa, params)
                        forward, _ = phi(lam, params)
                        assert forward == kappa


def test_phi_at_modulus_1_is_conjugation_on_the_grid():
    # at d = 1, A(n,k,1,m) is the partitions into exactly k parts and
    # B(n,k,1,m) those with largest part k; o and delta are empty
    points = members = 0
    for n in range(29):
        partitions = list(enumerate_partitions(n))
        for m in range(1, 9):
            members_a, members_b = members_by_k(partitions, 1, m)
            for k in range(1, 7):
                params = ClassParams(n, k, 1, m)
                images = set()
                for lam in members_a.get(k, []):
                    kappa, _ = phi(lam, params)
                    assert kappa.entries == _conjugate(lam.entries), (params, lam)
                    assert phi_inverse(kappa, params)[0] == lam, (params, lam)
                    images.add(kappa)
                assert images == set(members_b.get(k, [])), params
                points += 1
                members += len(images)
    assert (points, members) == (1392, 50264)


def test_phi_stops_depending_on_m_once_m_reaches_n():
    # A(n,k,d,m) is one set for every m >= n, and there phi is the 2018
    # map: no multiplicity of o reaches its overflow part, so delta is the
    # unbounded Glaisher image of o
    members = 0
    for n in range(1, 21):
        partitions = list(enumerate_partitions(n))
        for d in (2, 3, 4):
            for k in range(1, n // d + 1):
                at_n = ClassParams(n, k, d, n)
                for lam in partitions:
                    if not is_in_A(lam, at_n):
                        continue
                    kappa, trace = phi(lam, at_n)
                    assert field(trace, "delta") == glaisher_forward(field(trace, "o"), d), (lam, k, d)
                    for m in (n + 1, 2 * n):
                        assert phi(lam, ClassParams(n, k, d, m))[0] == kappa, (lam, k, d, m)
                    members += 1
    assert members == 5230


def test_trace_holds_its_pieces_in_field_order():
    for lam, kappa, params in [(LAMBDA_1, KAPPA_1, PARAMS_1), (LAMBDA_2, KAPPA_2, PARAMS_2)]:
        for image, t, expected in [(*phi(lam, params), kappa), (*phi_inverse(kappa, params), lam)]:
            assert type(t) is BijectionTrace
            assert image == expected
            assert type(t.pieces) is tuple and len(t.pieces) == len(TRACE_FIELDS)
            for name, piece in zip(TRACE_FIELDS, t.pieces):
                # field builds through Partition(piece), which validates:
                # each piece is canonical entries
                assert field(t, name) == Partition._trusted(piece)
            assert field(t, "lam") == lam and field(t, "kappa") == kappa


def test_multiplicity_congruence_in_forward_trace():
    # parts up to min(m, k): kappa's multiplicity is delta's mod d
    for lam, params in [(LAMBDA_1, PARAMS_1), (LAMBDA_2, PARAMS_2)]:
        kappa, t = phi(lam, params)
        for i in range(1, min(params.m, params.k) + 1):
            assert multiplicity(kappa, i) % params.d == multiplicity(field(t, "delta"), i) % params.d


def grid_traces(ds: range):
    """Every trace of the standard grid at n <= 14 and d in ds, in generator order.

    phi on each A member and phi_inverse on each B member, with n <= 14,
    k <= 6 and m <= 8.
    """
    for n in range(0, 15):
        members = list(enumerate_partitions(n))
        for k in range(1, 7):
            for d in ds:
                for m in range(1, 9):
                    params = ClassParams(n, k, d, m)
                    for lam in members:
                        if is_in_A(lam, params):
                            yield phi(lam, params)[1]
                        if is_in_B(lam, params):
                            yield phi_inverse(lam, params)[1]


# sha256 of every trace's to_json() line, newline-terminated, over
# grid_traces at 2 <= d <= 4. Any change to what a trace records, or to
# how it renders, shows here.
TRACE_DIGEST = "ce253b1e5c8f2f094b73c9d2dd42e0e0266d631fd07715ca2497671d83ccc67c"


def test_trace_json_digest_on_the_grid():
    digest = hashlib.sha256()
    count = 0
    for trace in grid_traces(range(2, 5)):
        digest.update(trace.to_json().encode() + b"\n")
        count += 1
    assert count == 12134
    assert digest.hexdigest() == TRACE_DIGEST


def reference_trace_json(trace: BijectionTrace) -> str:
    """The trace's dict in field order, through json.dumps: the bytes to_json's template must give."""
    p = trace.params
    lam, mu, o, mu_star, mu_star_0, epsilon, delta, kappa = map(_render, trace.pieces)
    return json.dumps({
        "params": {"n": p.n, "k": p.k, "d": p.d, "m": p.m},
        "direction": trace.direction,
        "lambda": lam,
        "mu": mu,
        "o": o,
        "mu_star": mu_star,
        "mu_star_0": mu_star_0,
        "epsilon": epsilon,
        "delta": delta,
        "kappa": kappa,
    })


def test_trace_json_equals_json_dumps_at_modulus_1():
    # TRACE_DIGEST pins d = 2..4; this is the d = 1 quarter of the same grid,
    # where o and delta are empty
    count = 0
    for trace in grid_traces(range(1, 2)):
        assert trace.to_json() == reference_trace_json(trace), (trace.pieces[0], trace.params, trace.direction)
        count += 1
    assert count == 6192
