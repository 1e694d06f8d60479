import random

import pytest

from parteq.bijection import (
    BijectionTrace,
    bound_exponent,
    finite_glaisher_forward,
    finite_glaisher_inverse,
    glaisher_forward,
    glaisher_inverse,
    phi,
    phi_inverse,
)
from parteq.classes import ClassParams, enumerate_A, enumerate_B, is_in_B
from parteq.errors import DomainError, InternalError, NotInClassA, NotInClassB, UnsupportedModulus
from parteq.partition import Partition

from conftest import EMPTY, largest_part, random_d_free_partition

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
    with pytest.raises(UnsupportedModulus):
        glaisher_forward(Partition.parse("1"), 1)


def test_glaisher_inverse_examples():
    assert glaisher_inverse(Partition.parse("4"), 2) == Partition.parse("1^4")
    # 6 = 2*3 contributes three 2s; 3 = 1*3 contributes three 1s
    assert glaisher_inverse(Partition.parse("6 3"), 3) == Partition.parse("2^3 1^3")
    with pytest.raises(DomainError):
        glaisher_inverse(Partition.parse("2^3"), 3)


def test_glaisher_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(2, 5)
        o = random_d_free_partition(rng, d, max_part=20)
        image = glaisher_forward(o, d)
        assert image.weight() == o.weight()
        assert all(c < d for _, c in image.entries)
        assert glaisher_inverse(image, d) == o


def test_bound_exponent_worked_example_values():
    # d=3, m=4: the paper's first example
    assert [bound_exponent(j, 3, 4) for j in (11, 8, 7, 5)] == [0, 0, 0, 0]
    assert bound_exponent(2, 3, 4) == 1
    assert bound_exponent(1, 3, 4) == 2
    # d=3, m=7: the second example
    assert [bound_exponent(j, 3, 7) for j in (20, 17, 14)] == [0, 0, 0]
    assert bound_exponent(7, 3, 7) == 1
    assert bound_exponent(2, 3, 7) == 2
    assert bound_exponent(1, 3, 7) == 2


def test_bound_exponent_defining_property():
    for d in (2, 3, 4):
        for m in range(1, 9):
            for j in range(1, m * d + 1):
                L = bound_exponent(j, d, m)
                assert m < j * d**L <= m * d


def test_bound_exponent_rejects_modulus_1():
    # with d = 1 the power j*d^L never grows past m
    with pytest.raises(UnsupportedModulus):
        bound_exponent(1, 1, 5)


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
        assert image.weight() == o.weight()
        assert largest_part(image) <= m * d
        assert all(c < d for p, c in image.entries if p <= m)
        assert finite_glaisher_inverse(image, d, m) == o


def test_finite_glaisher_agrees_with_unbounded_when_bound_inactive():
    rng = random.Random(13)
    for _ in range(200):
        d = rng.randint(2, 4)
        o = random_d_free_partition(rng, d, max_part=9)
        m = o.weight() + 1
        assert finite_glaisher_forward(o, d, m) == glaisher_forward(o, d)


def test_phi_golden_example_1():
    kappa, trace = phi(LAMBDA_1, PARAMS_1)
    assert kappa == KAPPA_1
    assert trace.mu == Partition.parse("15^2 12 9 6^2 3")
    assert trace.o == Partition.parse("11 8 7^4 5 2^2 1")
    assert trace.mu_star == Partition.parse("7^3 6^3 4^3 3^3 2^3")
    assert trace.mu_star_0 == Partition.parse("4^3 3^3 2^3")
    assert trace.epsilon == Partition.parse("21 18")
    assert trace.delta == Partition.parse("11 8 7^4 5 2^2 1")
    assert trace.direction == "forward"


def test_phi_golden_example_2():
    kappa, trace = phi(LAMBDA_2, PARAMS_2)
    assert kappa == KAPPA_2
    assert trace.mu == Partition.parse("24 21 15 9")
    assert trace.o == Partition.parse("20 17 14^4 7^2 2^5 1^3")
    assert trace.mu_star == Partition.parse("4^9 3^6 2^6 1^3")
    assert trace.mu_star_0 == trace.mu_star
    assert trace.epsilon == EMPTY
    assert trace.delta == Partition.parse("20 17 14^4 7^2 6 3 2^2")


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
    with pytest.raises(UnsupportedModulus):
        phi(Partition.parse("2 1"), ClassParams(3, 2, 1, 4))


def test_phi_inverse_golden_examples():
    lam, trace = phi_inverse(KAPPA_1, PARAMS_1)
    assert lam == LAMBDA_1
    assert trace.direction == "inverse"
    assert trace.mu_star == Partition.parse("7^3 6^3 4^3 3^3 2^3")
    assert trace.delta == Partition.parse("11 8 7^4 5 2^2 1")
    lam2, _ = phi_inverse(KAPPA_2, PARAMS_2)
    assert lam2 == LAMBDA_2


def test_phi_inverse_rejects_non_members():
    with pytest.raises(NotInClassB):
        phi_inverse(Partition.parse("1"), ClassParams(7, 2, 2, 4))


# Each self-check of phi and phi_inverse, made to fail on its own by
# patching one step; correct code never reaches these raises.


def test_phi_self_check_mu_star_multiplicity(monkeypatch):
    monkeypatch.setattr(Partition, "conjugate", lambda self: Partition.parse("3 2^3"))
    with pytest.raises(InternalError, match="multiplicity not divisible"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_self_check_kappa_weight(monkeypatch):
    # membership waved through, so only the explicit weight test can catch
    # the missing Glaisher image
    monkeypatch.setattr("parteq.bijection.is_in_B", lambda p, params: True)
    monkeypatch.setattr("parteq.bijection.finite_glaisher_forward", lambda o, d, m: EMPTY)
    with pytest.raises(InternalError, match="outside B"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_self_check_kappa_membership(monkeypatch):
    monkeypatch.setattr("parteq.bijection.is_in_B", lambda p, params: False)
    with pytest.raises(InternalError, match="outside B"):
        phi(LAMBDA_1, PARAMS_1)


def test_phi_inverse_self_check_copies_of_k(monkeypatch):
    # "7" has no part 2, so mu_star gets no copies of k = 2
    monkeypatch.setattr("parteq.bijection.is_in_B", lambda p, params: True)
    with pytest.raises(InternalError, match="lacks d copies"):
        phi_inverse(Partition.parse("7"), ClassParams(7, 2, 2, 4))


def test_phi_inverse_self_check_lambda_weight(monkeypatch):
    monkeypatch.setattr("parteq.bijection.is_in_A", lambda p, params: True)
    monkeypatch.setattr("parteq.bijection.finite_glaisher_inverse", lambda delta, d, m: EMPTY)
    with pytest.raises(InternalError, match="outside A"):
        phi_inverse(KAPPA_1, PARAMS_1)


def test_phi_inverse_self_check_lambda_membership(monkeypatch):
    monkeypatch.setattr("parteq.bijection.is_in_A", lambda p, params: False)
    with pytest.raises(InternalError, match="outside A"):
        phi_inverse(KAPPA_1, PARAMS_1)


def test_glaisher_inverse_self_check_exponent(monkeypatch):
    # 8 = 1 * 2^3 sits at L_1 = 3 for m = 4; any other L_j must raise
    monkeypatch.setattr("parteq.bijection.bound_exponent", lambda j, d, m: 99)
    with pytest.raises(InternalError, match="not of the form"):
        finite_glaisher_inverse(Partition.parse("8"), 2, 4)


def test_trace_decomposition_invariants():
    for lam, params in [(LAMBDA_1, PARAMS_1), (LAMBDA_2, PARAMS_2)]:
        kappa, t = phi(lam, params)
        assert t.lam == t.mu + t.o
        assert t.mu_star == t.mu.conjugate()
        rescaled_back = Partition.from_pairs((p // params.d, c * params.d) for p, c in t.epsilon.entries)
        assert t.mu_star == t.mu_star_0 + rescaled_back
        assert t.kappa == t.mu_star_0 + t.epsilon + t.delta
        assert t.lam.weight() == t.kappa.weight() == params.n
        assert all(p % params.d == 0 for p, _ in t.mu.entries)
        assert all(p % params.d != 0 and p < params.m * params.d for p, _ in t.o.entries)
        if params.m >= params.k:
            assert t.epsilon == EMPTY
        else:
            assert largest_part(t.epsilon) == params.k * params.d


def test_trace_json_round_trip():
    import json

    _, t = phi(LAMBDA_1, PARAMS_1)
    doc = json.loads(t.to_json())
    assert doc["direction"] == "forward"
    assert doc["kappa"] == KAPPA_1.render()
    assert doc["params"] == {"n": 123, "k": 7, "d": 3, "m": 4}
    assert Partition.parse(doc["mu_star"]) == t.mu_star


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
                        assert kappa.weight() == n
                        back, _ = phi_inverse(kappa, params)
                        assert back == lam
                        images.append(kappa)
                    assert len(set(images)) == len(images)
                    assert set(images) == set(members_b)
                    for kappa in members_b:
                        lam, _ = phi_inverse(kappa, params)
                        forward, _ = phi(lam, params)
                        assert forward == kappa


def test_multiplicity_congruence_in_forward_trace():
    # parts up to min(m, k): kappa's multiplicity is delta's mod d
    for lam, params in [(LAMBDA_1, PARAMS_1), (LAMBDA_2, PARAMS_2)]:
        kappa, t = phi(lam, params)
        for i in range(1, min(params.m, params.k) + 1):
            assert kappa.multiplicity(i) % params.d == t.delta.multiplicity(i) % params.d
