"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run standalone with `pytest tests/test_acceptance.py -v -s`. Every check is
exact (integer equality); there are no tolerances to calibrate.
"""

import random

from parteq.bijection import finite_glaisher_forward, finite_glaisher_inverse, phi, phi_inverse
from parteq.classes import ClassParams, enumerate_partitions, is_in_A, is_in_B
from parteq.partition import Partition, _weigh
from parteq.qseries import lhs_series, rhs_series

from conftest import (
    EMPTY,
    field,
    glaisher_forward,
    glaisher_inverse,
    random_d_free_partition,
    random_partition,
    solutionI_check,
    union,
    weight,
)

GRID_N_MAX = 28
GRID_K = range(1, 7)
GRID_D = range(1, 5)
GRID_M = range(1, 9)

LAMBDA_1 = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
KAPPA_1 = Partition.parse("21 18 11 8 7^4 5 4^3 3^3 2^5 1")
LAMBDA_2 = Partition.parse("24 21 20 17 15 14^4 9 7^2 2^5 1^3")
KAPPA_2 = Partition.parse("20 17 14^4 7^2 6 4^9 3^7 2^8 1^3")


def report(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def grid_counts():
    """Per-n member lists of A and B across the whole (k, d, m) grid."""
    for n in range(0, GRID_N_MAX + 1):
        members = list(enumerate_partitions(n))
        for k in GRID_K:
            for d in GRID_D:
                for m in GRID_M:
                    params = ClassParams(n, k, d, m)
                    a = [p for p in members if is_in_A(p, params)]
                    b = [p for p in members if is_in_B(p, params)]
                    yield params, a, b


def test_criterion_1_monthly_counts():
    ok = True
    expected_a = ["4 2 1", "3 2^2", "2^2 1^3"]
    expected_b = ["3 2^2", "2^3 1", "2^2 1^3"]
    partitions_of_7 = list(enumerate_partitions(7))
    for m in list(range(4, 13)) + [100]:
        params = ClassParams(7, 2, 2, m)
        a = [p.render() for p in partitions_of_7 if is_in_A(p, params)]
        b = [p.render() for p in partitions_of_7 if is_in_B(p, params)]
        ok = ok and len(a) == len(b) == 3
        if m >= 4:
            ok = ok and a == expected_a
        if m >= 7:
            ok = ok and b == expected_b
    report("1 monthly-problem counts", ok)


def test_criterion_2_golden_bijection_example_1():
    kappa, trace = phi(LAMBDA_1, ClassParams(123, 7, 3, 4))
    ok = (
        kappa == KAPPA_1
        and field(trace, "mu_star") == Partition.parse("7^3 6^3 4^3 3^3 2^3")
        and field(trace, "mu_star_0") == Partition.parse("4^3 3^3 2^3")
        and field(trace, "epsilon") == Partition.parse("21 18")
        and field(trace, "delta") == Partition.parse("11 8 7^4 5 2^2 1")
    )
    report("2 golden bijection example 1", ok)


def test_criterion_3_golden_bijection_example_2():
    params = ClassParams(189, 4, 3, 7)
    kappa, trace = phi(LAMBDA_2, params)
    back, _ = phi_inverse(KAPPA_2, params)
    ok = (
        kappa == KAPPA_2
        and field(trace, "mu_star") == Partition.parse("4^9 3^6 2^6 1^3")
        and field(trace, "mu_star_0") == field(trace, "mu_star")
        and field(trace, "epsilon") == EMPTY
        and field(trace, "delta") == Partition.parse("20 17 14^4 7^2 6 3 2^2")
        and back == LAMBDA_2
    )
    report("3 golden bijection example 2", ok)


def test_criterion_4_equinumerosity_grid():
    ok = True
    for params, a, b in grid_counts():
        if len(a) != len(b):
            ok = False
            break
        if params.d >= 2:
            images = set()
            for lam in a:
                kappa, _ = phi(lam, params)
                images.add(kappa)
                back, _ = phi_inverse(kappa, params)
                if back != lam:
                    ok = False
            if images != set(b):
                ok = False
        if not ok:
            break
    report("4 equinumerosity grid with bijection", ok)


def test_criterion_5_series_identity_eq2():
    N = 60
    ok = all(
        lhs_series(k, d, m, N) == rhs_series(k, d, m, N)
        for k in GRID_K
        for d in GRID_D
        for m in GRID_M
    )
    report("5 series identity both branches", ok)


def test_criterion_6_triple_oracle_agreement():
    N = GRID_N_MAX
    cache = {}
    ok = True
    for params, a, b in grid_counts():
        key = (params.k, params.d, params.m)
        if key not in cache:
            cache[key] = (
                lhs_series(params.k, params.d, params.m, N),
                rhs_series(params.k, params.d, params.m, N),
            )
        lhs, rhs = cache[key]
        if lhs.coefficients[params.n] != len(a) or rhs.coefficients[params.n] != len(b):
            ok = False
            break
    report("6 triple-oracle agreement", ok)


def test_criterion_7_series_identity_eq1():
    ok = all(solutionI_check(k, 100) for k in range(0, 9))
    report("7 classical identity", ok)


def test_criterion_8_reduction_to_unbounded():
    ok = True
    for n in range(0, 23):
        members = list(enumerate_partitions(n))
        for d in (2, 3):
            for k in range(1, 6):
                params = ClassParams(n, k, d, n + 1)
                # independently coded unbounded predicates
                count_a_unbounded = sum(
                    1
                    for p in members
                    if sum(c for q, c in p.entries if q % d == 0) == k
                )
                count_b_unbounded = 0
                for p in members:
                    repeated = [q for q, c in p.entries if c >= d]
                    if repeated and max(repeated) == k:
                        count_b_unbounded += 1
                count_a = sum(1 for p in members if is_in_A(p, params))
                count_b = sum(1 for p in members if is_in_B(p, params))
                if not (count_a == count_a_unbounded and count_b == count_b_unbounded):
                    ok = False
    report("8 reduction to the unbounded theorem", ok)


def test_criterion_9_randomized_property_suites():
    cases = 10_000
    rng = random.Random(20260826)
    ok = True

    for _ in range(cases):
        p = random_partition(rng)
        if p.conjugate().conjugate() != p:
            ok = False
    report("9a conjugate involution", ok)

    ok = True
    for _ in range(cases):
        p, r = random_partition(rng), random_partition(rng)
        if _weigh(union(p, r).entries) != weight(p) + weight(r):
            ok = False
    report("9b weight additivity", ok)

    ok = True
    for _ in range(cases):
        d = rng.randint(2, 5)
        o = random_d_free_partition(rng, d, max_part=20)
        if glaisher_inverse(glaisher_forward(o, d), d) != o:
            ok = False
    report("9c classical map round trip", ok)

    ok = True
    for _ in range(cases):
        d = rng.randint(2, 4)
        m = rng.randint(1, 8)
        o = random_d_free_partition(rng, d, max_part=m * d - 1)
        image = finite_glaisher_forward(o, d, m)
        if any(c >= d for part, c in image.entries if part <= m):
            ok = False
        if finite_glaisher_inverse(image, d, m) != o:
            ok = False
    report("9d finite map bound and round trip", ok)

    ok = True
    for _ in range(cases):
        p = random_partition(rng)
        if Partition.parse(p.render()) != p:
            ok = False
    report("9e parse/render round trip", ok)
