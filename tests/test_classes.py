import enum

import pytest

from parteq.bijection import finite_glaisher_forward, finite_glaisher_inverse
from parteq.classes import (
    ClassParams,
    check_budget,
    count_partitions,
    enumerate_A,
    enumerate_B,
    enumerate_partitions,
    integer,
    is_in_A,
    is_in_B,
    k_of_A,
    k_of_B,
    members_by_k,
)
from parteq.errors import BudgetExceeded, DomainError
from parteq.partition import Partition, _weigh
from parteq.qseries import TruncatedSeries, lhs_series, rhs_series, solutionI_sides

from conftest import EMPTY, reference_is_in_A, reference_is_in_B, weight


def partition_count_recurrence(n: int) -> int:
    """Independent oracle: p(n) via the sum-over-smallest-part recurrence
    p(n) = sum over partitions counted by (largest part, remainder) table."""
    table = {}

    def count(total, max_part):
        if total == 0:
            return 1
        if max_part == 0:
            return 0
        key = (total, max_part)
        if key not in table:
            table[key] = sum(count(total - p, p) for p in range(1, min(total, max_part) + 1))
        return table[key]

    return count(n, n)


def reference_partitions(n: int):
    """Reference enumerator: descending-lex part sequences built with from_parts."""

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for seq in gen(n, n):
        yield Partition.from_parts(seq)


def test_params_validation():
    with pytest.raises(DomainError):
        ClassParams(5, 0, 2, 3)
    with pytest.raises(DomainError):
        ClassParams(5, 1, 0, 3)
    with pytest.raises(DomainError):
        ClassParams(5, 1, 2, 0)
    with pytest.raises(DomainError):
        ClassParams(-1, 1, 2, 3)
    ClassParams(0, 1, 1, 1)  # n = 0 is legal, classes just come out empty


class Small(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "fields",
    [(3, 1.5, 2, 1), (True, 1, 1, 1), (3, 1, 2, True), ("3", 1, 2, 1), (3, 1, None, 1), (3, Small.TWO, 2, 1)],
)
def test_params_reject_non_integers(fields):
    with pytest.raises(DomainError):
        ClassParams(*fields)


# Every entry point that takes an integer from a library caller, as a call
# of the one integer under test (all others valid) and that integer's
# lower bound.
ENTRY_POINTS = {
    "ClassParams.n": (lambda v: ClassParams(v, 1, 2, 1), 0),
    "ClassParams.k": (lambda v: ClassParams(3, v, 2, 1), 1),
    "ClassParams.d": (lambda v: ClassParams(3, 1, v, 1), 1),
    "ClassParams.m": (lambda v: ClassParams(3, 1, 2, v), 1),
    "lhs_series.k": (lambda v: lhs_series(v, 2, 2, 6), 1),
    "lhs_series.d": (lambda v: lhs_series(2, v, 2, 6), 1),
    "lhs_series.m": (lambda v: lhs_series(2, 2, v, 6), 1),
    "lhs_series.N": (lambda v: lhs_series(1, 1, 1, v), 0),
    "rhs_series.k": (lambda v: rhs_series(v, 2, 2, 6), 1),
    "rhs_series.d": (lambda v: rhs_series(2, v, 2, 6), 1),
    "rhs_series.m": (lambda v: rhs_series(2, 2, v, 6), 1),
    "rhs_series.N": (lambda v: rhs_series(1, 1, 1, v), 0),
    "solutionI_sides.k": (lambda v: solutionI_sides(v, 5), 0),
    "solutionI_sides.N": (lambda v: solutionI_sides(1, v), 0),
    "monomial.N": (lambda v: TruncatedSeries.monomial(1, v), 0),
    "monomial.e": (lambda v: TruncatedSeries.monomial(v, 4), 0),
    "finite_glaisher_forward.d": (lambda v: finite_glaisher_forward(Partition.parse("3^5"), v, 8), 2),
    "finite_glaisher_forward.m": (lambda v: finite_glaisher_forward(Partition.parse("1^3"), 2, v), 1),
    "finite_glaisher_inverse.d": (lambda v: finite_glaisher_inverse(Partition.parse("4"), v, 4), 2),
    "finite_glaisher_inverse.m": (lambda v: finite_glaisher_inverse(Partition.parse("2"), 2, v), 1),
    "check_budget.cap": (lambda v: check_budget(10, v), 0),
    # the generator checks n on its first next
    "enumerate_partitions.n": (lambda v: next(enumerate_partitions(v)), 0),
    # 1 and 2 cached first: True and 2.0 compare equal to them, and the
    # cache must not answer for them without the check
    "count_partitions.n": (lambda v: count_partitions(1) + count_partitions(2) + count_partitions(v), 0),
    "times_factor.e": (lambda v: TruncatedSeries.monomial(0, 4).times_factor(v), 1),
    "times_inverse_factor.e": (lambda v: TruncatedSeries.monomial(0, 4).times_inverse_factor(v), 1),
    "Partition.part": (lambda v: Partition(((v, 1),)), 1),
    "Partition.multiplicity": (lambda v: Partition(((3, v),)), 1),
    "from_pairs.part": (lambda v: Partition.from_pairs([(v, 1)]), 1),
    "from_pairs.multiplicity": (lambda v: Partition.from_pairs([(3, v)]), 0),
}


@pytest.mark.parametrize(
    ("entry", "kind"),
    [
        (entry, kind)
        for entry in ENTRY_POINTS
        for kind in ("below-bound", "bool", "float")
    ],
)
def test_entry_points_reject_non_int_or_below_bound(entry, kind):
    call, low = ENTRY_POINTS[entry]
    value = low - 1 if kind == "below-bound" else {"bool": True, "float": 2.0}[kind]
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Partition.from_pairs([("a", 1)]), id="from_pairs-str-part"),
        pytest.param(lambda: TruncatedSeries.monomial(0, 4).times_factor("2"), id="times_factor-str"),
        pytest.param(lambda: TruncatedSeries.monomial(0, 4).times_inverse_factor("2"), id="times_inverse_factor-str"),
    ],
)
def test_entry_points_reject_str(call):
    with pytest.raises(DomainError):
        call()


# one bad input per structural check of the two validating constructors
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Partition([(3, 1)]), id="partition-entries-not-tuple"),
        pytest.param(lambda: Partition(((3,),)), id="partition-entry-not-pair"),
        pytest.param(lambda: Partition(((1, 1), (2, 1))), id="partition-not-descending"),
        pytest.param(lambda: TruncatedSeries([1, 0]), id="series-coefficients-not-tuple"),
        pytest.param(lambda: TruncatedSeries(()), id="series-coefficients-empty"),
    ],
)
def test_constructor_errors_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_params_parse():
    assert ClassParams.parse("123,7,3,4") == ClassParams(123, 7, 3, 4)
    with pytest.raises(DomainError):
        ClassParams.parse("1,2,3")
    with pytest.raises(DomainError):
        ClassParams.parse("1,2,3,x")


def test_integer_rejects_overlong_digits_as_domain_error():
    # int() refuses text past the interpreter's digit limit with a plain ValueError
    with pytest.raises(DomainError, match="5000 characters"):
        integer("9" * 5000)


def test_params_parse_overlong_integer_gives_short_message():
    with pytest.raises(DomainError) as info:
        ClassParams.parse("3,1,2," + "9" * 5000)
    assert len(str(info.value)) < 200


def test_enumerate_partitions_n0():
    assert list(enumerate_partitions(0)) == [EMPTY]


def test_enumerate_partitions_p7():
    items = list(enumerate_partitions(7))
    assert len(items) == 15
    assert len(items) == partition_count_recurrence(7)
    assert len(set(items)) == 15
    assert all(_weigh(p.entries) == weight(p) == 7 for p in items)


def test_enumerate_order_descending_lex():
    seqs = [tuple(part for part, mult in p.entries for _ in range(mult)) for p in enumerate_partitions(6)]
    assert seqs == sorted(seqs, reverse=True)


def test_enumerate_matches_reference():
    for n in range(0, 21):
        items = list(enumerate_partitions(n))
        assert items == list(reference_partitions(n)), n
        assert all(_weigh(p.entries) == weight(p) == n for p in items)
        assert len(items) == count_partitions(n)


def test_count_partitions_matches_recurrence():
    for n in range(0, 20):
        assert count_partitions(n) == partition_count_recurrence(n)


def test_budget_exceeded():
    # p(10) = 42; p(64) = 1741630 settles every n past 64
    check_budget(10, 42)
    with pytest.raises(BudgetExceeded, match="^42 partitions of 10 exceeds budget 41$"):
        check_budget(10, 41)
    check_budget(64, 1741630)
    with pytest.raises(BudgetExceeded, match="^partitions of 65 exceed budget 1741629: 64 alone has 1741630$"):
        check_budget(65, 1741629)



def test_is_in_A_worked_example():
    lam = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert is_in_A(lam, ClassParams(123, 7, 3, 4))


def test_is_in_A_monthly_example():
    assert is_in_A(Partition.parse("3 2^2"), ClassParams(7, 2, 2, 4))


def test_is_in_A_empty_needs_k_parts():
    assert not is_in_A(EMPTY, ClassParams(0, 1, 2, 3))


def test_is_in_A_bound_on_nondivisible_parts():
    # 5 is not divisible by 2 and 5 >= m*d = 4
    assert not is_in_A(Partition.parse("5 2^2"), ClassParams(9, 2, 2, 2))
    assert is_in_A(Partition.parse("5 2^2"), ClassParams(9, 2, 2, 3))


def test_is_in_B_worked_examples():
    kappa1 = Partition.parse("21 18 11 8 7^4 5 4^3 3^3 2^5 1")
    assert is_in_B(kappa1, ClassParams(123, 7, 3, 4))
    kappa2 = Partition.parse("20 17 14^4 7^2 6 4^9 3^7 2^8 1^3")
    assert is_in_B(kappa2, ClassParams(189, 4, 3, 7))


def test_is_in_B_monthly_example():
    assert is_in_B(Partition.parse("2^2 1^3"), ClassParams(7, 2, 2, 7))


def test_is_in_B_m_lt_k_branch():
    # largest part must be exactly k*d
    assert is_in_B(Partition.parse("12 3"), ClassParams(15, 4, 3, 2))
    assert not is_in_B(Partition.parse("9 6"), ClassParams(15, 4, 3, 2))
    # part above m*d not divisible by d
    assert not is_in_B(Partition.parse("12 7 2"), ClassParams(21, 4, 3, 2))
    assert is_in_B(Partition.parse("12 6 2 1"), ClassParams(21, 4, 3, 2))


def test_is_in_B_m_ge_k_branch():
    assert is_in_B(Partition.parse("3 2^4"), ClassParams(11, 2, 3, 3))      # part 2 occurs >= 3 times
    assert not is_in_B(Partition.parse("3^3 2^3"), ClassParams(15, 2, 3, 3))  # part 3 in (k, m] occurs >= d
    assert not is_in_B(Partition.parse("2^2 1^7"), ClassParams(11, 2, 3, 3))  # part 2 occurs < 3 times
    assert not is_in_B(Partition.parse("11 1^2"), ClassParams(13, 1, 2, 5))   # part exceeds m*d


def test_predicates_match_reference():
    # the partitions of n + 1 exercise the weight test; d = 1, both B
    # branches and m > n all lie in the range
    for n in range(17):
        candidates = list(enumerate_partitions(n)) + list(enumerate_partitions(n + 1))
        for k in range(1, 8):
            for d in range(1, 6):
                for m in range(1, 10):
                    params = ClassParams(n, k, d, m)
                    for p in candidates:
                        assert is_in_A(p, params) == reference_is_in_A(p, params), (p.render(), params)
                        assert is_in_B(p, params) == reference_is_in_B(p, params), (p.render(), params)


def test_k_of_matches_reference():
    # k_of_A/k_of_B name the one k whose class holds p: for k 1..7 the
    # reference agrees exactly at that k, and it agrees at a larger k too;
    # d = 1, both B branches and m > n all lie in the range
    for n in range(17):
        for p in enumerate_partitions(n):
            for d in range(1, 6):
                for m in range(1, 10):
                    for k_of, reference in ((k_of_A, reference_is_in_A), (k_of_B, reference_is_in_B)):
                        found = k_of(p, d, m)
                        for k in range(1, 8):
                            assert (found == k) == reference(p, ClassParams(n, k, d, m)), (p.render(), k, d, m)
                        if found is not None:
                            assert reference(p, ClassParams(n, found, d, m)), (p.render(), found, d, m)


def test_members_by_k_matches_reference_filter():
    # every verify-grid point with n <= 14: the same members, in the same
    # order, as filtering the partitions of n through the references
    for n in range(15):
        partitions = list(enumerate_partitions(n))
        for d in range(1, 5):
            for m in range(1, 9):
                a, b = members_by_k(partitions, d, m)
                for k in range(1, 7):
                    params = ClassParams(n, k, d, m)
                    assert a.get(k, []) == [p for p in partitions if reference_is_in_A(p, params)], params
                    assert b.get(k, []) == [p for p in partitions if reference_is_in_B(p, params)], params


def test_monthly_lists():
    a = [p.render() for p in enumerate_A(ClassParams(7, 2, 2, 4))]
    assert a == ["4 2 1", "3 2^2", "2^2 1^3"]
    b = [p.render() for p in enumerate_B(ClassParams(7, 2, 2, 7))]
    assert b == ["3 2^2", "2^3 1", "2^2 1^3"]


def test_enumerate_A_empty_case():
    assert list(enumerate_A(ClassParams(1, 1, 2, 1))) == []


def test_enumerate_A_is_filtered_enumeration():
    params = ClassParams(12, 2, 3, 2)
    via_filter = [p for p in enumerate_partitions(12) if is_in_A(p, params)]
    assert list(enumerate_A(params)) == via_filter


def test_counts_consistent_with_enumerators():
    params = ClassParams(14, 2, 2, 3)
    assert list(enumerate_A(params)) == [p for p in enumerate_partitions(14) if is_in_A(p, params)]
    assert list(enumerate_B(params)) == [p for p in enumerate_partitions(14) if is_in_B(p, params)]


def test_count_A_witness():
    # p(123) is far past any sane enumeration budget; witness membership
    # directly and confirm the class is nonempty via the series oracle
    lam = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert is_in_A(lam, ClassParams(123, 7, 3, 4))
    from parteq.qseries import lhs_series

    assert lhs_series(7, 3, 4, 123).coefficients[123] >= 1


def test_equinumerosity_spot_checks():
    for (n, k, d, m) in [(10, 2, 2, 3), (12, 3, 3, 2), (15, 2, 4, 2), (9, 1, 3, 5)]:
        params = ClassParams(n, k, d, m)
        assert len(list(enumerate_A(params))) == len(list(enumerate_B(params)))


def test_B_disjoint_over_k():
    # each partition lies in B(n,k,d,m) for at most one k, at every (d, m)
    # of the standard grid
    for n in range(0, 15):
        for d in range(1, 5):
            for m in range(1, 9):
                params = [ClassParams(n, k, d, m) for k in range(1, n + 1)]
                for p in enumerate_partitions(n):
                    assert sum(is_in_B(p, q) for q in params) <= 1


def test_reduction_to_unbounded_for_large_m():
    # m > n: the bound m*d is inactive and membership reduces to the
    # unbounded statements, coded independently here.
    d = 2
    for n in range(0, 15):
        for k in range(1, 4):
            params = ClassParams(n, k, d, n + 1)
            for p in enumerate_partitions(n):
                unbounded_a = sum(c for q, c in p.entries if q % d == 0) == k
                seq_mults = dict(p.entries)
                repeated = [q for q, c in seq_mults.items() if c >= d]
                unbounded_b = bool(repeated) and max(repeated) == k
                assert is_in_A(p, params) == unbounded_a
                assert is_in_B(p, params) == unbounded_b


def test_finitely_many_cases_at_each_weight():
    # Why verify over k, d, m in 1..N at each n <= N covers every (k, d, m):
    # at kd > n neither class has a member (A needs k parts of at least d,
    # B a part kd or d copies of k), and every m >= n gives the classes
    # of m = n. m = 1 reaches B's m < k branch, m >= n its m >= k branch.
    # The member counts at m = n keep the comparisons from being vacuous;
    # the series count them too, as the sum of lhs_series(k, d, n, n) at q^n.
    count_a = count_b = 0
    for n in range(1, 17):
        partitions = list(enumerate_partitions(n))
        for k in range(1, n + 2):
            for d in range(1, n + 2):
                if k * d > n:
                    for m in (1, n, n + 1, 2 * n):
                        params = ClassParams(n, k, d, m)
                        for p in partitions:
                            assert not reference_is_in_A(p, params), (p.render(), params)
                            assert not reference_is_in_B(p, params), (p.render(), params)
                    continue
                at_n = ClassParams(n, k, d, n)
                for p in partitions:
                    in_a, in_b = reference_is_in_A(p, at_n), reference_is_in_B(p, at_n)
                    count_a += in_a
                    count_b += in_b
                    for m in (n + 1, 2 * n):
                        params = ClassParams(n, k, d, m)
                        assert reference_is_in_A(p, params) == in_a, (p.render(), params)
                        assert reference_is_in_B(p, params) == in_b, (p.render(), params)
    assert count_a == count_b == 3174
