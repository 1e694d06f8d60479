import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from parteq.classes import ClassParams, enumerate_A, enumerate_B
from parteq.errors import DomainError
from parteq.qseries import (
    MAX_DEGREE,
    TruncatedSeries,
    _side,
    first_difference,
    lhs_series,
    rhs_series,
    solutionI_sides,
)

from conftest import solutionI_check


def one(N: int) -> TruncatedSeries:
    """The series 1 truncated at N."""
    return TruncatedSeries.monomial(0, N)


def from_coefficients(coeffs, N: int | None = None) -> TruncatedSeries:
    """The series with the given low coefficients, zero-padded or cut to degree N."""
    coeffs = list(coeffs)
    if N is None:
        N = len(coeffs) - 1
    coeffs = (coeffs + [0] * (N + 1))[: N + 1]
    return TruncatedSeries(tuple(coeffs))


def times_factor_loop(s: TruncatedSeries, e: int) -> TruncatedSeries:
    """Reference (1 - q^e) * s, one coefficient at a time."""
    N = s.truncation_degree
    out = list(s.coefficients)
    for i in range(N, e - 1, -1):
        out[i] -= s.coefficients[i - e]
    return TruncatedSeries(tuple(out))


def times_inverse_factor_loop(s: TruncatedSeries, e: int) -> TruncatedSeries:
    """Reference s / (1 - q^e) by the prefix recurrence, one coefficient at a time."""
    N = s.truncation_degree
    out = list(s.coefficients)
    for i in range(e, N + 1):
        out[i] += out[i - e]
    return TruncatedSeries(tuple(out))


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Reference reciprocal by the dense coefficient recurrence; s(0) must be +-1."""
    c0 = s.coefficients[0]
    assert c0 in (1, -1)
    N = s.truncation_degree
    inv = [0] * (N + 1)
    inv[0] = c0
    for e in range(1, N + 1):
        inv[e] = -c0 * sum(s.coefficients[i] * inv[e - i] for i in range(1, e + 1))
    return TruncatedSeries(tuple(inv))


def pochhammer(offset: int, step: int, length: int | None, N: int) -> TruncatedSeries:
    """(q^offset; q^step)_length truncated at N, through the library's product loop."""
    return _side(N, 0, (1, offset, step, length))


def brute_force_odd_partitions(n: int) -> int:
    """Oracle: partitions of n into odd parts, by direct recursion."""

    def count(total, max_part):
        if total == 0:
            return 1
        return sum(
            count(total - p, p)
            for p in range(1, min(total, max_part) + 1)
            if p % 2 == 1
        )

    return count(n, n)


def test_one_and_monomial():
    s = one(4)
    assert s.coefficients == (1, 0, 0, 0, 0)
    assert TruncatedSeries.monomial(2, 4).coefficients == (0, 0, 1, 0, 0)
    assert TruncatedSeries.monomial(9, 4).coefficients == (0, 0, 0, 0, 0)


def test_monomial_at_the_deepest_degree():
    s = TruncatedSeries.monomial(0, MAX_DEGREE)
    assert s.truncation_degree == MAX_DEGREE
    assert s.coefficients[0] == 1 and s.coefficients.count(0) == MAX_DEGREE


def test_mul_identity():
    # a factor (1 - q^e) with e beyond the truncation degree changes nothing
    s = from_coefficients([3, -1, 2, 0, 5])
    assert s.times_factor(5) == s


def test_mul_geometric_telescopes():
    N = 12
    geometric = from_coefficients([1] * (N + 1), N)
    assert geometric.times_factor(1) == one(N)


def test_mul_square():
    s = one(3).times_factor(1).times_factor(1)
    assert s.coefficients == (1, -2, 1, 0)


def test_mul_degree_mismatch():
    with pytest.raises(DomainError, match="different degrees"):
        first_difference(one(3), one(4))


def test_inverse_geometric():
    s = from_coefficients([1, -1], 8)
    assert inverse(s).coefficients == (1,) * 9


def test_inverse_involution():
    s = from_coefficients([1, 3, -2, 7, 0, 1], 5)
    assert inverse(inverse(s)) == s


def test_inverse_of_single_factor_coefficient():
    # 1 / (1 - q): every coefficient is 1
    s = inverse(pochhammer(1, 1, 1, 10))
    assert s.coefficients[7] == 1


def test_times_inverse_factor_matches_inverse():
    N = 20
    s = one(N).times_inverse_factor(3)
    assert s == inverse(pochhammer(3, 1, 1, N))


def record_factor_calls(monkeypatch) -> list[tuple[str, int]]:
    """Wrap both factor kernels so that each call appends (kernel, e) to the returned list."""
    calls = []
    for name in ("times_factor", "times_inverse_factor"):
        kernel = getattr(TruncatedSeries, name)

        def recorded(s, e, name=name, kernel=kernel):
            calls.append((name, e))
            return kernel(s, e)

        monkeypatch.setattr(TruncatedSeries, name, recorded)
    return calls


def factors(*products, N):
    """The (kernel, e) calls of the products in order: power +1 multiplies, -1 divides; e capped at N."""
    return [
        ("times_factor" if power == 1 else "times_inverse_factor", e)
        for power, exponents in products
        for e in exponents
        if e <= N
    ]


@pytest.mark.parametrize("N", [0, 14, 60])
@pytest.mark.parametrize("k, d, m", [(3, 2, 4), (7, 3, 4), (4, 3, 7), (2, 2, 2)])
def test_identity_sides_apply_docstring_factors_in_order(monkeypatch, k, d, m, N):
    # Value tests cannot see a cancelled or reordered factor: after
    # cancellation both sides reduce to the same exponents. So each side's
    # (kernel, e) sequence is compared with its docstring formula, uncancelled.
    calls = record_factor_calls(monkeypatch)
    lhs_series(k, d, m, N)
    # q^{dk} / (q^d;q^d)_k * (q^d;q^d)_m / (q;q)_{dm}
    assert calls == factors(
        (-1, range(d, d * k + 1, d)), (1, range(d, d * m + 1, d)), (-1, range(1, d * m + 1)), N=N
    )
    calls.clear()
    rhs_series(k, d, m, N)
    if m < k:
        # q^{kd} / (q^{d(m+1)};q^d)_{k-m} / (q;q)_{md}
        expected = factors((-1, range(d * (m + 1), d * k + 1, d)), (-1, range(1, m * d + 1)), N=N)
    else:
        # q^{kd} / (q;q)_k * (q^{d(k+1)};q^d)_{m-k} / (q^{k+1};q)_{m-k} / (q^{m+1};q)_{md-m}
        expected = factors(
            (-1, range(1, k + 1)),
            (1, range(d * (k + 1), d * m + 1, d)),
            (-1, range(k + 1, m + 1)),
            (-1, range(m + 1, m * d + 1)),
            N=N,
        )
    assert calls == expected


@pytest.mark.parametrize("k", [0, 3])
def test_solutionI_sides_apply_docstring_factors_in_order(monkeypatch, k):
    N = 30
    calls = record_factor_calls(monkeypatch)
    solutionI_sides(k, N)
    # lhs = q^{2k} / (q^2;q^2)_k * (q^2;q^2)_inf / (q;q)_inf
    lhs = factors((-1, range(2, 2 * k + 1, 2)), (1, range(2, N + 1, 2)), (-1, range(1, N + 1)), N=N)
    # rhs = q^{2k} / (q;q)_k * (q^{2(k+1)};q^2)_inf / (q^{k+1};q)_inf
    rhs = factors((-1, range(1, k + 1)), (1, range(2 * (k + 1), N + 1, 2)), (-1, range(k + 1, N + 1)), N=N)
    assert calls == lhs + rhs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_factor_kernels_match_reference_loops(data):
    # every e from 1 to N + 2: a factor shorter than, as long as and past the series
    N = data.draw(st.integers(min_value=0, max_value=80), label="N")
    coeff = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=-(2**80), max_value=2**80))
    s = TruncatedSeries(tuple(data.draw(st.lists(coeff, min_size=N + 1, max_size=N + 1), label="c")))
    for e in range(1, N + 3):
        assert s.times_factor(e) == times_factor_loop(s, e)
        assert s.times_inverse_factor(e) == times_inverse_factor_loop(s, e)


@pytest.mark.parametrize("e", [1, 2, 3, 31, 32, 33, 531, 1063, 1064])
def test_factor_kernels_match_reference_loops_at_series_deep_degree(e):
    # the degree the series-deep benchmark builds, past the hypothesis test's N <= 80
    N = 1063
    s = TruncatedSeries(tuple((-1) ** i * (i * i % 97 + 2**70 * (i % 3)) for i in range(N + 1)))
    assert s.times_factor(e) == times_factor_loop(s, e)
    assert s.times_inverse_factor(e) == times_inverse_factor_loop(s, e)


def test_grid_series_match_reference_loops(monkeypatch):
    N = 300
    grid = [(k, d, m) for k in range(1, 7) for d in range(1, 5) for m in range(1, 9)]
    fast = [(lhs_series(*kdm, N), rhs_series(*kdm, N)) for kdm in grid]
    monkeypatch.setattr(TruncatedSeries, "times_factor", times_factor_loop)
    monkeypatch.setattr(TruncatedSeries, "times_inverse_factor", times_inverse_factor_loop)
    assert fast == [(lhs_series(*kdm, N), rhs_series(*kdm, N)) for kdm in grid]


@pytest.mark.parametrize("e", [0, -1])
def test_factor_exponent_below_1_rejected(e):
    s = from_coefficients([1, 2, 3, 4])
    with pytest.raises(DomainError):
        s.times_factor(e)
    with pytest.raises(DomainError):
        s.times_inverse_factor(e)


def test_negative_degree_rejected():
    with pytest.raises(DomainError):
        one(-1)
    with pytest.raises(DomainError):
        lhs_series(1, 1, 1, -1)
    with pytest.raises(DomainError):
        rhs_series(1, 1, 1, -1)
    with pytest.raises(DomainError):
        solutionI_sides(1, -3)


@pytest.mark.parametrize(
    "coefficients",
    [
        pytest.param([1, 0, 0], id="list-coefficients"),
        pytest.param((), id="empty-tuple"),
    ],
)
def test_series_rejects_non_int_degree_or_non_tuple_coefficients(coefficients):
    # the degree is len(coefficients) - 1, so only the coefficients are an input
    with pytest.raises(ValueError):
        TruncatedSeries(coefficients)


def test_pochhammer_empty_product():
    assert pochhammer(1, 1, 0, 5) == one(5)


def test_pochhammer_two_factors():
    s = pochhammer(1, 1, 2, 3)
    assert s.coefficients == (1, -1, -1, 1)


def test_pochhammer_odd_parts_quotient():
    # (q^2;q^2)_inf / (q;q)_inf counts partitions into odd parts
    N = 12
    s = pochhammer(2, 2, None, N)
    for e in range(1, N + 1):
        s = s.times_inverse_factor(e)
    for n in range(N + 1):
        assert s.coefficients[n] == brute_force_odd_partitions(n)


def test_lhs_series_monthly_count():
    assert lhs_series(2, 2, 4, 10).coefficients[7] == 3


def test_lhs_series_degenerate_point():
    assert lhs_series(1, 1, 1, 3).coefficients[1] == 1


def test_lhs_series_vanishes_below_dk():
    s = lhs_series(3, 3, 2, 30)
    for e in range(9):
        assert s.coefficients[e] == 0


def test_rhs_series_worked_example_parameters():
    for (k, d, m) in [(7, 3, 4), (4, 3, 7)]:
        assert lhs_series(k, d, m, 30) == rhs_series(k, d, m, 30)


def test_rhs_minimal_coefficient():
    for (k, d, m) in [(3, 2, 2), (2, 3, 5), (4, 2, 1)]:
        assert rhs_series(k, d, m, 30).coefficients[d * k] == 1


def test_solutionI_small_cases():
    assert solutionI_check(0, 50)
    assert solutionI_check(2, 50)
    assert solutionI_check(5, 80)


def test_first_difference_reports_position():
    s = from_coefficients([1, 2, 3], 2)
    t = from_coefficients([1, 2, 4], 2)
    assert first_difference(s, t) == (2, 3, 4)
    assert first_difference(s, s) is None


def test_series_coefficients_match_enumeration():
    N = 16
    for (k, d, m) in [(1, 2, 2), (2, 3, 1), (2, 2, 4), (3, 4, 2)]:
        lhs = lhs_series(k, d, m, N)
        rhs = rhs_series(k, d, m, N)
        for n in range(1, N + 1):
            params = ClassParams(n, k, d, m)
            assert lhs.coefficients[n] == len(list(enumerate_A(params)))
            assert rhs.coefficients[n] == len(list(enumerate_B(params)))


def test_m_stability_beyond_truncation():
    # once m*d exceeds the truncation window the bound is invisible
    N, k, d = 24, 2, 3
    m = N // d + 1
    assert lhs_series(k, d, m, N) == lhs_series(k, d, m + 1, N)
