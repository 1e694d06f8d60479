"""Exact truncated power series in q and the two generating-function identities.

Everything here is integer arithmetic on coefficient tuples truncated at a
fixed degree N. Each factor is one pass over the coefficients, in C: a
numerator factor (1 - q^e) is one map(sub) over the tail, and a
denominator factor 1/(1 - q^e) is the prefix recurrence c'_i = c_i +
c'_{i-e} as one map(add) that reads the output it is extending. No Python
loop runs per coefficient, and no dense inversion of a large product is
ever needed.

lhs_series / rhs_series build the two sides of the finite-bound identity;
the coefficient of q^n on the left counts A(n,k,d,m) and on the right
counts B(n,k,d,m). Each side is one list of Pochhammer products, written
in the paper's order and applied in that order by one loop, _side, one
factor at a time. Numerator factors are never cancelled against
denominator factors, and the two sides share no intermediate: after
cancellation both sides reduce to the same multiset of exponents, so
checking lhs == rhs would prove nothing. solutionI_sides builds both
sides of the classical identity behind the original Monthly problem.
"""

from __future__ import annotations

from operator import add, sub

from .errors import DomainError, Value, check_int

# the deepest series degree: one coefficient tuple is then 8 MB of pointers
MAX_DEGREE = 10**6


class TruncatedSeries(Value, fields=("coefficients",)):
    """Formal power series in q, kept exactly up to degree len(coefficients) - 1; an immutable value."""

    def __init__(self, coefficients: tuple[int, ...]):
        # exactly a tuple, checked in O(1): a list would build and then
        # fail to hash; an empty one would have no degree
        if type(coefficients) is not tuple or not coefficients:
            got = "()" if coefficients == () else f"a {type(coefficients).__name__}"
            raise DomainError(f"coefficients must be a non-empty tuple, got {got}")
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def truncation_degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def monomial(cls, e: int, N: int) -> "TruncatedSeries":
        """q^e truncated at N (the zero series when e > N); N is at most MAX_DEGREE."""
        check_int("e", e, 0)
        check_int("N", N, 0)
        if N > MAX_DEGREE:
            raise DomainError(f"series degree N = {N} is too large to allocate")
        coeffs = [0] * (N + 1)
        if e <= N:
            coeffs[e] = 1
        return cls(tuple(coeffs))

    def times_factor(self, e: int) -> "TruncatedSeries":
        """Multiply by (1 - q^e): c'_i = c_i - c_{i-e}, as one map over the tail."""
        check_int("e", e, 1)
        c = self.coefficients
        out = list(c[:e])
        out.extend(map(sub, c[e:], c))
        return TruncatedSeries(tuple(out))

    def times_inverse_factor(self, e: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - q^e): c'_i = c_i + c'_{i-e}, as one map over the tail."""
        check_int("e", e, 1)
        c = self.coefficients
        out = list(c[:e])
        # map reads each out[i - e] after extend has appended it: extend
        # appends a non-sequence iterable's items one at a time, and a list
        # iterator sees items appended after it was made. CI runs
        # test_factor_kernels_match_reference_loops on every Python of its
        # matrix; were that to change, the result would stop at 2e coefficients.
        out.extend(map(add, c[e:], out))
        return TruncatedSeries(tuple(out))


def _side(N: int, shift: int, *products: tuple[int, int, int, int | None]) -> TruncatedSeries:
    """q^shift times the given Pochhammer products, applied in order, truncated at N.

    Each product is (power, offset, step, length): power +1 multiplies by the
    factors (1 - q^e), power -1 divides by them, and length None is the
    infinite product. Factors with e > N change nothing and are skipped.
    """
    s = TruncatedSeries.monomial(shift, N)
    for power, offset, step, length in products:
        apply = TruncatedSeries.times_factor if power == 1 else TruncatedSeries.times_inverse_factor
        stop = N + 1 if length is None else min(N + 1, offset + length * step)
        for e in range(offset, stop, step):
            s = apply(s, e)
    return s


def lhs_series(k: int, d: int, m: int, N: int) -> TruncatedSeries:
    """q^{dk} / (q^d;q^d)_k * (q^d;q^d)_m / (q;q)_{dm}; counts A(n,k,d,m) at q^n."""
    check_int("k", k, 1)
    check_int("d", d, 1)
    check_int("m", m, 1)
    return _side(N, d * k, (-1, d, d, k), (1, d, d, m), (-1, 1, 1, d * m))


def rhs_series(k: int, d: int, m: int, N: int) -> TruncatedSeries:
    """The branch-dependent right-hand side; counts B(n,k,d,m) at q^n.

    m <  k: q^{kd} / (q^{d(m+1)};q^d)_{k-m} / (q;q)_{md}
    m >= k: q^{kd} / (q;q)_k * (q^{d(k+1)};q^d)_{m-k} / (q^{k+1};q)_{m-k}
                   / (q^{m+1};q)_{md-m}
    """
    check_int("k", k, 1)
    check_int("d", d, 1)
    check_int("m", m, 1)
    if m < k:
        return _side(N, k * d, (-1, d * (m + 1), d, k - m), (-1, 1, 1, m * d))
    return _side(
        N, k * d,
        (-1, 1, 1, k),
        (1, d * (k + 1), d, m - k),
        (-1, k + 1, 1, m - k),
        (-1, m + 1, 1, m * d - m),
    )


def solutionI_sides(k: int, N: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the classical identity, truncated at N.

    lhs = q^{2k} / (q^2;q^2)_k * (q^2;q^2)_inf / (q;q)_inf
    rhs = q^{2k} / (q;q)_k * (q^{2(k+1)};q^2)_inf / (q^{k+1};q)_inf
    """
    check_int("k", k, 0)
    lhs = _side(N, 2 * k, (-1, 2, 2, k), (1, 2, 2, None), (-1, 1, 1, None))
    rhs = _side(N, 2 * k, (-1, 1, 1, k), (1, 2 * (k + 1), 2, None), (-1, k + 1, 1, None))
    return lhs, rhs


def first_difference(s: TruncatedSeries, t: TruncatedSeries) -> tuple[int, int, int] | None:
    """(exponent, coeff_s, coeff_t) at the first disagreement, or None."""
    if s.truncation_degree != t.truncation_degree:
        raise DomainError("cannot compare series of different degrees")
    if s.coefficients == t.coefficients:
        return None
    # unequal tuples of one length differ somewhere, so the loop returns
    for e, (a, b) in enumerate(zip(s.coefficients, t.coefficients)):
        if a != b:
            return e, a, b

