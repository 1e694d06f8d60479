"""Exact truncated power series in q and the two generating-function identities.

Everything here is integer arithmetic on coefficient tuples truncated at a
fixed degree N. Denominator factors 1/(1 - q^e) are applied one at a time
via the prefix recurrence c'_i = c_i + c'_{i-e}, which is a running sum
over each residue class mod e: the sums run in itertools.accumulate, one
call per class when e is small and one map(add) per block of e when e is
large, so no Python loop runs per coefficient. A numerator factor
(1 - q^e) is one map(sub) over the tail. No dense inversion of a large
product is ever needed.

lhs_series / rhs_series build the two sides of the finite-bound identity;
the coefficient of q^n on the left counts A(n,k,d,m) and on the right
counts B(n,k,d,m). Each side applies the Pochhammer products exactly as
the paper writes them. Numerator factors are never cancelled against
denominator factors, and the two sides share no intermediate: after
cancellation both sides reduce to the same multiset of exponents, so
checking lhs == rhs would prove nothing. solutionI_check verifies the
classical identity behind the original Monthly problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .errors import DegreeMismatch, DomainError, OutOfRange


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series in q, kept exactly up to degree truncation_degree."""

    truncation_degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.truncation_degree < 0:
            raise DomainError(f"truncation degree must be >= 0, got {self.truncation_degree}")
        if len(self.coefficients) != self.truncation_degree + 1:
            raise ValueError("coefficient list must have length N + 1")

    @classmethod
    def monomial(cls, e: int, N: int) -> "TruncatedSeries":
        """q^e truncated at N (the zero series when e > N)."""
        coeffs = [0] * (N + 1)
        if 0 <= e <= N:
            coeffs[e] = 1
        return cls(N, tuple(coeffs))

    def coefficient(self, e: int) -> int:
        if not 0 <= e <= self.truncation_degree:
            raise OutOfRange(f"exponent {e} outside [0, {self.truncation_degree}]")
        return self.coefficients[e]

    def times_factor(self, e: int) -> "TruncatedSeries":
        """Multiply by (1 - q^e): c'_i = c_i - c_{i-e}, as one map over the tail."""
        if e < 1:
            raise DomainError(f"factor exponent must be >= 1, got {e}")
        c = self.coefficients
        out = list(c[:e])
        out.extend(map(sub, c[e:], c))
        return TruncatedSeries(self.truncation_degree, tuple(out))

    def times_inverse_factor(self, e: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - q^e) = 1 + q^e + q^2e + ...

        c'_i = c_i + c'_{i-e} is one running sum over each residue class
        mod e. For e*e <= N there are few classes, each summed with one
        accumulate over its extended slice; otherwise there are few blocks
        of e, each added to the finished block before it.
        """
        if e < 1:
            raise DomainError(f"factor exponent must be >= 1, got {e}")
        N = self.truncation_degree
        c = self.coefficients
        if e == 1:
            return TruncatedSeries(N, tuple(accumulate(c)))
        if e * e <= N:
            out = list(c)
            for r in range(e):
                out[r::e] = accumulate(c[r::e])
        else:
            block = c[:e]
            out = list(block)
            for i in range(e, N + 1, e):
                block = list(map(add, c[i:i + e], block))
                out += block
        return TruncatedSeries(N, tuple(out))


@dataclass(frozen=True)
class PochhammerSpec:
    """(q^offset; q^step)_length; length None means infinite."""

    offset: int
    step: int
    length: int | None

    def __post_init__(self):
        if self.offset < 1 or self.step < 1:
            raise ValueError("offset and step must be >= 1")
        if self.length is not None and self.length < 0:
            raise ValueError("length must be >= 0")

    def exponents(self, N: int) -> range:
        """Exponents offset + j*step of the factors, up to the truncation degree N."""
        stop = N + 1 if self.length is None else min(N + 1, self.offset + self.length * self.step)
        return range(self.offset, stop, self.step)


def _divided_by_pochhammer(s: TruncatedSeries, spec: PochhammerSpec) -> TruncatedSeries:
    """Multiply s by 1 / (q^offset; q^step)_length, one factor at a time."""
    for e in spec.exponents(s.truncation_degree):
        s = s.times_inverse_factor(e)
    return s


def _times_pochhammer(s: TruncatedSeries, spec: PochhammerSpec) -> TruncatedSeries:
    """Multiply s by (q^offset; q^step)_length, one factor at a time."""
    for e in spec.exponents(s.truncation_degree):
        s = s.times_factor(e)
    return s


def lhs_series(k: int, d: int, m: int, N: int) -> TruncatedSeries:
    """q^{dk} / (q^d;q^d)_k * (q^d;q^d)_m / (q;q)_{dm}; counts A(n,k,d,m) at q^n."""
    _require_positive(k=k, d=d, m=m)
    s = TruncatedSeries.monomial(d * k, N)
    s = _divided_by_pochhammer(s, PochhammerSpec(d, d, k))
    s = _times_pochhammer(s, PochhammerSpec(d, d, m))
    s = _divided_by_pochhammer(s, PochhammerSpec(1, 1, d * m))
    return s


def rhs_series(k: int, d: int, m: int, N: int) -> TruncatedSeries:
    """The branch-dependent right-hand side; counts B(n,k,d,m) at q^n.

    m <  k: q^{kd} / (q^{d(m+1)};q^d)_{k-m} / (q;q)_{md}
    m >= k: q^{kd} / (q;q)_k * (q^{d(k+1)};q^d)_{m-k} / (q^{k+1};q)_{m-k}
                   / (q^{m+1};q)_{md-m}
    """
    _require_positive(k=k, d=d, m=m)
    s = TruncatedSeries.monomial(k * d, N)
    if m < k:
        s = _divided_by_pochhammer(s, PochhammerSpec(d * (m + 1), d, k - m))
        s = _divided_by_pochhammer(s, PochhammerSpec(1, 1, m * d))
    else:
        s = _divided_by_pochhammer(s, PochhammerSpec(1, 1, k))
        s = _times_pochhammer(s, PochhammerSpec(d * (k + 1), d, m - k))
        s = _divided_by_pochhammer(s, PochhammerSpec(k + 1, 1, m - k))
        s = _divided_by_pochhammer(s, PochhammerSpec(m + 1, 1, m * d - m))
    return s


def solutionI_sides(k: int, N: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the classical identity, truncated at N.

    lhs = q^{2k} / (q^2;q^2)_k * (q^2;q^2)_inf / (q;q)_inf
    rhs = q^{2k} / (q;q)_k * (q^{2(k+1)};q^2)_inf / (q^{k+1};q)_inf
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    lhs = TruncatedSeries.monomial(2 * k, N)
    lhs = _divided_by_pochhammer(lhs, PochhammerSpec(2, 2, k))
    lhs = _times_pochhammer(lhs, PochhammerSpec(2, 2, None))
    lhs = _divided_by_pochhammer(lhs, PochhammerSpec(1, 1, None))

    rhs = TruncatedSeries.monomial(2 * k, N)
    rhs = _divided_by_pochhammer(rhs, PochhammerSpec(1, 1, k))
    rhs = _times_pochhammer(rhs, PochhammerSpec(2 * (k + 1), 2, None))
    rhs = _divided_by_pochhammer(rhs, PochhammerSpec(k + 1, 1, None))
    return lhs, rhs


def solutionI_check(k: int, N: int) -> bool:
    """True iff both sides of the classical identity agree up to degree N."""
    lhs, rhs = solutionI_sides(k, N)
    return lhs == rhs


def first_difference(s: TruncatedSeries, t: TruncatedSeries) -> tuple[int, int, int] | None:
    """(exponent, coeff_s, coeff_t) at the first disagreement, or None."""
    if s.truncation_degree != t.truncation_degree:
        raise DegreeMismatch("cannot compare series of different degrees")
    if s.coefficients == t.coefficients:
        return None
    for e, (a, b) in enumerate(zip(s.coefficients, t.coefficients)):
        if a != b:
            return e, a, b
    return None


def _require_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")
