"""The weight-preserving bijection between the A and B partition classes.

The forward map splits lambda in A(n,k,d,m) into mu (the k parts divisible
by d) and o (the rest), conjugates mu, splits the conjugate into a bounded
piece and a rescaled piece, applies a finite-bound variant of Glaisher's
map to o, and reassembles. The inverse undoes each step. Both directions
record every intermediate subpartition in a trace.

The finite-bound Glaisher map truncates the base-d expansion of each
multiplicity N_j at the unique exponent L_j with m < j*d^L_j <= m*d,
leaving an unrestricted overflow multiplicity on the part j*d^L_j.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .classes import ClassParams, is_in_A, is_in_B
from .errors import (
    DomainError,
    InternalError,
    NotInClassA,
    NotInClassB,
    UnsupportedModulus,
    check_int,
)
from .partition import Partition


class BijectionTrace(NamedTuple):
    """Every intermediate subpartition of one application of the bijection.

    A named tuple, because every phi and phi_inverse call builds one.
    """

    lam: Partition
    mu: Partition
    o: Partition
    mu_star: Partition
    mu_star_0: Partition
    epsilon: Partition  # stored rescaled: parts are d*i
    delta: Partition
    kappa: Partition
    params: ClassParams
    direction: str  # "forward" | "inverse"

    def to_dict(self) -> dict:
        return {
            "params": {"n": self.params.n, "k": self.params.k, "d": self.params.d, "m": self.params.m},
            "direction": self.direction,
            "lambda": self.lam.render(),
            "mu": self.mu.render(),
            "o": self.o.render(),
            "mu_star": self.mu_star.render(),
            "mu_star_0": self.mu_star_0.render(),
            "epsilon": self.epsilon.render(),
            "delta": self.delta.render(),
            "kappa": self.kappa.render(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _check_modulus(d: int) -> None:
    # inline rather than check_int: this runs several times per round trip
    if type(d) is not int or d < 2:
        raise UnsupportedModulus(f"modulus must be an integer >= 2, got {d!r}")


def glaisher_forward(o: Partition, d: int) -> Partition:
    """Glaisher's map: base-d expand each multiplicity.

    This is the finite-bound map with the bound at the weight: then
    j*d^L_j > m >= j*N_j, so no multiplicity reaches its overflow part.
    Input may contain no part divisible by d; output has every
    multiplicity below d, same weight.
    """
    return finite_glaisher_forward(o, d, max(1, o.weight()))


def glaisher_inverse(delta: Partition, d: int) -> Partition:
    """Inverse of Glaisher's map: fold each part j*d^l back onto part j."""
    return finite_glaisher_inverse(delta, d, max(1, delta.weight()))


def bound_exponent(j: int, d: int, m: int) -> int:
    """The unique L >= 0 with m < j*d^L <= m*d, for d >= 2 and 1 <= j <= m*d."""
    _check_modulus(d)
    check_int("m", m, 1)
    if not 1 <= j <= m * d:
        raise DomainError(f"part {j} outside (0, {m * d}]")
    L = 0
    v = j
    while v <= m:
        v *= d
        L += 1
    return L


def finite_glaisher_forward(o: Partition, d: int, m: int) -> Partition:
    """Finite-bound Glaisher map.

    Requires: no part divisible by d, all parts < m*d. Produces: all parts
    <= m*d, every part <= m occurring fewer than d times, same weight.
    The multiplicity N_j of part j is written in base d up to the digit of
    d^(L_j - 1); what remains above becomes the overflow multiplicity of
    the part j*d^L_j.
    """
    _check_modulus(d)
    check_int("m", m, 1)
    md = m * d
    pairs: list[tuple[int, int]] = []
    for part, mult in o.entries:
        if part % d == 0:
            raise DomainError(f"part {part} divisible by {d}")
        # a part not divisible by d is below m*d exactly when it is at most
        # m*d; the same check and message as bound_exponent
        if part > md:
            raise DomainError(f"part {part} outside (0, {md}]")
        # one base-d digit per power of d that keeps part*d^l <= m, so the
        # loop stops at part*d^L with L = bound_exponent(part, d, m)
        scaled = part
        while scaled <= m:
            mult, digit = divmod(mult, d)
            if digit:
                pairs.append((scaled, digit))
            scaled *= d
        if mult:
            pairs.append((scaled, mult))
    # the parts j*d^l are distinct, as d does not divide j, so one sort
    # makes the pairs canonical
    pairs.sort(reverse=True)
    return Partition._trusted(tuple(pairs), o._weight)


def finite_glaisher_inverse(delta: Partition, d: int, m: int) -> Partition:
    """Inverse of the finite-bound Glaisher map.

    Requires: all parts <= m*d, every part <= m occurring fewer than d
    times. Each part i = j*d^l (d not dividing j) folds back onto j.
    """
    _check_modulus(d)
    check_int("m", m, 1)
    md = m * d
    folded: dict[int, int] = {}
    for part, mult in delta.entries:
        if part > md:
            raise DomainError(f"part {part} exceeds {md}")
        if part <= m and mult >= d:
            raise DomainError(f"part {part} <= {m} occurs {mult} >= {d} times")
        j, scale, l = part, 1, 0
        while j % d == 0:
            j //= d
            scale *= d
            l += 1
        # Parts above m must sit exactly at the collection exponent L_j;
        # this holds by uniqueness of L_j but is checked, not assumed.
        if part > m and l != bound_exponent(j, d, m):
            raise InternalError(f"part {part} not of the form j*d^L_j")
        folded[j] = folded.get(j, 0) + mult * scale
    return Partition._trusted(tuple(sorted(folded.items(), reverse=True)), delta._weight)


def _split_by_divisibility(lam: Partition, d: int) -> tuple[Partition, Partition]:
    """Split into (parts divisible by d, the rest).

    Both are subsequences of lam's entries, so they stay canonical.
    """
    div = []
    rest = []
    weight = 0
    for entry in lam.entries:
        part, mult = entry
        if part % d:
            rest.append(entry)
        else:
            div.append(entry)
            weight += part * mult
    return Partition._trusted(tuple(div), weight), Partition._trusted(tuple(rest), lam._weight - weight)


def phi(lam: Partition, params: ClassParams) -> tuple[Partition, BijectionTrace]:
    """Forward bijection A(n,k,d,m) -> B(n,k,d,m)."""
    _check_modulus(params.d)
    if not is_in_A(lam, params):
        raise NotInClassA(f"{lam.render()!r} is not in A{(params.n, params.k, params.d, params.m)}")
    d, k, m = params.d, params.k, params.m

    mu, o = _split_by_divisibility(lam, d)
    mu_star = mu.conjugate()

    # One walk over mu_star checks and splits it. Conjugating a partition
    # into multiples of d yields multiplicities that are multiples of d,
    # with largest part = number of parts = k. Both pieces take mu_star's
    # entries in descending order, and c // d >= 1 once d divides c, so
    # both stay canonical.
    cut = min(m, k)
    eps_pairs: list[tuple[int, int]] = []
    mu0_pairs: list[tuple[int, int]] = []
    eps_weight = mu0_weight = 0
    for entry in mu_star.entries:
        part, mult = entry
        if mult % d:
            raise InternalError("conjugate of d-divisible subpartition has a multiplicity not divisible by d")
        if part > cut:
            part *= d
            mult //= d
            eps_pairs.append((part, mult))
            eps_weight += part * mult
        else:
            mu0_pairs.append(entry)
            mu0_weight += part * mult
    mu_star_0 = Partition._trusted(tuple(mu0_pairs), mu0_weight)
    epsilon = Partition._trusted(tuple(eps_pairs), eps_weight)

    delta = finite_glaisher_forward(o, d, m)
    # every epsilon part d*p has p > cut >= every mu_star_0 part, so
    # epsilon's entries followed by mu_star_0's are canonical
    kappa = Partition._trusted(epsilon.entries + mu_star_0.entries, eps_weight + mu0_weight)
    kappa += delta

    if kappa._weight != params.n or not is_in_B(kappa, params):
        raise InternalError(f"phi produced {kappa.render()!r} outside B")

    trace = BijectionTrace(lam, mu, o, mu_star, mu_star_0, epsilon, delta, kappa, params, "forward")
    return kappa, trace


def phi_inverse(kappa: Partition, params: ClassParams) -> tuple[Partition, BijectionTrace]:
    """Inverse bijection B(n,k,d,m) -> A(n,k,d,m)."""
    _check_modulus(params.d)
    if not is_in_B(kappa, params):
        raise NotInClassB(f"{kappa.render()!r} is not in B{(params.n, params.k, params.d, params.m)}")
    d, k, m = params.d, params.k, params.m
    cut = min(m, k)
    md = m * d

    mu0_pairs: list[tuple[int, int]] = []
    eps_pairs: list[tuple[int, int]] = []  # rescaled form, parts d*i
    delta_pairs: list[tuple[int, int]] = []
    unscaled_pairs: list[tuple[int, int]] = []  # epsilon's entries in mu_star, parts i
    mu0_weight = eps_weight = delta_weight = unscaled_weight = 0
    for entry in kappa.entries:
        part, mult = entry
        if part <= cut:
            r = mult % d
            if r:
                delta_pairs.append((part, r))
                delta_weight += part * r
            if mult - r:
                mu0_pairs.append((part, mult - r))
                mu0_weight += part * (mult - r)
        elif part <= md:
            # covers both k < part <= m (multiplicity < d by membership)
            # and m < part <= m*d (overflow parts)
            delta_pairs.append(entry)
            delta_weight += part * mult
        else:
            # only reachable for m < k; membership guarantees d | part
            eps_pairs.append(entry)
            eps_weight += part * mult
            part //= d
            mult *= d
            unscaled_pairs.append((part, mult))
            unscaled_weight += part * mult

    # Each list took a subsequence of kappa's descending parts, with
    # multiplicities >= 1, so each is canonical as built.
    mu_star_0 = Partition._trusted(tuple(mu0_pairs), mu0_weight)
    epsilon = Partition._trusted(tuple(eps_pairs), eps_weight)
    delta = Partition._trusted(tuple(delta_pairs), delta_weight)

    # epsilon's parts exceed m*d and d divides them (membership), so each
    # rescaled part p // d exceeds m >= cut >= every mu_star_0 part
    mu_star = Partition._trusted(tuple(unscaled_pairs) + mu_star_0.entries, unscaled_weight + mu0_weight)
    if mu_star.multiplicity(k) < d:
        raise InternalError("reconstructed conjugate lacks d copies of the distinguished part")

    mu = mu_star.conjugate()
    o = finite_glaisher_inverse(delta, d, m)
    lam = mu + o

    if lam._weight != params.n or not is_in_A(lam, params):
        raise InternalError(f"phi_inverse produced {lam.render()!r} outside A")

    trace = BijectionTrace(lam, mu, o, mu_star, mu_star_0, epsilon, delta, kappa, params, "inverse")
    return lam, trace
