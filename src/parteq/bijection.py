"""The weight-preserving bijection between the A and B partition classes.

The forward map splits lambda in A(n,k,d,m) into mu (the k parts divisible
by d) and o (the rest), conjugates mu, splits the conjugate into a bounded
piece and a rescaled piece, applies a finite-bound variant of Glaisher's
map to o, and reassembles. The inverse undoes each step. Both directions
work on entry tuples throughout, with a Partition only for lambda and
kappa, and record every intermediate subpartition in a trace. At d = 1
every part is divisible by d, so o and delta are empty and phi is
conjugation.

The finite-bound Glaisher map truncates the base-d expansion of each
multiplicity N_j at the unique exponent L_j with m < j*d^L_j <= m*d,
leaving an unrestricted overflow multiplicity on the part j*d^L_j.
"""

from __future__ import annotations

from .classes import ClassParams, is_in_A, is_in_B
from .errors import DomainError, InternalError, NotInClassA, NotInClassB, check_int
from .partition import Partition, _conjugate, _render, canonical


# One trace as the line json.dumps writes for its dict, in field order. A
# rendered piece holds only digits, spaces and ^, and the direction is
# "forward" or "inverse", so no value needs escaping.
_TRACE_JSON = (
    '{"params": {"n": %d, "k": %d, "d": %d, "m": %d}, "direction": "%s", '
    '"lambda": "%s", "mu": "%s", "o": "%s", "mu_star": "%s", "mu_star_0": "%s", '
    '"epsilon": "%s", "delta": "%s", "kappa": "%s"}'
)


class BijectionTrace:
    """Every intermediate subpartition of one application of the bijection.

    pieces is the one tuple of the eight entry tuples phi and phi_inverse
    built, in field order: lam, mu, o, mu_star, mu_star_0, epsilon (stored
    rescaled: parts are d*i), delta, kappa. to_json renders the pieces.
    """

    __slots__ = ("pieces", "params", "direction")

    def __init__(self, pieces: tuple[tuple[tuple[int, int], ...], ...], params: ClassParams, direction: str):
        self.pieces = pieces
        self.params = params
        self.direction = direction  # "forward" | "inverse"

    def to_json(self) -> str:
        """The trace as one line of JSON, through _TRACE_JSON."""
        p = self.params
        return _TRACE_JSON % (p.n, p.k, p.d, p.m, self.direction, *map(_render, self.pieces))


def finite_glaisher_forward(o: Partition, d: int, m: int) -> Partition:
    """Finite-bound Glaisher map.

    Requires: no part divisible by d, all parts < m*d. Produces: all parts
    <= m*d, every part <= m occurring fewer than d times, same weight.
    The multiplicity N_j of part j is written in base d up to the digit of
    d^(L_j - 1); what remains above becomes the overflow multiplicity of
    the part j*d^L_j.
    """
    check_int("d", d, 2)
    check_int("m", m, 1)
    return Partition._trusted(_glaisher_forward(o.entries, d, m))


def _glaisher_forward(entries: tuple[tuple[int, int], ...], d: int, m: int) -> tuple[tuple[int, int], ...]:
    """finite_glaisher_forward on canonical entries, for an int d >= 2 and m >= 1."""
    md = m * d
    pairs: list[tuple[int, int]] = []
    for part, mult in entries:
        if part % d == 0:
            raise DomainError(f"part {part} divisible by {d}")
        # a part not divisible by d is below m*d exactly when it is at most
        # m*d, where L_j (the L with m < j*d^L <= m*d) exists
        if part > md:
            raise DomainError(f"part {part} outside (0, {md}]")
        # one base-d digit per power of d that keeps part*d^l <= m, so the
        # loop stops at part*d^L_j, the one power with m < part*d^L_j <= m*d
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
    return tuple(pairs)


def finite_glaisher_inverse(delta: Partition, d: int, m: int) -> Partition:
    """Inverse of the finite-bound Glaisher map.

    Requires: all parts <= m*d, every part <= m occurring fewer than d
    times. Each part i = j*d^l (d not dividing j) folds back onto j.
    """
    check_int("d", d, 2)
    check_int("m", m, 1)
    return Partition._trusted(_glaisher_inverse(delta.entries, d, m))


def _glaisher_inverse(entries: tuple[tuple[int, int], ...], d: int, m: int) -> tuple[tuple[int, int], ...]:
    """finite_glaisher_inverse on canonical entries, for an int d >= 2 and m >= 1."""
    md = m * d
    folded: list[tuple[int, int]] = []
    for part, mult in entries:
        if part > md:
            raise DomainError(f"part {part} exceeds {md}")
        # phi_inverse's image check relies on it: at (6, 1, 2, 2), delta = 2^2 folds to 1^4 and lambda = 2 1^4 is in A
        if part <= m and mult >= d:
            raise DomainError(f"part {part} <= {m} occurs {mult} >= {d} times")
        j, scale = part, 1
        # at d = 1 this loop would never end; phi_inverse gets here at d = 1
        # only with an empty delta, as every multiplicity is 0 mod 1 and no
        # B member has a part in (min(m, k), m*d]
        while j % d == 0:
            j //= d
            scale *= d
        folded.append((j, mult * scale))
    return canonical(folded)


def _split_by_divisibility(entries: tuple[tuple[int, int], ...], d: int) -> tuple[tuple, tuple]:
    """Split canonical entries into (parts divisible by d, the rest).

    Both are subsequences of the entries, so they stay canonical.
    """
    div = []
    rest = []
    for entry in entries:
        if entry[0] % d:
            rest.append(entry)
        else:
            div.append(entry)
    return tuple(div), tuple(rest)


def phi(lam: Partition, params: ClassParams) -> tuple[Partition, BijectionTrace]:
    """Forward bijection A(n,k,d,m) -> B(n,k,d,m)."""
    if not is_in_A(lam, params):
        raise NotInClassA(f"{lam.render()!r} is not in A{(params.n, params.k, params.d, params.m)}")
    d, k, m = params.d, params.k, params.m

    mu, o = _split_by_divisibility(lam.entries, d)
    mu_star = _conjugate(mu)

    # One walk over mu_star checks and splits it. Conjugating a partition
    # into multiples of d yields multiplicities that are multiples of d,
    # with largest part = number of parts = k. Both pieces take mu_star's
    # entries in descending order, and c // d >= 1 once d divides c, so
    # both stay canonical.
    cut = min(m, k)
    eps_pairs: list[tuple[int, int]] = []
    mu0_pairs: list[tuple[int, int]] = []
    for entry in mu_star:
        part, mult = entry
        if mult % d:
            raise InternalError("conjugate of d-divisible subpartition has a multiplicity not divisible by d")
        if part > cut:
            eps_pairs.append((part * d, mult // d))
        else:
            mu0_pairs.append(entry)
    mu_star_0 = tuple(mu0_pairs)
    epsilon = tuple(eps_pairs)

    delta = _glaisher_forward(o, d, m)
    # every epsilon part is d*i with i > m, above m*d; mu_star_0's parts are
    # at most min(m, k) and delta's at most m*d, so epsilon leads kappa as
    # it stands, and only mu_star_0 and delta, which can share parts, merge
    kappa = Partition._trusted(epsilon + canonical(mu_star_0 + delta))

    if not is_in_B(kappa, params):
        raise InternalError(f"phi produced {kappa.render()!r} outside B")

    trace = BijectionTrace((lam.entries, mu, o, mu_star, mu_star_0, epsilon, delta, kappa.entries), params, "forward")
    return kappa, trace


def phi_inverse(kappa: Partition, params: ClassParams) -> tuple[Partition, BijectionTrace]:
    """Inverse bijection B(n,k,d,m) -> A(n,k,d,m)."""
    if not is_in_B(kappa, params):
        raise NotInClassB(f"{kappa.render()!r} is not in B{(params.n, params.k, params.d, params.m)}")
    d, k, m = params.d, params.k, params.m
    cut = min(m, k)
    md = m * d

    mu0_pairs: list[tuple[int, int]] = []
    eps_pairs: list[tuple[int, int]] = []  # rescaled form, parts d*i
    delta_pairs: list[tuple[int, int]] = []
    unscaled_pairs: list[tuple[int, int]] = []  # epsilon's entries in mu_star, parts i
    for entry in kappa.entries:
        part, mult = entry
        if part <= cut:
            r = mult % d
            if r:
                delta_pairs.append((part, r))
            if mult - r:
                mu0_pairs.append((part, mult - r))
        elif part <= md:
            # covers both k < part <= m (multiplicity < d by membership)
            # and m < part <= m*d (overflow parts)
            delta_pairs.append(entry)
        else:
            # only reachable for m < k; membership guarantees d | part
            eps_pairs.append(entry)
            unscaled_pairs.append((part // d, mult * d))

    # Each list took a subsequence of kappa's descending parts, with
    # multiplicities >= 1, so each is canonical as built.
    mu_star_0 = tuple(mu0_pairs)
    epsilon = tuple(eps_pairs)
    delta = tuple(delta_pairs)

    # epsilon's parts exceed m*d and d divides them (membership), so each
    # rescaled part p // d exceeds m >= cut >= every mu_star_0 part
    mu_star = tuple(unscaled_pairs) + mu_star_0
    mu = _conjugate(mu_star)
    o = _glaisher_inverse(delta, d, m)
    # d divides every part of mu and no part of o, so the two share no
    # part, and sorting their entries is all the join needs
    lam = Partition._trusted(tuple(sorted(mu + o, reverse=True)))

    # is_in_A settles that mu_star holds d copies of k: d divides all its
    # multiplicities (mult - mult % d, mult * d), so mu has max(mu_star) parts,
    # all divisible by d, o has none, and lam is in A only if max(mu_star) = k.
    if not is_in_A(lam, params):
        raise InternalError(f"phi_inverse produced {lam.render()!r} outside A")

    trace = BijectionTrace((lam.entries, mu, o, mu_star, mu_star_0, epsilon, delta, kappa.entries), params, "inverse")
    return lam, trace
