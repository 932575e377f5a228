"""Exact formulas as they were written before a shorter route replaced them.

exp*, log* and the star-inverse are one pass over every composition of each
degree, weighted by part count, as before each ran its own moment-cumulant
recursion; the moment-equivalence report forms F^{2p} and F^2, as before it
squared F^p. The arithmetic is kept exactly as it was, so the tests can hold
`wickworks.cumulants` and `wickworks.chaos` to the same values under ==.
The Neumann series is one more independent route to the star-inverse. The
exact-rational C_N and the quartic-integral variance by nested sum and by
dictionary convolution are the torusfield test hooks; each builds its weights
1 / (1 + c |k|^2) over K_N itself, exact for a Fraction c.
Nothing here is called by the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from wickworks.chaos import ChaosElement, _multiply_direct, expectation
from wickworks.cumulants import Functional, convolve
from wickworks.torusfield import TWO_PI, ModeLattice


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of n into positive parts."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


def _compose(phi: Functional, weight) -> list:
    """[sum_k weight(k) sum_{n_1+..+n_k=n, n_i>=1} n!/(prod n_i!) prod phi(x^n_i)]_n
    for n = 1..D, in one pass over the compositions of each n.

    Products are bucketed by part count in composition order and the buckets
    are added in increasing k, so every exact value is summed in one fixed order.
    """
    out = []
    for n in range(1, phi.degree + 1):
        buckets = [phi.zero] * (n + 1)
        for comp in compositions(n):
            multinomial = factorial(n)
            prod = phi.one
            for part in comp:
                multinomial //= factorial(part)
                prod = prod * phi.values[part]
            buckets[len(comp)] = buckets[len(comp)] + prod * Fraction(multinomial)
        acc = phi.zero
        for k in range(1, n + 1):
            acc = acc + buckets[k] * weight(k)
        out.append(acc)
    return out


def conv_inverse(phi: Functional) -> Functional:
    """Star-inverse of phi with phi(x^0) = 1, by the alternating composition sum."""
    if phi.values[0] != phi.one:
        raise ValueError("conv_inverse requires phi(x^0) = 1")
    return phi._like([phi.one] + _compose(phi, lambda k: Fraction((-1) ** k)))


def conv_inverse_neumann(phi: Functional) -> Functional:
    """Same inverse through the Neumann series sum_k (unit - phi)^*k.

    (unit - phi) kills degree 0, so the series is finite at fixed truncation.
    """
    if phi.values[0] != phi.one:
        raise ValueError("conv_inverse requires phi(x^0) = 1")
    unit = Functional.unit(phi.degree, phi.zero, phi.one)
    delta = unit._like(
        [u + v * Fraction(-1) for u, v in zip(unit.values, phi.values)]
    )
    out = Functional.unit(phi.degree, phi.zero, phi.one)
    power = Functional.unit(phi.degree, phi.zero, phi.one)
    for _ in range(1, phi.degree + 1):
        power = convolve(power, delta)
        out = out._like([a + b for a, b in zip(out.values, power.values)])
    return out


def exp_star(phi: Functional) -> Functional:
    """exp*(phi)(x^n) = sum_k (1/k!) sum_{n_1+..+n_k=n, n_i>=1} multinomial * prod phi."""
    if phi.values[0] != phi.zero:
        raise ValueError("exp_star requires phi(x^0) = 0")
    return phi._like([phi.one] + _compose(phi, lambda k: Fraction(1, factorial(k))))


def log_star(phi: Functional) -> Functional:
    """log*(phi)(x^n) = sum_k ((-1)^(k+1)/k) sum over compositions, inverse of exp*."""
    if phi.values[0] != phi.one:
        raise ValueError("log_star requires phi(x^0) = 1")
    return phi._like([phi.zero] + _compose(phi, lambda k: Fraction((-1) ** (k + 1), k)))


def moment_equivalence_report(F: ChaosElement, p: int):
    """(E[F^{2p}], (2p-1)^{np} E[F^2]^p) from the 2p-fold product, as before
    the report squared F^p instead."""
    n = max(F.grades(), default=0)
    power = ChaosElement.constant(F.dim, 1)
    for _ in range(2 * p):
        power = _multiply_direct(power, F)
    lhs = expectation(power)
    f2 = ChaosElement.constant(F.dim, 1)
    for _ in range(2):
        f2 = _multiply_direct(f2, F)
    rhs = Fraction(2 * p - 1) ** (n * p) * expectation(f2) ** p
    return lhs, rhs


def _inverse_weights(d: int, N: int, coupling) -> dict:
    """1 / (1 + coupling |k|^2) for k in K_N, in mode order; exact for a
    Fraction coupling, and 1 / lambda_k for coupling (2 pi)^d."""
    return {k: 1 / (1 + coupling * sum(c * c for c in k)) for k in ModeLattice(d, N).modes}


def c_variance_exact(d: int, N: int, coupling: Fraction) -> Fraction:
    """Exact-rational C_N for a rational stand-in coupling (test hook)."""
    return sum(_inverse_weights(d, N, Fraction(coupling)).values(), Fraction(0))


def wick_integral_variance_bruteforce(d: int, N: int, n: int, coupling=None):
    """Direct nested sum over the constrained tuples; exact with a rational
    coupling, in floats for the default (2 pi)^d."""
    if n < 2:
        raise ValueError("n must be >= 2")
    exact = isinstance(coupling, Fraction)
    weights = _inverse_weights(d, N, TWO_PI**d if coupling is None else coupling)

    def rec(depth, partial_sum):
        if depth == n - 1:
            last = tuple(-c for c in partial_sum)
            return weights.get(last, Fraction(0) if exact else 0.0)
        total = Fraction(0) if exact else 0.0
        for k, w in weights.items():
            total += w * rec(depth + 1, tuple(p + c for p, c in zip(partial_sum, k)))
        return total

    base = Fraction(0) if exact else 0.0
    for k, w in weights.items():
        base += w * rec(1, k)
    return math.factorial(n) * base


def wick_integral_variance_exact(d: int, N: int, n: int, coupling: Fraction) -> Fraction:
    """Exact-rational convolution route, for comparison with the brute force."""
    if n < 2:
        raise ValueError("n must be >= 2")
    weights = _inverse_weights(d, N, Fraction(coupling))
    conv = dict(weights)
    for _ in range(n - 1):
        nxt: dict = {}
        for k1, w1 in conv.items():
            for k2, w2 in weights.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                nxt[key] = nxt.get(key, Fraction(0)) + w1 * w2
        conv = nxt
    zero = (0,) * d
    return math.factorial(n) * conv.get(zero, Fraction(0))
