"""Exact rational polynomial arithmetic and the Hermite polynomial calculus.

Everything here is exact: coefficients are `fractions.Fraction`, and the
probabilists' Hermite polynomials are produced by three independent routes
(three-term recurrence, explicit double-factorial sum, Gram-Schmidt under the
standard Gaussian inner product) that the test suite compares coefficient by
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def double_factorial(n: int) -> int:
    """(n)!! with the usual conventions (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    coeffs[i] is the coefficient of x**i; the leading coefficient is nonzero
    unless the polynomial is zero (represented by an empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, c=1) -> "Polynomial":
        return cls((0,) * n + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, Fraction) else float(c))
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def pretty(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            if i == 0:
                term = f"{c}"
            elif i == 1:
                term = f"{c}{var}"
            else:
                term = f"{c}{var}^{i}"
            parts.append(term if c < 0 or not parts else f"+{term}")
        return " ".join(parts)


@lru_cache(maxsize=None)
def hermite(n: int) -> Polynomial:
    """Probabilists' Hermite H_n via H_{n+1} = x H_n - n H_{n-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Polynomial.one()
    if n == 1:
        return Polynomial.x()
    return Polynomial.x() * hermite(n - 1) - (n - 1) * hermite(n - 2)


def hermite_explicit(n: int) -> Polynomial:
    """H_n from the explicit sum n! sum_k (-1)^k / (2^k k! (n-2k)!) x^(n-2k),
    which is H_n(x; 1)."""
    return hermite_scaled(n, 1)


def gaussian_expectation(p: Polynomial) -> Fraction:
    """E[p(X)] for X ~ N(0,1): even monomial moments are (n-1)!!."""
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if c and i % 2 == 0:
            total += c * double_factorial(i - 1)
    return total


def gram_schmidt_hermite(n: int) -> Polynomial:
    """Orthogonalize {1, x, ..., x^n} in L2(gaussian) and return the n-th vector.

    Deliberately the slow textbook route; serves as an independent oracle for
    the recurrence and explicit forms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    basis: list[Polynomial] = []
    for m in range(n + 1):
        v = Polynomial.monomial(m)
        u = v
        for uk in basis:
            num = gaussian_expectation(v * uk)
            if num:
                u = u - Polynomial([num / gaussian_expectation(uk * uk)]) * uk
        basis.append(u)
    return basis[n]


def hermite_scaled(n: int, sigma2) -> Polynomial:
    """H_n(x; sigma^2), from the explicit sum so sigma^2 may be any rational.

    Negative sigma2 is allowed: the expression is polynomial in sigma^2, which
    is what the Bell-map substitution sigma^2 -> -beta*Y relies on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    s2 = Fraction(sigma2)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (
            Fraction((-1) ** k * factorial(n), (2**k) * factorial(k) * factorial(n - 2 * k))
            * s2**k
        )
    return Polynomial(coeffs)


def monomial_to_hermite(n: int) -> dict[int, Fraction]:
    """Coefficients c_m with x^n = sum_m c_m H_m(x) (only m = n, n-2, ... appear)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return {
        n - 2 * k: Fraction(factorial(n), (2**k) * factorial(k) * factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    }


def hermite_product(n: int, m: int) -> dict[int, int]:
    """Linearization H_n H_m = sum_p p! C(n,p) C(m,p) H_{n+m-2p}."""
    if n < 0 or m < 0:
        raise ValueError("orders must be >= 0")
    return {
        n + m - 2 * p: factorial(p) * comb(n, p) * comb(m, p)
        for p in range(min(n, m) + 1)
    }


_OPERATORS = ("a", "a_dagger", "L")


def apply_operator(op: str, p: Polynomial) -> Polynomial:
    """Annihilation a = d/dx, creation a^+ = x - d/dx, number L = d^2/dx^2 - x d/dx."""
    if op == "a":
        return p.derivative()
    if op == "a_dagger":
        return Polynomial.x() * p - p.derivative()
    if op == "L":
        return p.derivative().derivative() - Polynomial.x() * p.derivative()
    raise ValueError(f"unknown operator {op!r}; expected one of {_OPERATORS}")


def hermite_binomial_lhs_rhs(n: int, sigma1sq, sigma2sq):
    """Both sides of H_n(x+y; s1+s2) = sum_m C(n,m) H_m(x;s1) H_{n-m}(y;s2).

    Returns the two expanded sides as two-variable `pairings.MultivarPoly`
    in (x, y); the tests assert equality. Import kept local as in
    hermite_from_matchings.
    """
    from .pairings import MultivarPoly

    if n < 0:
        raise ValueError("n must be >= 0")
    s1, s2 = Fraction(sigma1sq), Fraction(sigma2sq)
    lhs = MultivarPoly(
        2,
        {
            (k, i - k): c * comb(i, k)
            for i, c in enumerate(hermite_scaled(n, s1 + s2).coeffs)
            for k in range(i + 1)
        },
    )
    rhs = MultivarPoly(2)
    for m in range(n + 1):
        hx = MultivarPoly(2, {(i, 0): c for i, c in enumerate(hermite_scaled(m, s1).coeffs)})
        hy = MultivarPoly(2, {(0, j): c for j, c in enumerate(hermite_scaled(n - m, s2).coeffs)})
        rhs = rhs + comb(n, m) * (hx * hy)
    return lhs, rhs


def generating_function_table(order: int) -> dict[tuple[int, int], Fraction]:
    """Coefficients of exp(t*x - t^2/2) up to t-order `order`.

    Entry (n, j) is the coefficient of t^n x^j; row n must equal H_n/n!.
    """
    table: dict[tuple[int, int], Fraction] = {}
    for a in range(order + 1):
        for b in range((order - a) // 2 + 1):
            n = a + 2 * b
            c = Fraction((-1) ** b, factorial(a) * (2**b) * factorial(b))
            table[(n, a)] = table.get((n, a), Fraction(0)) + c
    return {k: v for k, v in table.items() if v}


def hermite_from_matchings(n: int) -> Polynomial:
    """H_n as the sum over pairwise matchings of [n] of (-1)^(#pairs) x^(#singletons).

    Combinatorial route; import kept local to avoid a hard dependency cycle.
    """
    from .pairings import enumerate_matchings

    coeffs = [Fraction(0)] * (n + 1)
    for matching in enumerate_matchings(n, perfect_only=False):
        k = len(matching.pairs)
        coeffs[n - 2 * k] += (-1) ** k
    return Polynomial(coeffs)


def physicists_hermite(n: int) -> Polynomial:
    """Conversion to the physicists' normalization: 2^(n/2) H_n(sqrt(2) x).

    sqrt(2)^n x^(n-2k) * 2^(n/2) picks up integer powers of 2 only, since
    n - (n-2k) is even; provided for documentation completeness.
    """
    p = hermite(n)
    coeffs = [Fraction(0)] * (n + 1)
    for i, c in enumerate(p.coeffs):
        # 2^(n/2) * sqrt(2)^i = 2^((n+i)/2), integer because n-i is even
        coeffs[i] = c * Fraction(2) ** ((n + i) // 2)
    return Polynomial(coeffs)
