"""Convolution algebra of linear functionals on monomials.

A functional phi is stored by its values phi(x^0..x^D) in some commutative
ring: exact rationals, the sparse symbol polynomials defined here, or any
other type supporting +, * and multiplication by Fraction (diagram sums use
this to run the linked-cluster theorem through log*). The binomial
convolution, star-inverse, exp*/log*, the moment-cumulant relations and the
Wick map are all finite exact computations at a fixed truncation degree.
exp*, log* and the star-inverse each run the moment-cumulant recursion
(Peccati & Taqqu 2011), O(D^2) ring operations at truncation D.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence


class RingElem:
    """Multivariate polynomial with Fraction coefficients over named symbols.

    Monomials are stored canonically as sorted ((symbol, exponent), ...) keys,
    so equality is structural and zero has a unique representation (no terms).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[self._canon(mono)] = c

    @staticmethod
    def _canon(mono):
        mono = tuple(sorted((str(s), int(e)) for s, e in mono if e))
        return mono

    @classmethod
    def scalar(cls, c) -> "RingElem":
        return cls({(): c})

    @classmethod
    def symbol(cls, name: str) -> "RingElem":
        return cls({((name, 1),): 1})

    @classmethod
    def coerce(cls, v) -> "RingElem":
        return v if isinstance(v, RingElem) else cls.scalar(v)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == RingElem.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = RingElem.coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RingElem(out)

    __radd__ = __add__

    def __neg__(self):
        return RingElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-RingElem.coerce(other))

    def __rsub__(self, other):
        return RingElem.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingElem({m: c * other for m, c in self.terms.items()})
        other = RingElem.coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = {}
                for s, e in m1 + m2:
                    merged[s] = merged.get(s, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RingElem(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = RingElem.scalar(1)
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, assignment: dict) -> "RingElem":
        """Replace symbols by RingElem/scalar values."""
        out = RingElem()
        for mono, c in self.terms.items():
            term = RingElem.scalar(c)
            for s, e in mono:
                val = RingElem.coerce(assignment.get(s, RingElem.symbol(s)))
                term = term * val**e
            out = out + term
        return out

    def as_scalar(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError(f"not a scalar: {self}")

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [str(c)] if (c != 1 or not mono) else []
            factors += [f"{s}^{e}" if e > 1 else s for s, e in mono]
            parts.append("*".join(factors))
        return " + ".join(parts)


class Functional:
    """Linear functional on R[x], truncated at degree D: values[n] = phi(x^n)."""

    __slots__ = ("values", "zero", "one")

    def __init__(self, values: Sequence, zero=Fraction(0), one=Fraction(1)):
        self.values = list(values)
        if not self.values:
            raise ValueError("need at least the degree-0 value")
        self.zero = zero
        self.one = one

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    @classmethod
    def unit(cls, D: int, zero=Fraction(0), one=Fraction(1)) -> "Functional":
        """The counit / star-unit: 1*(x^n) = [n == 0]."""
        return cls([one] + [zero] * D, zero, one)

    @classmethod
    def gaussian_moments(cls, D: int) -> "Functional":
        from .polyalg import double_factorial

        return cls(
            [
                Fraction(double_factorial(n - 1)) if n % 2 == 0 else Fraction(0)
                for n in range(D + 1)
            ]
        )

    @classmethod
    def gaussian_cumulants(cls, D: int) -> "Functional":
        return cls([Fraction(int(n == 2)) for n in range(D + 1)])

    def __call__(self, n: int):
        if not 0 <= n <= self.degree:
            raise ValueError(f"degree {n} beyond truncation {self.degree}")
        return self.values[n]

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return self.values == other.values

    def _like(self, values) -> "Functional":
        return Functional(values, self.zero, self.one)

    def negate(self) -> "Functional":
        return self._like([v * Fraction(-1) for v in self.values])


def convolve(phi: Functional, psi: Functional) -> Functional:
    """Binomial convolution (phi * psi)(x^n) = sum_k C(n,k) phi_k psi_{n-k}."""
    if phi.degree != psi.degree:
        raise ValueError("functionals must share the truncation degree")
    out = []
    for n in range(phi.degree + 1):
        acc = phi.zero
        for k in range(n + 1):
            acc = acc + (phi.values[k] * psi.values[n - k]) * Fraction(comb(n, k))
        out.append(acc)
    return phi._like(out)


def conv_inverse(phi: Functional) -> Functional:
    """Star-inverse of phi with phi(x^0) = 1:
    psi_0 = 1, psi_n = -sum_{k=1..n} C(n,k) phi_k psi_{n-k}."""
    if phi.values[0] != phi.one:
        raise ValueError("conv_inverse requires phi(x^0) = 1")
    psi = [phi.one]
    for n in range(1, phi.degree + 1):
        terms = (phi.values[k] * psi[n - k] * Fraction(comb(n, k)) for k in range(1, n + 1))
        psi.append(sum(terms, phi.zero) * Fraction(-1))
    return phi._like(psi)


def exp_star(phi: Functional) -> Functional:
    """exp*(phi) = mu with mu_0 = 1, mu_n = sum_{k=1..n} C(n-1,k-1) phi_k mu_{n-k}."""
    if phi.values[0] != phi.zero:
        raise ValueError("exp_star requires phi(x^0) = 0")
    mu = [phi.one]
    for n in range(1, phi.degree + 1):
        terms = (phi.values[k] * mu[n - k] * Fraction(comb(n - 1, k - 1)) for k in range(1, n + 1))
        mu.append(sum(terms, phi.zero))
    return phi._like(mu)


def log_star(phi: Functional) -> Functional:
    """log*(phi) = kappa, the inverse of exp*: kappa_0 = 0,
    kappa_n = phi_n - sum_{k=1..n-1} C(n-1,k-1) kappa_k phi_{n-k}."""
    if phi.values[0] != phi.one:
        raise ValueError("log_star requires phi(x^0) = 1")
    kappa = [phi.zero]
    for n in range(1, phi.degree + 1):
        terms = (kappa[k] * phi.values[n - k] * Fraction(comb(n - 1, k - 1)) for k in range(1, n))
        kappa.append(phi.values[n] + sum(terms, phi.zero) * Fraction(-1))
    return phi._like(kappa)


def moments_from_cumulants(kappa: Functional) -> Functional:
    """Leonov-Shiryaev: mu = exp*(kappa)."""
    return exp_star(kappa)


def cumulants_from_moments(mu: Functional) -> Functional:
    """Leonov-Shiryaev: kappa = log*(mu)."""
    return log_star(mu)


def lambda_series(phi: Functional) -> list:
    """Coefficients of the power series Lambda(phi)(t) = sum phi(x^n) t^n / n!."""
    return [v * Fraction(1, factorial(n)) for n, v in enumerate(phi.values)]


class RingPoly:
    """Polynomial in x whose coefficients live in the functional's value ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {d: c for d, c in coeffs.items() if not _is_zero(c)}

    def coefficient(self, d: int):
        return self.coeffs.get(d, Fraction(0))

    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def __eq__(self, other):
        if not isinstance(other, RingPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"RingPoly({self.coeffs!r})"


def _is_zero(c) -> bool:
    if isinstance(c, RingElem):
        return not c.terms
    return c == 0


def wick_map(kappa: Functional, n: int) -> RingPoly:
    """W(x^n) = sum_k C(n,k) mu^{-1}(x^k) x^{n-k} with mu^{-1} = exp*(-kappa).

    Requires centered cumulants with kappa(x^0) = kappa(x^1) = 0. For the
    standard Gaussian kappa this returns the Hermite polynomial H_n; for a
    symbolic second cumulant kappa(x^2) = s it returns H_n(x; s).
    """
    if n > kappa.degree:
        raise ValueError("truncation degree too small")
    if kappa.values[0] != kappa.zero:
        raise ValueError("wick map requires kappa(x^0) = 0")
    if kappa.degree >= 1 and kappa.values[1] != kappa.zero:
        raise ValueError("wick map requires kappa(x^1) = 0")
    mu_inv = exp_star(kappa.negate())
    return RingPoly({n - k: mu_inv.values[k] * Fraction(comb(n, k)) for k in range(n + 1)})


def wick_inverse_map(kappa: Functional, n: int) -> RingPoly:
    """W^{-1}(x^n) = sum_k C(n,k) mu(x^k) x^{n-k} with mu = exp*(kappa): the
    Wick map of -kappa."""
    return wick_map(kappa.negate(), n)


def bell_cumulants(n: int, sign: int = 1) -> Functional:
    """kappa(x^m) = sign * y_m for 2 <= m <= n, in the symbol ring."""
    zero, one = RingElem(), RingElem.scalar(1)
    values = [zero, zero] + [
        RingElem.symbol(f"y{m}") * sign for m in range(2, n + 1)
    ]
    return Functional(values[: n + 1], zero, one)


def complete_bell(n: int) -> RingPoly:
    """The Wick polynomial W(x^n) for kappa(x^m) = y_m.

    In the classical normalization this is B_n(x, -y2, ..., -yn); substituting
    y2 -> sigma^2 and y_m -> 0 for m >= 3 recovers H_n(x; sigma^2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return wick_map(bell_cumulants(max(n, 2)), n)


def classical_bell(n: int) -> RingPoly:
    """The complete Bell polynomial B_n(x, y2, ..., yn) with all-positive terms.

    Obtained from the Wick route by flipping the sign of every cumulant symbol;
    its coefficients count set partitions by block-size profile.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return wick_map(bell_cumulants(max(n, 2), sign=-1), n)


def _hom_degree(x_deg: int, mono) -> int:
    """Block count of the partition a term encodes: singletons + y-factors."""
    return x_deg + sum(e for _, e in mono)


def incomplete_bell(n: int, k: int) -> RingElem:
    """B_{n,k}: the part of B_n(x, y2, ..) of homogeneous block-degree k.

    x contributes 1 per power and each y-symbol factor contributes 1; monomial
    x^a y_{m_1}..y_{m_j} has degree a + j. Coefficients count partitions of an
    n-set into k blocks with the encoded size profile.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    bell = classical_bell(n)
    out = RingElem()
    for x_deg, coeff in bell.coeffs.items():
        coeff = RingElem.coerce(coeff)
        kept = {
            mono: c
            for mono, c in coeff.terms.items()
            if _hom_degree(x_deg, mono) == k
        }
        if kept:
            out = out + RingElem(kept) * RingElem.symbol("x") ** x_deg
    return out


def coproduct_table(n: int) -> dict[tuple[int, int], int]:
    """Binomial coproduct of x^n as a table (k, n-k) -> C(n,k)."""
    return {(k, n - k): comb(n, k) for k in range(n + 1)}


def coproduct2_left(n: int) -> dict[tuple[int, int, int], int]:
    """(Delta x id) Delta(x^n) as a trinomial table."""
    out = {}
    for (ab, c), c1 in coproduct_table(n).items():
        for (a, b), c2 in coproduct_table(ab).items():
            out[(a, b, c)] = out.get((a, b, c), 0) + c1 * c2
    return out


def coproduct2_right(n: int) -> dict[tuple[int, int, int], int]:
    """(id x Delta) Delta(x^n) as a trinomial table."""
    out = {}
    for (a, bc), c1 in coproduct_table(n).items():
        for (b, c), c2 in coproduct_table(bc).items():
            out[(a, b, c)] = out.get((a, b, c), 0) + c1 * c2
    return out


def antipode_sign(n: int) -> int:
    """Antipode of the binomial Hopf algebra on R[x]: A(x^n) = (-1)^n x^n."""
    return (-1) ** n


def hopf_antipode_identity(n: int) -> int:
    """M(A x id) Delta(x^n) collapsed to its x^n coefficient; equals [n = 0]."""
    return sum(antipode_sign(k) * c for (k, _), c in coproduct_table(n).items())
