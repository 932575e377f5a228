"""Finite-dimensional Gaussian chaos arithmetic over H = R^N.

Random variables are finite combinations of Hermite products
Phi_k = prod_i H_{k_i}(X_i), indexed by sparse multi-indices. Products can be
computed two ways: coordinate-wise through the Hermite linearization
("direct"), or through symmetric-tensor contractions ("contraction"); the
equality of the two routes is the central consistency check of this module.

Conventions. Symmetric tensors store one Fraction per sorted index tuple, the
value of the tensor AT that tuple (not the orbit sum). The unnormalized
isometry I-hat maps the basis tensor e_k to Phi_k; the normalized variant
1/sqrt(n!) never appears except inside squared quantities, keeping all
arithmetic rational.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np

from . import polyalg
from .pairings import MultivarPoly
from .torusfield import _check_samples, _mc_blocks

MAX_GRADE = 8
MAX_DIM = 6


def _check_budget(grade: int, dim: int):
    if grade > MAX_GRADE or dim > MAX_DIM:
        raise ValueError(
            f"configured budget exceeded (grade {grade} > {MAX_GRADE} or dim {dim} > {MAX_DIM})"
        )


class MultiIndex:
    """Sparse map basis index -> positive exponent."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        items = dict(entries)
        self.entries = tuple(sorted((i, e) for i, e in items.items() if e))
        if any(e < 0 or i < 0 for i, e in self.entries):
            raise ValueError("indices and exponents must be nonnegative")

    @property
    def order(self) -> int:
        return sum(e for _, e in self.entries)

    def factorial(self) -> int:
        out = 1
        for _, e in self.entries:
            out *= factorial(e)
        return out

    def degree_of(self, i: int) -> int:
        return dict(self.entries).get(i, 0)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(i for i, e in self.entries for _ in range(e))

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"MultiIndex({dict(self.entries)!r})"

    @classmethod
    def from_tuple(cls, indices) -> "MultiIndex":
        return cls(Counter(indices))


class SymTensor:
    """Symmetric rank-n tensor over R^N: sorted index tuple -> value there."""

    __slots__ = ("dim", "rank", "coeffs")

    def __init__(self, dim: int, rank: int, coeffs=None):
        self.dim = dim
        self.rank = rank
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                key = tuple(key)
                if len(key) != rank or tuple(sorted(key)) != key:
                    raise ValueError("keys must be sorted tuples of the tensor rank")
                if any(not 0 <= i < dim for i in key):
                    raise ValueError("index out of range")
                c = Fraction(c)
                if c:
                    self.coeffs[key] = c

    def value(self, key) -> Fraction:
        return self.coeffs.get(tuple(sorted(key)), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, SymTensor)
            and (self.dim, self.rank) == (other.dim, other.rank)
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if (self.dim, self.rank) != (other.dim, other.rank):
            raise ValueError("shape mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return SymTensor(self.dim, self.rank, out)

    def __mul__(self, scalar):
        return SymTensor(
            self.dim, self.rank, {k: c * Fraction(scalar) for k, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def inner(self, other: "SymTensor") -> Fraction:
        """Full inner product: sum over ALL index tuples of the two values."""
        if (self.dim, self.rank) != (other.dim, other.rank):
            raise ValueError("shape mismatch")
        total = Fraction(0)
        for key, c in self.coeffs.items():
            d = other.coeffs.get(key)
            if d:
                orbit = factorial(self.rank) // MultiIndex.from_tuple(key).factorial()
                total += orbit * c * d
        return total

    @classmethod
    def basis(cls, dim: int, k: MultiIndex) -> "SymTensor":
        """e_k = symmetrization of the product of basis vectors; value k!/n! per tuple."""
        n = k.order
        return cls(dim, n, {k.sorted_indices(): Fraction(k.factorial(), factorial(n))})


class GenTensor:
    """Dense-map tensor without symmetry: arbitrary index tuple -> value."""

    __slots__ = ("dim", "rank", "coeffs")

    def __init__(self, dim: int, rank: int, coeffs=None):
        self.dim = dim
        self.rank = rank
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                key = tuple(key)
                if len(key) != rank:
                    raise ValueError("key length must equal the rank")
                c = Fraction(c)
                if c:
                    self.coeffs[key] = c

    @classmethod
    def from_sym(cls, t: SymTensor) -> "GenTensor":
        out = {}
        for key, c in t.coeffs.items():
            for perm in set(itertools.permutations(key)):
                out[perm] = c
        return cls(t.dim, t.rank, out)


def symmetrize(raw, dim: int, rank: int | None = None) -> SymTensor:
    """Project a raw tuple->value map onto its symmetric part.

    The stored value at a sorted tuple is the average over the orbit, which is
    the value of the symmetrized tensor at every tuple of that orbit; the map
    is idempotent on already-symmetric input.
    """
    if isinstance(raw, SymTensor):
        return raw  # already canonical; the projection is idempotent
    items = raw.coeffs if isinstance(raw, GenTensor) else dict(raw)
    if rank is None:
        rank = len(next(iter(items))) if items else 0
    sums: dict[tuple, Fraction] = {}
    for key, c in items.items():
        key = tuple(key)
        if any(not 0 <= i < dim for i in key):
            raise ValueError("index out of range")
        skey = tuple(sorted(key))
        sums[skey] = sums.get(skey, Fraction(0)) + Fraction(c)
    out = {}
    for skey, total in sums.items():
        orbit = factorial(rank) // MultiIndex.from_tuple(skey).factorial()
        out[skey] = total / orbit
    return SymTensor(dim, rank, out)


class ChaosElement:
    """Finite combination of Phi_k over a fixed ambient dimension."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(k, MultiIndex):
                    k = MultiIndex(k)
                if isinstance(c, float):
                    if c != 0.0:
                        self.coeffs[k] = c
                else:
                    c = Fraction(c)
                    if c:
                        self.coeffs[k] = c

    @classmethod
    def constant(cls, dim: int, c) -> "ChaosElement":
        return cls(dim, {MultiIndex(): c})

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0 * c) + c
        return ChaosElement(self.dim, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        if isinstance(scalar, ChaosElement):
            return chaos_multiply(self, scalar)
        return ChaosElement(self.dim, {k: c * scalar for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ChaosElement)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"ChaosElement(dim={self.dim}, {dict(self.coeffs)!r})"

    def grades(self) -> set[int]:
        return {k.order for k in self.coeffs}

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def as_polynomial(self) -> MultivarPoly:
        """Expand into the monomial basis of X_0..X_{dim-1}."""
        out = MultivarPoly(self.dim)
        for k, c in self.coeffs.items():
            term = MultivarPoly.constant(self.dim, 1)
            for i, e in k.entries:
                h = polyalg.hermite(e)
                comp = MultivarPoly(
                    self.dim,
                    {
                        tuple(d if j == i else 0 for j in range(self.dim)): hc
                        for d, hc in enumerate(h.coeffs)
                        if hc
                    },
                )
                term = term * comp
            out = out + term * Fraction(c)
        return out

    def evaluate(self, x) -> float:
        """Numeric evaluation at a point x in R^dim."""
        total = 0.0
        for k, c in self.coeffs.items():
            term = float(c)
            for i, e in k.entries:
                term *= float(polyalg.hermite(e)(float(x[i])))
            total += term
        return total


def expectation(F: ChaosElement):
    return F.coeffs.get(MultiIndex(), Fraction(0))


def inner(F: ChaosElement, G: ChaosElement):
    """E[FG] = sum_k k! F_k G_k, by orthogonality of the Phi_k."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for k, c in F.coeffs.items():
        d = G.coeffs.get(k)
        if d:
            total += k.factorial() * c * d
    return total


def wiener_isometry(f: SymTensor) -> ChaosElement:
    """I-hat_n(f): linear extension of e_k -> Phi_k over the basis tensors.

    The normalized I_n = I-hat_n / sqrt(n!) is irrational for most n, so it
    is exposed only through squared quantities.
    """
    out = {}
    n = f.rank
    for key, v in f.coeffs.items():
        k = MultiIndex.from_tuple(key)
        # f = sum_k c_k e_k with c_k = v * n!/k!
        out[k] = v * Fraction(factorial(n), k.factorial())
    return ChaosElement(f.dim, out)


def tensor_preimage(F: ChaosElement, grade: int) -> SymTensor:
    """The symmetric tensor f with I-hat(f) = grade-n part of F."""
    out = {}
    for k, c in F.coeffs.items():
        if k.order == grade:
            out[k.sorted_indices()] = Fraction(c) * Fraction(
                k.factorial(), factorial(grade)
            )
    return SymTensor(F.dim, grade, out)


def _shuffle_positions(n: int, p: int):
    """All ways to choose which p slots of n hold the contracted indices."""
    return itertools.combinations(range(n), p)


def contract(f, g, p: int):
    """Contraction f *_p g; tensor product when p = 0.

    Symmetric inputs take the fast path
        p! C(n,p) C(m,p) * sum_k f(k, i) g(k, j),
    general tensors the literal shuffle sum over slot choices and pairings of
    the contracted slots. Both produce the symmetrized result.
    """
    if isinstance(f, SymTensor) and isinstance(g, SymTensor):
        return _contract_symmetric(f, g, p)
    f = f if isinstance(f, GenTensor) else GenTensor.from_sym(f)
    g = g if isinstance(g, GenTensor) else GenTensor.from_sym(g)
    return _contract_general(f, g, p)


def _remove_multiset(key, sub):
    """key minus the multiset sub (sorted), or None if not contained."""
    counts = Counter(key)
    for v in sub:
        if counts[v] == 0:
            return None
        counts[v] -= 1
    return tuple(sorted(counts.elements()))


def _contract_symmetric(f: SymTensor, g: SymTensor, p: int) -> SymTensor:
    """p! C(n,p) C(m,p) times the plain contraction sum_k f(k,i) g(k,j), symmetrized.

    The plain sum runs over ordered k in [N]^p; iterating over distinct
    sub-multisets of f's keys weights each by the number p!/kappa! of ordered
    tuples realizing it.
    """
    n, m = f.rank, g.rank
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= p <= min(n, m):
        raise ValueError("contraction order out of range")
    weight = factorial(p) * comb(n, p) * comb(m, p)
    r = n + m - 2 * p
    pairs: dict[tuple, Fraction] = {}
    for fkey, fc in f.coeffs.items():
        for kappa in set(itertools.combinations(fkey, p)):
            itup = _remove_multiset(fkey, kappa)
            orderings = factorial(p) // MultiIndex.from_tuple(kappa).factorial()
            for gkey, gc in g.coeffs.items():
                jtup = _remove_multiset(gkey, kappa)
                if jtup is None:
                    continue
                key = (itup, jtup)
                pairs[key] = pairs.get(key, Fraction(0)) + orderings * fc * gc
    out: dict[tuple, Fraction] = {}
    for (itup, jtup), v in pairs.items():
        u = tuple(sorted(itup + jtup))
        # fraction of position subsets of u reproducing the (i, j) split
        splits = 1
        ucounts, icounts = Counter(u), Counter(itup)
        for val, ci in icounts.items():
            splits *= comb(ucounts[val], ci)
        out[u] = out.get(u, Fraction(0)) + v * Fraction(splits, comb(r, n - p))
    return SymTensor(f.dim, r, out) * weight


def contract_raw(f: GenTensor, g: GenTensor, p: int) -> GenTensor:
    """Literal shuffle-sum contraction on ordered index tuples.

    Slot choices interleave the contracted block into each tensor preserving
    block order; the inner permutation runs over the pairings of contracted
    slots (acting on the contracted block of g).
    """
    n, m = f.rank, g.rank
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= p <= min(n, m):
        raise ValueError("contraction order out of range")
    raw: dict[tuple, Fraction] = {}
    for fslots in _shuffle_positions(n, p):
        ffree = [q for q in range(n) if q not in fslots]
        for gslots in _shuffle_positions(m, p):
            gfree = [q for q in range(m) if q not in gslots]
            for sigma in itertools.permutations(range(p)):
                for fkey, fc in f.coeffs.items():
                    ktup = tuple(fkey[q] for q in fslots)
                    itup = tuple(fkey[q] for q in ffree)
                    for gkey, gc in g.coeffs.items():
                        if any(
                            gkey[gslots[a]] != ktup[sigma[a]] for a in range(p)
                        ):
                            continue
                        jtup = tuple(gkey[q] for q in gfree)
                        key = itup + jtup
                        raw[key] = raw.get(key, Fraction(0)) + fc * gc
    return GenTensor(f.dim, n + m - 2 * p, raw)


def _contract_general(f: GenTensor, g: GenTensor, p: int) -> SymTensor:
    raw = contract_raw(f, g, p)
    if not raw.coeffs:
        return SymTensor(f.dim, raw.rank)
    return symmetrize(raw, f.dim, raw.rank)


def chaos_multiply(F: ChaosElement, G: ChaosElement, route: str = "direct") -> ChaosElement:
    """Product of chaos elements, by Hermite linearization or by contractions."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    if route == "direct":
        return _multiply_direct(F, G)
    if route == "contraction":
        return _multiply_contraction(F, G)
    raise ValueError(f"unknown route {route!r}")


def _apply_degree_table(term: dict, i: int, table: dict) -> dict:
    """Give coordinate i of every multi-index in term each degree of a
    univariate table {degree: weight}, scaling the coefficient by the weight.

    Sums start from 0 * c, so float coefficients stay floats.
    """
    out = {}
    for k, c in term.items():
        for deg, w in table.items():
            entries = dict(k.entries)
            if deg:
                entries[i] = deg
            kk = MultiIndex(entries)
            out[kk] = out.get(kk, 0 * c) + c * w
    return out


def _multiply_direct(F: ChaosElement, G: ChaosElement) -> ChaosElement:
    out = {}
    for k1, c1 in F.coeffs.items():
        for k2, c2 in G.coeffs.items():
            term = {MultiIndex(): c1 * c2}
            for i in sorted(set(dict(k1.entries)) | set(dict(k2.entries))):
                lin = polyalg.hermite_product(k1.degree_of(i), k2.degree_of(i))
                term = _apply_degree_table(term, i, lin)
            for k, c in term.items():
                out[k] = out.get(k, 0 * c) + c
    return ChaosElement(F.dim, out)


def _multiply_contraction(F: ChaosElement, G: ChaosElement) -> ChaosElement:
    _check_budget(max(F.grades(), default=0) + max(G.grades(), default=0), F.dim)
    out = ChaosElement(F.dim)
    for n in F.grades():
        f = tensor_preimage(F, n)
        for m in G.grades():
            g = tensor_preimage(G, m)
            for p in range(min(n, m) + 1):
                out = out + wiener_isometry(contract(f, g, p))
    return out


def wick_product(F: ChaosElement, G: ChaosElement) -> ChaosElement:
    """Top term of the product: I-hat_n(f) <> I-hat_m(g) = I-hat_{n+m}(f x g)."""
    if not (F.is_homogeneous() and G.is_homogeneous()):
        raise ValueError("wick product requires homogeneous inputs")
    n = max(F.grades(), default=0)
    m = max(G.grades(), default=0)
    f, g = tensor_preimage(F, n), tensor_preimage(G, m)
    return wiener_isometry(contract(f, g, 0))


def ou_semigroup(F: ChaosElement, t: float) -> ChaosElement:
    """T_t F: scale the grade-n part by exp(-n t)."""
    if not (math.isfinite(t) and t >= 0):
        # NaN passes t < 0, and t = inf gives the constant term 0 * inf
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return ChaosElement(
        F.dim, {k: float(c) * math.exp(-k.order * t) for k, c in F.coeffs.items()}
    )


def from_polynomial(poly: MultivarPoly) -> ChaosElement:
    """Rewrite a polynomial in X_0..X_{N-1} in the Hermite product basis."""
    out = {}
    for expo, c in poly.terms.items():
        term = {MultiIndex(): Fraction(c)}
        for i, a in enumerate(expo):
            if a:
                term = _apply_degree_table(term, i, polyalg.monomial_to_hermite(a))
        for k, cc in term.items():
            out[k] = out.get(k, Fraction(0)) + cc
    return ChaosElement(poly.nvars, out)


def mehler_mc(
    poly: MultivarPoly,
    t: float,
    samples: int,
    seed: int,
    points=None,
):
    """Monte Carlo check of the Mehler representation of the OU semigroup.

    At each pinned point x the estimate averages f(exp(-t) x + sqrt(1-e^{-2t}) X')
    over fresh standard normals X', and is compared against the spectral action
    (grade-n coefficients scaled by exp(-n t)) evaluated at the same x.
    Returns lists (estimates, stderrs, references) over the points, the first two
    by torusfield._mc_blocks (samples >= 2): memory is one 4096-sample block plus values.
    """
    _check_samples(samples, seed)
    nvars = poly.nvars
    if points is None:
        points = [
            tuple(0.3 * (j + 1) * (-1) ** (j + i) for j in range(nvars))
            for i in range(3)
        ]
    rng = np.random.default_rng(seed)
    spectral = ou_semigroup(from_polynomial(poly), t)
    decay = math.exp(-t)
    diffusion = math.sqrt(max(0.0, 1.0 - decay * decay))
    runs = []
    for x in points:
        def fill(lo, out):
            z = decay * np.asarray(x, dtype=float) + diffusion * rng.standard_normal((len(out), nvars))
            out.fill(0.0)
            for expo, c in poly.terms.items():
                term = np.full(len(out), float(c))
                for i, a in enumerate(expo):
                    if a:
                        term *= z[:, i] ** a
                out += term

        runs.append(_mc_blocks(samples, 4096, fill))
    return [e for e, _ in runs], [s for _, s in runs], [spectral.evaluate(x) for x in points]


def moment_equivalence_report(F: ChaosElement, p: int):
    """Exact (E[F^{2p}], (2p-1)^{np} E[F^2]^p) for homogeneous F of grade n.

    The hypercontractive bound says lhs <= rhs; both sides are exact rationals.
    E[F^{2p}] is read as E[P^2] = inner(P, P) with P = F^p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not F.is_homogeneous():
        raise ValueError("moment equivalence applies to homogeneous elements")
    n = max(F.grades(), default=0)
    power = ChaosElement.constant(F.dim, 1)
    for _ in range(p):
        power = _multiply_direct(power, F)
    return inner(power, power), Fraction(2 * p - 1) ** (n * p) * inner(F, F) ** p
