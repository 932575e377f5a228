"""Perturbative expansions of the quartic-interaction partition function.

The ratio Z_alpha / Z_0 for the Wick-ordered quartic energy is expanded in
the coupling: the alpha^n coefficient is (-1)^n / n! times the sum of all
loop-free leg matchings of n four-valent vertices, each valuated in momentum
space. The logarithm keeps connected diagrams only, and that statement is
checked two ways: by filtering, and by running log* of the full series in
the diagram-sum ring. In three dimensions mass and energy counterterms enter; the
renormalized log-series can then be assembled either through the mixed
(X, Y) expansion or through BPHZ-subtracted valuations, and the two must
agree order by order.

Monte Carlo validation at d = 1, 2 samples truncated fields spectrally and
integrates the fourth Wick power on a grid fine enough to make the quadrature
exact for the truncated trigonometric polynomial.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from . import feynman as fy
from .cumulants import Functional, conv_inverse, convolve, exp_star, log_star
from .feynman import Diagram, DiagramSum, banana, double_triangle
from .torusfield import (
    GFF,
    ModeLattice,
    _check_lattice,
    _check_samples,
    _mc_blocks,
    amplitude_weights,
    as_point,
    c_variance,
    cosine_sum,
    lattice_rule_size,
    rule_synthesizer,
)


@dataclass
class SeriesCoefficient:
    n: int
    prefactor: Fraction
    diagrams: DiagramSum
    value: float

    def rational_parts(self) -> dict:
        """Per-class exact coefficient prefactor * matching count."""
        return {g: self.prefactor * c for g, c in self.diagrams.terms.items()}


@dataclass
class ExpansionSeries:
    d: float
    N: int
    order: int
    variant: str
    coefficients: list[SeriesCoefficient] = field(default_factory=list)

    def coefficient(self, n: int) -> SeriesCoefficient:
        return self.coefficients[n]

    def value_at(self, alpha: float) -> float:
        return math.fsum(c.value * alpha**c.n for c in self.coefficients)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "d": self.d,
            "N": self.N,
            "order": self.order,
            "variant": self.variant,
            "coefficients": [
                {
                    "n": c.n,
                    "prefactor": [c.prefactor.numerator, c.prefactor.denominator],
                    "diagrams": fy.diagram_sum_to_json(c.diagrams),
                    "value": c.value,
                }
                for c in self.coefficients
            ],
        }


@lru_cache(maxsize=None)
def _quartic_diagrams(n: int, m: int = 0) -> DiagramSum:
    """All loop-free matchings of n four-valent and m two-valent vertices."""
    if n == 0 and m == 0:
        return DiagramSum.unit()
    return fy.generate_diagrams([4] * n + [2] * m)


def partition_ratio_series(d, N: int, order: int) -> ExpansionSeries:
    """Expansion of Z_alpha / Z_0 for the Wick-ordered quartic energy.

    Every coefficient stores the order-n quartic matchings and the prefactor
    (-1)^n / n!. At d = 3 the counterterms are included: the values are those
    of exp* of the renormalized log-series (_mixed_log_coefficients, which
    starts at alpha^4), so they stay bounded in the cutoff. At any other d
    (1, 2, or 3 < d < 4) it is the plain Wick-variant series.
    """
    _check_order(order)
    sums = [_quartic_diagrams(n) for n in range(order + 1)]
    if d == 3:
        logc, _ = _mixed_log_coefficients(N, order)
        # exp* of the functional n! c_n, taken exactly so that each value is
        # rounded once: n! c_n / n! in floats can move the last bit
        psi = Functional([factorial(n) * Fraction(c) for n, c in enumerate(logc)])
        values = [float(v / factorial(n)) for n, v in enumerate(exp_star(psi).values)]
        return _series(3, N, order, "renormalized", sums, values)
    return _series(d, N, order, "wick", sums, _signed(fy.valuate_sum(s, d, N) for s in sums))


def _prefactor(n: int) -> Fraction:
    return Fraction((-1) ** n, factorial(n))


def _signed(values) -> list[float]:
    """The prefactor of each order n times the n-th of the given values."""
    # + 0.0: a negative prefactor times a vanishing valuation is -0.0
    return [float(_prefactor(n)) * v + 0.0 for n, v in enumerate(values)]


def _series(d, N: int, order: int, variant: str, sums, values) -> ExpansionSeries:
    """The series whose order-n coefficient has the diagram sum sums[n], the
    prefactor (-1)^n / n! and the value values[n]."""
    series = ExpansionSeries(d, N, order, variant)
    for n, (diagrams, value) in enumerate(zip(sums, values, strict=True)):
        series.coefficients.append(SeriesCoefficient(n, _prefactor(n), diagrams, value))
    return series


# Order 5 brings vacuum diagrams, K5 among them, that series, parallel and
# pendant reduction leaves with a core larger than K4, which no evaluator here
# valuates, so every series stops at order 4.
MAX_VALUATION_ORDER = 4


def _check_order(order: int):
    if order > MAX_VALUATION_ORDER:
        raise ValueError(
            f"order {order} beyond the valuation limit: diagrams are valuated "
            f"up to perturbative order {MAX_VALUATION_ORDER}"
        )
    if order < 0:
        raise ValueError("order must be >= 0")


def _diagram_functional(values: list[DiagramSum]) -> Functional:
    """A functional whose value ring is diagram sums."""
    return Functional(values, zero=DiagramSum.zero(), one=DiagramSum.unit())


def log_partition_series(d, N: int, order: int, route: str = "connected") -> ExpansionSeries:
    """log(Z_alpha / Z_0): connected diagrams only, by either of two routes.

    route="connected" filters each full coefficient; route="logstar" runs the
    star-logarithm of the full series in the diagram-sum ring. The linked-
    cluster theorem says the DiagramSums agree exactly.
    """
    _check_order(order)
    if route == "connected":
        sums = [_quartic_diagrams(n).filter_connected() for n in range(order + 1)]
        sums[0] = DiagramSum.zero()
    elif route == "logstar":
        full = _diagram_functional([_quartic_diagrams(n) for n in range(order + 1)])
        sums = log_star(full).values
    else:
        raise ValueError(f"unknown route {route!r}")
    return _series(d, N, order, "log-wick", sums, _signed(fy.valuate_sum(s, d, N) for s in sums))


def exp_of_log_series(d, N: int, order: int) -> list[DiagramSum]:
    """exp* of the connected series; must reproduce the full coefficients."""
    connected = log_partition_series(d, N, order, route="connected")
    psi = _diagram_functional([c.diagrams for c in connected.coefficients])
    return exp_star(psi).values


def plain_phi41_moments(N: int, n: int) -> float:
    """Moments of the NON-Wick quartic integral for d = 1, orders n <= 2.

    Self-contractions are allowed here; each loop contributes a factor
    G_N(0) = C_N. Order 1 reproduces 3 C_N^2.
    """
    if n not in (1, 2):
        raise ValueError("the plain path covers orders 1 and 2 only")
    from .pairings import enumerate_matchings

    legs = [v for v in range(n) for _ in range(4)]
    cn = c_variance(1, N)
    total = 0.0
    for matching in enumerate_matchings(len(legs), perfect_only=True):
        loops = 0
        edges = []
        for i, j in matching.pairs:
            if legs[i] == legs[j]:
                loops += 1
            else:
                edges.append(((legs[i], legs[j]), 1))
        used = {v for (i, j), _ in edges for v in (i, j)}
        if edges:
            relabel = {v: k for k, v in enumerate(sorted(used))}
            g = Diagram(
                len(used), [((relabel[i], relabel[j]), m) for (i, j), m in edges]
            )
            val = fy.valuate(g, 1, N)
        else:
            val = 1.0
        total += cn**loops * val
    return total


# ---------------------------------------------------------------------------
# two-point function


def two_point_series(d, N: int, order: int, x, y) -> ExpansionSeries:
    """G_2(x, y) through the stated order (<= 2 in this version).

    The full expectation over diagrams with two external legs is divided by
    the vacuum series in the star algebra of diagram sums (the star quotient,
    see _two_point_sums), which cancels every class with a vacuum component;
    what survives at order two is the chain class, whose value is synthesized
    from the mode sum at the requested points.
    """
    if order > 2:
        raise ValueError("two-point series supports order <= 2")
    _check_order(order)
    sums = _two_point_sums(order)
    values = _signed(
        math.fsum(float(c) * _external_value(g, d, N, x, y) for g, c in s.sorted_terms())
        for s in sums
    )
    return _series(d, N, order, "two-point", sums, values)


def _two_point_sums(order: int) -> list[DiagramSum]:
    """Per-order diagram sums of G_2: numerator * vacuum^(-1) in the star algebra.

    Both series are exponential generating series in -alpha whose n-th value
    is the order-n matching sum, so their quotient is the binomial convolution
    of the numerator with the star-inverse of the vacuum. It keeps only the
    classes whose every component touches an external leg.
    """
    direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
    numerator = [DiagramSum.of(direct)] + [
        fy.generate_diagrams([4] * n, ["x", "y"]) for n in range(1, order + 1)
    ]
    vacuum = _diagram_functional([_quartic_diagrams(n) for n in range(order + 1)])
    return convolve(_diagram_functional(numerator), conv_inverse(vacuum)).values


def _external_value(g: Diagram, d, N: int, x, y) -> float:
    """Position-space value of a two-external-leg diagram at (x, y): the
    cosine sum of its reduced x-y weight, a Ball, at x - y."""
    dim, _ = fy._model(d)
    diff = tuple(a - b for a, b in zip(as_point(x, dim, "x ="), as_point(y, dim, "y =")))
    scale, ball = fy._external_bundle(g, d, N)
    return scale * cosine_sum(ball, diff)


# ---------------------------------------------------------------------------
# d = 3 counterterms and the commutativity check


@dataclass
class CountertermSet:
    """Mass (beta) and energy (gamma) counterterm polynomials in alpha."""

    beta_coeffs: dict[int, float]
    gamma_coeffs: dict[int, float]
    alpha: float

    @property
    def beta(self) -> float:
        return sum(c * self.alpha**n for n, c in self.beta_coeffs.items())


def counterterms_d3(alpha: float, N: int) -> CountertermSet:
    """Mass and energy counterterms: beta = 48 a^2 Pi(3-banana),
    gamma = 12 a^2 Pi(4-banana) - 288 a^3 Pi(double triangle).

    The magnitude 48 alpha^2 Pi of the mass term is classical; its sign here
    is the one that makes the two-valent insertion (-beta per vertex) cancel
    the three-banana subdivergences, which the order-four route comparison
    pins down exactly (both the (log N)^2 and (log N) parts cancel only for
    this sign).
    """
    pi_b3 = fy.valuate(banana(3), 3, N)
    pi_b4 = fy.valuate(banana(4), 3, N)
    pi_tri = fy.valuate(double_triangle(), 3, N)
    return CountertermSet(
        beta_coeffs={2: 48.0 * pi_b3},
        gamma_coeffs={2: 12.0 * pi_b4, 3: -288.0 * pi_tri},
        alpha=alpha,
    )


def _mixed_log_coefficients(N: int, order: int) -> tuple[list[float], list[float]]:
    """alpha^n coefficients of log Z-ratio at d = 3 with counterterms, and
    for each the sum of its summands' magnitudes.

    Assembled from connected mixed moments: the (X^k Y^m) term carries
    (-1)^k / k! (-beta2)^m / m! at alpha-order k + 2m, with the quadratic
    mass insertion beta = beta2 alpha^2, minus the energy subtraction gamma.
    """
    ct = counterterms_d3(0.0, N)
    beta2 = ct.beta_coeffs[2]
    gamma = ct.gamma_coeffs
    out = [0.0] * (order + 1)
    scales = [0.0] * (order + 1)
    for n in range(order + 1):
        total = scale = 0.0
        for m in range(n // 2 + 1):
            k = n - 2 * m
            conn = _quartic_diagrams(k, m).filter_connected() if (k or m) else DiagramSum.zero()
            if not conn:
                continue
            # the exact weight goes into the diagram sum, so classes that
            # cancel in it cancel before any float is formed
            weight = _prefactor(k) * Fraction(1, factorial(m))
            term = (-beta2) ** m * fy.valuate_sum(conn * weight, 3, N)
            total += term
            scale += abs(term)
        total -= gamma.get(n, 0.0)
        out[n] = total
        scales[n] = scale + abs(gamma.get(n, 0.0))
    return out, scales


def _bphz_log_coefficients(N: int, order: int) -> tuple[list[float], list[float]]:
    """alpha^n coefficients of sum (-a)^n / n! Pi_BPHZ(connected P(X^n)), and
    for each the sum of its per-class summands' magnitudes."""
    out = [0.0] * (order + 1)
    scales = [0.0] * (order + 1)
    for n in range(1, order + 1):
        conn = _quartic_diagrams(n).filter_connected()
        pref = _prefactor(n)
        total = scale = 0.0
        for g, c in conn.sorted_terms():
            term = float(c) * fy.bphz_valuate(g, 3, N)
            total += term
            scale += abs(term)
        out[n] = float(pref) * total + 0.0
        scales[n] = abs(float(pref)) * scale
    return out, scales


def wick_map_commutativity_check(N: int, order: int = 4) -> list[dict]:
    """Per-order comparison of the mixed-counterterm and BPHZ routes at d = 3.

    Orders 2 and 3 must vanish on both sides (the energy counterterm eats
    them); order 4 is the first nontrivial coefficient and the two pipelines
    must agree to float accuracy. `relative` measures the difference against
    the row's summand magnitude, the larger over the two routes of the sum of
    |term| (|gamma_n| included), so a roundoff residue on a row whose exact
    value is 0 reads about 1e-16 rather than 1, and an exact zero reads 0.0.
    """
    _check_order(order)
    mixed, mixed_scales = _mixed_log_coefficients(N, order)
    bphz, bphz_scales = _bphz_log_coefficients(N, order)
    report = []
    for n in range(order + 1):
        scale = max(mixed_scales[n], bphz_scales[n], 1e-300)
        report.append(
            {
                "n": n,
                "mixed_route": mixed[n],
                "bphz_route": bphz[n],
                "difference": mixed[n] - bphz[n],
                "relative": abs(mixed[n] - bphz[n]) / scale,
            }
        )
    return report


def quartic_vertex_degree(n: int, d=3.0) -> float:
    """Degree of the order-n quartic vacuum classes: 4n - (n+1)d (= n - 3 at d = 3)."""
    return 4 * n - (n + 1) * d


# ---------------------------------------------------------------------------
# fractional-dimension thresholds


@dataclass(frozen=True)
class ThresholdReport:
    d: float
    n_star_e: int
    n_star_m: int

    @staticmethod
    def d_star_e(n: int) -> Fraction:
        return 4 - Fraction(4, n + 1)

    @staticmethod
    def d_star_m(n: int) -> Fraction:
        return 4 - Fraction(2, n)


def thresholds(d) -> ThresholdReport:
    """Largest orders with divergent energy/mass contributions for 3 <= d < 4."""
    if not 3 <= d < 4:
        raise ValueError("threshold floors need 3 <= d < 4")
    frac_d = Fraction(d).limit_denominator(10**9)
    return ThresholdReport(
        d=float(d),
        n_star_e=int(frac_d / (4 - frac_d)),
        n_star_m=int(Fraction(2) / (4 - frac_d)),
    )


def minimal_subdivergence_families(max_vertices: int = 4) -> dict[int, list[Diagram]]:
    """Connected loop-free classes from the two counterterm arity families.

    For n vertices these are (3, 3, 4, ..) and (2, 4, 4, ..); their degrees
    are 6 - 2d, 10 - 3d, 14 - 4d for n = 2, 3, 4.
    """
    out: dict[int, list[Diagram]] = {}
    for n in range(2, max_vertices + 1):
        classes: list[Diagram] = []
        for arities in ([3, 3] + [4] * (n - 2), [2] + [4] * (n - 1)):
            if sum(arities) % 2:
                continue
            classes.extend(fy.generate_diagrams(arities).filter_connected().terms)
        out[n] = classes
    return out


def divergent_families_at(d) -> dict[int, bool]:
    """Which counterterm families are divergent (deg <= 0) at dimension d."""
    fams = minimal_subdivergence_families()
    return {
        n: bool(classes) and all(fy.degree(g, d) <= 0 for g in classes)
        for n, classes in fams.items()
    }


def sigma_counterterm(d, N: int, n: int) -> float:
    """Model mass-insertion constants for fractional d (one concrete choice).

    sigma_2 is pinned by the d = 3 mass counterterm (beta = a^2/2 sigma_2
    means sigma_2 = -96 Pi(3-banana)); a higher order n is the plain sum of
    the divergent minimal subdivergence families of n vertices, expected to
    diverge like N^(2 - (4-d) n).
    """
    if n < 2:
        raise ValueError("mass insertions start at order 2")
    fy._model(d)  # before an empty family sum can return 0.0 at any d
    fams = minimal_subdivergence_families(max(n, 2)).get(n, [])
    total = 0.0
    for g in fams:
        if fy.degree(g, d) <= 0:
            total += fy.valuate(g, d, N)
    return -96.0 * total if n == 2 else total


# ---------------------------------------------------------------------------
# Monte Carlo


def quartic_sum(values: np.ndarray) -> np.ndarray:
    """Sum of values^4 over the grid points (axis 0), one entry per column.

    values is squared in place, so the read is two passes with no temporary.
    """
    np.square(values, out=values)
    return np.einsum("ij,ij->j", values, values)


def wick4_mean(quartic: np.ndarray, points: int, square: np.ndarray, cn: float) -> np.ndarray:
    """Grid mean of H_4(v; C_N) = v^4 - 6 C_N v^2 + 3 C_N^2 per sample, from
    quartic, the sum of v^4 over the grid's points (written over), and
    square, the grid mean of v^2."""
    quartic /= points
    quartic -= 6.0 * cn * square
    quartic += 3.0 * cn * cn
    return quartic


MC_BLOCK = 2048
# samples synthesized together: one chunk's rule values (2M^d x 64 floats,
# about 1.1 MB at d = 2, N = 16) stay in cache through the quartic read, and
# a chunk's amplitudes are gathered from _MC_SLAB-row tiles of that width
_MC_CHUNK = 64
# mode rows drawn and weighted at a time: the tile height
_MC_SLAB = 16


def check_mc_arguments(d: int, N: int, alpha: float, samples: int, seed: int) -> None:
    """Raise ValueError naming the first argument mc_partition_ratio refuses.

    Cheap, so the CLI runs it before any series work.
    """
    if isinstance(d, (bool, np.bool_)) or d not in (1, 2):  # True is no dimension
        raise ValueError(f"the MC validation covers d = 1 and d = 2, got {d!r}")
    if not (math.isfinite(alpha) and alpha >= 0):
        # exp(-alpha X) has no finite mean for alpha < 0
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    _check_lattice(fy._model(d)[0], N)
    _check_samples(samples, seed)


class _Draws:
    """The weighted amplitude blocks of one Monte Carlo run, drawn on a helper
    thread while the caller synthesizes the block before.

    Block b is the batch_amplitudes draw of child b of SeedSequence(seed),
    bit for bit, but np.random.default_rng(child) fills it _MC_SLAB mode rows
    at a time (the same stream), and each weighted slab is cut into
    (_MC_SLAB, _MC_CHUNK) tiles of one pool. The pool holds one block's
    tiles plus one slab's, and chunks() frees a chunk's tiles as soon as it
    has gathered them, so the helper runs at most one slab ahead of the
    caller and no more than that many draws are ever alive. Entering starts
    the helper; leaving, on an error too, stops and joins it. An error in the
    helper is raised by chunks().
    """

    def __init__(self, weights: np.ndarray, samples: int, seed: int):
        self._weights = weights
        self._sizes = [min(MC_BLOCK, samples - lo) for lo in range(0, samples, MC_BLOCK)]
        self._seeds = np.random.SeedSequence(seed).spawn(len(self._sizes))
        self._slabs = -(-len(weights) // _MC_SLAB)
        width = -(-self._sizes[0] // _MC_CHUNK)  # the chunks of a full block
        tiles = (self._slabs + (len(self._sizes) > 1)) * width
        self._pool = np.empty((tiles, _MC_SLAB, _MC_CHUNK))
        self._gathered = np.empty((self._slabs, _MC_SLAB, _MC_CHUNK))
        self._free = list(range(tiles))
        self._ready = []  # per drawn block its tile ids (slab, chunk), or the helper's error
        self._stop = False
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._draw)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join()

    def _draw(self):
        slab = np.empty(_MC_SLAB * self._sizes[0])
        try:
            for n, child in zip(self._sizes, self._seeds):
                # looked up per block, where a tracer counts the blocks
                rng = np.random.default_rng(child)
                full = n - n % _MC_CHUNK  # the samples in whole chunks
                width = -(-n // _MC_CHUNK)
                ids = np.empty((self._slabs, width), dtype=np.intp)
                for s in range(self._slabs):
                    w = self._weights[s * _MC_SLAB : (s + 1) * _MC_SLAB]
                    z = slab[: len(w) * n].reshape(len(w), n)
                    rng.standard_normal(out=z)
                    z *= w[:, None]
                    with self._cond:
                        self._cond.wait_for(lambda: self._stop or len(self._free) >= width)
                        if self._stop:
                            return
                        ids[s] = self._free[-width:]
                        del self._free[-width:]
                    tiles = z[:, :full].reshape(len(w), full // _MC_CHUNK, _MC_CHUNK)
                    self._pool[ids[s, : full // _MC_CHUNK], : len(w)] = tiles.transpose(1, 0, 2)
                    if full < n:  # the partial last chunk
                        self._pool[ids[s, -1], : len(w), : n - full] = z[:, full:]
                with self._cond:
                    self._ready.append(ids)
                    self._cond.notify_all()
        except BaseException as exc:  # handed to the caller, which raises it
            with self._cond:
                self._ready.append(exc)
                self._cond.notify_all()

    def chunks(self):
        """Yield (j, amps) for each chunk of the next block: amps is a
        contiguous (modes, _MC_CHUNK) view of one buffer, overwritten at the
        next step, whose columns hold the block's draws from sample j on (in
        a partial last chunk only the first columns do)."""
        with self._cond:
            self._cond.wait_for(lambda: self._ready)
            ids = self._ready.pop(0)
        if isinstance(ids, BaseException):
            raise ids
        for c in range(ids.shape[1]):
            # mode="clip" writes out directly; "raise" would gather into a temporary first
            np.take(self._pool, ids[:, c], axis=0, out=self._gathered, mode="clip")
            with self._cond:
                self._free += ids[:, c].tolist()
                self._cond.notify_all()
            yield c * _MC_CHUNK, self._gathered.reshape(-1, _MC_CHUNK)[: len(self._weights)]


def mc_partition_ratio(d: int, N: int, alpha: float, samples: int, seed: int):
    """Monte Carlo of E[exp(-alpha integral :field^4:)] for d in {1, 2}.

    Fields are sampled spectrally. The quartic Wick integral is a
    trigonometric polynomial of l1 degree 4N, so it is the exact mean over
    the 2M^d points of the rank-2 lattice rule of size
    M = lattice_rule_size(4N) = 2N + 1, the grids j/M and (j + 1/2)/M
    together (see there for why): half the points of the uniform (4N+1)^d
    grid. Only the v^4 term needs those values: by Parseval the exact mean of
    v^2 is the sum of the squared amplitudes.
    Splitting rule: draws proceed in fixed blocks of MC_BLOCK samples whose
    generators are SeedSequence(seed).spawn children in block order, so a
    given (config, seed) always produces the same stream, however the work
    is spread over threads. A helper thread draws block b + 1 (see _Draws)
    while this one synthesizes block b. One rule_synthesizer takes each
    block in chunks of _MC_CHUNK samples onto every rule point at once, the
    plain grid j/2M at d = 1 and a rotated 2M x M product grid at d = 2,
    where both halves share the first axis stage: at N = 16 about 110k
    multiply-adds per sample, in 18 GEMMs per chunk. torusfield._mc_blocks
    (samples >= 2) averages each block's exp(-alpha X). Memory is one
    block's draws plus one slab of _MC_SLAB modes, one gathered chunk, one
    chunk's 2M^d x _MC_CHUNK rule values and the value vector. Raises
    ValueError naming alpha when exp(-alpha X) overflows, as it can once
    6 alpha C_N^2 > 709.8 (X >= -6 C_N^2).
    """
    check_mc_arguments(d, N, alpha, samples, seed)
    dim, _ = fy._model(d)
    synth = rule_synthesizer(dim, N, lattice_rule_size(4 * N))
    cn, points = c_variance(dim, N), math.prod(synth.shape)
    draws = _Draws(amplitude_weights(ModeLattice(dim, N), GFF.exponent), samples, seed)

    def fill(lo, out):
        square = np.empty(len(out))
        for j, amps in draws.chunks():
            w = min(_MC_CHUNK, len(out) - j)
            # the bits of the whole block's draw: einsum sums a lone contiguous
            # column (a one-sample block) in another order than a column of a
            # wider array
            chunk = amps[:, :w] if len(out) > 1 else np.ascontiguousarray(amps[:, :1])
            square[j : j + w] = np.einsum("ij,ij->j", chunk, chunk)
            out[j : j + w] = quartic_sum(synth(chunk))
        x = wick4_mean(out, points, square, cn)
        np.exp(-alpha * x, out=out)

    with draws, np.errstate(over="ignore", invalid="ignore"):
        est, stderr = _mc_blocks(samples, MC_BLOCK, fill)
    if not (math.isfinite(est) and math.isfinite(stderr)):
        raise ValueError(f"alpha = {alpha} overflows exp(-alpha X) at d = {d}, N = {N}")
    return est, stderr


def coefficient_ladder_csv(d, Ns, order: int) -> str:
    """CSV table of series coefficients over a ladder of cutoffs.

    One row per N, one column per alpha-order; useful for eyeballing how the
    valuations drift with the cutoff. The order and every cutoff are checked
    before the first series runs.
    """
    _check_order(order)
    dim, _ = fy._model(d)
    for N in Ns:
        _check_lattice(dim, N)
    header = ["N"] + [f"c{n}" for n in range(order + 1)]
    lines = [",".join(header)]
    for N in Ns:
        series = partition_ratio_series(d, N, order)
        row = [str(N)] + [repr(c.value) for c in series.coefficients]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
