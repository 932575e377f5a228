"""Spectral Gaussian fields on the d-torus and the lattice sums behind them.

Modes live on the l1 ball K_N = {k in Z^d : |k_1| + ... + |k_d| <= N} (the l1
truncation is deliberate; l2 balls are the common alternative) with weights
lambda_k = 1 + (2 pi)^d ||k||^2. Sampling uses a real cosine/sine basis with
one independent standard normal per amplitude, so no Hermitian-coefficient
bookkeeping is needed; all covariance targets below are stated in that basis.

Fields reach a product grid through a GridSynthesizer, built from each
mode's key on the grid's axes, the points per axis and the period. It sums
the modes one axis at a time in plain real matrix products, touching only
the amplitudes the l1 ball holds, and returns one column per field.
grid_synthesizer(d, N, M) serves the uniform M^d grid j/M, and
rule_synthesizer(d, N, M) all 2M^d points of the rank-2 lattice rule (see
lattice_rule_size) as one rotated 2M x M^(d-1) product grid, so both of its
halves share the first axis stage. The dense synthesis_matrix (one row per
point, one column per amplitude) serves arbitrary points and is the oracle
the grid routes are tested against.

One builder, _l1_within (cached as _l1_mask), gives K_N for everything
here: the mode list (the mask's true entries in C order, which is
lexicographic, so mode_labels and the seeded amplitude stream keep one
order) and the layout of a Ball's box. The lattice rule's reads need no
mask: they move a Ball's entries on and off the grid by flat index.

Lattice sums accumulate with math.fsum / exact convolutions so the
Cauchy-convergence tests downstream are about the sums, not about float
noise. Every lattice-sum read here takes its weights in one format, a Ball:
a centred cube kept as its entries on its l1 ball. lambda_k^(-s) is built
on K_N as one (inverse_weight_ball), each value looked up by |k|^2; C_N and
the other weight sums are the fsum of its entries, one cosine sum
(cosine_sum) gives the Green function and every two-point value in position
space, and constant_term and convolution_window read Balls and return one.
The padded-FFT linear convolution convolve_cubes, on box-supported cubes,
gives young_sum_check its constrained sums, and is the reference the
windowed convolution_window is tested against.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby, product
from math import cosh, sinh, sqrt

import numpy as np

from .polyalg import hermite_scaled

TWO_PI = 2.0 * math.pi


def _l1_ball(d: int, N: int) -> list[tuple[int, ...]]:
    """K_N in lexicographic order: the C order of the mask's true entries."""
    return [tuple(k) for k in _ball_points(d, N).tolist()]


def _ball_points(d: int, N: int) -> np.ndarray:
    """The points of K_N as rows of an integer array, in a Ball's order."""
    return np.argwhere(_l1_mask(d, N)) - N


class ModeLattice:
    """Truncated Fourier lattice K_N in Z^d with weights lambda_k."""

    def __init__(self, d: int, N: int):
        _check_lattice(d, N)
        self.d = d
        self.N = N
        self.modes = _l1_ball(d, N)

    def lam(self, k) -> float:
        return 1 + TWO_PI**self.d * sum(int(c) ** 2 for c in k)

    def positive_modes(self) -> list[tuple[int, ...]]:
        """One representative per +-k pair: first nonzero coordinate positive.

        The sorted ball is symmetric under k -> -k with 0 in the middle, and
        the modes after 0 are exactly those whose first nonzero coordinate is
        positive."""
        return self.modes[len(self.modes) // 2 + 1 :]

    def inverse_weight_cube(self, s: float = 1.0) -> np.ndarray:
        """Array of lambda_k^(-s) over the centered box [-N, N]^d, zero off K_N."""
        return inverse_weight_cube(self.d, self.N, s)


@lru_cache(maxsize=None, typed=True)  # typed: a float d is refused, not served 3's lattice
def _lattice(d: int, N: int) -> ModeLattice:
    return ModeLattice(d, N)


def _check_lattice(d: int, N: int) -> None:
    if not isinstance(d, (int, np.integer)) or d not in (1, 2, 3):
        raise ValueError(f"d must be the integer 1, 2 or 3, got {d!r}")
    # a bool is an int to Python, but True is no cutoff
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"N must be an integer, got {N!r}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")


def inverse_weight_ball(d: int, N: int, s: float = 1.0) -> Ball:
    """lambda_k^(-s) on K_N, as a Ball of radius N.

    Each value is looked up by |k|^2 (_weights_by_norm2).
    """
    _check_lattice(d, N)
    k = _ball_points(d, N)
    return Ball(_weights_by_norm2(d, s, (k * k).sum(axis=1)), d, N)


def inverse_weight_cube(d: int, N: int, s: float = 1.0) -> np.ndarray:
    """lambda_k^(-s) over the centered box [-N, N]^d, zero off K_N: the box
    of inverse_weight_ball."""
    return inverse_weight_ball(d, N, s).box()


def _weights_by_norm2(d: int, s: float, norm2: np.ndarray) -> np.ndarray:
    """(1 + (2 pi)^d n) ** (-float(s)) for each integer n = |k|^2 of a 1-d
    array, Python's float pow taken once per distinct n (np.power can differ
    from it in the last bit) and mapped back by one np.searchsorted over the
    sorted distinct n."""
    distinct = sorted(set(norm2.tolist()))
    weights = np.array([(1 + TWO_PI**d * n) ** (-float(s)) for n in distinct])
    return weights[np.searchsorted(np.array(distinct, dtype=norm2.dtype), norm2)]


def c_variance(d: int, N: int) -> float:
    """C_N = sum over K_N of 1/lambda_k, the truncated-field variance."""
    return math.fsum(inverse_weight_ball(d, N, 1.0).values.tolist())


def as_point(x, d: int, name: str = "point") -> tuple[float, ...]:
    """x as a tuple of d finite floats; a bare number is a point of the circle
    (d = 1). Raises ValueError naming x as name for a str or bytes, a
    non-finite coordinate or the wrong number of coordinates."""
    if isinstance(x, (str, bytes)):
        raise ValueError(f"{name} {x!r} is a string, not a number or a sequence of numbers")
    xs = tuple(float(c) for c in x) if hasattr(x, "__len__") else (float(x),)
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"{name} {x!r} needs finite coordinates")
    if len(xs) != d:
        raise ValueError(f"{name} {x!r} has {len(xs)} coordinates, but the lattice dimension is {d}")
    return xs


def cosine_sum(ball: Ball, x) -> float:
    """sum over the l1 ball K_R of w(k) cos(2 pi k.x), by math.fsum, for a
    Ball w of radius R that is even under k -> -k (sines cancel).

    The phase of each k is summed axis by axis, as the scalar k.x would be.
    """
    d = ball.ndim
    xs = as_point(x, d)
    k = _ball_points(d, ball.radius)
    phase = sum(k[:, a] * xi for a, xi in enumerate(xs))
    return math.fsum((ball.values * np.cos(TWO_PI * phase)).tolist())


def green_truncated(x, d: int, N: int) -> float:
    """G_N(x) = sum over K_N of cos(2 pi k.x)/lambda_k (sines cancel by k <-> -k)."""
    return cosine_sum(inverse_weight_ball(d, N, 1.0), x)


def green_exact_1d(x: float) -> float:
    """Periodic resolvent of u - a u'' = delta on the unit circle, a = 1/(2 pi).

    Solving the ODE with the 2x2 transfer matrix U(x) = [[cosh, sinh], [sinh,
    cosh]](x / sqrt(a)) and periodic matching gives a single cosh profile; this
    is the N -> infinity limit of green_truncated in d = 1 and the closed form
    behind C_infinity = sqrt(pi/2) coth(sqrt(pi/2)).
    """
    a = 1.0 / TWO_PI
    root = sqrt(a)
    x = x % 1.0
    return cosh((x - 0.5) / root) / (2.0 * root * sinh(0.5 / root))


@dataclass(frozen=True)
class SpectralProfile:
    """Per-mode weight exponent: white = lambda^0, gff = lambda^(-1/2), fractional(s) = lambda^(-s)."""

    kind: str
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("white", "gff", "fractional"):
            raise ValueError(f"unknown profile {self.kind!r}")
        if self.kind == "fractional" and not (math.isfinite(self.s) and self.s >= 0):
            raise ValueError(f"fractional exponent s must be finite and >= 0, got {self.s!r}")

    @property
    def exponent(self) -> float:
        return {"white": 0.0, "gff": 0.5, "fractional": float(self.s)}[self.kind]


WHITE = SpectralProfile("white")
GFF = SpectralProfile("gff")


class FieldSample:
    """One realization of a spectral Gaussian field in the real Fourier basis.

    Mode labels are (k, "c") / (k, "s") for sqrt(2) cos(2 pi k.x) and
    sqrt(2) sin(2 pi k.x) over positive representatives k, plus (0, "c") for
    the constant mode. `amplitudes[mode]` is the weighted coefficient
    lambda_k^(-exponent) * Z_mode with independent standard normal Z.
    """

    def __init__(self, lattice: ModeLattice, profile: SpectralProfile, seed: int):
        self.lattice = lattice
        self.profile = profile
        self.seed = seed
        self.labels = mode_labels(lattice)
        amplitudes = batch_amplitudes(lattice, profile, 1, seed)[:, 0]
        self.amplitudes = dict(zip(self.labels, amplitudes))

    def variance_target(self) -> float:
        """E[field(x)^2] = sum over all of K_N of lambda^(-2 exponent)."""
        weights = inverse_weight_ball(self.lattice.d, self.lattice.N, 2 * self.profile.exponent)
        return math.fsum(weights.values.tolist())

    def _amplitude_vector(self) -> np.ndarray:
        return np.array([self.amplitudes[label] for label in self.labels])

    def evaluate(self, points) -> np.ndarray:
        """Direct synthesis at an array of points, shape (npoints, d)."""
        return synthesis_matrix(self.lattice, points) @ self._amplitude_vector()

    def evaluate_grid(self, M: int) -> np.ndarray:
        """Values on the uniform M^d grid (j/M), synthesized axis by axis."""
        synth = grid_synthesizer(self.lattice.d, self.lattice.N, M)
        return synth(self._amplitude_vector()[:, None]).reshape(synth.shape)


def sample_field(profile: SpectralProfile, lattice: ModeLattice, seed: int) -> FieldSample:
    return FieldSample(lattice, profile, seed)


def pair_with_testfunction(sample: FieldSample, phihat: dict) -> float:
    """Mode-space inner product sum_modes amplitude * phihat(mode).

    Keys are the sample's real-basis labels (k tuple, "c" | "s"); anything
    outside the lattice is an error.
    """
    for mode in phihat:
        if mode not in sample.amplitudes:
            raise ValueError(f"mode {mode} not in the lattice")
    return math.fsum(
        sample.amplitudes[mode] * coeff for mode, coeff in phihat.items()
    )


def testfunction_from_values(lattice: ModeLattice, func, grid: int | None = None) -> dict:
    """Real-basis coefficients of a function given pointwise, by quadrature.

    Coefficients beyond the lattice are discarded; the returned map can feed
    pair_with_testfunction. Quadrature is exact for trig polynomials of
    per-axis degree < grid/2 ... good enough for smooth bumps.
    """
    if grid is None:
        grid = 8 * max(lattice.N, 1)
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    pts = grid_points(lattice.d, grid)
    vals = np.array([func(p) for p in pts])
    # synthesis_matrix rows in blocks: the whole (points x modes) matrix
    # would take 1.7 GB at d = 3, N = 8 on the default grid
    step = 4096
    coeffs = sum(
        synthesis_matrix(lattice, pts[i : i + step]).T @ vals[i : i + step]
        for i in range(0, len(pts), step)
    )
    return dict(zip(mode_labels(lattice), (coeffs / len(pts)).tolist()))


def sobolev_sum(s: float, d: int, N: int, profile: SpectralProfile) -> float:
    """E ||.||_{H^s}^2 over K_N: sum lambda^s (white) or lambda^(s-1) (gff)."""
    if profile.kind == "white":
        expo = s
    elif profile.kind == "gff":
        expo = s - 1.0
    else:
        raise ValueError("sobolev_sum supports the white and gff profiles")
    return math.fsum(inverse_weight_ball(d, N, -expo).values.tolist())


def wick_power_field(sample: FieldSample, n: int, grid: int) -> np.ndarray:
    """Pointwise Wick power: H_n(field(x); variance) on the M^d grid.

    The variance is the field's own pointwise variance (C_N for the gff
    profile), so the result is centered by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = sample.evaluate_grid(grid)
    out = np.zeros_like(values)
    for i, coeff in enumerate(hermite_scaled(n, sample.variance_target()).coeffs):
        if coeff:
            out += float(coeff) * values**i
    return out


def integral_wick_square(sample: FieldSample) -> float:
    """Exact mode-space value of integral of :field^2: over the torus.

    Parseval: integral field^2 = sum of squared real-basis amplitudes, and the
    Wick subtraction removes the deterministic variance.
    """
    total = math.fsum(a * a for a in sample.amplitudes.values())
    return total - sample.variance_target()


def mode_labels(lattice: ModeLattice) -> list:
    """Real-basis amplitude labels in the fixed sampling order."""
    zero = (0,) * lattice.d
    labels = [(zero, "c")]
    for k in lattice.positive_modes():
        labels.append((k, "c"))
        labels.append((k, "s"))
    return labels


def synthesis_matrix(lattice: ModeLattice, points: np.ndarray) -> np.ndarray:
    """Matrix B with B[p, mode] the basis function value at point p.

    field values = B @ amplitudes; points has shape (npoints, d).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = mode_labels(lattice)
    B = np.empty((len(pts), len(labels)))
    zero = (0,) * lattice.d
    for col, (k, part) in enumerate(labels):
        if k == zero:
            B[:, col] = 1.0
            continue
        phase = TWO_PI * pts @ np.asarray(k, dtype=float)
        B[:, col] = math.sqrt(2.0) * (np.cos(phase) if part == "c" else np.sin(phase))
    return B


def grid_points(d: int, M: int) -> np.ndarray:
    axes = np.arange(M) / M
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_rule_size(deg: int) -> int:
    """Least M with deg < 2M: the two interleaved M^d grids j/M and
    (j + 1/2)/M (a rank-2 lattice rule, Sloan & Joe 1994) then integrate
    every trigonometric polynomial of l1 degree <= deg exactly.

    For k != 0 in Z^d, the mean of e^(2 pi i k.x) over the plain grid is 1
    when every k_j is a multiple of M and 0 otherwise. Writing k = M m, the
    half-cell shift multiplies that mean by e^(pi i (m_1 + ... + m_d)), so
    the mean over the union is (1 + (-1)^(m_1 + ... + m_d)) / 2. For
    0 < |k|_1 < 2M the only survivors have |m|_1 = 1, an odd sum, and the
    union mean is 0. The rule is tight: k = 2M e_1 has union mean 1. Any
    larger M (say a 5-smooth FFT length) is exact too. For odd M the second
    grid is the first moved by 1/2 on every axis ((j + 1/2)/M = j'/M + 1/2,
    j' = j + (M + 1)/2 mod M), which multiplies e^(2 pi i k.x) by (-1)^(|k|_1).

    The union is the points t/2M with t in Z^d, all t_i of one parity, and it
    is also a product grid in rotated coordinates: with x_1 = y_1 + ... + y_d
    and x_i = x_1 - 2 y_i (i >= 2), the 2M^d points are exactly y_1 = s/2M
    (s < 2M), y_i = r_i/2M (r_i < M), and e^(2 pi i k.x) = e^(2 pi i kappa.y)
    with kappa = (sigma, sigma - 2 k_2, ..., sigma - 2 k_d), sigma = k_1 + ...
    + k_d. Each |kappa_i| <= |k|_1; at d = 2 the l1 ball |k|_1 <= N is the box
    |kappa_1|, |kappa_2| <= N with kappa_1 = kappa_2 mod 2. rule_synthesizer
    synthesizes on this grid; at d = 1 it is the plain grid j/2M.
    """
    return deg // 2 + 1


def constant_term(*balls: Ball) -> float:
    """sum over k_1 + ... + k_n = 0 of prod_i w_i(k_i), for Balls w_i.

    This is the constant term of the product of their trigonometric
    polynomials. Two Balls give the dot product of a and the reversed b on
    the ball of their common radius (Ball.crop), whatever their symmetry,
    summed a block of slabs at a time (_ball_dot), so no array of the box's
    size is built. Three or more must each be even under k -> -k, as every
    reducer weight is: their constant term is convolution_window at radius
    0, the mean of the product over the two grids of lattice_rule_size,
    sized by the sum of the radii, with no inverse transform.
    """
    if len(balls) == 2:
        return _ball_dot(*(w.crop(min(w.radius for w in balls)) for w in balls))
    return convolution_window(*balls, radius=0).values.item()


def _ball_dot(a: Ball, b: Ball) -> float:
    """sum over k of a(k) b(-k) for two Balls of one radius r.

    Slab i of a meets slab 2r - i of b reversed. A block of slabs i =
    lo..hi - 1 meets the slabs 2r - i, which hold the same balls, and their
    entries reversed as one run are each of those slabs reversed, in the
    block's order. So each block is multiplied on the balls only and
    unpacked into one zero block (_unpack), each of its slabs is summed
    pairwise, zeros included, as one dense slab of a times the dense slab
    2r - i of b reversed would be (a running dot loses ~1e-13), and the
    slab sums by math.fsum.
    """
    dim, r = a.ndim, a.radius
    sums = []
    for rows in _slab_blocks((2 * r + 1,) * dim, 8, _FOLD_BYTES):
        lo, hi, _ = rows.indices(2 * r + 1)
        product = a.entries(lo, hi) * b.entries(2 * r + 1 - hi, 2 * r + 1 - lo)[::-1]
        sums += _unpack(product, dim, r, lo, hi).reshape(hi - lo, -1).sum(axis=1).tolist()
    return math.fsum(sums)


class Ball:
    """A centered cube of radius r kept as its entries on the l1 ball
    |k|_1 <= r only, about a sixth of the box at d = 3: first-axis slab by
    slab, each slab's entries in C order, which is the box's C order.

    Slab i (first momentum i - r) holds the (d-1)-dimensional ball of radius
    r - |i - r| (_ball_starts); entries(lo, hi) is a view of the entries of
    slabs lo..hi - 1, and box(rows) gives the dense slabs rows (all by
    default), zero off the ball. The ball is symmetric, and reversed C
    order is the C order of -k, so the entries reversed are the cube at -k.
    ndim and shape are those of the box. It is the one weight format of the
    lattice-sum reads (constant_term, cosine_sum, convolution_window and
    _grid_values), and convolution_window returns one for every read;
    crop(r) gives the Ball of a smaller radius. Each row of the ball, one
    prefix of k on the first d - 1 axes, is one run of entries on the last
    axis, so the entries move on and off a transform grid by flat index
    (_grid_places), with no box.
    """

    __slots__ = ("values", "ndim", "radius")

    def __init__(self, values: np.ndarray, ndim: int, radius: int):
        self.values = values
        self.ndim = ndim
        self.radius = radius

    @property
    def shape(self) -> tuple:
        return (2 * self.radius + 1,) * self.ndim

    def entries(self, lo: int, hi: int) -> np.ndarray:
        starts = _ball_starts(self.ndim, self.radius)
        return self.values[starts[lo] : starts[hi]]

    def box(self, rows: slice = slice(None)) -> np.ndarray:
        lo, hi, _ = rows.indices(2 * self.radius + 1)
        return _unpack(self.entries(lo, hi), self.ndim, self.radius, lo, hi)

    def crop(self, r: int) -> Ball:
        """The Ball of radius r <= radius that holds this one's entries on
        its own ball; this one at r = radius."""
        R = self.radius
        if r == R:
            return self
        rows = slice(R - r, R + r + 1)
        box = self.box(rows)[(slice(None),) + (rows,) * (self.ndim - 1)]
        return Ball(box[_l1_within(self.ndim, r)], self.ndim, r)


@lru_cache(maxsize=None)
def _ball_starts(dim: int, radius: int) -> tuple:
    """Where each first-axis slab's entries start in a Ball, and the total:
    slab i holds the sum over j of 2^j C(dim - 1, j) C(rho, j) points,
    rho = radius - |i - radius| (j of the dim - 1 coordinates nonzero)."""
    rhos = (radius - abs(i - radius) for i in range(2 * radius + 1))
    counts = (sum(2**j * math.comb(dim - 1, j) * math.comb(rho, j) for j in range(dim)) for rho in rhos)
    return tuple(accumulate(counts, initial=0))


def _unpack(entries: np.ndarray, dim: int, r: int, lo: int, hi: int) -> np.ndarray:
    """Slabs lo..hi - 1 of a dim-dimensional cube of radius r that holds
    entries on its l1 ball (Ball.entries' layout) and zeros off it."""
    out = np.zeros((hi - lo,) + (2 * r + 1,) * (dim - 1))
    out[_l1_within(dim, r, slice(lo, hi))] = entries
    return out


def convolution_window(*balls: Ball, radius: int) -> Ball:
    """The linear convolution W of Balls, each even under k -> -k, on the
    l1 ball of radius r, as a Ball.

    The ball is read off the Balls' trigonometric polynomials on the two
    grids j/M and (j + 1/2)/M. By the rank-2 lattice rule (see
    lattice_rule_size), the mean over both grids of their product times
    exp(2 pi i k.x) is the sum of W(k + M m) over m in Z^d with an even
    m_1 + ... + m_d. An alias m != 0 has |k + M m|_1 >= 2M - |k|_1, beyond
    the support |k|_1 <= S of W (S the sum of the radii) once
    2M > S + |k|_1. M is the least 5-smooth length at or above
    lattice_rule_size(S + min(d r, S)), exact on the whole box of radius r
    within the support, so on the ball (the ball alone needs only S + r,
    but the smaller grid would move the bits). At r = 0 the ball is the
    constant term, the mean itself, with no inverse transform.

    An even Ball has a real polynomial on both grids, so one complex FFT
    gives both (_grid_values). Inputs are matched by identity: each distinct
    Ball is transformed once and raised to its multiplicity. The products P
    (plain grid) and Q (half-cell grid) share one inverse FFT of P + iQ,
    which _grid_ball separates in the transform's own buffer and gathers
    onto the ball. Each Ball goes onto the grid and the read comes off it by
    flat index, a block of first-axis slabs at a time (_grid_places), so no
    box, fold or l1 mask is built. Raises ValueError for a Ball that is not
    even to roundoff.
    """
    dim = balls[0].ndim
    S = sum(w.radius for w in balls)
    if not 0 <= radius <= S:
        raise ValueError(f"a window of radius {radius} needs Balls whose radii sum to at least it")
    M = _smooth_len(lattice_rule_size(S + min(dim * radius, S)))
    mults = Counter(id(w) for w in balls)
    acc = None
    for c in {id(w): w for w in balls}.values():
        _check_even(c)
        grids = _grid_values(c, M)
        if mults[id(c)] > 1:
            np.power(grids.real, mults[id(c)], out=grids.real)
            np.power(grids.imag, mults[id(c)], out=grids.imag)
        if acc is None:
            acc = grids
        else:
            np.multiply(acc.real, grids.real, out=acc.real)
            np.multiply(acc.imag, grids.imag, out=acc.imag)
        del grids  # free it before the next transform allocates
    if radius == 0:
        return Ball(np.array([(np.sum(acc.real) + np.sum(acc.imag)) / (2 * M**dim)]), dim, 0)
    return _grid_ball(np.fft.ifftn(acc, out=acc), radius)


_SCRATCH_BYTES = 1 << 16  # per block of slabs: small scratch, few numpy calls


_FOLD_BYTES = 1 << 18  # per block of slabs: _grid_values, _grid_ball, _separate and _ball_dot


def _slab_blocks(shape: tuple, itemsize: int, budget: int | None = None) -> list[slice]:
    """Runs of consecutive first-axis slabs of an array of the given shape,
    each as many slabs as fit in budget (_SCRATCH_BYTES by default) bytes
    of items, one at least."""
    budget = _SCRATCH_BYTES if budget is None else budget
    step = max(1, budget // (itemsize * math.prod(shape[1:])))
    return [slice(lo, lo + step) for lo in range(0, shape[0], step)]


def _symmetric(cube: np.ndarray, *images) -> bool:
    """Whether cube matches every image to roundoff: no entry of image - cube
    above 1e-12 max|cube|. The differences are taken a block of slabs at a
    time (_slab_blocks) in one scratch array of that block's size."""
    scale = max(float(np.max(cube)), -float(np.min(cube)))  # max|cube|
    blocks = _slab_blocks(cube.shape, cube.itemsize)
    diff = np.empty_like(cube[blocks[0]])
    for image in images:
        for rows in blocks:
            part = diff[: len(cube[rows])]
            np.subtract(image[rows], cube[rows], out=part)
            if float(np.max(np.abs(part, out=part))) > 1e-12 * scale:
                return False
    return True


def _check_even(ball: Ball) -> None:
    """Raise ValueError unless w(-k) = w(k) to roundoff for the Ball w,
    whose entries reversed are the cube at -k."""
    if not _symmetric(ball.values, ball.values[::-1]):
        raise ValueError(
            f"a cube of shape {ball.shape} is not even under k -> -k; the two-grid "
            "lattice rule reads only even cubes"
        )


def _grid_places(dim: int, radius: int, M: int):
    """Where a Ball's entries sit on the M^d grid, a block of first-axis
    slabs at a time, each as many slabs as hold at most _FOLD_BYTES bytes
    at 32 bytes an entry (its value, its index and the index's scratch),
    one slab at least. Yields lo, hi and, for the entries of slabs
    lo..hi - 1 in Ball.entries' order, each one's flat C-order index of
    k mod M on every axis and whether its alias parity, the sum over axes
    of floor(k_a / M), is odd.

    Each row of the ball, one prefix of k on the first d - 1 axes with
    room = radius - |prefix|_1, is one run -room..room on the last axis. The
    rows are the points of the (d-1)-dimensional ball, laid out an axis at
    a time: each row so far spans -room..room on the next axis, so one
    np.repeat of the rows and one arange give every next coordinate, read
    through per-axis tables of k mod M and floor(k / M) mod 2. On the last
    axis each row's run is cut where k crosses a multiple of M into pieces
    of one alias each, and a piece's indices are consecutive: a block's
    indices are one arange plus one np.repeat of its pieces' offsets.
    """
    starts = _ball_starts(dim, radius)
    blocks, lo = [], 0
    while lo < 2 * radius + 1:
        hi = max(lo + 1, bisect_right(starts, starts[lo] + _FOLD_BYTES // 32) - 1)
        blocks.append((lo, hi))
        lo = hi
    k = np.arange(-radius, radius + 1)
    mods, odds = k % M, (k // M) % 2 == 1
    if dim == 1:
        for lo, hi in blocks:
            yield lo, hi, mods[lo:hi], odds[lo:hi]
        return
    index, odd, room = mods, odds, radius - np.abs(k)
    for _ in range(dim - 2):
        lengths = 2 * room + 1
        ends = np.cumsum(lengths)
        at = np.arange(ends[-1]) - np.repeat(ends - lengths + room - radius, lengths)
        index = np.repeat(index * M, lengths) + mods[at]
        odd = np.repeat(odd, lengths) ^ odds[at]
        room = np.repeat(room, lengths) - np.abs(at - radius)
    # per row (axis 0) and alias n = floor(k / M) of the last axis (axis 1), the piece
    # of the row's run on [first, stop), whose entries sit at consecutive indices
    edges = np.array(sorted({-radius, radius + 1, *range(-(radius // M) * M, radius + 1, M)}))
    first = np.maximum(edges[:-1], -room[:, None])
    sizes = np.maximum(np.minimum(edges[1:], room[:, None] + 1) - first, 0).ravel()
    n = edges[:-1] // M
    # each entry's index is its position in the Ball plus its piece's shift
    shift = (index[:, None] * M + first - n * M).ravel() - (np.cumsum(sizes) - sizes)
    odd = (odd[:, None] ^ (n % 2 == 1)).ravel()
    rows = _ball_starts(dim - 1, radius)  # the rows of slab i are rows[i]..rows[i + 1] - 1
    for lo, hi in blocks:
        pieces = slice(rows[lo] * len(n), rows[hi] * len(n))
        flat = np.repeat(shift[pieces], sizes[pieces])
        flat += np.arange(starts[lo], starts[hi])
        yield lo, hi, flat, np.repeat(odd[pieces], sizes[pieces])


def _grid_values(ball: Ball, M: int) -> np.ndarray:
    """The polynomial of an even Ball c on both grids: u + iv with u(j) =
    sum_k c(k) exp(-2 pi i k.j/M) and v(j) the same at j + 1/2, both real
    since c is even.

    One FFT of fold(c) + i fold(c tau), tau(k) = exp(-pi i (k_1 + ... +
    k_d)/M) taken at the true momentum, gives u + iv: fold puts momentum k at
    index k mod M, where tau(k) is tau(k mod M) times (-1)^(n_1 + ... + n_d),
    n = floor(k / M). So the half-cell fold gives each alias that sign and
    takes the factor tau one axis at a time, over the whole grid.

    The Ball's entries go onto the grid by flat index, a block of
    first-axis slabs at a time (_grid_places): the signed values straight
    into the real part of the transform's buffer, which is then twisted,
    and the plain values added after. When 2R + 1 <= M no two entries share
    an index, so the signed values are assigned and the plain ones added
    onto the twisted grid at their own indices, with no second grid.
    Otherwise both are summed by np.add.at, the plain ones into one real
    grid added after the twist, in the entries' C order: that takes each
    grid entry's aliases in the lexicographic order of n, as a fold of the
    whole box does, so the transform has the fold's bits.
    """
    dim, R = ball.ndim, ball.radius
    out = np.zeros((M,) * dim, complex)
    real = out.reshape(-1).real
    aliased = 2 * R + 1 > M
    plain = np.zeros(M**dim) if aliased else None
    placed = []  # unaliased: each block's indices, for its plain values
    for lo, hi, index, odd in _grid_places(dim, R, M):
        values = ball.entries(lo, hi)
        signed = np.negative(values, out=values.copy(), where=odd)
        if aliased:
            np.add.at(plain, index, values)
            np.add.at(real, index, signed)
        else:
            real[index] = signed
            placed.append((index, values))
    # i fold(c tau): the factor i rides on the first axis's half-cell factor
    half = _half_cell(M)
    out *= (1j * half).reshape((M,) + (1,) * (dim - 1))
    for axis in range(1, dim):
        out *= half.reshape((M,) + (1,) * (dim - 1 - axis))
    if aliased:
        out.real += plain.reshape(out.shape)
        del plain
    for index, values in placed:
        real[index] += values
    del placed
    return np.fft.fftn(out, out=out)


def _grid_ball(Y: np.ndarray, r: int) -> Ball:
    """The read of radius r < M from Y = ifftn(P + iQ) (overwritten), for
    real products P and Q on the plain and the half-cell grid
    (_grid_values), as a Ball.

    With A = ifftn(P) and B = ifftn(Q), the value at k is
    (A(k) + conj tau(k) B(k)) / 2, tau at the true momentum. _separate
    leaves (2A, Im conj tau 2iB) / 4 in Y's real and imaginary parts, and
    conj tau(k) is conj tau(k mod M) times -1 per negative coordinate. So
    each entry of the ball is gathered by its flat index, a block of
    first-axis slabs at a time (_grid_places), as Y.real + Y.imag, or
    Y.real - Y.imag when an odd number of its coordinates are negative: no
    scratch of the box's size and no l1 mask.
    """
    _separate(Y)
    dim, M = Y.ndim, Y.shape[0]
    ball = Ball(np.empty(_ball_starts(dim, r)[-1]), dim, r)
    flat = Y.reshape(-1)
    for lo, hi, index, odd in _grid_places(dim, r, M):
        imag = flat.imag[index]
        np.negative(imag, out=imag, where=odd)
        np.add(flat.real[index], imag, out=ball.entries(lo, hi))
    return ball


def _separate(Y: np.ndarray) -> None:
    """Overwrite Y = ifftn(P + iQ) (see _grid_ball) with
    (2A, Im conj tau 2iB) / 4 in its real and imaginary parts.

    Hermitian separation gives 2A = Y(k) + conj Y(-k) and
    2iB = Y(k) - conj Y(-k), and both terms are real: A since P is even on
    the plain grid, conj tau B since Q is even on the half-cell one. It runs
    in Y's own storage, first-axis slab i against slab -i mod M: the slabs
    that are their own mirror (0, and M/2 for an even M) as one block, then
    the slabs 1..ceil(M/2) - 1 a block at a time (_slab_blocks), each with
    the reversed block of its mirrors, whose 2A is the first's mirrored, so
    two mirrored blocks are copied at a time. 2iB is left in Y and
    untwisted by conj tau one axis at a time, each over the whole of Y (a
    complex product's bits can depend on the length numpy loops over), and
    2A, kept for the first half only, then replaces its real part. These
    are the float operations of a whole-array separation.
    """
    dim, M = Y.ndim, Y.shape[0]
    own = slice(None, None, M // 2) if M % 2 == 0 else slice(0, 1)
    h = (M + 1) // 2
    pairs = [(own, own)]
    for run in _slab_blocks((h - 1,) + Y.shape[1:], Y.itemsize, _FOLD_BYTES):
        lo, hi = run.start + 1, min(run.stop, h - 1) + 1
        pairs.append((slice(lo, hi), slice(M - lo, M - hi, -1)))  # slabs i and -i mod M
    evens = []
    for P, Q in pairs:
        rows = [P] if P == Q else [P, Q]
        mirrored = [_mirror(Y[s]) for s in reversed(rows)]  # Y(-k) on each of rows
        evens.append(np.add(Y[P].real, mirrored[0].real))  # 2A
        for s, m in zip(rows, mirrored):
            np.subtract(Y[s], np.conjugate(m, out=m), out=Y[s])  # 2iB
        del mirrored, m
    untwist = np.conj(_half_cell(M))
    for axis in range(dim):
        Y *= untwist.reshape((M,) + (1,) * (dim - 1 - axis))
    for (P, Q), even in zip(pairs, evens):
        Y[P].real = even
        if P != Q:
            _mirror(even, out=Y[Q].real)
    Y.real *= 0.25
    Y.imag *= 0.25


def _mirror(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """block(-k) on every axis after the first, index i -> -i mod M, written
    into out (a new array by default): 2^(d-1) slice copies."""
    if out is None:
        out = np.empty_like(block)
    halves = [(slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1))]
    for parts in product(halves, repeat=block.ndim - 1):
        out[(slice(None),) + tuple(t for t, _ in parts)] = block[(slice(None),) + tuple(s for _, s in parts)]
    return out


def _paired_rule_mean(offsets, f: np.ndarray, out: np.ndarray) -> list[float]:
    """4 M^d times the two-grid mean of psi_o alpha_o^2 f for each real
    block packed in out[0] = A_0 + i A_1 (A_1 = 0 when offsets holds one
    entry), every block at index 0 and no longer than M on any axis, zero
    elsewhere; out is a complex (2, M, ..., M) buffer, overwritten, that a
    caller summing many blocks reuses.

    alpha_o(x) = sum_i A_o[i] exp(-2 pi i i.x), psi_o = exp(-2 pi i t_o.x)
    for t_o = offsets[o], and f holds the real, even polynomial to weigh by
    on the plain grid (f.real) and the half-cell one (f.imag), as
    _grid_values returns it. Row 1 is row 0 times the half-cell factor,
    applied one axis at a time, each a product over the whole row, and
    both rows are transformed at once: row g of Z is
    alpha_0 + i alpha_1 at x_j = (j + g/2)/M. Both grids are symmetric
    under x -> -x (index -j mod M on the plain grid, M - 1 - j on the
    half-cell one) and a real A_o has alpha_o(-x) = conj alpha_o(x), so
    with Z~(x) = conj Z(-x), Z + Z~ = 2 alpha_0 and Z - Z~ = 2i alpha_1.
    The summand psi f alpha^2 at -x is the conjugate of that at x, so a
    grid's sum is Re of the sum over its first half of first-axis slabs,
    each read with its mirror slab and counted twice (once for its own
    mirror). Those slabs are taken a block at a time (_slab_blocks) in
    scratch of one block's size and contracted as they are formed, one axis
    at a time against the phases of t_o (_offset_phase, formed once per
    call) down to one value per slab, which is then summed against the
    first axis's phase.
    """
    dim, M, n = out.ndim - 1, out.shape[-1], len(offsets)
    np.multiply(out[0], _half_cell(M).reshape((M,) + (1,) * (dim - 1)), out=out[1])
    for axis in range(1, dim):
        out[1] *= _half_cell(M).reshape((M,) + (1,) * (dim - 1 - axis))
    np.fft.fftn(out, axes=tuple(range(1, dim + 1)), out=out)
    # per grid g, slab j meets slab (-j - g) mod M: the runs of the first
    # half's slabs, each with the reversed run of its mirrors
    runs = [(0, slice(0, 1), out[0, :1])]
    for g in (0, 1):
        mirrors = out[g, ::-1]  # mirrors[i] is slab M - 1 - i, the mirror of slab i + 1 - g
        half = (M + g) // 2
        for run in _slab_blocks((half,) + out.shape[2:], out.itemsize):
            run = slice(run.start, min(run.stop, half))
            runs.append((g, slice(run.start + 1 - g, run.stop + 1 - g), mirrors[run]))
    size = (max(len(m) for _, _, m in runs),) + out.shape[2:]
    scratch = np.empty((n,) + size, complex)
    flip = (slice(None),) + (slice(None, None, -1),) * (dim - 1)
    per_slab = np.zeros((n, 2, M), complex)
    inner = [[_offset_phase(lo, M) for lo in reversed(t[1:])] for t in offsets]  # the axes after the first
    for g, rows, mirror in runs:
        # parts[0] takes Z~, then 2 alpha_0 = Z + Z~; parts[1] takes 2i alpha_1 = Z - Z~
        z, parts = out[g, rows], scratch[:, : len(mirror)]
        if g:
            np.conjugate(mirror[flip], out=parts[0])
        else:
            np.conjugate(_mirror(mirror, out=parts[0]), out=parts[0])
        if n == 2:
            np.subtract(z, parts[0], out=parts[1])
        parts[0] += z
        for o, part in enumerate(parts):
            np.square(part, out=part)
            part *= (f.real, f.imag)[g][rows]
            for phase in inner[o]:  # one axis at a time
                part = part.reshape(-1, M) @ phase[g]
            per_slab[o, g, rows] = part
    # the values are twice the grid sums of psi f alpha^2 = psi f (2 alpha)^2 / 4:
    # weight 2 * 2 / 4 for a slab and its mirror, half that for a slab that
    # is its own mirror
    weight = np.ones((2, M))
    weight[0, 0] = weight[M % 2, M // 2] = 0.5
    values = []
    for o, t in enumerate(offsets):
        value = float(np.sum((per_slab[o] * _offset_phase(t[0], M)).real * weight))
        values.append(-value if o else value)  # (2i alpha_1)^2 = -4 alpha_1^2
    return values


def _offset_phase(lo: int, M: int) -> np.ndarray:
    """exp(-2 pi i lo x) at x = (j + g/2)/M on the plain (g = 0) and half-cell
    (g = 1) grid, shape (2, M); lo (2j + g) is reduced mod 2M exactly first."""
    g = np.arange(2)[:, None]
    return _cis(lo * (2 * np.arange(M) + g), 2 * M)


def _cis(num, den: int) -> np.ndarray:
    """exp(-2 pi i num / den) for integer num, reduced mod den exactly."""
    return np.exp(-2j * math.pi * (np.asarray(num) % den) / den)


@lru_cache(maxsize=None)
def _half_cell(M: int) -> np.ndarray:
    """exp(-pi i i/M) for i = 0..M-1: the half-cell shift of the second grid
    on one axis."""
    out = _cis(np.arange(M), 2 * M)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _l1_mask(dim: int, radius: int) -> np.ndarray:
    """Indicator of |k|_1 <= radius on the centred box of that radius."""
    mask = _l1_within(dim, radius)
    mask.setflags(write=False)
    return mask


def _l1_within(dim: int, radius: int, rows: slice = slice(None)) -> np.ndarray:
    """Indicator of |k|_1 <= radius on the first-axis slabs rows (all by
    default) of the centred box of that radius, compared axis against the
    rest, so that no integer array of that size is built."""
    a = np.abs(np.arange(-radius, radius + 1))
    axes = [a[rows]] + [a] * (dim - 1)
    rest = sum(np.ix_(*axes[:-1]))  # |k|_1 over the first dim - 1 axes
    return np.expand_dims(rest, -1) <= radius - axes[-1]


class GridSynthesizer:
    """Real-basis fields on a product grid, summed one axis at a time.

    Axis a of the grid holds counts[a] points y_a = j / period (j < counts[a]),
    and each mode has a key, an integer vector with key.y = k.x at every grid
    point, so that the mode reads e^(2 pi i key.y) there: grid_synthesizer
    gives the plain grid (key k), rule_synthesizer the points of the rank-2
    lattice rule. With h_0 = a_0 and h_k = sqrt(2) (c_k - i s_k) on the
    positive representatives, a field is Re sum_k h_k e^(2 pi i key.y), and on
    a product grid that sum factors by axis. A mode whose key has a negative
    first nonzero coordinate is summed as its conjugate, key -key and its
    sine column negated, and the modes are taken in key order, so every run
    sharing a key prefix is contiguous; __call__ gathers the amplitude rows
    into that order unless it is the mode_labels order.

    The first stage contracts the last key coordinate: every run of modes
    sharing the prefix before it meets its own columns of the axis matrix
    e^(2 pi i key y), with the sqrt(2) and the sign of h folded in. Each later
    stage contracts the next axis the same way, per run of the prefix before
    it, and the last keeps only the real part. Complex values travel as a
    (re, im) row pair, so every product is a plain 2-D real GEMM with the
    fields along its columns: on the plain grid at d = 2, N = 16, M = 33 about
    73k multiply-adds per field, where the dense synthesis_matrix product
    takes 594k.
    """

    def __init__(self, keys, counts: tuple[int, ...], period: int):
        """keys: one per mode, the constant mode's (all zero) first, then the
        positive representatives in mode_labels order; counts: the points per
        axis."""
        self.shape = tuple(counts)
        conj = [next((c < 0 for c in key if c), False) for key in keys]
        keys = [tuple(-c if neg else c for c in key) for key, neg in zip(keys, conj)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # amplitude rows of mode i: the constant mode's one, then (c, s)
        perm = [r for i in order for r in ((0,) if i == 0 else (2 * i - 1, 2 * i))]
        self._perm = None if perm == sorted(perm) else np.array(perm)
        N = max(abs(c) for key in keys for c in key)
        root2 = math.sqrt(2.0)
        runs = [(keys[i], conj[i]) for i in order]
        # per stage, the points of its axis and (rows of the state, matrix) per run
        self._stages = []
        for axis in range(len(counts) - 1, -1, -1):
            first, n = axis == len(counts) - 1, counts[axis]
            mix = _axis_matrix(n, N, period)
            if not axis:
                mix = mix[:n]  # the last stage keeps the real part
            stage, lo = [], 0
            for _, run in groupby(runs, key=lambda r: r[0][:axis]):
                cols, scale = [], []
                for key, neg in run:
                    c = 2 * (key[axis] + N)  # the column pair (key, re/im) of mix
                    if first and not any(key):  # h_0 = a_0, real
                        cols.append(c)
                        scale.append(1.0)
                    else:  # a (re, im) row pair; in the first stage (c_k, s_k)
                        cols += [c, c + 1]
                        scale += [root2, root2 if neg else -root2] if first else [1.0, 1.0]
                # take keeps C order: BLAS sums a Fortran-ordered operand in another order
                stage.append((slice(lo, lo + len(cols)), mix.take(cols, axis=1) * scale))
                lo += len(cols)
            self._stages.append((n, stage))
            runs = [(key, False) for key in dict.fromkeys(key[:axis] for key, _ in runs)]

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        """Values of the fields with amplitude columns amps (mode_labels order),
        shape (prod(shape), nfields): grid points in C order, one column per
        field."""
        if self._perm is not None:
            amps = amps[self._perm]  # the modes in key order, as one contiguous block
        nfields = amps.shape[1]
        state, rest = amps, nfields
        # state rows: (key_1, ..., key_j, re/im); columns: (y_(j+1), ..., y_d, field)
        for n, runs in self._stages:
            out = np.empty((len(runs), runs[0][1].shape[0], rest))
            for g, (rows, mat) in enumerate(runs):
                np.matmul(mat, state[rows], out=out[g])
            rest *= n
            state = out.reshape(-1, rest)
        return state.reshape(-1, nfields)


def _axis_matrix(n: int, N: int, period: int) -> np.ndarray:
    """e^(i theta), theta = 2 pi k j / period, as a real matrix: rows (re/im,
    j) for j < n, columns (k, re/im) for |k| <= N, one complex multiply per
    column pair."""
    # jk reduced mod period exactly first
    theta = TWO_PI * (np.outer(np.arange(n), np.arange(-N, N + 1)) % period) / period
    cos, sin = np.cos(theta), np.sin(theta)
    return np.concatenate([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)]).reshape(2 * n, -1)


@lru_cache(maxsize=None, typed=True)  # one per (d, N, M)
def grid_synthesizer(d: int, N: int, M: int) -> GridSynthesizer:
    """The GridSynthesizer of the uniform M^d grid j/M: keys k, period M,
    points in the C order of grid_points(d, M), the layout of
    synthesis_matrix(lattice, grid_points(d, M)) @ amps."""
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    lat = _lattice(d, N)
    return GridSynthesizer([(0,) * d] + lat.positive_modes(), (M,) * d, M)


@lru_cache(maxsize=None, typed=True)  # one per (d, N, M)
def rule_synthesizer(d: int, N: int, M: int) -> GridSynthesizer:
    """The GridSynthesizer of all 2M^d points of the rank-2 lattice rule of
    size M, the grids j/M and (j + 1/2)/M together, on the rotated product
    grid of lattice_rule_size: keys (sigma, sigma - 2 k_2, ..., sigma - 2 k_d)
    with sigma = k_1 + ... + k_d, period 2M, 2M points on the first axis and
    M on each other. At d = 1 that is the plain grid j/2M.
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    lat = _lattice(d, N)
    keys = []
    for k in [(0,) * d] + lat.positive_modes():
        total = sum(k)
        keys.append((total,) + tuple(total - 2 * c for c in k[1:]))
    return GridSynthesizer(keys, (2 * M,) + (M,) * (d - 1), 2 * M)


def amplitude_weights(lattice: ModeLattice, exponent: float) -> np.ndarray:
    """lambda_k^(-exponent) per real-basis amplitude, in mode_labels order."""
    keys = np.array([k for k, _ in mode_labels(lattice)]).reshape(-1, lattice.d)
    return _weights_by_norm2(lattice.d, exponent, (keys * keys).sum(axis=1))


def batch_amplitudes(
    lattice: ModeLattice, profile: SpectralProfile, nsamples: int, seed
) -> np.ndarray:
    """Weighted amplitudes for nsamples fields, shape (nmodes, nsamples).

    Column j is an independent field; the draw order is the fixed label order,
    so results are deterministic under the seed (an int or a SeedSequence).
    """
    weights = amplitude_weights(lattice, profile.exponent)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((len(weights), nsamples))
    z *= weights[:, None]  # in place: the draws are not needed again
    return z


def _check_samples(samples: int, seed: int = 0) -> None:
    """Raise ValueError naming the first of samples and seed that the Monte
    Carlo estimators refuse: a non-integer or bool, samples < 2 (no standard
    error) or seed < 0. Each estimator runs it before it draws; _mc_blocks,
    which draws nothing, leaves seed at 0."""
    for name, value in (("samples", samples), ("seed", seed)):
        # a bool is an int to Python, but True is no count or seed
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2 for a standard error, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _mc_blocks(samples: int, block: int, fill) -> tuple[float, float]:
    """Mean and std(ddof=1) / sqrt(samples) of the values fill(lo, out) writes
    into consecutive views of at most block entries of one vector."""
    _check_samples(samples)
    values = np.empty(samples)
    for lo in range(0, samples, block):
        fill(lo, values[lo : lo + block])
    values -= (mean := values.mean())
    np.square(values, out=values)  # numpy's std to the bit, without its temporary
    return float(mean), math.sqrt(values.sum() / (samples - 1)) / math.sqrt(samples)


# ---------------------------------------------------------------------------
# exact lattice convolutions


def _smooth_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a length pocketfft transforms without
    falling back to Bluestein's algorithm."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def convolve_cubes(*cubes: np.ndarray) -> np.ndarray:
    """Exact linear convolution of any number of centered cubes via FFT.

    young_sum_check reads its constrained sums from it, and the tests hold
    convolution_window and constant_term against it; the valuation does not
    call it. It needs no symmetry of its inputs and no l1 support, and it
    returns the whole convolution: n_out = (sum of the input sides) - (n - 1)
    per axis, with the transforms on the smallest 5-smooth length that holds
    n_out, so no output entry wraps around.
    Inputs are matched by identity: each distinct array is transformed once
    and its spectrum raised to its multiplicity, so an m-fold bundle of one
    cube costs one forward and one inverse transform. The spectra are
    multiplied into one accumulator in place, so at most two padded spectra
    are alive at once. No input is written to.
    """
    if not cubes:
        raise ValueError("need at least one cube")
    out_shape = tuple(sum(sides) - (len(cubes) - 1) for sides in zip(*(c.shape for c in cubes)))
    fft_shape = tuple(_smooth_len(n) for n in out_shape)
    axes = tuple(range(len(out_shape)))
    distinct = {id(cube): cube for cube in cubes}
    mults = Counter(id(cube) for cube in cubes)
    acc = None
    for key, cube in distinct.items():
        spec = np.fft.rfftn(cube, fft_shape, axes=axes)
        if mults[key] > 1:
            np.power(spec, mults[key], out=spec)
        if acc is None:
            acc = spec
        else:
            acc *= spec
        del spec  # free it before the next forward transform allocates
    out = np.fft.irfftn(acc, fft_shape, axes=axes)
    return out[tuple(slice(0, n) for n in out_shape)]


def wick_integral_variance(d: int, N: int, n: int) -> float:
    """n! * sum over k_1+...+k_n = 0 (each k_i in K_N) of prod 1/lambda_{k_i}.

    This is the variance of integral :field^n: for the truncated free field,
    computed as the constant term of the n-th power of the inverse weights'
    trigonometric polynomial (constant_term).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    weights = inverse_weight_ball(d, N, 1.0)
    return math.factorial(n) * constant_term(*[weights] * n)


def young_sum_check(d: int, n: int, m: int, kmax: int, truncation: int | None = None):
    """Constrained sum sum_{k1+k2=k} ||k1||^-n ||k2||^-m against C ||k||^-(n+m-d).

    Requires d > n, m > 0 and n + m > d (the admissible range of the
    inequality). Returns a list of (k, sum, witness constant) over 0 < ||k||
    <= kmax plus the running sup of the witness; the tests assert the sup is
    stable under doubling kmax.
    """
    if not (d > n > 0 and d > m > 0):
        raise ValueError("need d > n > 0 and d > m > 0")
    if n + m <= d:
        raise ValueError("need n + m > d")
    if truncation is None:
        truncation = 6 * kmax + 8
    # the convolution holds k1 + k2 only for |k_j| <= 2 * truncation
    if truncation < 0 or 2 * truncation < kmax:
        raise ValueError(f"truncation must be >= 0 and >= kmax / 2 = {kmax / 2}, got {truncation}")
    ks = [
        k
        for k in _l1_ball(d, kmax)
        if any(k) and math.sqrt(sum(c * c for c in k)) <= kmax
    ]
    norm = np.sqrt(sum(a * a for a in np.ix_(*[np.arange(-truncation, truncation + 1)] * d)))
    with np.errstate(divide="ignore"):
        inv_n = np.where(norm > 0, norm ** (-float(n)), 0.0)
        inv_m = np.where(norm > 0, norm ** (-float(m)), 0.0)
    # the sum over k1 + k2 = k with both in the window, centred at 2 * truncation
    conv = convolve_cubes(inv_n, inv_m)
    rows = []
    sup = 0.0
    for k in ks:
        total = float(conv[tuple(2 * truncation + c for c in k)])
        nk = math.sqrt(sum(c * c for c in k))
        witness = total * nk ** (n + m - d)
        sup = max(sup, witness)
        rows.append((k, total, witness))
    return rows, sup


def gff1_increment_variance(x: float, y: float, N: int) -> float:
    """E[(field(y) - field(x))^2] for the truncated 1-d free field, exactly.

    Equals sum over K_N of 4 sin^2(pi k (y - x)) / lambda_k; scales like |y-x|.
    """
    lat = _lattice(1, N)
    dx = y - x
    return math.fsum(
        4.0 * math.sin(math.pi * k[0] * dx) ** 2 / float(lat.lam(k))
        for k in lat.modes
    )


# ---------------------------------------------------------------------------
# sample export


def write_sample(sample: FieldSample, path: str, grid: int) -> None:
    """One file: a JSON header line, then CSV rows of the grid values.

    Reruns with the same (lattice, profile, seed, grid) are byte-identical.
    """
    header = {
        "schema": 1,
        "d": sample.lattice.d,
        "N": sample.lattice.N,
        "profile": sample.profile.kind,
        "s": sample.profile.s,
        "seed": sample.seed,
        "grid": grid,
    }
    values = sample.evaluate_grid(grid)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        flat = values.reshape(-1, values.shape[-1]) if sample.lattice.d > 1 else values.reshape(1, -1)
        for row in flat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_sample_header(path: str) -> dict:
    with open(path) as fh:
        return json.loads(fh.readline())
