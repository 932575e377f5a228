"""The lattice sums with every weight a dense box, as they were before
torusfield's reads took their weights as Balls (entries on the l1 ball).

The box route of each read: constant_term (two cubes by slab_dot on their
common box, cut by crop, more by convolution_window at radius 0),
cosine_sum over the ball of a box, convolution_window on boxes,
grid_values, which masks the whole cube to its l1 ball and folds it into a
(2, M^d) pair of real grids before the transform, and the readers built on
them (wick_integral_variance, weight_sum, green_truncated, external_value),
all from torusfield.inverse_weight_cube.

DenseWeight is feynman._Weight with no packing: each node keeps every
window it computes as a box (grid_window, with the entries the box holds
off its l1 ball), a centre read of two strands multiplies dense slabs
(slab_dot), and a series product multiplies its parts' boxes. valuate
reduces a connected class with feynman's reducer, which only records its
moves, rebuilds the recorded nodes as DenseWeight nodes (shared where the
reducer shares them) and reads them. A K4 core goes to feynman._valuate_k4,
which reads F_cd as a Ball (DenseWeight._kept packs the box's ball) and
its grid values from the package's _grid_values; the tests hold that to
grid_values here bit for bit. The tests hold the package to this
reference by float.hex. Nothing here is called by the package.
"""

from __future__ import annotations

import math

import numpy as np

from wickworks import feynman as fy
from wickworks.torusfield import (
    TWO_PI,
    Ball,
    _fold,
    _half_cell,
    _halves,
    _l1_mask,
    _separate,
    _smooth_len,
    _symmetric,
    _untwisted,
    as_point,
    inverse_weight_cube,
    lattice_rule_size,
)


def crop(cube: np.ndarray, radius: int, target: int) -> np.ndarray:
    """The central box of radius target of a centred cube of the given radius."""
    if radius == target:
        return cube
    sl = slice(radius - target, radius + target + 1)
    return cube[tuple(sl for _ in range(cube.ndim))]


def slab_dot(slab_a, slab_b, r: int) -> float:
    """sum over k of a(k) b(-k) on the centered box of radius r, where
    slab_a(r, i) and slab_b(r, i) give slab i along the first axis of a and
    b on that box: slab i of a meets slab 2r - i of b reversed, each pair's
    product summed pairwise and the slab sums by math.fsum."""
    return math.fsum(
        [float(np.sum(slab_a(r, i) * np.flip(slab_b(r, 2 * r - i)))) for i in range(2 * r + 1)]
    )


def constant_term(*cubes: np.ndarray) -> float:
    """torusfield.constant_term on dense cubes: two by slab_dot on their
    common box, whatever their symmetry and support, more by
    convolution_window at radius 0."""
    if len(cubes) == 2:
        r = min(c.shape[0] // 2 for c in cubes)
        a, b = (crop(c, c.shape[0] // 2, r) for c in cubes)
        return slab_dot(lambda _, i: a[i], lambda _, i: b[i], r)
    return convolution_window(*cubes, radius=0).item()


def cosine_sum(cube: np.ndarray, x) -> float:
    """torusfield.cosine_sum on a dense cube: cube * cos(2 pi k.x) over the
    whole box, the phase summed axis by axis, then its ball by math.fsum."""
    d, R = cube.ndim, cube.shape[0] // 2
    xs = as_point(x, d)
    phase = sum(k * xi for k, xi in zip(np.ix_(*[np.arange(-R, R + 1)] * d), xs))
    return math.fsum((cube * np.cos(TWO_PI * phase))[_l1_mask(d, R)].tolist())


def weight_sum(d: int, N: int, s: float) -> float:
    """The fsum of lambda_k^(-s) over the box of inverse_weight_cube, zero
    off K_N: c_variance at s = 1, sobolev_sum and variance_target."""
    return math.fsum(inverse_weight_cube(d, N, s).ravel().tolist())


def green_truncated(x, d: int, N: int) -> float:
    return cosine_sum(inverse_weight_cube(d, N, 1.0), x)


def wick_integral_variance(d: int, N: int, n: int) -> float:
    cube = inverse_weight_cube(d, N, 1.0)
    return math.factorial(n) * constant_term(*[cube] * n)


def external_value(g: fy.Diagram, d, N: int, x, y) -> float:
    """phi4._external_value with the reduced x-y weight unpacked into its box."""
    dim, _ = fy._model(d)
    diff = tuple(a - b for a, b in zip(as_point(x, dim), as_point(y, dim)))
    scale, ball = fy._external_bundle(g, d, N)
    return scale * cosine_sum(ball.box(), diff)


def check_even(cube: np.ndarray) -> None:
    """torusfield._check_even on a dense cube."""
    if not _symmetric(cube, np.flip(cube)):
        raise ValueError(f"a cube of shape {cube.shape} is not even under k -> -k")


def grid_values(cube: np.ndarray, M: int) -> np.ndarray:
    """torusfield._grid_values on a dense cube, masked to its l1 ball (what
    it holds off the ball is dropped) and folded whole at once into two
    real grids, then twisted into a new complex array."""
    dim, R = cube.ndim, cube.shape[0] // 2
    folds = np.zeros((2,) + (M,) * dim)
    _fold(cube * _l1_mask(dim, R), [-R] * dim, folds)
    half = _half_cell(M)
    out = np.multiply(folds[1], (1j * half).reshape((M,) + (1,) * (dim - 1)))
    for axis in range(1, dim):
        out *= half.reshape((M,) + (1,) * (dim - 1 - axis))
    out.real += folds[0]
    return np.fft.fftn(out, out=out)


def grid_window(Y: np.ndarray, r: int, S: int) -> np.ndarray:
    """The box of radius r from Y = ifftn(P + iQ) (overwritten), separated
    and untwisted as torusfield._grid_ball does, with the box's entries
    beyond the support |k|_1 <= S set to 0."""
    _separate(Y)
    dim, M = Y.ndim, Y.shape[0]
    box = np.empty((2 * r + 1,) * dim)
    _untwisted(Y, [_halves(r, M)] * dim, box)
    k = np.abs(np.arange(-r, r + 1))
    box[sum(np.ix_(*[k] * dim)) > S] = 0.0
    return box


def convolution_window(*cubes: np.ndarray, radius: int) -> np.ndarray:
    """torusfield.convolution_window on dense cubes with grid_values, every
    window a box."""
    dim = cubes[0].ndim
    S = sum(c.shape[0] // 2 for c in cubes)
    M = _smooth_len(lattice_rule_size(S + min(dim * radius, S)))
    acc = None
    for c in {id(c): c for c in cubes}.values():
        check_even(c)
        grids = grid_values(c, M)
        mult = sum(x is c for x in cubes)
        if mult > 1:
            np.power(grids.real, mult, out=grids.real)
            np.power(grids.imag, mult, out=grids.imag)
        if acc is None:
            acc = grids
        else:
            np.multiply(acc.real, grids.real, out=acc.real)
            np.multiply(acc.imag, grids.imag, out=acc.imag)
    if radius == 0:
        return np.full((1,) * dim, (np.sum(acc.real) + np.sum(acc.imag)) / (2 * M**dim))
    return grid_window(np.fft.ifftn(acc, out=acc), radius, S)


class DenseWeight:
    """feynman._Weight with every window a box, kept per radius."""

    def __init__(self, cube, radius: int, move=None, parts=()):
        self.cube = cube
        self.radius = radius
        self.ndim = parts[0].ndim if cube is None else cube.ndim
        self.move = move
        self.parts = parts
        self._windows: dict = {}

    def window(self, r: int) -> np.ndarray:
        if r not in self._windows:
            self._windows[r] = self._compute_window(r)
        return self._windows[r]

    def _kept(self, r: int) -> Ball:
        """The window of radius r packed on its l1 ball, as the K4 core reads F_cd."""
        return Ball(self.window(r)[_l1_mask(self.ndim, r)], self.ndim, r)

    def slab(self, r: int, i: int) -> np.ndarray:
        if self.move != "series" or r in self._windows:
            return self.window(r)[i]
        a, b = self.parts
        return a.slab(r, i) * b.slab(r, i)

    def _compute_window(self, r: int) -> np.ndarray:
        if self.move is None:
            return crop(self.cube, self.radius, r)
        if self.move == "series":
            a, b = self.parts
            return a.window(r) * b.window(r)
        total = self.radius
        radii = [min(w.radius, r + total - w.radius) for w in self.parts]
        if r == 0 and len(self.parts) == 2:
            (ri, _), (a, b) = radii, self.parts
            return np.full((1,) * self.ndim, slab_dot(a.slab, b.slab, ri))
        strands = [w.window(ri) for w, ri in zip(self.parts, radii)]
        return convolution_window(*strands, radius=r)

    def center(self) -> float:
        return self.window(0).item()


def _dense(w, made: dict) -> DenseWeight:
    """The DenseWeight of a recorded feynman._Weight node, one per node."""
    if id(w) not in made:
        parts = tuple(_dense(p, made) for p in w.parts)
        cube = None if w.cube is None else w.cube.box()
        made[id(w)] = DenseWeight(cube, w.radius, w.move, parts)
    return made[id(w)]


def valuate(g: fy.Diagram, d, N: int) -> float:
    """feynman._valuate_connected's value of the connected class g, read
    from dense nodes."""
    dim, s = fy._model(d)
    base = fy._Weight(fy._base_weight(dim, N, s), N)
    nodes: dict = {}
    lines = {pair: base if m == 1 else fy._Weight.bundle([base] * m, nodes) for pair, m in g.edges}
    pendants = fy._reduce_series_parallel(lines, nodes)
    made: dict = {}
    factor = 1.0
    for w in pendants:
        factor *= _dense(w, made).center()
    lines = {pair: _dense(w, made) for pair, w in lines.items()}
    if len(lines) == 1:
        (w,) = lines.values()
        return factor * w.center()
    return factor * fy._valuate_k4(lines)
