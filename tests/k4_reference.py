"""The K4 core as it was evaluated before orbits were paired: one packed
block A_p + i B_p, one fold and one transform per outer-momentum orbit.

It needs no node shared between the core's lines, so it valuates any
six-line core whose weights have the hyperoctahedral symmetry. The tests
hold feynman._valuate_k4, which packs two orbits per transform, to it.
Nothing here is called by the package.
"""

from __future__ import annotations

import numpy as np

from wickworks.feynman import _box, _check_hyperoctahedral, _extent, _orbits, _overlap
from wickworks.torusfield import (
    _fold,
    _grid_values,
    _half_cell,
    _offset_phase,
    _smooth_len,
    lattice_rule_size,
)


def _packed_rule_mean(block: np.ndarray, offsets, f: np.ndarray, out: np.ndarray) -> float:
    """4 M^d times the two-grid mean of a b f, for the packed block A + i B
    of two real blocks; out is a complex (2, M, ..., M) buffer, overwritten.

    block[i] holds the coefficients A(lo_A + i) + i B(lo_B + i), offsets the
    sums lo_A + lo_B of the two blocks' lower corners, and f the real, even
    polynomial to weigh by on the plain (f[0]) and the half-cell grid
    (f[1]). Row g of Z, the block's transform, is sum_i block[i]
    exp(-2 pi i i.x_j), x_j = (j + g/2)/M. With a and b (Z(x) + conj
    Z(-x))/2 and (Z(x) - conj Z(-x))/2i up to their offset phases, the sum
    of a b f over a grid is Im sum_x psi(x) Z(x)^2 f(x) / 2, psi =
    exp(-2 pi i (lo_A + lo_B).x), contracted one axis at a time.
    """
    dim, M = block.ndim, out.shape[-1]
    out.fill(0)
    _fold(block, [0] * dim, out)
    for axis in range(dim):
        out[1] *= _half_cell(M).reshape((M,) + (1,) * (dim - 1 - axis))
    np.fft.fftn(out, axes=tuple(range(1, dim + 1)), out=out)
    np.square(out, out=out)
    out *= f
    T = out
    for t in reversed(offsets):
        T = np.matmul(T.reshape(2, -1, M), _offset_phase(t, M)[:, :, None])
    return float(T.sum().imag)


def valuate_k4(lines: dict) -> float:
    """The six-line core of feynman._reduce_series_parallel, summed over the
    outer momentum p one orbit at a time: V_p = sum_{q,r} A_p(q) B_p(r)
    F_cd(q + r), A_p(q) = F_ac(q) F_ad(p + q), B_p(r) = F_bc(r) F_bd(r - p),
    read as the two-grid mean of a_p b_p f."""
    a, b = min(lines, key=lambda pair: lines[pair].radius)
    c, dd = sorted({v for pair in lines for v in pair} - {a, b})
    ab, ac, ad, bc, bd, cd = (
        lines[(min(x, y), max(x, y))]
        for x, y in ((a, b), (a, c), (a, dd), (b, c), (b, dd), (c, dd))
    )
    R_ab, R_ac, R_ad, R_bc, R_bd = (w.radius for w in (ab, ac, ad, bc, bd))
    r = min(R_ac + R_bc, cd.radius)
    F_ab, F_ac, F_ad, F_bc, F_bd = (w._kept(w.radius).box() for w in (ab, ac, ad, bc, bd))
    F_cd = cd._kept(r)  # a Ball, as the grids read it
    for cube in (F_ab, F_ac, F_ad, F_bc, F_bd, F_cd.box()):
        _check_hyperoctahedral(cube)
    dim = F_ab.ndim
    M = _smooth_len(lattice_rule_size(R_ac + R_bc + r))
    f = _grid_values(F_cd, M)
    f = np.stack((f.real, f.imag))
    side = 2 * max(min(R_ac, R_ad), min(R_bc, R_bd)) + 1
    block = np.empty((side,) * dim, complex)
    spec = np.empty((2,) + (M,) * dim, complex)
    total = 0.0
    for p, size in _orbits(dim, R_ab):
        wp = float(F_ab[tuple(t + R_ab for t in p)])
        if wp == 0.0:
            continue
        box_a = [_overlap(R_ac, R_ad, -t) for t in p]
        box_b = [_overlap(R_bc, R_bd, t) for t in p]
        block.fill(0)
        np.multiply(_box(F_ac, box_a), _box(F_ad, box_a, p), out=block.real[_extent(box_a)])
        minus_p = [-t for t in p]
        np.multiply(_box(F_bc, box_b), _box(F_bd, box_b, minus_p), out=block.imag[_extent(box_b)])
        offsets = [la + lb for (la, _), (lb, _) in zip(box_a, box_b)]
        total += size * wp * _packed_rule_mean(block, offsets, f, spec)
    return total / (4 * M**dim)
