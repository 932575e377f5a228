"""phi4.mc_partition_ratio as one serial loop: each block drawn whole, then
synthesized chunk by chunk as strided column views of it.

The package draws the next block on a helper thread, in row slabs scattered
into tiles, and synthesizes contiguous chunks gathered from them; the tests
hold it to this loop bit for bit. Nothing here is called by the package.
"""

from __future__ import annotations

import math

import numpy as np

from wickworks import feynman as fy
from wickworks.phi4 import MC_BLOCK, _MC_CHUNK, check_mc_arguments, quartic_sum, wick4_mean
from wickworks.torusfield import (
    GFF,
    ModeLattice,
    _mc_blocks,
    batch_amplitudes,
    c_variance,
    lattice_rule_size,
    rule_synthesizer,
)


def mc_partition_ratio(d: int, N: int, alpha: float, samples: int, seed: int):
    """(estimate, stderr) of E[exp(-alpha integral :field^4:)], as the package
    computes it, from the same SeedSequence(seed).spawn stream."""
    check_mc_arguments(d, N, alpha, samples, seed)
    dim, _ = fy._model(d)
    lat = ModeLattice(dim, N)
    synth = rule_synthesizer(dim, N, lattice_rule_size(4 * N))
    cn = c_variance(dim, N)
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(samples / MC_BLOCK))

    def fill(lo, out):
        amps = batch_amplitudes(lat, GFF, len(out), seeds[lo // MC_BLOCK])
        for j in range(0, len(out), _MC_CHUNK):
            out[j : j + _MC_CHUNK] = quartic_sum(synth(amps[:, j : j + _MC_CHUNK]))
        x = wick4_mean(out, math.prod(synth.shape), np.einsum("ij,ij->j", amps, amps), cn)
        np.exp(-alpha * x, out=out)

    with np.errstate(over="ignore", invalid="ignore"):
        est, stderr = _mc_blocks(samples, MC_BLOCK, fill)
    if not (math.isfinite(est) and math.isfinite(stderr)):
        raise ValueError(f"alpha = {alpha} overflows exp(-alpha X) at d = {d}, N = {N}")
    return est, stderr
