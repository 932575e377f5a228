"""Acceptance suite: the package's headline guarantees, one test each.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. Exactness claims are asserted in exact rational arithmetic;
Monte Carlo claims use fixed seeds and four-sigma bands.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from wickworks import feynman as fy
from wickworks import phi4, polyalg
from wickworks.chaos import (
    ChaosElement,
    MultiIndex,
    chaos_multiply,
    mehler_mc,
    moment_equivalence_report,
)
from wickworks.cumulants import (
    Functional,
    RingElem,
    cumulants_from_moments,
    incomplete_bell,
    moments_from_cumulants,
)
from wickworks.feynman import (
    DiagramSum,
    banana,
    bphz_valuate,
    double_triangle,
    single_edge,
    sunset_with_tail,
    valuate,
    valuate_position_mc,
)
from wickworks.pairings import CovMatrix, MultivarPoly, ibp_check, isserlis_moment
from wickworks.phi4 import (
    ThresholdReport,
    log_partition_series,
    mc_partition_ratio,
    partition_ratio_series,
    thresholds,
    wick_map_commutativity_check,
)
from wickworks.torusfield import c_variance, wick_integral_variance

import hopf_reference

TABLE_ROWS = {
    0: [1],
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
    6: [-15, 0, 45, 0, -15, 0, 1],
    7: [0, -105, 0, 105, 0, -21, 0, 1],
    8: [105, 0, -420, 0, 210, 0, -28, 0, 1],
}


def test_criterion_01_hermite_triple_route():
    start = time.time()
    for n in range(21):
        h = polyalg.hermite(n)
        assert polyalg.hermite_explicit(n) == h
        assert polyalg.gram_schmidt_hermite(n) == h
    for n, coeffs in TABLE_ROWS.items():
        assert h_equal(polyalg.hermite(n), coeffs)
    # the printed table's rows 9 and 10 are typos; the recurrence output is
    # x^9 - 36x^7 + 378x^5 - 1260x^3 + 945x and ... + 4725x^2 - 945
    assert polyalg.hermite(9).coefficient(1) == 945
    assert polyalg.hermite(10).coefficient(2) == 4725
    assert time.time() - start < 5.0


def h_equal(poly, coeffs):
    return list(poly.coeffs) == [Fraction(c) for c in coeffs]


def test_criterion_02_orthogonality():
    start = time.time()
    for n in range(13):
        hn = polyalg.hermite(n)
        for m in range(13):
            e = polyalg.gaussian_expectation(hn * polyalg.hermite(m))
            assert e == (factorial(n) if n == m else 0)
    assert time.time() - start < 5.0


def test_criterion_03_product_sum_44():
    assert polyalg.hermite_product(4, 4) == {8: 1, 6: 16, 4: 72, 2: 96, 0: 24}


def test_criterion_04_leonov_shiryaev_roundtrip():
    rng = random.Random(941)
    for _ in range(100):
        vals = [Fraction(0)] + [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(10)
        ]
        kappa = Functional(vals)
        mu = moments_from_cumulants(kappa)
        assert cumulants_from_moments(mu) == kappa
    mu = moments_from_cumulants(Functional.gaussian_cumulants(12))
    for k in range(7):
        double_fact = Fraction(factorial(2 * k), factorial(k) * 2**k)
        assert mu(2 * k) == double_fact == polyalg.double_factorial(2 * k - 1)


def test_criterion_05_isserlis_and_ibp():
    sym = {
        (i, j): RingElem.symbol(f"c{min(i, j)}{max(i, j)}")
        for i in range(4)
        for j in range(4)
    }
    C = CovMatrix([[sym[(i, j)] for j in range(4)] for i in range(4)])
    got = isserlis_moment(C, [0, 1, 2, 3])
    want = (
        sym[(0, 1)] * sym[(2, 3)]
        + sym[(0, 2)] * sym[(1, 3)]
        + sym[(0, 3)] * sym[(1, 2)]
    )
    assert got == want

    rng = random.Random(955)
    for _ in range(50):
        nvars = rng.randint(2, 3)
        entries = [[Fraction(0)] * nvars for _ in range(nvars)]
        for i in range(nvars):
            for j in range(i, nvars):
                entries[i][j] = entries[j][i] = Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
        cov = CovMatrix(entries)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            expo = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(expo) <= 5:
                terms[expo] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = MultivarPoly(nvars, terms)
        i = rng.randrange(nvars)
        lhs, rhs = ibp_check(cov, i, p)
        assert lhs == rhs


def test_criterion_06_chaos_route_equality():
    start = time.time()
    dims = 3
    lattice = [
        MultiIndex(dict(zip(range(dims), combo)))
        for combo in itertools.product(range(5), repeat=dims)
        if sum(combo) <= 4
    ]
    assert len(lattice) == 35
    for k1 in lattice:
        F = ChaosElement(dims, {k1: Fraction(2, 3)})
        for k2 in lattice:
            G = ChaosElement(dims, {k2: Fraction(-3, 2)})
            assert chaos_multiply(F, G, "direct") == chaos_multiply(
                F, G, "contraction"
            ), (k1, k2)
    assert time.time() - start < 60.0


def test_criterion_07_equivalence_of_moments():
    rng = random.Random(977)
    pools = {
        n: [
            MultiIndex(dict(zip(range(3), combo)))
            for combo in itertools.product(range(n + 1), repeat=3)
            if sum(combo) == n
        ]
        for n in (1, 2, 3)
    }
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        support = rng.sample(pools[n], min(3, len(pools[n])))
        F = ChaosElement(
            3, {k: Fraction(rng.randint(-3, 3)) for k in support}
        )
        if not F.coeffs:
            continue
        p = rng.choice([2, 3])
        lhs, rhs = moment_equivalence_report(F, p)
        assert lhs <= rhs


def test_criterion_08_ou_mehler():
    start = time.time()
    tests = [
        MultivarPoly(1, {(3,): 1, (1,): -3}),  # H3
        MultivarPoly(1, {(4,): 1}),            # X^4
        MultivarPoly(2, {(2, 1): 1}),          # X1^2 X2
    ]
    for t in (0.25, 1.0):
        for i, poly in enumerate(tests):
            est, se, ref = mehler_mc(poly, t, samples=100_000, seed=800 + i)
            for e, s, r in zip(est, se, ref):
                assert abs(e - r) <= 4 * s, (t, i)
    assert time.time() - start < 30.0


def test_criterion_09_variance_log_law_d2():
    target = math.log(2.0) / (2.0 * math.pi)
    diff = c_variance(2, 256) - c_variance(2, 128)
    assert abs(diff - target) / target < 0.05


def test_criterion_10_uniform_wick_variance_bound_d2():
    for n in (2, 3, 4):
        ladder = [wick_integral_variance(2, N, n) for N in (16, 32, 64, 128)]
        assert all(b > a for a, b in zip(ladder, ladder[1:])), n
        assert ladder[-1] - ladder[-2] < 0.02 * ladder[-1], n


def test_criterion_11_feynman_coefficients():
    assert fy.generate_diagrams([4, 4]).terms == {banana(4): Fraction(24)}
    three = fy.generate_diagrams([4, 4, 4]).filter_connected()
    assert three.terms == {double_triangle(): Fraction(1728)}
    series = partition_ratio_series(1, 4, 3)
    assert series.coefficient(2).rational_parts() == {banana(4): Fraction(12)}
    parts3 = series.coefficient(3).rational_parts()
    assert set(parts3) == {double_triangle()}
    # 1728/3! = 288 exactly; the (-alpha)^3 bookkeeping makes the signed
    # coefficient negative while the displayed magnitude is 288
    assert abs(parts3[double_triangle()]) == Fraction(288)
    assert Fraction(24, 2) == 12 and Fraction(1728, 6) == 288


def test_criterion_12_momentum_vs_position_mc():
    assert valuate(single_edge(), 1, 8) == 1.0
    for g in (single_edge(), banana(4), double_triangle()):
        target = valuate(g, 1, 8)
        est, se = valuate_position_mc(g, 1, 8, samples=100_000, seed=1200)
        assert abs(est - target) <= 4 * se, g


def test_criterion_13_linked_cluster():
    for order in (2, 3, 4):
        a = log_partition_series(1, 2, order, route="connected")
        b = log_partition_series(1, 2, order, route="logstar")
        for n in range(order + 1):
            assert a.coefficient(n).diagrams == b.coefficient(n).diagrams
    full4 = phi4._quartic_diagrams(4)
    disc = full4 - full4.filter_connected()
    assert disc == DiagramSum.of(
        banana(4).disjoint_union(banana(4)), 3 * 24 * 24
    )


def test_criterion_14_degrees_and_weinberg():
    assert fy.degree_coeffs(banana(3)) == (6, -2)
    assert fy.degree_coeffs(sunset_with_tail()) == (10, -3)
    families = phi4.minimal_subdivergence_families(4)
    assert [fy.degree_coeffs(g) for g in families[2]] == [(6, -2)]
    assert all(fy.degree_coeffs(g) == (10, -3) for g in families[3])
    assert all(fy.degree_coeffs(g) == (14, -4) for g in families[4])
    for arities in ([4, 4], [4, 4, 4]):
        for g in fy.generate_diagrams(arities).terms:
            for comp in fy.connected_components(g):
                assert fy.weinberg_check(comp, 1)


def test_criterion_15_bphz():
    # the bubble dies identically under BPHZ at d = 3, on both pipelines
    for N in (4, 8, 16, 32):
        assert bphz_valuate(banana(3), 3, N) == 0.0
        assert hopf_reference.bphz_valuate(banana(3), 3, N, route="lemma") == 0.0
    # the tailed sunset keeps growing with the cutoff (its true divergence is
    # logarithmic; at these weights the log coefficient is ~ (2 pi)^-9, so
    # only the monotone growth is visible at desk-scale N) ...
    ladder = {N: valuate(sunset_with_tail(), 3, N) for N in (4, 8, 16, 32)}
    values = [ladder[N] for N in (4, 8, 16, 32)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # ... while the renormalized value stabilizes: N = 16 -> 32 moves < 10%
    b16 = bphz_valuate(sunset_with_tail(), 3, 16)
    b32 = bphz_valuate(sunset_with_tail(), 3, 32)
    assert abs(b32 - b16) < 0.10 * abs(b32)


def test_criterion_16_phi43_commutativity():
    report = wick_map_commutativity_check(8, order=4)
    for row in report:
        if row["n"] <= 3:
            assert abs(row["mixed_route"]) < 1e-10
            assert abs(row["bphz_route"]) < 1e-10
        else:
            assert row["relative"] < 1e-8


def test_criterion_17_mc_asymptotics():
    # d = 1: single Gevrey-type constant C across all alphas
    series = partition_ratio_series(1, 8, 3)
    c4 = fy.valuate_sum(phi4._quartic_diagrams(4), 1, 8) / 24.0
    C = 1.25 * c4
    for alpha in (0.02, 0.05, 0.1):
        est, se = mc_partition_ratio(1, 8, alpha, samples=100_000, seed=1700)
        diff = abs(est - series.value_at(alpha))
        assert diff <= max(4 * se, C * alpha**4), alpha
    # d = 2: estimates bounded and stable across cutoffs (Nelson spot check)
    estimates = []
    for N in (8, 16):
        est, se = mc_partition_ratio(2, N, 0.05, samples=10_000, seed=1701)
        assert 0.0 < est < 2.0
        estimates.append((est, se))
    (e1, s1), (e2, s2) = estimates
    assert abs(e2 - e1) <= 4 * math.hypot(s1, s2)


def test_criterion_18_thresholds_and_bell():
    assert ThresholdReport.d_star_m(2) == 3
    assert ThresholdReport.d_star_m(3) == Fraction(10, 3)
    assert ThresholdReport.d_star_m(4) == Fraction(7, 2)
    t = thresholds(3)
    assert (t.n_star_e, t.n_star_m) == (3, 2)
    x, y2, y3 = (RingElem.symbol(s) for s in ("x", "y2", "y3"))
    assert incomplete_bell(5, 3) == x * y2 * y2 * 15 + x * x * y3 * 10
