import math
import re
import sys
import threading
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from wickworks import cumulants as cu
from wickworks import feynman as fy
from wickworks import phi4
from wickworks import torusfield as tf
from wickworks.chaos import mehler_mc
from wickworks.feynman import DiagramSum, banana, double_triangle, sunset_with_tail
from wickworks.pairings import MultivarPoly
from wickworks.phi4 import (
    counterterms_d3,
    divergent_families_at,
    exp_of_log_series,
    log_partition_series,
    mc_partition_ratio,
    minimal_subdivergence_families,
    partition_ratio_series,
    plain_phi41_moments,
    quartic_vertex_degree,
    thresholds,
    two_point_series,
    wick_map_commutativity_check,
)
from wickworks.torusfield import ModeLattice, c_variance, green_truncated

import dense_reference as dense_ref
import exact_reference as ref
import mc_reference


class TestPartitionSeries:
    def test_order0_and_1(self):
        s = partition_ratio_series(1, 6, 1)
        assert s.coefficient(0).value == 1.0
        assert s.coefficient(1).value == 0.0
        assert s.coefficient(1).diagrams == DiagramSum.zero()

    def test_order2_factor_is_12(self):
        s = partition_ratio_series(1, 6, 2)
        parts = s.coefficient(2).rational_parts()
        assert parts == {banana(4): Fraction(12)}
        assert s.coefficient(2).value == pytest.approx(
            12.0 * fy.valuate(banana(4), 1, 6), rel=1e-12
        )

    def test_order3_factor_is_minus_288(self):
        s = partition_ratio_series(1, 6, 3)
        parts = s.coefficient(3).rational_parts()
        assert parts == {double_triangle(): Fraction(-288)}
        # (-1)^3/3! * 1728 = -288: the displayed magnitude is 288
        assert abs(parts[double_triangle()]) == 288

    def test_d1_keeps_no_memory_that_grows_with_n(self):
        # the K4 core's first-axis phases, about 2N arrays of (2, M) with M
        # about 4N, once held 71.3 MB after this series at N = 1024 when they
        # were cached; with the class cache cleared, what stays is a few
        # small caches
        fy._valuate_cached.cache_clear()
        tracemalloc.start()
        try:
            partition_ratio_series(1, 1024, 4)
            fy._valuate_cached.cache_clear()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2e6

    def test_order4_series_peak_at_n24(self):
        # from cold caches; the K4 core writes each orbit pair straight into
        # its spectra: with a separate block of (2 N + 1)^3 complex, folded
        # into them, the traced peak was 12.7 MB
        for cache in (fy._valuate_cached, fy._base_weight, phi4._quartic_diagrams, tf._lattice,
                      tf._ball_starts, tf._half_cell, tf._l1_mask):
            cache.cache_clear()
        tracemalloc.start()
        try:
            partition_ratio_series(3, 24, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fy._valuate_cached.cache_clear()
        assert peak < 12.3e6

    def test_integral_float_dimension(self):
        # the caches key 1.0 and 1 alike: cleared, so the float runs
        fy._valuate_cached.cache_clear()
        fy._base_weight.cache_clear()
        got = partition_ratio_series(1.0, 4, 2)
        want = partition_ratio_series(1, 4, 2)
        assert [got.coefficient(n).value for n in range(3)] == [
            want.coefficient(n).value for n in range(3)
        ]

    def test_json_export(self):
        s = partition_ratio_series(1, 4, 2)
        blob = s.to_json()
        assert blob["order"] == 2
        assert blob["coefficients"][2]["prefactor"] == [1, 2]


_LEGENDRE = np.polynomial.legendre.leggauss(200)


def _gauss_legendre(a: float, b: float):
    """Nodes and weights of the 200-point Gauss-Legendre rule on [a, b]."""
    x, w = _LEGENDRE
    return (b - a) / 2 * x + (a + b) / 2, (b - a) / 2 * w


_green = np.vectorize(tf.green_exact_1d)


def exact_c2_d1() -> float:
    """The alpha^2 coefficient at d = 1, N = infinity: (1/2) 4! int G^4."""
    x, w = _gauss_legendre(0.0, 1.0)
    return 12.0 * float(w @ _green(x) ** 4)


def exact_c3_d1() -> float:
    """The alpha^3 coefficient at d = 1, N = infinity: -(1/6) 1728 int int
    G(x)^2 G(y)^2 G(x - y)^2, the inner integral split at y = x, where
    G(x - y) has its kink."""
    x, w = _gauss_legendre(0.0, 1.0)
    inner = []
    for xi in x:
        parts = [_gauss_legendre(a, b) for a, b in ((0.0, xi), (xi, 1.0))]
        inner.append(sum(float(wy @ (_green(y) ** 2 * _green(xi - y) ** 2)) for y, wy in parts))
    return -288.0 * float(w @ (_green(x) ** 2 * np.array(inner)))


class TestInfiniteCutoffD1:
    """At d = 1 the series converges to its N = infinity value as N^-3, with
    the exact Green function torusfield.green_exact_1d in every line."""

    def test_quadrature_matches_the_oscillator(self):
        # the second and third Dyson terms of the quartic oscillator on the
        # circle (ROADMAP item 16), an independent route to the same numbers
        assert exact_c2_d1() == pytest.approx(15.337657048583749, rel=1e-13)
        assert exact_c3_d1() == pytest.approx(-339.77474853108197, rel=1e-13)

    @pytest.mark.parametrize("series", [partition_ratio_series, log_partition_series])
    def test_richardson_limit(self, series):
        # c1 = 0, so the log series has the same second and third coefficients
        coarse, fine = series(1, 512, 3), series(1, 1024, 3)
        for n, want in ((2, exact_c2_d1()), (3, exact_c3_d1())):
            limit = (8 * fine.coefficient(n).value - coarse.coefficient(n).value) / 7
            assert limit == pytest.approx(want, rel=1e-11), n


class TestDimensionRule:
    @pytest.mark.parametrize("d", [5, 0.5, True])  # True is no dimension
    def test_entry_points_name_d(self, d):
        calls = {
            "partition ratio": lambda: partition_ratio_series(d, 2, 0),
            "log partition": lambda: log_partition_series(d, 2, 1),
            "two-point": lambda: two_point_series(d, 4, 2, 0.1, 0.2),
            "mass insertion": lambda: phi4.sigma_counterterm(d, 2, 2),
        }
        for call in calls.values():
            with pytest.raises(ValueError, match=f"got {d}$"):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda N: ModeLattice(1, N),
            lambda N: c_variance(1, N),
            lambda N: fy.valuate(banana(2), 1, N),
            lambda N: fy.valuate_position_mc(banana(2), 1, N, 10, 1),
            lambda N: partition_ratio_series(1, N, 2),
            lambda N: phi4.mc_partition_ratio(1, N, 0.05, 10, 1),
            lambda N: phi4.coefficient_ladder_csv(1, [N], 2),
        ],
        ids=["lattice", "c_variance", "valuate", "position mc", "series", "mc", "ladder"],
    )
    @pytest.mark.parametrize("N", [2.5, True])
    def test_entry_points_name_a_non_integer_cutoff(self, call, N):
        # 2.5 once built float "modes" or raised a bare TypeError; warm the
        # caches keyed by N, to which True is 1
        fy.valuate(banana(2), 1, 1)
        partition_ratio_series(1, 1, 2)
        with pytest.raises(ValueError, match=rf"N must be an integer, got {N!r}$"):
            call(N)

    def test_ladder_checks_every_cutoff_before_the_first_series(self, monkeypatch):
        # a bad cutoff anywhere in the ladder, or a bad order, raises before
        # any series runs, and no cutoff is rounded to an integer
        calls = []
        monkeypatch.setattr(phi4, "partition_ratio_series", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"N must be an integer, got 2.7$"):
            phi4.coefficient_ladder_csv(1, [2.7], 1)
        with pytest.raises(ValueError, match=r"N must be >= 0, got -1$"):
            phi4.coefficient_ladder_csv(2, [8, -1], 4)
        with pytest.raises(ValueError, match="order 5 beyond the valuation limit"):
            phi4.coefficient_ladder_csv(1, [2], 5)
        assert calls == []


class TestRenormalizedSeries:
    def test_order4_bounded_in_cutoff(self):
        v = [partition_ratio_series(3, N, 4).coefficient(4).value for N in (2, 3)]
        assert abs(v[1] - v[0]) < 0.1 * abs(v[1])

    @staticmethod
    def truncated_exp(logc):
        """exp of a truncated series by v_n = (1/n) sum_{j>=1} j c_j v_{n-j}."""
        values = [1.0] + [0.0] * (len(logc) - 1)
        for n in range(1, len(logc)):
            acc = 0.0
            for j in range(1, n + 1):
                acc += j * logc[j] * values[n - j]
            values[n] = acc / n
        return values

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_exp_star_keeps_the_recursion_bits(self, N, order):
        logc, _ = phi4._mixed_log_coefficients(N, order)
        got = [c.value for c in partition_ratio_series(3, N, order).coefficients]
        assert list(map(float.hex, got)) == list(map(float.hex, self.truncated_exp(logc)))

    def test_exp_star_is_the_exponential(self, monkeypatch):
        # a log-series with every low coefficient nonzero, which the d = 3
        # one never has: exp* still agrees with the recursion to roundoff
        logc = [0.0, 0.3, -1.7, 2.5, 11.0]
        monkeypatch.setattr(phi4, "_mixed_log_coefficients", lambda N, order: (logc, None))
        got = [c.value for c in partition_ratio_series(3, 4, 4).coefficients]
        assert got == pytest.approx(self.truncated_exp(logc), rel=1e-15, abs=0)


class TestLinkedCluster:
    def test_routes_agree_exactly(self):
        for order in (2, 3, 4):
            a = log_partition_series(1, 4, order, route="connected")
            b = log_partition_series(1, 4, order, route="logstar")
            for n in range(order + 1):
                assert a.coefficient(n).diagrams == b.coefficient(n).diagrams, n

    def test_exp_roundtrip(self):
        full = [phi4._quartic_diagrams(n) for n in range(5)]
        rebuilt = exp_of_log_series(1, 4, 4)
        for n in range(5):
            assert rebuilt[n] == full[n], n

    def test_star_recursions_match_composition_pass(self):
        # the diagram-sum ring through order 4: log*, the star-inverse and
        # exp* of log* against the composition pass they replaced
        full = phi4._diagram_functional([phi4._quartic_diagrams(n) for n in range(5)])
        log = cu.log_star(full)
        assert log == ref.log_star(full)
        assert cu.conv_inverse(full) == ref.conv_inverse(full)
        assert cu.exp_star(log) == ref.exp_star(log) == full

    def test_order4_disconnected_factor_three(self):
        full = phi4._quartic_diagrams(4)
        conn = full.filter_connected()
        disc = full - conn
        expected = DiagramSum.of(
            banana(4).disjoint_union(banana(4)), 3 * 24 * 24
        )
        assert disc == expected

    def test_order3_connected_coefficient(self):
        s = log_partition_series(1, 8, 3)
        assert s.coefficient(3).rational_parts() == {double_triangle(): Fraction(-288)}
        assert s.coefficient(3).value == pytest.approx(
            -288.0 * fy.valuate(double_triangle(), 1, 8), rel=1e-12
        )


class TestPlainPath:
    def test_first_moment_is_3c2(self):
        for N in (4, 8):
            cn = c_variance(1, N)
            assert plain_phi41_moments(N, 1) == pytest.approx(3 * cn * cn, rel=1e-12)

    def test_second_moment_decomposition(self):
        N = 5
        cn = c_variance(1, N)
        got = plain_phi41_moments(N, 2)
        expected = (
            24.0 * fy.valuate(banana(4), 1, N)
            + 72.0 * cn * cn * fy.valuate(banana(2), 1, N)
            + 9.0 * cn**4
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_higher_orders(self):
        with pytest.raises(ValueError):
            plain_phi41_moments(4, 3)


class TestTwoPoint:
    def test_order0_is_green(self):
        s = two_point_series(1, 8, 0, 0.1, 0.4)
        assert s.coefficient(0).value == pytest.approx(
            green_truncated(0.3, 1, 8), rel=1e-12
        )

    def test_integral_float_dimension(self):
        fy._valuate_cached.cache_clear()
        fy._base_weight.cache_clear()
        x, y = (0.1, 0.3), (0.6, 0.2)
        got = two_point_series(2.0, 8, 2, x, y)
        want = two_point_series(2, 8, 2, x, y)
        assert [got.coefficient(n).value for n in range(3)] == [
            want.coefficient(n).value for n in range(3)
        ]

    def test_order0_fractional_d_uses_the_edge_exponent(self):
        # at 3 < d < 4 every edge, the direct propagator included, carries
        # lambda^(-(5 - d)/2), not the lambda^(-1) of green_truncated
        d, N, x, y = 3.5, 4, (0.1, 0.2, 0.0), (0.4, 0.1, 0.7)
        lat = ModeLattice(3, N)
        diff = [a - b for a, b in zip(x, y)]
        want = math.fsum(
            float(lat.lam(k)) ** (-(5 - d) / 2)
            * math.cos(2 * math.pi * sum(ki * di for ki, di in zip(k, diff)))
            for k in lat.modes
        )
        got = two_point_series(d, N, 0, x, y).coefficient(0).value
        assert got == pytest.approx(want, rel=1e-14)
        assert got != pytest.approx(green_truncated(diff, 3, N), rel=1e-3)

    def test_point_dimension_is_checked(self):
        for x, y in [((0, 0, 0.5), (0.3, 0.1)), ((0, 0), (0.3,))]:
            with pytest.raises(ValueError, match="lattice dimension is 2"):
                two_point_series(2, 4, 2, x, y)

    def test_order1_vanishes(self):
        s = two_point_series(1, 6, 1, 0.0, 0.25)
        assert s.coefficient(1).diagrams == DiagramSum.zero()
        assert s.coefficient(1).value == 0.0

    def test_order2_is_pure_chain(self):
        s = two_point_series(1, 6, 2, 0.0, 0.3)
        terms = s.coefficient(2).diagrams.terms
        assert len(terms) == 1
        ((chain, coeff),) = terms.items()
        assert coeff == 192
        # the chain: x - z1 (triple) z2 - y, all vertices in one component
        assert fy.is_connected(chain)
        assert sorted(chain.degrees()) == [1, 1, 4, 4]

    def test_order2_value_at_coincident_points(self):
        # at x = y the chain value integrates the bubble against two zero-mode
        # legs: sum_p w(p)^2 S3(p)
        N = 4
        s = two_point_series(1, N, 2, 0.2, 0.2)
        from wickworks.torusfield import ModeLattice

        lat = ModeLattice(1, N)
        total = 0.0
        for p in lat.modes:
            s3 = 0.0
            for k1 in lat.modes:
                for k2 in lat.modes:
                    k3 = p[0] - k1[0] - k2[0]
                    if abs(k3) <= N:
                        s3 += 1.0 / (
                            float(lat.lam(k1))
                            * float(lat.lam(k2))
                            * float(lat.lam((k3,)))
                        )
            total += (1.0 / float(lat.lam(p)) ** 2) * s3
        assert s.coefficient(2).value == pytest.approx(0.5 * 192 * total, rel=1e-10)


    @pytest.mark.parametrize(
        "args", [(1, 6, 2, 0.0, 0.3), (2, 4, 2, (0, 0), (0.3, 0.1))]
    )
    def test_one_reduction_per_diagram(self, monkeypatch, args):
        # reference: one valuate_external call, hence one reduction, per mode,
        # summed by the same cosine sum
        def per_mode(g, d, N, x, y):
            dim, _ = fy._model(d)
            diff = tuple(a - b for a, b in zip(tf.as_point(x, dim), tf.as_point(y, dim)))
            # the modes of K_N are in a Ball's order
            values = [fy.valuate_external(g, d, N, p=p) for p in ModeLattice(dim, N).modes]
            return tf.cosine_sum(tf.Ball(np.array(values), dim, N), diff)

        calls = []
        convolution_window = fy.convolution_window
        monkeypatch.setattr(
            fy,
            "convolution_window",
            lambda *cubes, **kw: calls.append(1) or convolution_window(*cubes, **kw),
        )
        got = [c.value for c in two_point_series(*args).coefficients]
        # the order-2 chain is the only class that needs a convolution
        assert len(calls) == 1
        monkeypatch.setattr(phi4, "_external_value", per_mode)
        want = [c.value for c in two_point_series(*args).coefficients]
        assert len(calls) > 10
        assert repr(got) == repr(want)


def _plain_division(order):
    """The ordinary power-series division of the matching sums, without the
    binomial weights of the star quotient."""
    direct = fy.Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
    numerator = [DiagramSum.of(direct)] + [
        fy.generate_diagrams([4] * n, ["x", "y"]) for n in range(1, order + 1)
    ]
    vacuum = [phi4._quartic_diagrams(n) for n in range(order + 1)]
    quotient = []
    for n in range(order + 1):
        acc = numerator[n]
        for k in range(n):
            acc = acc - quotient[k] * vacuum[n - k]
        quotient.append(acc)
    return quotient


_TWO_POINT = fy.Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_point_series_keeps_the_box_route_bits(monkeypatch, d):
    # each x-y weight read as its Ball, against its box (dense_reference)
    x, y = (0.1, 0.2, 0.3)[:d], (0.4,) * d
    for N in (2, 5, 8):
        got = [c.value for c in two_point_series(d, N, 2, x, y).coefficients]
        with monkeypatch.context() as m:
            m.setattr(phi4, "_external_value", dense_ref.external_value)
            want = [c.value for c in two_point_series(d, N, 2, x, y).coefficients]
        assert [v.hex() for v in got] == [v.hex() for v in want], (d, N)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, d: tf.cosine_sum(tf.inverse_weight_ball(d, 2), p),
        lambda p, d: green_truncated(p, d, 2),
        lambda p, d: two_point_series(d, 2, 2, p, (0.0,) * d),
        lambda p, d: two_point_series(d, 2, 0, (0.0,) * d, p),
        lambda p, d: fy.valuate_external(_TWO_POINT, d, 2, p),
    ],
    ids=["cosine_sum", "green_truncated", "two_point_series x", "two_point_series y", "valuate_external"],
)
def test_as_point_callers_refuse_strings_and_non_finite_points(call):
    for point, d, message in [
        ("123", 3, "is a string"),  # once read as the point (1, 2, 3)
        ("0.3", 1, "is a string"),  # once failed on the character '.'
        (b"12", 2, "is a string"),
        (math.nan, 1, "needs finite coordinates"),  # once a NaN value
        (-math.inf, 1, "needs finite coordinates"),
        ((0.25, math.inf), 2, "needs finite coordinates"),
    ]:
        with pytest.raises(ValueError, match=f"{re.escape(repr(point))} {message}"):
            call(point, d)


class TestTwoPointDivision:
    def test_order4_classes_are_connected(self):
        sums = phi4._two_point_sums(4)
        assert sums[4]
        assert all(fy.is_connected(g) for g in sums[4].terms)

    def test_low_orders_match_plain_division(self):
        assert phi4._two_point_sums(3) == _plain_division(3)

    def test_plain_division_keeps_a_vacuum_class_at_order4(self):
        (chain,) = phi4._two_point_sums(2)[2].terms
        stray = chain.disjoint_union(banana(4))
        assert _plain_division(4)[4].terms.get(stray) == 23040
        assert stray not in phi4._two_point_sums(4)[4].terms


class TestCounterterms:
    def test_formulas(self):
        N = 4
        ct = counterterms_d3(0.1, N)
        # the mass term is 48 a^2 Pi(3-banana); the sign is the one the
        # subdivergence cancellation fixes (the commutativity check pins it)
        assert ct.beta_coeffs[2] == pytest.approx(
            48.0 * fy.valuate(banana(3), 3, N), rel=1e-12
        )
        assert ct.gamma_coeffs[2] == pytest.approx(
            12.0 * fy.valuate(banana(4), 3, N), rel=1e-12
        )
        assert ct.gamma_coeffs[3] == pytest.approx(
            -288.0 * fy.valuate(double_triangle(), 3, N), rel=1e-12
        )
        assert ct.beta == pytest.approx(0.01 * ct.beta_coeffs[2], rel=1e-12)

    def test_growth_rates(self):
        # all three counterterm valuations keep growing in the cutoff; the
        # asymptotic rates (log N, N, log N) carry prefactors ~ (2 pi)^-9
        # from the lattice weights, so at desk-scale N only the monotone
        # growth is observable, not the rates themselves
        ns = [4, 8, 16, 32]
        for g in (banana(3), banana(4), double_triangle()):
            vals = [fy.valuate(g, 3, N) for N in ns]
            assert all(b > a for a, b in zip(vals, vals[1:])), g


class TestCommutativity:
    @pytest.mark.parametrize("N", [4, 8, 10, 16, 24])
    def test_low_orders_cancel_exactly(self, N):
        # the counterterm classes cancel in the exact diagram sums, so these
        # vanish whatever the transform lengths round to: log Z starts at
        # alpha^4, and the ratio series is exp(0) = 1 through alpha^3
        for row in wick_map_commutativity_check(N, order=3):
            for key in ("mixed_route", "bphz_route", "difference", "relative"):
                assert row[key] == 0.0, row
        series = partition_ratio_series(3, N, 3)
        assert [c.value for c in series.coefficients] == [1.0, 0.0, 0.0, 0.0]

    def test_peak_stays_below_one_dense_box_of_the_bubble(self):
        # the ring of bubbles reads its bubble B, radius 2N, whole: as a
        # dense box that is 8 (4N + 1)^3 bytes, 7.3 MB at N = 24, while B
        # kept on its l1 ball is about a sixth of it
        N = 24
        wick_map_commutativity_check(4, order=3)  # the diagram sums are cached
        fy._valuate_cached.cache_clear()  # each class valuates, not the cache
        tracemalloc.start()
        try:
            wick_map_commutativity_check(N, order=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (4 * N + 1) ** 3

    def test_route_check_peak_at_n16_and_24(self):
        # both routes and the counterterms at N = 16 and 24, from cold
        # weights: the peak was _separate mirroring both halves of the
        # bubble's inverse transform at once (6.3 MB traced)
        wick_map_commutativity_check(4, order=3)  # the diagram sums are cached
        fy._valuate_cached.cache_clear()
        fy._base_weight.cache_clear()
        tracemalloc.start()
        try:
            for N in (16, 24):
                wick_map_commutativity_check(N, order=3)
                counterterms_d3(0.0, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6

    def test_order5_is_beyond_the_valuation_limit(self):
        with pytest.raises(ValueError, match="valuation limit"):
            wick_map_commutativity_check(4, 5)

    def test_order4_routes_agree(self):
        report = wick_map_commutativity_check(4, order=4)
        row = report[4]
        assert row["bphz_route"] != 0.0
        assert row["relative"] < 1e-10

    def test_relative_reads_roundoff_as_roundoff(self, monkeypatch):
        # nudge gamma_3 by one ulp: the order-3 row keeps a residue the size
        # of gamma_3's roundoff, which relative measures against the summands
        exact = phi4.counterterms_d3

        def nudged(alpha, N):
            ct = exact(alpha, N)
            ct.gamma_coeffs[3] = math.nextafter(ct.gamma_coeffs[3], math.inf)
            return ct

        monkeypatch.setattr(phi4, "counterterms_d3", nudged)
        row = wick_map_commutativity_check(4, order=3)[3]
        assert row["mixed_route"] != 0.0 and row["bphz_route"] == 0.0
        assert 0.0 < row["relative"] < 1e-15

    def test_no_signed_zero(self):
        # a negative prefactor times a vanishing valuation must not print -0.0
        for row in wick_map_commutativity_check(4, order=3):
            for key in ("mixed_route", "bphz_route"):
                assert math.copysign(1.0, row[key]) > 0 or row[key] != 0.0, row

    def test_vertex_degree_formula(self):
        assert quartic_vertex_degree(4) == 1
        assert quartic_vertex_degree(3) == 0
        for n in range(2, 6):
            assert quartic_vertex_degree(n) == n - 3
            assert quartic_vertex_degree(n, 3.5) == 4 * n - (n + 1) * 3.5


class TestThresholds:
    def test_closed_forms(self):
        assert phi4.ThresholdReport.d_star_m(2) == 3
        assert phi4.ThresholdReport.d_star_m(3) == Fraction(10, 3)
        assert phi4.ThresholdReport.d_star_m(4) == Fraction(7, 2)
        assert phi4.ThresholdReport.d_star_e(3) == 3

    def test_floors_at_d3(self):
        t = thresholds(3)
        assert t.n_star_e == 3
        assert t.n_star_m == 2

    def test_rejects_d4(self):
        with pytest.raises(ValueError):
            thresholds(4.0)

    def test_family_degrees(self):
        fams = minimal_subdivergence_families()
        assert [fy.degree_coeffs(g) for g in fams[2]] == [(6, -2)]
        assert all(fy.degree_coeffs(g) == (10, -3) for g in fams[3])
        assert all(fy.degree_coeffs(g) == (14, -4) for g in fams[4])
        assert banana(3) in fams[2]
        assert sunset_with_tail() in fams[3]

    def test_divergent_families_at_fractional_d(self):
        at32 = divergent_families_at(3.2)
        assert at32 == {2: True, 3: False, 4: False}
        at35 = divergent_families_at(3.5)
        assert at35 == {2: True, 3: True, 4: True}

    def test_sigma2_matches_mass_counterterm(self):
        N = 4
        assert phi4.sigma_counterterm(3, N, 2) == pytest.approx(
            -96.0 * fy.valuate(banana(3), 3, N), rel=1e-12
        )

    def test_sigma_divergence_rate(self):
        # sigma_2 at d = 3.5 carries an N^(2 - 0.5*2) = N divergence on top of
        # a bounded part: the per-doubling increments should roughly double
        vals = [abs(phi4.sigma_counterterm(3.5, N, 2)) for N in (4, 8, 16)]
        incr = [b - a for a, b in zip(vals, vals[1:])]
        assert 1.4 < incr[1] / incr[0] < 2.6


class TestMC:
    def test_alpha_zero_is_one(self):
        est, se = mc_partition_ratio(1, 4, 0.0, samples=50, seed=0)
        assert est == 1.0
        assert se == 0.0

    def test_estimates_positive_and_jensen(self):
        est, se = mc_partition_ratio(1, 6, 0.08, samples=4000, seed=1)
        assert est > 0
        # Jensen: E[exp(-aX)] >= exp(-a E[X]) = 1
        assert est >= 1.0 - 4 * se

    def test_matches_series_d1(self):
        # remainder band uses the Gevrey constant E[X^4]/4! of the next order
        alpha = 0.05
        est, se = mc_partition_ratio(1, 8, alpha, samples=40_000, seed=2)
        series = partition_ratio_series(1, 8, 3).value_at(alpha)
        c4 = fy.valuate_sum(phi4._quartic_diagrams(4), 1, 8) / 24.0
        assert abs(est - series) <= max(4 * se, 1.25 * c4 * alpha**4)

    def test_reproducible(self):
        a = mc_partition_ratio(1, 4, 0.05, samples=500, seed=7)
        b = mc_partition_ratio(1, 4, 0.05, samples=500, seed=7)
        assert a == b

    def test_block_splitting_documented(self):
        # more samples extend the stream without changing earlier blocks
        a = mc_partition_ratio(1, 4, 0.05, samples=phi4.MC_BLOCK, seed=9)
        b = mc_partition_ratio(1, 4, 0.05, samples=phi4.MC_BLOCK + 10, seed=9)
        assert a[0] != b[0]  # genuinely extended
        c = mc_partition_ratio(1, 4, 0.05, samples=phi4.MC_BLOCK, seed=9)
        assert a == c

    def test_d2_bounded(self):
        ests = []
        for N in (4, 8):
            est, se = mc_partition_ratio(2, N, 0.05, samples=2000, seed=3)
            assert est > 0
            ests.append(est)
        assert abs(ests[1] - ests[0]) < 0.2

    def test_rejects_d3(self):
        with pytest.raises(ValueError):
            mc_partition_ratio(3, 4, 0.1, samples=10, seed=0)

    def test_integral_float_dimension(self):
        assert mc_partition_ratio(2.0, 2, 0.05, 10, 1) == mc_partition_ratio(2, 2, 0.05, 10, 1)

    @pytest.mark.parametrize("d", [True, np.True_])
    def test_rejects_a_bool_dimension(self, d):
        # True in (1, 2) holds, but True is no dimension
        for call in (phi4.check_mc_arguments, mc_partition_ratio):
            with pytest.raises(ValueError, match=f"covers d = 1 and d = 2, got {d!r}$"):
                call(d, 2, 0.05, 10, 1)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda samples, seed: mc_partition_ratio(1, 2, 0.05, samples, seed),
            lambda samples, seed: fy.valuate_position_mc(banana(2), 1, 2, samples, seed),
            lambda samples, seed: mehler_mc(MultivarPoly(1, {(1,): 1}), 0.5, samples, seed),
        ],
        ids=["mc_partition_ratio", "valuate_position_mc", "mehler_mc"],
    )
    def test_estimators_share_one_argument_rule(self, estimate):
        # numpy once raised its own TypeError or message for some of these
        for samples, seed, message in [
            (3.0, 1, "samples must be an integer, got 3.0"),
            (True, 1, "samples must be an integer, got True"),
            (np.int64(1), 1, "samples must be at least 2 for a standard error, got 1"),
            (10, 1.5, "seed must be an integer, got 1.5"),
            (10, np.True_, "seed must be an integer, got np.True_"),
            (10, -1, "seed must be >= 0, got -1"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                estimate(samples, seed)

    @pytest.mark.parametrize(
        "args, want",
        [
            # values of the dense synthesis-matrix route, which drew the same stream
            ((1, 4, 0.05, 500, 7), (1.0196473667484116, 0.009030500768774347)),
            ((2, 4, 0.05, 2000, 3), (1.0157777156678627, 0.0038709704056035044)),
            ((2, 4, 0.05, 2, 5), (0.8612145996524168, 0.003835676209309635)),
            ((2, 4, 0.05, 65, 5), (0.999460834477058, 0.020580566364874528)),
            ((2, 4, 0.05, phi4.MC_BLOCK + 10, 5), (1.0154178403445682, 0.0037712036916311793)),
        ],
    )
    def test_pinned_to_dense_synthesis(self, args, want):
        assert mc_partition_ratio(*args) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("samples", [2, 65, phi4.MC_BLOCK + 10])
    def test_partial_chunks_match_dense_route(self, samples):
        # sample counts off the chunk width, against the dense route rebuilt here
        d, N, alpha, seed = 2, 3, 0.05, 11
        lat = ModeLattice(d, N)
        B = tf.synthesis_matrix(lat, tf.grid_points(d, 4 * N + 1))
        cn = c_variance(d, N)
        draws = []
        blocks = np.random.SeedSequence(seed).spawn(math.ceil(samples / phi4.MC_BLOCK))
        for k, ss in enumerate(blocks):
            take = min(phi4.MC_BLOCK, samples - k * phi4.MC_BLOCK)
            v = B @ tf.batch_amplitudes(lat, tf.GFF, take, ss)
            x = (v**4 - 6.0 * cn * v**2 + 3.0 * cn**2).mean(axis=0)
            draws.extend(np.exp(-alpha * x))
        est, se = mc_partition_ratio(d, N, alpha, samples, seed)
        assert est == pytest.approx(float(np.mean(draws)), rel=1e-12)
        assert se == pytest.approx(float(np.std(draws, ddof=1) / math.sqrt(samples)), rel=1e-9)

    @pytest.mark.parametrize("samples", [2, 65, phi4.MC_BLOCK + 10])
    def test_partial_chunks_match_dense_route_d1(self, samples):
        # at d = 1 the two interleaved (2N+1)-grids form the uniform (4N+2)-grid;
        # the oracle is the dense route on the (4N+1)-grid, and N = 16 is where
        # the unshifted (2N+1)-grid alone is off by 0.3%
        d, N, alpha, seed = 1, 16, 0.05, 12
        lat = ModeLattice(d, N)
        B = tf.synthesis_matrix(lat, tf.grid_points(d, 4 * N + 1))
        cn = c_variance(d, N)
        draws = []
        blocks = np.random.SeedSequence(seed).spawn(math.ceil(samples / phi4.MC_BLOCK))
        for k, ss in enumerate(blocks):
            take = min(phi4.MC_BLOCK, samples - k * phi4.MC_BLOCK)
            v = B @ tf.batch_amplitudes(lat, tf.GFF, take, ss)
            x = (v**4 - 6.0 * cn * v**2 + 3.0 * cn**2).mean(axis=0)
            draws.extend(np.exp(-alpha * x))
        est, se = mc_partition_ratio(d, N, alpha, samples, seed)
        assert est == pytest.approx(float(np.mean(draws)), rel=1e-12)
        assert se == pytest.approx(float(np.std(draws, ddof=1) / math.sqrt(samples)), rel=1e-9)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(alpha=-5.0), "alpha"),
            (dict(alpha=math.nan), "alpha"),
            (dict(alpha=math.inf), "alpha"),
            (dict(seed=-3), "seed"),
            (dict(samples=0), "samples"),
            (dict(samples=1), "samples"),
            (dict(samples=100.5), "samples"),
            (dict(seed=1.5), "seed"),
            (dict(N=2.5), "N"),
            (dict(N=-1), "N"),
            # True is an int to Python, but no cutoff, count or seed
            (dict(N=True), "N"),
            (dict(samples=True), "samples"),
            (dict(seed=True), "seed"),
            (dict(seed=np.float64(3.0)), "seed"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, name):
        args = dict(d=1, N=4, alpha=0.05, samples=10, seed=0) | kwargs
        with pytest.raises(ValueError, match=name):
            mc_partition_ratio(**args)

    def test_one_synthesizer_call_per_chunk(self, monkeypatch):
        asked, widths = [], []

        def recording(*key):
            asked.append(key)
            synth = tf.rule_synthesizer(*key)

            def call(amps):
                widths.append(amps.shape[1])
                return synth(amps)

            call.shape = synth.shape
            return call

        monkeypatch.setattr(phi4, "rule_synthesizer", recording)
        samples = phi4.MC_BLOCK + 200
        got = mc_partition_ratio(2, 4, 0.05, samples, seed=1)
        assert asked == [(2, 4, 9)]
        # one call per chunk, each onto all 2M^2 rule points
        chunk = phi4._MC_CHUNK
        want = [chunk] * (phi4.MC_BLOCK // chunk) + [chunk] * (200 // chunk) + [200 % chunk]
        assert widths == want
        monkeypatch.undo()
        assert mc_partition_ratio(2, 4, 0.05, samples, seed=1) == got

    def test_overflow_names_alpha(self):
        # X >= -6 C_N^2, so exp(-alpha X) can pass the float range once
        # 6 alpha C_N^2 > 709.8; alpha = 20 stays finite at d = 1, N = 8
        est, se = mc_partition_ratio(1, 8, 20.0, samples=2000, seed=1)
        assert math.isfinite(est) and math.isfinite(se)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha"):
                mc_partition_ratio(1, 8, 100.0, samples=2000, seed=1)

    def test_never_builds_synthesis_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesis_matrix called")

        monkeypatch.setattr(tf, "synthesis_matrix", refuse)
        # the guard is live: pointwise evaluation goes through it
        with pytest.raises(AssertionError):
            tf.sample_field(tf.GFF, ModeLattice(2, 2), seed=0).evaluate([[0.1, 0.2]])
        est, _ = mc_partition_ratio(2, 4, 0.05, samples=200, seed=1)
        assert est > 0

    def test_fused_wick4_matches_expanded_form(self):
        rng = np.random.default_rng(0)
        for cn in (0.3, 1.7, 40.0):
            v = math.sqrt(cn) * rng.standard_normal((4225, 70))
            want = (v**4 - 6.0 * cn * v**2 + 3.0 * cn * cn).mean(axis=0)
            work = v.copy()
            quartic = phi4.quartic_sum(work)
            assert np.array_equal(work, v**2)  # squared in place
            got = phi4.wick4_mean(quartic, len(v), (v**2).mean(axis=0), cn)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * cn * cn)

    def test_drawn_block_is_only_read(self, monkeypatch):
        # every chunk reaches the synthesizer holding its block's draws, read-only
        samples, seed = phi4.MC_BLOCK + 10, 5
        lat = ModeLattice(2, 4)
        children = np.random.SeedSequence(seed).spawn(2)
        draws = np.hstack([tf.batch_amplitudes(lat, tf.GFF, n, ss)
                           for n, ss in zip((phi4.MC_BLOCK, 10), children)])
        seen = []

        def read_only(*key):
            synth = tf.rule_synthesizer(*key)

            def call(amps):
                seen.append(amps.copy())
                amps.setflags(write=False)
                try:
                    return synth(amps)
                finally:
                    amps.setflags(write=True)

            call.shape = synth.shape
            return call

        want = mc_partition_ratio(2, 4, 0.05, samples, seed)
        monkeypatch.setattr(phi4, "rule_synthesizer", read_only)
        assert mc_partition_ratio(2, 4, 0.05, samples, seed) == want
        assert np.array_equal(np.hstack(seen), draws)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 4, 16])
    @pytest.mark.parametrize(
        "samples",
        [2, 63, 64, 65] + [phi4.MC_BLOCK + k for k in (-1, 1, 10)] + [3 * phi4.MC_BLOCK + 65],
    )
    def test_matches_serial_loop_to_the_bit(self, d, N, samples, monkeypatch):
        # partial last blocks and chunks, a lone last column and a one-sample
        # block, compared per sample as well as in the estimate
        def recorded(module):
            values = []

            def blocks(samples, block, fill):
                def keep(lo, out):
                    fill(lo, out)
                    values.append(out.copy())

                return tf._mc_blocks(samples, block, keep)

            monkeypatch.setattr(module, "_mc_blocks", blocks)
            got = module.mc_partition_ratio(d, N, 0.05, samples, 3)
            return [x.hex() for x in got], np.concatenate(values)

        (got, got_values), (want, want_values) = recorded(phi4), recorded(mc_reference)
        assert got == want
        assert np.array_equal(got_values, want_values)

    def test_draws_one_block_and_one_slab_at_a_time(self):
        args = (2, 16, 0.005, 4 * phi4.MC_BLOCK, 1)
        mc_partition_ratio(*args)  # the synthesizer and the lattice tables are cached
        tracemalloc.start()
        try:
            mc_partition_ratio(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 545 * phi4.MC_BLOCK * 8  # the modes at d = 2, N = 16
        slab = phi4._MC_SLAB * phi4.MC_BLOCK * 8
        rule_values = 2 * 33 * 33 * phi4._MC_CHUNK * 8
        # 2 MiB of slack: the pool's padded last slab, the slab being drawn,
        # the gathered chunk, the synthesizer's stages and the value vectors
        # (1.85 MB with 16-row slabs)
        assert peak < block + slab + rule_values + 2 * 2**20
        assert peak < 1.5 * block  # a second whole block would not fit

    @staticmethod
    def raises_and_joins(error, match, *args):
        before = threading.active_count()
        with pytest.raises(error, match=match):
            mc_partition_ratio(*args)
        assert threading.active_count() == before  # the helper thread is joined

    def test_a_draw_error_reaches_the_caller(self, monkeypatch):
        real, calls = np.random.default_rng, []

        def broken(out):
            raise RuntimeError("third block")

        def failing(seed):
            calls.append(seed)
            return types.SimpleNamespace(standard_normal=broken) if len(calls) == 3 else real(seed)

        monkeypatch.setattr(np.random, "default_rng", failing)
        self.raises_and_joins(RuntimeError, "third block", 2, 8, 0.05, 4 * phi4.MC_BLOCK, 1)
        assert len(calls) == 3

    def test_a_synthesis_error_stops_the_draws(self, monkeypatch):
        def failing(*key):
            synth, calls = tf.rule_synthesizer(*key), []

            def call(amps):
                calls.append(1)
                if len(calls) == 40:  # in the second block, with the third being drawn
                    raise RuntimeError("chunk 40")
                return synth(amps)

            call.shape = synth.shape
            return call

        monkeypatch.setattr(phi4, "rule_synthesizer", failing)
        self.raises_and_joins(RuntimeError, "chunk 40", 2, 8, 0.05, 4 * phi4.MC_BLOCK, 1)

    def test_an_overflow_stops_the_draws(self):
        self.raises_and_joins(ValueError, "alpha", 1, 8, 100.0, 2000, 1)  # test_overflow_names_alpha's

    def test_concurrent_calls_under_fast_switching(self):
        # more threads than cores, switching often: a lost update to a tile
        # pool would hand one tile out twice and move the bits
        args = (2, 4, 0.05, 3 * phi4.MC_BLOCK + 65, 1)
        want = mc_reference.mc_partition_ratio(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda _: mc_partition_ratio(*args), range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    def test_one_generator_per_block_before_the_call_returns(self, monkeypatch):
        # perfbench's layer trace counts MC blocks by these calls
        real, calls, returned = np.random.default_rng, [], []

        def counting(seed):
            calls.append(bool(returned))
            return real(seed)

        samples = 3 * phi4.MC_BLOCK + 65
        before = threading.active_count()
        monkeypatch.setattr(np.random, "default_rng", counting)
        mc_partition_ratio(2, 4, 0.05, samples, 1)
        returned.append(True)
        assert threading.active_count() == before
        assert calls == [False] * math.ceil(samples / phi4.MC_BLOCK)
