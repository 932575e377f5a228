import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wickworks import feynman as fy
from wickworks import torusfield as tf
from wickworks.torusfield import (
    GFF,
    WHITE,
    FieldSample,
    ModeLattice,
    SpectralProfile,
    c_variance,
    gff1_increment_variance,
    green_exact_1d,
    green_truncated,
    pair_with_testfunction,
    sample_field,
    sobolev_sum,
    wick_integral_variance,
    wick_power_field,
    young_sum_check,
)

import dense_reference as dense_ref
import k4_reference as k4_ref
from exact_reference import (
    c_variance_exact,
    wick_integral_variance_bruteforce,
    wick_integral_variance_exact,
)


class TestLattice:
    def test_mode_counts(self):
        assert len(ModeLattice(1, 3).modes) == 7
        assert len(ModeLattice(2, 2).modes) == 13  # 2*2^2 + 2*2 + 1
        assert len(ModeLattice(3, 1).modes) == 7

    def test_dimension_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"d must be the integer 1, 2 or 3, got 3\.0"):
            ModeLattice(3.0, 2)
        with pytest.raises(ValueError, match=r"got 2\.0"):
            c_variance(2.0, 4)
        # the cached lattice and synthesizer of d = 3 do not serve 3.0
        wick_integral_variance(3, 2, 2)
        tf.grid_synthesizer(3, 2, 5)
        with pytest.raises(ValueError, match=r"got 3\.0"):
            wick_integral_variance(3.0, 2, 2)
        with pytest.raises(ValueError, match=r"got 3\.0"):
            tf.grid_synthesizer(3.0, 2, 5)

    def test_symmetric_under_negation(self):
        lat = ModeLattice(2, 3)
        modes = set(lat.modes)
        assert all(tuple(-c for c in k) in modes for k in modes)

    def test_positive_modes_split(self):
        lat = ModeLattice(2, 3)
        pos = set(lat.positive_modes())
        neg = {tuple(-c for c in k) for k in pos}
        assert pos.isdisjoint(neg)
        assert len(pos) * 2 + 1 == len(lat.modes)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", range(7))
    def test_modes_match_sorted_brute_force(self, d, N):
        # mode_labels, and with them the seed stream, follow this order
        ball = sorted(
            k for k in itertools.product(range(-N, N + 1), repeat=d) if sum(map(abs, k)) <= N
        )
        lat = ModeLattice(d, N)
        assert lat.modes == ball
        first_nonzero_positive = [k for k in ball if next((c for c in k if c), 0) > 0]
        assert lat.positive_modes() == first_nonzero_positive

    def test_weights_positive(self):
        lat = ModeLattice(3, 2)
        assert all(lat.lam(k) > 0 for k in lat.modes)
        assert lat.lam((0, 0, 0)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeLattice(4, 1)
        with pytest.raises(ValueError):
            ModeLattice(1, -1)


def per_mode_cube(lat: ModeLattice, s) -> np.ndarray:
    """The per-mode loop inverse_weight_cube replaced, kept as its reference."""
    side = 2 * lat.N + 1
    cube = np.zeros((side,) * lat.d)
    for k in lat.modes:
        idx = tuple(c + lat.N for c in k)
        cube[idx] = float(lat.lam(k)) ** (-float(s))
    return cube


class TestWeightTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 5, 12])
    @pytest.mark.parametrize("s", [1.0, 0.75])
    def test_cube_matches_per_mode_loop_to_the_bit(self, d, N, s):
        want = per_mode_cube(ModeLattice(d, N), s)
        assert np.array_equal(tf.inverse_weight_cube(d, N, s), want)
        assert np.array_equal(ModeLattice(d, N).inverse_weight_cube(s), want)

    @pytest.mark.parametrize("d, N, s", [(1, 4096, 1), (2, 128, 1), (3, 24, 0.25)])
    def test_cube_matches_the_table_route(self, d, N, s):
        # a table by |k|^2, each entry Python's (1 + (2 pi)^d n) ** (-s) as
        # the table of all n = 0..N^2 had it, read at every mode of K_N
        lat = ModeLattice(d, N)
        table: dict = {}
        want = np.zeros((2 * N + 1,) * d)
        for k in lat.modes:
            n = sum(c * c for c in k)
            if n not in table:
                table[n] = (1 + tf.TWO_PI**d * n) ** (-float(s))
            want[tuple(c + N for c in k)] = table[n]
        assert tf.inverse_weight_cube(d, N, s).tobytes() == want.tobytes()
        amps = [table[sum(c * c for c in k)] for k, _ in tf.mode_labels(lat)]
        assert tf.amplitude_weights(lat, s).tolist() == amps

    @pytest.mark.parametrize("d, N", [(1, 0), (1, 9), (2, 4), (3, 3)])
    def test_amplitude_weights_match_per_label_loop(self, d, N):
        lat = ModeLattice(d, N)
        for profile in (GFF, WHITE, SpectralProfile("fractional", 0.75)):
            want = [float(lat.lam(k)) ** (-profile.exponent) for k, _ in tf.mode_labels(lat)]
            assert tf.amplitude_weights(lat, profile.exponent).tolist() == want

    @pytest.mark.parametrize("d, N", [(1, 0), (1, 40), (1, 128), (2, 12), (2, 16), (3, 6)])
    def test_c_variance_matches_per_mode_fsum(self, d, N):
        lat = ModeLattice(d, N)

        def per_mode(expo):
            return math.fsum(float(lat.lam(k)) ** expo for k in lat.modes)

        assert c_variance(d, N) == math.fsum(1.0 / float(lat.lam(k)) for k in lat.modes)
        # sobolev_sum and variance_target read the same |k|^2 table
        for s in (-1.5, -1.0, -0.25, 0.0, 0.5, 1.0):
            assert sobolev_sum(s, d, N, WHITE) == per_mode(s)
            assert sobolev_sum(s, d, N, GFF) == per_mode(s - 1.0)
        for profile in (GFF, WHITE, SpectralProfile("fractional", 0.75)):
            sample = FieldSample(lat, profile, seed=0)
            assert sample.variance_target() == per_mode(-2 * profile.exponent)


class TestSpectralProfile:
    @pytest.mark.parametrize("s", [-0.25, math.nan, math.inf, -math.inf])
    def test_fractional_needs_a_finite_nonnegative_s(self, s):
        # nan < 0 is false, so the bound alone would let nan through
        with pytest.raises(ValueError, match="exponent s must be finite and >= 0"):
            SpectralProfile("fractional", s)

    def test_fractional_accepts_zero(self):
        assert SpectralProfile("fractional", 0.0).exponent == 0.0


class TestVariance:
    def test_d1_n0(self):
        assert c_variance(1, 0) == 1.0

    def test_d1_converges_to_resolvent(self):
        # partial sums approach the periodic-resolvent value at 0; the tail
        # decays like 1/N
        target = green_exact_1d(0.0)
        errs = [abs(c_variance(1, N) - target) for N in (8, 32, 128)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 3e-3

    def test_d2_log_law(self):
        # C_{2N} - C_N -> log(2)/(2 pi)
        target = math.log(2.0) / (2.0 * math.pi)
        diff = c_variance(2, 256) - c_variance(2, 128)
        assert abs(diff - target) / target < 0.05

    def test_exact_rational(self):
        got = c_variance_exact(1, 2, Fraction(6))
        assert got == 1 + 2 * Fraction(1, 7) + 2 * Fraction(1, 25)


class TestGreen:
    def test_at_zero_is_variance(self):
        for d, N in [(1, 6), (2, 4), (3, 2)]:
            x = 0.0 if d == 1 else (0.0,) * d
            assert green_truncated(x, d, N) == pytest.approx(c_variance(d, N), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cosine_sum_matches_per_mode_loop(self, d):
        # the per-mode loop green_truncated replaced, kept as its reference;
        # cube * cos is not cos / lambda, so the last bit may move
        rng = np.random.default_rng(d)
        for N in (0, 1, 5, 12):
            lat = ModeLattice(d, N)
            for _ in range(6):
                x = tuple(rng.uniform(-1.0, 1.0, d))
                want = math.fsum(
                    math.cos(tf.TWO_PI * sum(ki * xi for ki, xi in zip(k, x))) / float(lat.lam(k))
                    for k in lat.modes
                )
                assert abs(green_truncated(x, d, N) - want) <= 2.2e-16 * abs(want), (x, N)

    def test_point_dimension_is_checked(self):
        with pytest.raises(ValueError, match="lattice dimension is 2"):
            green_truncated((0.1, 0.2, 0.3), 2, 4)

    def test_even(self):
        assert green_truncated(0.3, 1, 8) == pytest.approx(
            green_truncated(-0.3, 1, 8), rel=1e-12
        )

    def test_d1_converges_to_resolvent(self):
        for x in (0.1, 0.25, 0.5):
            target = green_exact_1d(x)
            errs = [abs(green_truncated(x, 1, N) - target) for N in (8, 32, 128)]
            assert errs[-1] < 5e-4
            assert errs[0] > errs[-1]

    def test_resolvent_properties(self):
        # integral of the resolvent over the circle is 1 (the k = 0 weight)
        xs = np.arange(2000) / 2000
        vals = [green_exact_1d(x) for x in xs]
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-6)

    def test_d3_scaling_window(self):
        # G_N(x) (||x|| + 1/N) stays inside a fixed band over a grid of x and
        # a ladder of N; the band is wide because the (2 pi)^3 weight keeps
        # the asymptotic constants apart at desk-scale cutoffs
        ratios = []
        for N in (8, 16, 32):
            for x1 in (0.06, 0.12, 0.25, 0.5):
                val = green_truncated((x1, 0.0, 0.0), 3, N)
                ratios.append(val * (x1 + 1.0 / N))
        lo, hi = min(ratios), max(ratios)
        assert lo > 0.0
        assert hi / lo < 25.0


class TestSampler:
    def test_deterministic(self):
        lat = ModeLattice(1, 4)
        a = sample_field(GFF, lat, seed=7)
        b = sample_field(GFF, lat, seed=7)
        assert a.amplitudes == b.amplitudes

    def test_variance_at_point(self):
        lat = ModeLattice(1, 8)
        nsamples = 20_000
        amps = tf.batch_amplitudes(lat, GFF, nsamples, seed=3)
        B = tf.synthesis_matrix(lat, np.array([[0.37]]))
        vals = (B @ amps)[0]
        target = c_variance(1, 8)
        se = vals.var(ddof=1) * math.sqrt(2.0 / nsamples)  # var of variance estimate
        assert abs(vals.var(ddof=1) - target) < 4 * se

    def test_covariance_matches_green(self):
        lat = ModeLattice(1, 6)
        nsamples = 40_000
        x, y = 0.15, 0.55
        amps = tf.batch_amplitudes(lat, GFF, nsamples, seed=5)
        B = tf.synthesis_matrix(lat, np.array([[x], [y]]))
        vals = B @ amps
        cov = np.mean(vals[0] * vals[1])
        target = green_truncated(y - x, 1, 6)
        spread = np.std(vals[0] * vals[1], ddof=1) / math.sqrt(nsamples)
        assert abs(cov - target) < 4 * spread

    def test_mode_covariance_identity(self):
        # empirical covariance of the raw amplitudes is the diagonal weight^2
        lat = ModeLattice(2, 2)
        nsamples = 30_000
        amps = tf.batch_amplitudes(lat, GFF, nsamples, seed=11)
        labels = tf.mode_labels(lat)
        emp = amps @ amps.T / nsamples
        for i, (k, _) in enumerate(labels):
            w2 = float(lat.lam(k)) ** -1.0
            assert abs(emp[i, i] - w2) < 5 * w2 * math.sqrt(2.0 / nsamples)
            for j in range(i):
                bound = 5 * math.sqrt(emp[i, i] * emp[j, j] / nsamples)
                assert abs(emp[i, j]) < bound

    def test_white_profile_weights_are_one(self):
        lat = ModeLattice(1, 3)
        s = sample_field(WHITE, lat, seed=1)
        assert s.variance_target() == len(lat.modes)


class TestPairing:
    def test_zero_mode_indicator(self):
        lat = ModeLattice(1, 3)
        s = sample_field(WHITE, lat, seed=2)
        zero = ((0,), "c")
        assert pair_with_testfunction(s, {zero: 1.0}) == s.amplitudes[zero]

    def test_unsupported_mode(self):
        lat = ModeLattice(1, 2)
        s = sample_field(WHITE, lat, seed=2)
        with pytest.raises(ValueError):
            pair_with_testfunction(s, {((5,), "c"): 1.0})

    def test_white_noise_covariance(self):
        # E[<xi, phi1><xi, phi2>] = <phi1, phi2> in the real basis
        lat = ModeLattice(1, 4)
        phi1 = {((1,), "c"): 0.7, ((2,), "s"): -0.3, ((0,), "c"): 0.2}
        phi2 = {((1,), "c"): -1.1, ((2,), "s"): 0.5}
        target = 0.7 * -1.1 + -0.3 * 0.5
        nsamples = 40_000
        vals = []
        amps = tf.batch_amplitudes(lat, WHITE, nsamples, seed=13)
        labels = tf.mode_labels(lat)
        idx = {lab: i for i, lab in enumerate(labels)}
        v1 = sum(c * amps[idx[m]] for m, c in phi1.items())
        v2 = sum(c * amps[idx[m]] for m, c in phi2.items())
        prod = v1 * v2
        se = prod.std(ddof=1) / math.sqrt(nsamples)
        assert abs(prod.mean() - target) < 4 * se

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_must_be_positive(self, grid):
        def refuse(p):
            raise AssertionError("no point is evaluated")

        with pytest.raises(ValueError, match=f"grid must be >= 1, got {grid}"):
            tf.testfunction_from_values(ModeLattice(1, 2), refuse, grid)

    @pytest.mark.parametrize("d, N, grid", [(1, 5, 16), (2, 3, 12)])
    def test_coefficients_match_per_mode_quadrature(self, d, N, grid):
        # the per-mode cosine and sine means synthesis_matrix replaced
        lat = ModeLattice(d, N)
        pts = tf.grid_points(d, grid)

        def func(p):
            return math.exp(math.cos(tf.TWO_PI * p[0]) + p[-1] ** 2)

        vals = np.array([func(p) for p in pts])
        want = {((0,) * d, "c"): vals.mean()}
        for k in lat.positive_modes():
            phase = tf.TWO_PI * pts @ np.asarray(k, dtype=float)
            want[k, "c"] = (vals * np.cos(phase)).mean() * math.sqrt(2.0)
            want[k, "s"] = (vals * np.sin(phase)).mean() * math.sqrt(2.0)
        got = tf.testfunction_from_values(lat, func, grid)
        assert list(got) == tf.mode_labels(lat)
        scale = max(abs(v) for v in want.values())
        assert max(abs(got[m] - want[m]) for m in want) <= 1e-14 * scale

    def test_scaled_bump_variance(self):
        # Var<xi, S^lambda phi> tracks lambda^-d ||phi||^2 for a narrow bump
        lat = ModeLattice(1, 24)

        def bump(width):
            def f(p):
                u = (p[0] % 1.0) - 0.5
                return math.exp(-0.5 * (u / width) ** 2)

            return f

        width0 = 0.04
        targets = {}
        for lam in (1.0, 0.5, 0.25):
            # S^lambda phi(x) = lambda^-d phi(x / lambda): narrower, taller bump
            def scaled(p, lam=lam):
                u = ((p[0] - 0.5) % 1.0 + 0.5) % 1.0  # recenter
                v = (p[0] % 1.0) - 0.5
                return (1.0 / lam) * math.exp(-0.5 * (v / (lam * width0)) ** 2)

            phihat = tf.testfunction_from_values(lat, scaled, grid=512)
            var_exact = sum(c * c for c in phihat.values())
            targets[lam] = var_exact
        # the mode-space variance should scale like lambda^-1 (d = 1)
        assert targets[0.5] / targets[1.0] == pytest.approx(2.0, rel=0.1)
        assert targets[0.25] / targets[1.0] == pytest.approx(4.0, rel=0.2)


class TestSobolev:
    def test_gff_s0_is_variance(self):
        assert sobolev_sum(0.0, 1, 6, GFF) == pytest.approx(c_variance(1, 6), rel=1e-12)

    def test_white_threshold_d2(self):
        # s = -1.01 Cauchy-converges in N; s = -0.99 keeps growing
        def ladder(s):
            return [sobolev_sum(s, 2, N, WHITE) for N in (16, 32, 64, 128, 256)]

        conv = ladder(-1.01)
        div = ladder(-0.99)
        conv_incr = [b - a for a, b in zip(conv, conv[1:])]
        div_incr = [b - a for a, b in zip(div, div[1:])]
        # Cauchy: increments shrink at every doubling; divergent: they grow
        assert all(b / a < 1.0 for a, b in zip(conv_incr, conv_incr[1:]))
        assert all(b / a > 1.0 for a, b in zip(div_incr, div_incr[1:]))

    def test_gff_threshold_d2(self):
        def ladder(s):
            return [sobolev_sum(s, 2, N, GFF) for N in (16, 32, 64, 128, 256)]

        conv = ladder(-0.01)
        div = ladder(0.01)
        conv_incr = [b - a for a, b in zip(conv, conv[1:])]
        div_incr = [b - a for a, b in zip(div, div[1:])]
        assert all(b / a < 1.0 for a, b in zip(conv_incr, conv_incr[1:]))
        assert all(b / a > 1.0 for a, b in zip(div_incr, div_incr[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            sobolev_sum(0.0, 2, 4, SpectralProfile("fractional", 1.0))


class TestWickPowers:
    def test_n1_is_field(self):
        lat = ModeLattice(1, 4)
        s = sample_field(GFF, lat, seed=3)
        grid = 32
        np.testing.assert_allclose(
            wick_power_field(s, 1, grid), s.evaluate_grid(grid), rtol=1e-12
        )

    def test_matches_the_explicit_hermite_sum(self):
        # H_n(x; c) = n! sum_k (-1)^k c^k x^(n - 2k) / (2^k k! (n - 2k)!) in floats
        s = sample_field(GFF, ModeLattice(2, 3), seed=4)
        values, c = s.evaluate_grid(8), s.variance_target()
        for n in range(1, 7):
            want = sum(
                (-1) ** k * math.factorial(n) * c**k * values ** (n - 2 * k)
                / (2**k * math.factorial(k) * math.factorial(n - 2 * k))
                for k in range(n // 2 + 1)
            )
            got = wick_power_field(s, n, 8)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * c ** (n / 2))

    def test_square_integral_centered(self):
        lat = ModeLattice(1, 6)
        nsamples = 4000
        vals = [
            tf.integral_wick_square(sample_field(GFF, lat, seed=1000 + j))
            for j in range(nsamples)
        ]
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(nsamples)
        assert abs(mean) < 4 * se

    def test_square_integral_variance_matches_lattice_sum(self):
        lat = ModeLattice(1, 6)
        nsamples = 6000
        vals = np.array(
            [
                tf.integral_wick_square(sample_field(GFF, lat, seed=5000 + j))
                for j in range(nsamples)
            ]
        )
        target = wick_integral_variance(1, 6, 2)
        est = vals.var(ddof=1)
        se = est * math.sqrt(2.0 / nsamples) * 2  # loose var-of-var band
        assert abs(est - target) < 4 * se

    def test_grid_route_matches_mode_route(self):
        lat = ModeLattice(1, 4)
        s = sample_field(GFF, lat, seed=9)
        grid = 4 * 4 + 1
        w2 = wick_power_field(s, 2, grid)
        assert float(w2.mean()) == pytest.approx(tf.integral_wick_square(s), rel=1e-9)


class TestWickIntegralVariance:
    def test_n2_closed_form(self):
        lat = ModeLattice(1, 5)
        direct = 2.0 * sum(1.0 / float(lat.lam(k)) ** 2 for k in lat.modes)
        assert wick_integral_variance(1, 5, 2) == pytest.approx(direct, rel=1e-12)

    def test_convolution_equals_bruteforce_floats(self):
        # the full stated grid: d <= 2, N <= 4, n <= 4
        for d in (1, 2):
            for N in (1, 2, 3, 4):
                for n in (2, 3, 4):
                    conv = wick_integral_variance(d, N, n)
                    brute = wick_integral_variance_bruteforce(d, N, n)
                    assert conv == pytest.approx(brute, rel=1e-11), (d, N, n)

    def test_convolution_equals_bruteforce_exact(self):
        coupling = Fraction(39, 10)
        for d, N, n in [(1, 4, 2), (1, 3, 4), (2, 2, 3), (2, 2, 4)]:
            conv = wick_integral_variance_exact(d, N, n, coupling)
            brute = wick_integral_variance_bruteforce(d, N, n, coupling=coupling)
            assert conv == brute, (d, N, n)

    def test_d2_increasing_and_cauchy(self):
        for n in (2, 3):
            ladder = [wick_integral_variance(2, N, n) for N in (8, 16, 32, 64)]
            assert all(b > a for a, b in zip(ladder, ladder[1:]))
            assert ladder[-1] - ladder[-2] < 0.05 * ladder[-1]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            wick_integral_variance(1, 4, 1)


class TestConvolveCubes:
    @staticmethod
    def is_smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    def test_smooth_len(self):
        for n in range(1, 401):
            m = tf._smooth_len(n)
            assert m >= n and self.is_smooth(m), n
            assert not any(self.is_smooth(k) for k in range(n, m)), n

    def test_nary_matches_chained_pairwise(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            a, b, c = (rng.standard_normal((side,) * d) for side in (9, 17, 9))
            got = tf.convolve_cubes(a, b, c)
            want = tf.convolve_cubes(tf.convolve_cubes(a, b), c)
            assert got.shape == (33,) * d
            scale = float(np.max(np.abs(want)))
            assert float(np.max(np.abs(got - want))) <= 1e-13 * scale, d

    def test_nary_matches_direct_sum(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, -1.0])
        want = np.convolve(np.convolve(a, b), a)
        assert np.allclose(tf.convolve_cubes(a, b, a), want, rtol=0, atol=1e-13)

    def test_identity_power_path(self):
        a = ModeLattice(2, 6).inverse_weight_cube()
        power = tf.convolve_cubes(a, a, a)
        distinct = tf.convolve_cubes(a, a.copy(), a.copy())
        scale = float(np.max(np.abs(distinct)))
        assert float(np.max(np.abs(power - distinct))) <= 1e-13 * scale

    def test_read_only_input_untouched(self):
        a = ModeLattice(3, 3).inverse_weight_cube()
        a.setflags(write=False)
        before = a.copy()
        tf.convolve_cubes(a, a, a, a)
        tf.convolve_cubes(a, a.copy())
        assert np.array_equal(a, before)

    def test_variance_matches_exact_at_rational_coupling(self):
        # Fraction(float) is the float's exact value, so both routes see one coupling
        for d, N, n in [(1, 5, 3), (2, 3, 4), (3, 2, 3)]:
            exact = wick_integral_variance_exact(d, N, n, Fraction(tf.TWO_PI**d))
            assert wick_integral_variance(d, N, n) == pytest.approx(float(exact), rel=1e-12)


class TestYoung:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            young_sum_check(2, 1, 1, 4)  # n + m = d is not admissible
        with pytest.raises(ValueError):
            young_sum_check(3, 3, 1, 4)

    def test_smallest_admissible_case_bounded(self):
        rows, sup = young_sum_check(3, 2, 2, 3)
        assert all(w <= sup for _, _, w in rows)
        assert sup < 60.0

    def test_sums_match_a_direct_pair_sum(self):
        # sum over k1 in the window with k - k1 in it too, term by term
        T = 3
        window = list(itertools.product(range(-T, T + 1), repeat=3))

        def inv(k, e):
            return math.sqrt(sum(c * c for c in k)) ** -e if any(k) else 0.0

        rows, _ = young_sum_check(3, 2, 1.5, 2, truncation=T)
        for k, total, _ in rows:
            rest = [tuple(a - b for a, b in zip(k, j)) for j in window]
            want = math.fsum(
                inv(j, 2) * inv(r, 1.5) for j, r in zip(window, rest) if max(map(abs, r)) <= T
            )
            assert total == pytest.approx(want, rel=1e-12), k

    @pytest.mark.parametrize("truncation", [1, -1])
    def test_truncation_must_hold_kmax(self, truncation):
        # the sums hold k1 + k2 only for |k_j| <= 2 * truncation; past that
        # an index ran off the convolution, or a negative one wrapped
        message = f"truncation must be >= 0 and >= kmax / 2 = 1.5, got {truncation}"
        with pytest.raises(ValueError, match=message):
            young_sum_check(3, 2, 2, 3, truncation=truncation)

    def test_truncation_at_half_kmax_reads_the_edge(self):
        rows, _ = young_sum_check(3, 2, 2, 2, truncation=1)
        assert {(-2, 0, 0), (2, 0, 0)} <= {tuple(map(int, k)) for k, _, _ in rows}
        assert all(total > 0 for _, total, _ in rows)

    def test_truncation_stable(self):
        _, sup1 = young_sum_check(3, 2, 2, 2, truncation=16)
        _, sup2 = young_sum_check(3, 2, 2, 2, truncation=32)
        assert abs(sup2 - sup1) / sup2 < 0.05


class TestIncrement:
    def test_zero_at_equal_points(self):
        assert gff1_increment_variance(0.3, 0.3, 16) == 0.0

    def test_linear_scaling_band(self):
        v1 = gff1_increment_variance(0.2, 0.2 + 0.08, 256)
        v2 = gff1_increment_variance(0.2, 0.2 + 0.04, 256)
        assert 0.3 < v2 / v1 < 0.7

    def test_fitted_constant_stable_under_doubling(self):
        def fit(N):
            seps = [0.01, 0.02, 0.04, 0.08]
            return max(gff1_increment_variance(0.1, 0.1 + h, N) / h for h in seps)

        c256, c512 = fit(256), fit(512)
        assert abs(c512 - c256) / c512 < 0.05

    def test_matches_mc(self):
        lat = ModeLattice(1, 8)
        nsamples = 30_000
        amps = tf.batch_amplitudes(lat, GFF, nsamples, seed=21)
        B = tf.synthesis_matrix(lat, np.array([[0.2], [0.45]]))
        vals = B @ amps
        inc = vals[1] - vals[0]
        est = inc.var(ddof=1)
        target = gff1_increment_variance(0.2, 0.45, 8)
        se = est * math.sqrt(2.0 / nsamples)
        assert abs(est - target) < 4 * se


class TestGFFMoments:
    def test_even_moments_track_double_factorials(self):
        # MC E[phi(x)^(2p)] / C_N^p ~ (2p-1)!! within Monte Carlo error
        lat = ModeLattice(1, 8)
        nsamples = 60_000
        amps = tf.batch_amplitudes(lat, GFF, nsamples, seed=31)
        B = tf.synthesis_matrix(lat, np.array([[0.41]]))
        vals = (B @ amps)[0]
        cn = c_variance(1, 8)
        for p, target in [(2, 3.0), (3, 15.0)]:
            draws = vals ** (2 * p) / cn**p
            est = draws.mean()
            se = draws.std(ddof=1) / math.sqrt(nsamples)
            assert abs(est - target) < 4 * se, p


class TestReproducibility:
    def test_convolution_bit_identical(self):
        a = wick_integral_variance(2, 16, 3)
        b = wick_integral_variance(2, 16, 3)
        assert a == b  # bitwise


class TestExport:
    def test_roundtrip_and_determinism(self, tmp_path):
        lat = ModeLattice(2, 3)
        s = sample_field(GFF, lat, seed=99)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        tf.write_sample(s, str(p1), grid=8)
        tf.write_sample(sample_field(GFF, ModeLattice(2, 3), seed=99), str(p2), grid=8)
        assert p1.read_bytes() == p2.read_bytes()
        header = tf.read_sample_header(str(p1))
        assert header["d"] == 2 and header["N"] == 3 and header["profile"] == "gff"
        assert header["seed"] == 99 and header["grid"] == 8


class TestGridSynthesizer:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 3, 8])
    def test_matches_synthesis_matrix(self, d, N):
        lat = ModeLattice(d, N)
        amps = tf.batch_amplitudes(lat, GFF, 3, seed=10 * d + N)
        for M in (4 * N + 1, 6):
            got = tf.grid_synthesizer(d, N, M)(amps)
            assert got.shape == (M**d, 3)
            pts = tf.grid_points(d, M)
            # the dense matrix in row blocks, so d = 3, N = 8 stays small
            for lo in range(0, len(pts), 4096):
                want = tf.synthesis_matrix(lat, pts[lo : lo + 4096]) @ amps
                scale = np.abs(want).max()
                assert np.abs(got[lo : lo + 4096] - want).max() <= 1e-12 * scale, (d, N, M)

    def test_built_once_per_grid(self):
        assert tf.grid_synthesizer(2, 3, 13) is tf.grid_synthesizer(2, 3, 13)
        assert tf.grid_synthesizer(2, 3, 13) is not tf.grid_synthesizer(2, 3, 12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 3, 8])
    def test_shifted_matches_synthesis_matrix(self, d, N):
        # for odd M, (j + 1/2)/M = j'/M + 1/2 with j' = j - (M - 1)/2 mod M, and
        # the shift by 1/2 multiplies mode k by (-1)^|k|_1
        lat = ModeLattice(d, N)
        amps = tf.batch_amplitudes(lat, GFF, 3, seed=40 + 10 * d + N)
        M = 2 * N + 1
        sign = np.array([(-1.0) ** sum(map(abs, k)) for k, _ in tf.mode_labels(lat)])
        plain = tf.grid_synthesizer(d, N, M)(sign[:, None] * amps)
        got = np.roll(plain.reshape((M,) * d + (3,)), (M - 1) // 2, axis=tuple(range(d)))
        want = tf.synthesis_matrix(lat, tf.grid_points(d, M) + 0.5 / M) @ amps
        assert np.abs(got.reshape(-1, 3) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 3, 8])
    def test_rule_matches_synthesis_matrix(self, d, N):
        # row (s, r_2, ..., r_d) is y = (s, r_2, ...)/2M on the rotated axes,
        # x_1 = y_1 + ... + y_d and x_i = x_1 - 2 y_i
        lat = ModeLattice(d, N)
        amps = tf.batch_amplitudes(lat, GFF, 3, seed=70 + 10 * d + N)
        amps.setflags(write=False)
        M = 2 * N + 1
        synth = tf.rule_synthesizer(d, N, M)
        got = synth(amps)
        assert synth.shape == (2 * M,) + (M,) * (d - 1)
        assert got.shape == (2 * M**d, 3)
        y = np.stack(np.meshgrid(*map(np.arange, synth.shape), indexing="ij"), -1).reshape(-1, d)
        t = y.sum(axis=1, keepdims=True) - 2 * y * (np.arange(d) > 0)
        t %= 2 * M
        # the points are 2M^d distinct points of the rule: j/M (t even) or (j + 1/2)/M (t odd)
        assert len(set(map(tuple, t.tolist()))) == 2 * M**d
        assert all(len(set(row)) == 1 for row in (t % 2).tolist())
        pts = t / (2 * M)
        for lo in range(0, len(pts), 4096):
            want = tf.synthesis_matrix(lat, pts[lo : lo + 4096]) @ amps
            scale = np.abs(want).max()
            assert np.abs(got[lo : lo + 4096] - want).max() <= 1e-12 * scale, (d, N)

    @pytest.mark.parametrize("d, N", [(1, 0), (1, 1), (1, 16), (2, 1), (2, 3), (2, 16), (3, 1), (3, 3)])
    def test_rule_quartic_mean_is_the_fine_grid_mean(self, d, N):
        # v^4 has l1 degree 4N: the rule's 2M^d points and the (4N+1)^d grid
        # both integrate it exactly
        amps = tf.batch_amplitudes(ModeLattice(d, N), GFF, 4, seed=3 * d + N)
        rule = tf.rule_synthesizer(d, N, 2 * N + 1)(amps)
        fine = tf.grid_synthesizer(d, N, 4 * N + 1)(amps)
        want = (fine**4).mean(axis=0)
        np.testing.assert_allclose((rule**4).mean(axis=0), want, rtol=1e-12, atol=0)

    def test_rule_at_d1_is_the_plain_grid(self):
        amps = tf.batch_amplitudes(ModeLattice(1, 5), GFF, 3, seed=2)
        rule = tf.rule_synthesizer(1, 5, 11)
        assert rule.shape == (22,)
        assert np.array_equal(rule(amps), tf.grid_synthesizer(1, 5, 22)(amps))

    def test_rule_built_once_per_grid(self):
        assert tf.rule_synthesizer(2, 3, 7) is tf.rule_synthesizer(2, 3, 7)
        with pytest.raises(ValueError, match=r"got 2\.0"):
            tf.rule_synthesizer(2.0, 3, 7)

    @pytest.mark.parametrize("M", [0, -2])
    @pytest.mark.parametrize("build", [tf.grid_synthesizer, tf.rule_synthesizer])
    def test_grid_size_must_be_positive(self, build, M):
        with pytest.raises(ValueError, match=rf"M must be at least 1, got {M}$"):
            build(2, 3, M)

    @pytest.mark.parametrize("d, N", [(1, 1), (1, 16), (2, 3), (2, 16), (3, 2), (3, 5)])
    def test_plain_grid_mean_square_is_parseval(self, d, N):
        # v^2 has l1 degree 2N < M = 2N + 1, so its plain-grid mean is exact
        amps = tf.batch_amplitudes(ModeLattice(d, N), GFF, 5, seed=d + N)
        v = tf.grid_synthesizer(d, N, 2 * N + 1)(amps)
        np.testing.assert_allclose((v * v).mean(axis=0), (amps * amps).sum(axis=0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d, N, M", [(1, 5, 12), (2, 3, 13), (3, 2, 7)])
    def test_evaluate_grid_matches_pointwise(self, d, N, M):
        s = sample_field(GFF, ModeLattice(d, N), seed=4)
        grid = s.evaluate_grid(M)
        assert grid.shape == (M,) * d
        np.testing.assert_allclose(
            grid.ravel(), s.evaluate(tf.grid_points(d, M)), rtol=0, atol=1e-12 * np.abs(grid).max()
        )


def _rule_mean(d, M, k):
    """Mean of e^(2 pi i k.x) over the grids j/M and (j + 1/2)/M."""
    pts = np.concatenate([tf.grid_points(d, M), tf.grid_points(d, M) + 0.5 / M])
    return np.exp(2j * np.pi * pts @ np.asarray(k, dtype=float)).mean()


def _union_mean(d, N, k):
    """The two-grid mean at M = 2N + 1, the Monte Carlo path's grid."""
    return _rule_mean(d, 2 * N + 1, k)


class TestTwoOffsetRule:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_exact_through_degree_4N(self, d, N):
        for k in tf._l1_ball(d, 4 * N):
            if any(k):
                assert abs(_union_mean(d, N, k)) <= 1e-13, (d, N, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_first_alias_beyond_4N(self, d, N):
        # |k|_1 = 4N + 2: both offsets see the mode with phase 1
        M = 2 * N + 1
        k = (2 * M,) if d == 1 else (M, M) + (0,) * (d - 2)
        assert abs(_union_mean(d, N, k) - 1) <= 1e-13


class TestLatticeRuleSize:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("deg", range(9))
    def test_exact_through_deg(self, d, deg):
        M = tf.lattice_rule_size(deg)
        for k in tf._l1_ball(d, deg):
            if any(k):
                assert abs(_rule_mean(d, M, k)) <= 1e-13, (d, deg, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("deg", range(9))
    def test_tight(self, d, deg):
        # the rule fails at |k|_1 = 2M: both grids see 2M e_1 with phase 1
        M = tf.lattice_rule_size(deg)
        assert abs(_rule_mean(d, M, (2 * M,) + (0,) * (d - 1)) - 1) <= 1e-13
        # and M is the least exact size: the rule of size M - 1 fails within deg
        if M > 1:
            k = (2 * (M - 1),) + (0,) * (d - 1)
            assert sum(k) <= deg
            assert abs(_rule_mean(d, M - 1, k) - 1) <= 1e-13

    def test_monte_carlo_grid(self):
        for N in range(20):
            assert tf.lattice_rule_size(4 * N) == 2 * N + 1


def even_cube(rng, d, radius):
    """A random cube, even under k -> -k, on the l1 ball of its radius."""
    c = rng.standard_normal((2 * radius + 1,) * d)
    return (c + np.flip(c)) * tf._l1_mask(d, radius)


class TestConstantTerm:
    def test_matches_full_convolution_centre(self):
        # even cubes (the rule's domain) with no other symmetry, on l1 balls
        # of unequal radii; a repeated array is transformed once, and a side
        # longer than M folds
        rng = np.random.default_rng(5)
        radii_sets = [(0, 0), (2, 5), (1, 1, 1), (3, 1, 0), (2, 2, 2, 2), (4, 1, 2, 0, 3)]
        for d in (1, 2, 3):
            for radii in radii_sets:
                cubes = [even_cube(rng, d, r) for r in radii]
                for args in (cubes, cubes[:1] * len(cubes)):
                    full = tf.convolve_cubes(*args)
                    S = full.shape[0] // 2
                    want = full[(S,) * d]
                    scale = float(np.max(np.abs(full)))
                    got = tf.constant_term(*packed_all(args))
                    assert abs(got - want) <= 1e-13 * scale, (d, radii)

    def test_rule_reads_only_the_l1_balls(self):
        # roundoff off a ball lies beyond the rule's degree: the dense route
        # masks it away, and a Ball never holds it
        a = ModeLattice(2, 3).inverse_weight_cube()
        noisy = a + 1e-3 * (1 - tf._l1_mask(2, 3))
        want = dense_ref.constant_term(a.copy(), a, a)
        assert dense_ref.constant_term(noisy, a, a) == want
        A = packed(a)
        assert tf.constant_term(packed(noisy), A, A) == tf.constant_term(packed(a.copy()), A, A) == want

    @pytest.mark.parametrize("d, radii", [(1, (7, 3)), (2, (2, 6)), (3, (5, 4))])
    def test_two_cubes_match_fsum_of_the_product(self, d, radii):
        # two lopsided Balls, of unequal radii and with no symmetry: the
        # common box, b reversed
        rng = np.random.default_rng(11)
        a, b = (rng.standard_normal((2 * R + 1,) * d) * tf._l1_mask(d, R) for R in radii)
        r = min(radii)
        a_box, b_box = (dense_ref.crop(c, R, r) for c, R in zip((a, b), radii))
        terms = (a_box * np.flip(b_box)).ravel().tolist()
        got = tf.constant_term(packed(a), packed(b))
        assert abs(got - math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))

    def test_two_cubes_build_no_product_of_the_box(self):
        rng = np.random.default_rng(12)
        a, b = (packed(rng.standard_normal((41,) * 3)) for _ in range(2))
        tracemalloc.start()
        try:
            tf.constant_term(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 41**3

    def test_ball_dot_of_product_balls_builds_no_box(self, monkeypatch):
        # two strands kept as products on their balls, as series nodes keep
        # theirs: each block, one slab here, is multiplied and unpacked alone,
        # so only a few slabs are alive at a time, never a box
        monkeypatch.setattr(tf, "_FOLD_BYTES", 1)
        rng = np.random.default_rng(14)
        a, b = (packed(rng.standard_normal((41,) * 3)).values for _ in range(2))
        left, right = (tf.Ball(v, 3, 20) for v in (a * b * a, b * (a * b)))
        tracemalloc.start()
        try:
            tf._ball_dot(left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 41**3 / 4

    def test_double_triangle_holds_one_box_at_a_time(self):
        # the ring reads [B, B.B] at its centre: B, radius 2N, is kept on its
        # l1 ball and its window transform is one complex M^3 grid; no box
        # of B, nor the series square B.B, a rolled mirror of the grid or a
        # box-sized mask, is built, so the peak stays below one box of B
        N = 24
        fy._base_weight(3, N, 1.0)
        fy._valuate_cached.cache_clear()  # the ring valuates, not the class cache
        box = 8 * (4 * N + 1) ** 3
        tracemalloc.start()
        try:
            fy.valuate(fy.double_triangle(), 3, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < box

    def test_ball_dot_of_product_balls_gives_the_constant_term_bits(self):
        # a strand whose entries are products, nested as a series tree nests
        # them, sums to the bit what the dense route sums its boxes to
        rng = np.random.default_rng(13)
        for d in (1, 2, 3):
            cubes = [even_cube(rng, d, 4) for _ in range(3)]
            cubes.append(dense_ref.crop(rng.standard_normal((13,) * d), 6, 4) * tf._l1_mask(d, 4))  # no symmetry
            balls = [packed(c) for c in cubes]
            for left, right in [
                (lambda x: x[0] * x[1], lambda x: x[2]),
                (lambda x: x[0] * (x[1] * x[2]), lambda x: x[3]),
                (lambda x: x[3], lambda x: x[0] * x[1] * x[2]),
                (lambda x: (x[1] * x[2]) * x[0], lambda x: x[0] * (x[2] * (x[1] * x[0]))),
            ]:
                strands = [tf.Ball(f([w.values for w in balls]), d, 4) for f in (left, right)]
                want = dense_ref.constant_term(left(cubes), right(cubes))
                assert tf._ball_dot(*strands) == want, d
                assert tf.constant_term(*strands) == want, d

    def test_rejects_a_cube_that_is_not_even(self):
        a = ModeLattice(2, 2).inverse_weight_cube()
        lopsided = a.copy()
        lopsided[1, 2] += 1e-6
        A, lopsided = packed(a), packed(lopsided)
        with pytest.raises(ValueError, match=r"shape \(5, 5\) is not even"):
            tf.constant_term(A, A, lopsided)
        # two Balls are a dot product, which needs no symmetry
        assert tf.constant_term(A, lopsided) == pytest.approx(tf.constant_term(A, A), abs=1e-5)


def _c_order_indices(n, d):
    """The points of {0..n-1}^d in C order, shape (n^d, d)."""
    return np.stack(np.meshgrid(*[np.arange(n)] * d, indexing="ij"), -1).reshape(-1, d)


class TestPackedRuleMean:
    """The per-orbit reference's step (k4_reference) against a dense sum
    over both grids."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_sum(self, d):
        # result = 2 sum_g sum_j a(x) b(x) f(x), x = (j + g/2)/M, with
        # a(x) = sum_i A[i] exp(-2 pi i (lo_A + i).x) and b the same for B
        rng = np.random.default_rng(40 + d)
        # blocks shorter than M, as long, and longer (folded onto M)
        for M, side in [(5, 3), (4, 4), (5, 8), (4, 11)]:
            f = tf._grid_values(packed(even_cube(rng, d, 3)), M)
            f = np.stack((f.real, f.imag))
            out = np.empty((2,) + (M,) * d, complex)
            A, B = rng.standard_normal((2,) + (side,) * d)
            lo_a, lo_b = rng.integers(-2 * side, side, size=(2, d))  # per axis
            got = k4_ref._packed_rule_mean(A + 1j * B, (lo_a + lo_b).tolist(), f, out)
            i = _c_order_indices(side, d)
            want, scale = 0.0, 0.0
            for g in (0, 1):
                x = (_c_order_indices(M, d) + g / 2) / M
                a = np.exp(-2j * np.pi * x @ (lo_a + i).T) @ A.ravel()
                b = np.exp(-2j * np.pi * x @ (lo_b + i).T) @ B.ravel()
                terms = a * b * f[g].ravel()
                want += 2 * terms.sum()
                scale += 2 * np.abs(terms).sum()
            assert abs(want.imag) <= 1e-12 * scale
            assert abs(got - want.real) <= 1e-12 * scale, (d, M, side)


class TestPairedRuleMean:
    """The K4 core's paired step against a dense sum over both grids."""

    @pytest.mark.parametrize("scratch", [tf._SCRATCH_BYTES, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_sum(self, d, scratch, monkeypatch):
        # value o = 2 sum_g sum_j psi_o(x) alpha_o(x)^2 f(x), x = (j + g/2)/M,
        # with alpha_o(x) = sum_i A_o[i] exp(-2 pi i i.x) and psi_o(x) =
        # exp(-2 pi i t_o.x); a one-byte scratch reads one slab per block
        monkeypatch.setattr(tf, "_SCRATCH_BYTES", scratch)
        rng = np.random.default_rng(50 + d)
        # odd and even M (the half-cell grid's mirror differs), each with
        # blocks shorter than M and as long, written into out[0] at index 0
        # with row 1 left stale; one block alone and two packed, alternately
        cases = [(5, 3), (5, 5), (4, 3), (4, 4), (1, 1), (2, 2), (3, 1), (3, 2)]
        for k, (M, side) in enumerate(cases):
            n = 1 + k % 2
            f = tf._grid_values(packed(even_cube(rng, d, 3)), M)  # u + iv, as the core passes it
            out = np.full((2,) + (M,) * d, np.nan, complex)
            A = rng.standard_normal((n,) + (side,) * d)
            t = rng.integers(-3 * side, 2 * side, size=(n, d))  # per block and axis
            out[0].fill(0)
            out[0][(slice(0, side),) * d] = A[0] + 1j * A[1] if n == 2 else A[0]
            got = tf._paired_rule_mean(t.tolist(), f, out)
            i = _c_order_indices(side, d)
            assert len(got) == n and all(type(v) is float for v in got)
            for o in range(n):
                want, scale = 0.0, 0.0
                for g in (0, 1):
                    x = (_c_order_indices(M, d) + g / 2) / M
                    alpha = np.exp(-2j * np.pi * x @ i.T) @ A[o].ravel()
                    terms = np.exp(-2j * np.pi * x @ t[o]) * alpha**2 * (f.real, f.imag)[g].ravel()
                    want += 2 * terms.sum()
                    scale += 2 * np.abs(terms).sum()
                assert abs(want.imag) <= 1e-12 * scale
                assert abs(got[o] - want.real) <= 1e-12 * scale, (d, M, side, o)


class TestConvolutionWindow:
    """convolution_window against the padded-FFT reference convolve_cubes."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_convolve_cubes(self, d):
        rng = np.random.default_rng(7 + d)
        base = ModeLattice(d, 2).inverse_weight_cube()
        bubble = tf.convolution_window(*packed_all([base, base]), radius=4).box()  # a reducer's whole read
        radii_sets = [(0,), (3,), (1, 6), (2, 2, 0), (6, 1, 1), (1, 2, 1, 3)]
        cases = [[even_cube(rng, d, r) for r in radii] for radii in radii_sets]
        cases += [[base] * 4, [bubble, base, base], [bubble, bubble], [bubble, base, bubble]]
        folds = off_ball = 0
        for cubes in cases:
            for args in (cubes, cubes[:1] * len(cubes)):
                full = tf.convolve_cubes(*args)
                S = full.shape[0] // 2
                scale = float(np.max(np.abs(full)))
                for r in sorted(r for r in {0, 1, S // 3, S // 2, S} if r <= S):
                    M = tf._smooth_len(tf.lattice_rule_size(S + min(d * r, S)))
                    folds += max(c.shape[0] // 2 for c in args) >= M
                    got = tf.convolution_window(*packed_all(args), radius=r)
                    assert isinstance(got, tf.Ball) and got.radius == r, (d, S, r)
                    # every read comes on its l1 ball, and its box is 0 off it
                    ball = tf._l1_mask(d, r)
                    want = full[(slice(S - r, S + r + 1),) * d]
                    got = got.box()
                    assert got.shape == want.shape, (d, S, r)
                    assert float(np.max(np.abs(got - want)[ball])) <= 1e-12 * scale, (d, S, r)
                    off_ball += int(np.count_nonzero(~ball & (want != 0.0)))
                    assert np.all(got[~ball] == 0.0), (d, S, r)
        assert folds
        assert off_ball or d == 1

    def test_rejects_a_cube_that_is_not_even(self):
        a = ModeLattice(3, 1).inverse_weight_cube()
        lopsided = a.copy()
        lopsided[0, 1, 1] = 0.5
        with pytest.raises(ValueError, match=r"shape \(3, 3, 3\) is not even"):
            tf.convolution_window(packed(a), packed(lopsided), radius=1)

    def test_radius_within_the_support(self):
        a = tf.inverse_weight_ball(1, 2)
        with pytest.raises(ValueError, match="radius 5"):
            tf.convolution_window(a, a, radius=5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_separation_in_place_keeps_the_whole_array_bits(self, d):
        # odd and even M (M/2 is its own mirror), M = 1 and 2, and values
        # with exact ties between k and -k
        rng = np.random.default_rng(20 + d)
        for M in range(1, 13 if d == 3 else 26):
            for ties in (False, True):
                Y = rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)
                if ties:
                    Y = np.round(4 * Y) / 4
                for r in sorted({0, M // 2, M - 1}):
                    for S in sorted({r, max(r, d * r - 1)}):
                        want = whole_array_window(Y, r, S)
                        got = dense_ref.grid_window(Y.copy(), r, S)
                        assert got.tobytes() == want.tobytes(), (d, M, r, S)

    def test_separation_copies_under_half_of_the_grid(self):
        # two mirrored blocks of slabs and the 2A half, a quarter of Y's
        # bytes, at a time; mirroring the two halves whole took more than Y
        Y = np.ones((50,) * 3, complex)
        tracemalloc.start()
        try:
            tf._separate(Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < Y.nbytes * 3 / 4

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_separation_mirrors_one_block_at_a_time(self, d, monkeypatch):
        # one slab per block (a one-byte budget) and the default blocks give
        # the same bits
        rng = np.random.default_rng(30 + d)
        for M in range(1, 13 if d == 3 else 26):
            Y = rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)
            want = Y.copy()
            tf._separate(want)
            monkeypatch.setattr(tf, "_FOLD_BYTES", 1)
            got = Y.copy()
            tf._separate(got)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), (d, M)


def whole_array_window(Y, r, S):
    """dense_reference.grid_window's separation on whole arrays, a rolled
    mirror of Y and a separate 2A array, with the box then read by index."""
    dim, M = Y.ndim, Y.shape[0]
    mirror = np.conj(np.roll(np.flip(Y), 1, axis=tuple(range(dim))))  # conj Y(-k)
    even = (Y.real + mirror.real) * 0.25
    odd = Y - mirror
    for axis in range(dim):
        odd *= np.conj(tf._half_cell(M)).reshape((M,) + (1,) * (dim - 1 - axis))
    odd = odd.imag * 0.25
    k = np.arange(-r, r + 1)
    at = np.ix_(*[k % M] * dim)
    flips = sum(np.ix_(*[(k < 0).astype(int)] * dim)) % 2 == 1  # conj tau flips per negative axis
    box = np.where(flips, even[at] - odd[at], even[at] + odd[at])
    box[sum(np.ix_(*[np.abs(k)] * dim)) > S] = 0.0
    return box


def packed(cube) -> tf.Ball:
    """A cube's entries on its l1 ball, as a Ball."""
    R = cube.shape[0] // 2
    return tf.Ball(cube[tf._l1_mask(cube.ndim, R)], cube.ndim, R)


def packed_all(cubes) -> list:
    """The Balls of cubes, one per distinct array, so a repeated cube is a
    repeated Ball."""
    balls = {id(c): packed(c) for c in cubes}
    return [balls[id(c)] for c in cubes]


class TestBall:
    """Whole reads kept on their l1 balls, against the dense boxes."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_layout_is_the_ball_in_c_order(self, d):
        rng = np.random.default_rng(60 + d)
        for R in (0, 1, 4):
            cube = even_cube(rng, d, R)
            ball = packed(cube)
            assert ball.shape == cube.shape and ball.radius == R
            starts = tf._ball_starts(d, R)
            assert starts[-1] == len(ball.values) == int(np.count_nonzero(tf._l1_mask(d, R)))
            assert np.array_equal(ball.box(), cube)
            assert np.array_equal(ball.box(slice(1, 3)), cube[1:3])
            # reversed entries are the cube at -k
            assert np.array_equal(ball.values[::-1], np.flip(cube)[tf._l1_mask(d, R)])
            for i in range(2 * R + 1):
                assert starts[i + 1] - starts[i] == int(np.count_nonzero(tf._l1_mask(d, R)[i]))
                assert np.array_equal(ball.entries(i, i + 1), cube[i][tf._l1_mask(d, R)[i]])
                assert np.array_equal(tf._unpack(ball.entries(i, i + 1), d, R, i, i + 1)[0], cube[i])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_packed_whole_read_unpacks_to_the_dense_box(self, d):
        # odd and even M, M = 1 and 2, and radii up to M - 1: the ball's
        # entries are the dense read's, to the bit, and it is 0 off them
        rng = np.random.default_rng(70 + d)
        for M in range(1, 12 if d == 3 else 20):
            Y = rng.standard_normal((M,) * d) + 1j * rng.standard_normal((M,) * d)
            for r in sorted({0, 1, M // 2, M - 1} - {M}):
                ball = tf._grid_ball(Y.copy(), r)
                want = dense_ref.grid_window(Y.copy(), r, r)
                assert np.array_equal(ball.box(), want), (d, M, r)
                assert ball.box().tobytes() == whole_array_window(Y, r, r).tobytes(), (d, M, r)
                # a read short of the support keeps the dense box's ball
                wide = dense_ref.grid_window(Y.copy(), r, d * r)
                assert np.array_equal(ball.box(), wide * tf._l1_mask(d, r)), (d, M, r)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_convolution_window_reads_and_writes_balls(self, d):
        # every read is the dense box's ball, and packed strands give every
        # window the dense strands give, to the bit
        rng = np.random.default_rng(80 + d)
        base = ModeLattice(d, 2).inverse_weight_cube()
        for radii in [(1, 6), (2, 2, 0), (3,), (1, 2, 1, 3)]:
            cubes = [even_cube(rng, d, r) for r in radii] + [base, base]
            S = sum(c.shape[0] // 2 for c in cubes)
            for r in sorted({0, 1, S // 2, S}):
                want = dense_ref.convolution_window(*cubes, radius=r)
                got = tf.convolution_window(*packed_all(cubes), radius=r)
                assert isinstance(got, tf.Ball) and got.radius == r, (d, radii, r)
                assert np.array_equal(got.box(), want * tf._l1_mask(d, r)), (d, radii, r)

    def test_rejects_a_ball_that_is_not_even(self):
        a = ModeLattice(2, 2).inverse_weight_cube()
        lopsided = packed(a)
        lopsided.values[1] += 1e-6
        with pytest.raises(ValueError, match=r"shape \(5, 5\) is not even"):
            tf.convolution_window(packed(a), lopsided, radius=4)

    @pytest.mark.parametrize("fold_bytes", [tf._FOLD_BYTES, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_values_keep_the_whole_fold_bits(self, d, fold_bytes, monkeypatch):
        # folded a block of slabs at a time (one slab per block with a
        # one-byte budget) into the transform's buffer, a Ball gives the bits
        # of the whole masked cube folded into two real grids, which drop
        # what a cube holds off its ball; sides longer than M fold several
        # aliases onto one entry
        monkeypatch.setattr(tf, "_FOLD_BYTES", fold_bytes)
        rng = np.random.default_rng(90 + d)
        for R in (0, 3, 7):
            cube = even_cube(rng, d, R)
            noisy = cube + (1 - tf._l1_mask(d, R))  # masked away
            for M in (1, 2, 5, 6, 2 * R + 1, 2 * R + 4):
                want = dense_ref.grid_values(cube, M).tobytes()
                assert dense_ref.grid_values(noisy, M).tobytes() == want, (d, R, M)
                assert tf._grid_values(packed(cube), M).tobytes() == want, (d, R, M)

    @pytest.mark.parametrize("fold_bytes", [tf._FOLD_BYTES, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_dot_gives_the_slab_dot_bits(self, d, fold_bytes, monkeypatch):
        # blocks of several slabs, and of one
        monkeypatch.setattr(tf, "_FOLD_BYTES", fold_bytes)
        rng = np.random.default_rng(100 + d)
        for R in (0, 2, 5, 12):
            a, b = even_cube(rng, d, R), even_cube(rng, d, R)
            want = dense_ref.slab_dot(lambda _, i: a[i], lambda _, i: (a * b)[i], R)
            A, AB = packed(a), tf.Ball(packed(a).values * packed(b).values, d, R)
            got = tf._ball_dot(A, AB)
            assert got == want, (d, R)

    def test_ball_dot_unpacks_one_block_at_a_time(self, monkeypatch):
        # a centre read of two radius-20 balls at d = 3 builds no box: each
        # block of slabs, one slab here, is multiplied on the ball and
        # unpacked alone
        monkeypatch.setattr(tf, "_FOLD_BYTES", 1)
        ball = tf.convolution_window(*[tf.inverse_weight_ball(3, 10)] * 2, radius=20)
        tracemalloc.start()
        try:
            tf._ball_dot(ball, ball)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 41**3 / 8


class TestSymmetryCheck:
    def test_scratch_is_a_block_of_slabs(self):
        ball = tf.inverse_weight_ball(3, 40)  # 88 641 entries
        tracemalloc.start()
        try:
            tf._check_even(ball)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ball.values.nbytes / 4

    @pytest.mark.parametrize("at", [(0, 40, 40), (40, 40, 41), (80, 40, 40)])
    def test_every_block_is_read(self, at):
        # the first, the middle and the last slab lie in different blocks
        ball = tf.inverse_weight_ball(3, 40)
        assert len(tf._slab_blocks(ball.values.shape, ball.values.itemsize)) > 2
        cube = ball.box()
        lopsided = cube.copy()
        lopsided[at] += 1e-10  # max|cube| is 1
        with pytest.raises(ValueError, match=r"shape \(81, 81, 81\) is not even"):
            tf._check_even(packed(lopsided))
        lopsided[at] = cube[at] + 1e-13  # roundoff passes
        tf._check_even(packed(lopsided))


class TestBoxRouteBits:
    """The readers of lambda_k^(-s) on K_N, which read it as a Ball, against
    the box route of dense_reference, by float.hex."""

    @pytest.mark.parametrize("d, Ns", [(1, (0, 5, 64)), (2, (1, 6, 16)), (3, (1, 4, 8))])
    def test_readers_keep_the_box_route_bits(self, d, Ns):
        rng = np.random.default_rng(110 + d)
        for N in Ns:
            got = [wick_integral_variance(d, N, n) for n in (2, 3, 4)]
            want = [dense_ref.wick_integral_variance(d, N, n) for n in (2, 3, 4)]
            got.append(c_variance(d, N))
            want.append(dense_ref.weight_sum(d, N, 1.0))
            for x in [(0.0,) * d, (0.5,) * d, tuple(rng.uniform(-1.0, 1.0, d)), tuple(rng.uniform(-1.0, 1.0, d))]:
                got.append(green_truncated(x, d, N))
                want.append(dense_ref.green_truncated(x, d, N))
            for s in (-1.0, 0.5):
                got += [sobolev_sum(s, d, N, WHITE), sobolev_sum(s, d, N, GFF)]
                want += [dense_ref.weight_sum(d, N, -s), dense_ref.weight_sum(d, N, 1.0 - s)]
            for s in (0.0, 0.5, 0.75):
                got.append(FieldSample(ModeLattice(d, N), SpectralProfile("fractional", s), 0).variance_target())
                want.append(dense_ref.weight_sum(d, N, 2 * s))
            assert [v.hex() for v in got] == [v.hex() for v in want], (d, N)


class TestMCBlocks:
    @pytest.mark.parametrize("samples", [2, 7, 8, 9, 1000])
    def test_numpy_mean_and_stderr_over_consecutive_blocks(self, samples):
        want = np.random.default_rng(samples).standard_normal(samples) ** 3
        seen = []

        def fill(lo, out):
            seen.append((lo, len(out)))
            out[:] = want[lo : lo + len(out)]

        est, se = tf._mc_blocks(samples, 4, fill)
        assert seen == [(lo, min(4, samples - lo)) for lo in range(0, samples, 4)]
        assert type(est) is float and type(se) is float
        assert est.hex() == float(want.mean()).hex()
        assert se.hex() == float(want.std(ddof=1) / math.sqrt(samples)).hex()

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_needs_two_samples(self, samples):
        def fill(lo, out):
            raise AssertionError("filled")

        with pytest.raises(ValueError, match=f"samples must be at least 2 for a standard error, got {samples}"):
            tf._mc_blocks(samples, 4, fill)
