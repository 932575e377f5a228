import itertools
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from wickworks import chaos
from wickworks.chaos import (
    ChaosElement,
    GenTensor,
    MultiIndex,
    SymTensor,
    chaos_multiply,
    contract,
    expectation,
    from_polynomial,
    inner,
    mehler_mc,
    moment_equivalence_report,
    ou_semigroup,
    symmetrize,
    tensor_preimage,
    wick_product,
    wiener_isometry,
)
from wickworks.pairings import CovMatrix, MultivarPoly, gaussian_poly_expectation

import exact_reference as ref


def phi(dim, **kw):
    return ChaosElement(dim, {MultiIndex(kw.get("k", {})): kw.get("c", 1)})


class TestSymmetrize:
    def test_rank2(self):
        t = symmetrize({(0, 1): Fraction(1)}, dim=2)
        assert t.coeffs == {(0, 1): Fraction(1, 2)}

    def test_basis_tensor_value(self):
        # e_k for k = (2,1,0): value at any tuple of the orbit is k!/n! = 1/3
        k = MultiIndex({0: 2, 1: 1})
        e = SymTensor.basis(3, k)
        assert e.coeffs == {(0, 0, 1): Fraction(2, 6)}
        assert e.inner(e) == Fraction(2, 6)  # = k!/n!

    def test_idempotent(self):
        rng = random.Random(0)
        raw = {
            tuple(rng.randrange(2) for _ in range(3)): Fraction(rng.randint(-3, 3))
            for _ in range(5)
        }
        once = symmetrize(raw, dim=2)
        twice = symmetrize(once, dim=2)
        assert once == twice

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            symmetrize({(0, 5): Fraction(1)}, dim=2)


class TestIsometry:
    def test_coordinates(self):
        e1 = SymTensor(2, 1, {(0,): 1})
        assert wiener_isometry(e1) == phi(2, k={0: 1})

    def test_rank2_diagonal(self):
        t = SymTensor(2, 2, {(0, 0): 1})
        assert wiener_isometry(t) == phi(2, k={0: 2})

    def test_i2_h_tensor_g(self):
        # I-hat_2(h x g) = sum_{i<j} (h_i g_j + h_j g_i) X_i X_j + sum_i h_i g_i H_2(X_i)
        h = [Fraction(1), Fraction(2), Fraction(0)]
        g = [Fraction(3), Fraction(-1), Fraction(5)]
        raw = {}
        for i in range(3):
            for j in range(3):
                key = (i, j)
                raw[key] = raw.get(key, Fraction(0)) + h[i] * g[j]
        t = symmetrize(raw, dim=3)
        F = wiener_isometry(t)
        expected = ChaosElement(3)
        for i in range(3):
            for j in range(3):
                if i < j:
                    expected = expected + ChaosElement(
                        3, {MultiIndex({i: 1, j: 1}): h[i] * g[j] + h[j] * g[i]}
                    )
                elif i == j:
                    expected = expected + ChaosElement(3, {MultiIndex({i: 2}): h[i] * g[i]})
        assert F == expected

    def test_rank_one_power_is_scaled_hermite(self):
        # I-hat_n(h^xn) = H_n(W(h); |h|^2): check via second moments
        from wickworks.polyalg import hermite_scaled

        h = [Fraction(1, 2), Fraction(1, 3)]
        norm2 = sum(x * x for x in h)
        n = 3
        raw = {}
        for key in itertools.product(range(2), repeat=n):
            val = Fraction(1)
            for i in key:
                val *= h[i]
            raw[key] = val
        F = wiener_isometry(symmetrize(raw, dim=2))
        # E[F^2] must equal n! |h|^(2n) (isometry with the n! normalization)
        assert inner(F, F) == factorial(n) * norm2**n
        # and E[F * W(h)^n] matches E[H_n(Z; s) Z^n] with Z ~ N(0, s), s = |h|^2
        w = ChaosElement(2, {MultiIndex({0: 1}): h[0], MultiIndex({1: 1}): h[1]})
        wn = ChaosElement.constant(2, 1)
        for _ in range(n):
            wn = chaos_multiply(wn, w)
        hs = hermite_scaled(n, norm2)
        # E[H_n(Z;s) Z^n] = n! * leading coefficient * s^n = n! s^n
        assert inner(F, wn) == factorial(n) * norm2**n

    def test_isometry_inner_product(self):
        rng = random.Random(1)
        for rank in (1, 2, 3):
            raws = []
            for _ in range(2):
                raw = {
                    tuple(sorted(rng.randrange(2) for _ in range(rank))): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(4)
                }
                raws.append(SymTensor(2, rank, raw))
            f, g = raws
            assert inner(wiener_isometry(f), wiener_isometry(g)) == factorial(
                rank
            ) * f.inner(g)


class TestContract:
    def test_rank2_rank1(self):
        f = SymTensor(2, 2, {(0, 0): 1})
        g = SymTensor(2, 1, {(0,): 1})
        out = contract(f, g, 1)
        assert out.coeffs == {(0,): Fraction(2)}

    def test_p0_is_tensor_product(self):
        f = SymTensor(2, 1, {(0,): 1})
        g = SymTensor(2, 1, {(1,): 1})
        out = contract(f, g, 0)
        assert out.coeffs == {(0, 1): Fraction(1, 2)}

    def test_full_contraction_of_unit_power(self):
        h = [Fraction(3, 5), Fraction(4, 5)]
        raw = {}
        for key in itertools.product(range(2), repeat=4):
            val = Fraction(1)
            for i in key:
                val *= h[i]
            raw[key] = val
        f = symmetrize(raw, dim=2)
        out = contract(f, f, 4)
        assert out.rank == 0
        assert out.coeffs == {(): Fraction(24)}

    def test_general_matches_symmetric_on_symmetric_input(self):
        rng = random.Random(2)
        for n, m, p in [(2, 1, 1), (2, 2, 1), (3, 2, 2), (2, 2, 2)]:
            fraw = {
                tuple(sorted(rng.randrange(2) for _ in range(n))): Fraction(
                    rng.randint(-2, 3)
                )
                for _ in range(3)
            }
            graw = {
                tuple(sorted(rng.randrange(2) for _ in range(m))): Fraction(
                    rng.randint(-2, 3)
                )
                for _ in range(3)
            }
            f, g = SymTensor(2, n, fraw), SymTensor(2, m, graw)
            fast = contract(f, g, p)
            slow = contract(GenTensor.from_sym(f), GenTensor.from_sym(g), p)
            assert fast == slow

    def test_pairing_recursion(self):
        # f *_p (g1 x g2) = [p != 0] (f *_{p-1} g1) *_1 g2 + [p != m] (f *_p g1) x g2.
        # The graphical recursion pairs g2 against f only, so it holds on the
        # nose (raw ordered tensors) when g2 is orthogonal to g1's support --
        # exactly the configuration the chaos-product induction goes through.
        from wickworks.chaos import contract_raw

        rng = random.Random(3)
        n, m1 = 3, 2
        dim = 3
        f = GenTensor(
            dim,
            n,
            {
                tuple(rng.randrange(dim) for _ in range(n)): Fraction(rng.randint(-2, 3))
                for _ in range(5)
            },
        )
        g1 = GenTensor(
            dim,
            m1,
            {
                tuple(rng.randrange(2) for _ in range(m1)): Fraction(rng.randint(-2, 3))
                for _ in range(3)
            },
        )
        g2 = GenTensor(dim, 1, {(2,): Fraction(2)})  # supported off g1's indices
        gg = {
            k1 + k2: c1 * c2
            for k1, c1 in g1.coeffs.items()
            for k2, c2 in g2.coeffs.items()
        }
        g = GenTensor(dim, m1 + 1, gg)
        m = m1 + 1

        def tensor_prod(a, b):
            return GenTensor(
                dim,
                a.rank + b.rank,
                {
                    k1 + k2: c1 * c2
                    for k1, c1 in a.coeffs.items()
                    for k2, c2 in b.coeffs.items()
                },
            )

        for p in range(0, m + 1):
            lhs = contract_raw(f, g, p)
            acc = {}
            if p != 0:
                t = contract_raw(contract_raw(f, g1, p - 1), g2, 1)
                for k, c in t.coeffs.items():
                    acc[k] = acc.get(k, Fraction(0)) + c
            if p != m:
                t = tensor_prod(contract_raw(f, g1, p), g2)
                for k, c in t.coeffs.items():
                    acc[k] = acc.get(k, Fraction(0)) + c
            acc = {k: c for k, c in acc.items() if c}
            assert lhs.coeffs == acc, p

    def test_out_of_range(self):
        f = SymTensor(2, 1, {(0,): 1})
        with pytest.raises(ValueError):
            contract(f, f, 2)
        with pytest.raises(ValueError):
            contract(f, SymTensor(3, 1, {(0,): 1}), 0)


class TestMultiply:
    def test_mult_11(self):
        # X1 * X1 = H2(X1) + 1
        x = phi(2, k={0: 1})
        for route in ("direct", "contraction"):
            prod = chaos_multiply(x, x, route)
            assert prod == ChaosElement(2, {MultiIndex({0: 2}): 1, MultiIndex(): 1})

    def test_mixed_example(self):
        F = ChaosElement(2, {MultiIndex({0: 2, 1: 1}): 1})
        G = phi(2, k={0: 1})
        assert chaos_multiply(F, G, "direct") == chaos_multiply(F, G, "contraction")

    def test_route_equality_on_basis_lattice(self):
        # exhaustive over Phi_k pairs with N = 2, grades <= 3 (the N = 3
        # grades <= 4 sweep runs in the acceptance suite)
        dims = 2
        idxs = [
            MultiIndex(dict(zip(range(dims), combo)))
            for total in range(4)
            for combo in itertools.product(range(4), repeat=dims)
            if sum(combo) == total
        ]
        for k1 in idxs:
            for k2 in idxs:
                F = ChaosElement(dims, {k1: Fraction(2, 3)})
                G = ChaosElement(dims, {k2: Fraction(-3, 2)})
                assert chaos_multiply(F, G, "direct") == chaos_multiply(
                    F, G, "contraction"
                ), (k1, k2)

    def test_multiply_matches_isserlis(self):
        rng = random.Random(4)
        for _ in range(5):
            F = ChaosElement(
                2,
                {
                    MultiIndex({0: rng.randint(0, 2), 1: rng.randint(0, 2)}): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(2)
                },
            )
            G = ChaosElement(
                2,
                {
                    MultiIndex({0: rng.randint(0, 2)}): Fraction(rng.randint(-3, 3))
                    for _ in range(2)
                },
            )
            prod = chaos_multiply(F, G)
            lhs = expectation(prod)
            rhs = gaussian_poly_expectation(
                CovMatrix.identity(2), F.as_polynomial() * G.as_polynomial()
            )
            assert lhs == rhs


class TestWickProduct:
    def test_squares(self):
        x = phi(2, k={0: 1})
        assert wick_product(x, x) == phi(2, k={0: 2})

    def test_unit(self):
        F = phi(2, k={0: 2, 1: 1})
        one = ChaosElement.constant(2, 1)
        assert wick_product(F, one) == F

    def test_iterated(self):
        x = phi(2, k={0: 1})
        assert wick_product(wick_product(x, x), x) == phi(2, k={0: 3})

    def test_requires_homogeneous(self):
        F = ChaosElement(2, {MultiIndex({0: 1}): 1, MultiIndex(): 1})
        with pytest.raises(ValueError):
            wick_product(F, F)


class TestExpectationInner:
    def test_expectation_of_hermite(self):
        assert expectation(phi(2, k={0: 4})) == 0

    def test_inner_phi_k(self):
        F = phi(2, k={0: 2, 1: 1})
        assert inner(F, F) == 2

    def test_inner_matches_isserlis(self):
        F = ChaosElement(2, {MultiIndex({0: 2}): Fraction(1, 2), MultiIndex({1: 1}): 1})
        G = ChaosElement(2, {MultiIndex({0: 2}): 2, MultiIndex(): 3})
        got = inner(F, G)
        viaisserlis = gaussian_poly_expectation(
            CovMatrix.identity(2), F.as_polynomial() * G.as_polynomial()
        )
        assert got == viaisserlis


class TestOU:
    def test_t0_identity(self):
        F = ChaosElement(2, {MultiIndex({0: 2}): 1, MultiIndex(): 2})
        out = ou_semigroup(F, 0.0)
        for k, c in F.coeffs.items():
            assert out.coeffs[k] == pytest.approx(float(c))

    def test_projection_at_large_t(self):
        F = ChaosElement(2, {MultiIndex({0: 2}): 1, MultiIndex(): 2})
        out = ou_semigroup(F, 60.0)
        assert out.coeffs[MultiIndex()] == pytest.approx(2.0)
        assert out.coeffs.get(MultiIndex({0: 2}), 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_eigenvalue(self):
        import math

        F = phi(1, k={0: 2})
        out = ou_semigroup(F, 1.0)
        assert out.coeffs[MultiIndex({0: 2})] == pytest.approx(math.exp(-2))

    def test_semigroup_property(self):
        import math

        F = ChaosElement(1, {MultiIndex({0: 3}): 1.0, MultiIndex({0: 1}): -2.0})
        a = ou_semigroup(ou_semigroup(F, 0.3), 0.5)
        b = ou_semigroup(F, 0.8)
        for k in b.coeffs:
            assert a.coeffs[k] == pytest.approx(b.coeffs[k])

    def test_expectation_preserved(self):
        F = ChaosElement(1, {MultiIndex(): 5, MultiIndex({0: 4}): 2})
        assert expectation(ou_semigroup(F, 0.7)) == pytest.approx(5.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            ou_semigroup(ChaosElement.constant(1, 1), -0.1)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(ValueError, match=f"got {t}"):
            ou_semigroup(ChaosElement.constant(1, 1), t)


class TestMehler:
    def test_t0_exact(self):
        p = MultivarPoly(1, {(3,): 1})
        est, se, ref = mehler_mc(p, 0.0, samples=100, seed=1)
        for e, s, r in zip(est, se, ref):
            assert s == pytest.approx(0.0, abs=1e-12)
            assert e == pytest.approx(r, abs=1e-12)

    def test_h3_spectral_action(self):
        # f = H3(X1) = x^3 - 3x: T_t f = e^{-3t} H3
        import math

        p = MultivarPoly(1, {(3,): 1, (1,): -3})
        pts = [(0.7,), (-1.2,)]
        est, se, ref = mehler_mc(p, 0.5, samples=200_000, seed=2, points=pts)
        for x, r in zip(pts, ref):
            h3 = x[0] ** 3 - 3 * x[0]
            assert r == pytest.approx(math.exp(-1.5) * h3, rel=1e-12)
        for e, s, r in zip(est, se, ref):
            assert abs(e - r) <= 4 * s

    def test_quartic_monomial(self):
        p = MultivarPoly(1, {(4,): 1})
        est, se, ref = mehler_mc(p, 0.5, samples=100_000, seed=3)
        for e, s, r in zip(est, se, ref):
            assert abs(e - r) <= 4 * s

    def test_blocks_keep_the_stream(self):
        # more samples than one 4096-sample block; pinned from the whole-array draw
        p = MultivarPoly(2, {(2, 1): 1, (0, 3): -2, (1, 0): 0.5, (0, 0): 3})
        est, se, _ = mehler_mc(p, 0.5, samples=5000, seed=4)
        assert [e.hex() for e in est] == ["0x1.14cf323c851b0p+2", "0x1.be0b783741bdap+0", "0x1.13ec70b022a51p+2"]
        assert [s.hex() for s in se] == ["0x1.0a84d5a846caep-4", "0x1.f49d0f6d4ddb5p-5", "0x1.e9a24fbfcd5bfp-5"]

    def test_memory_grows_by_the_value_vector(self):
        # 4x the samples costs 8 B per added sample: the blocks do not grow
        p = MultivarPoly(2, {(2, 1): 1, (0, 3): -2})
        mehler_mc(p, 0.5, samples=100, seed=1)  # warm the caches
        peaks = []
        for samples in (20_000, 80_000):
            tracemalloc.start()
            try:
                mehler_mc(p, 0.5, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * 60_000 + 64 * 1024

    def test_non_finite_t_raises_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("mehler_mc drew samples for a t it must refuse")

        monkeypatch.setattr(chaos, "_mc_blocks", no_draws)
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"got {t}"):
                mehler_mc(MultivarPoly(1, {(2,): 1}), t, samples=10, seed=1)

    def test_sample_count_validation(self):
        # one sample has no standard error
        for samples in (0, 1):
            with pytest.raises(ValueError, match="samples"):
                mehler_mc(MultivarPoly(1, {(1,): 1}), 0.5, samples=samples, seed=0)


class TestFromPolynomial:
    def test_monomial_conversion(self):
        p = MultivarPoly(1, {(2,): 1})
        F = from_polynomial(p)
        assert F == ChaosElement(1, {MultiIndex({0: 2}): 1, MultiIndex(): 1})

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(5):
            p = MultivarPoly(
                2,
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
                    for _ in range(3)
                },
            )
            assert from_polynomial(p).as_polynomial() == p


class TestMomentEquivalence:
    def test_first_chaos(self):
        F = phi(1, k={0: 1})
        assert moment_equivalence_report(F, 2) == (3, 9)

    def test_h2_example(self):
        F = phi(1, k={0: 2})
        lhs, rhs = moment_equivalence_report(F, 2)
        assert (lhs, rhs) == (60, 324)

    def test_random_grade2(self):
        rng = random.Random(6)
        grade2 = [
            MultiIndex({0: 2}),
            MultiIndex({1: 2}),
            MultiIndex({2: 2}),
            MultiIndex({0: 1, 1: 1}),
            MultiIndex({0: 1, 2: 1}),
            MultiIndex({1: 1, 2: 1}),
        ]
        for _ in range(10):
            F = ChaosElement(
                3, {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(grade2, 3)}
            )
            if not F.coeffs:
                continue
            for p in (2, 3):
                lhs, rhs = moment_equivalence_report(F, p)
                assert lhs <= rhs

    def test_matches_the_full_power_form(self):
        # criterion 7's 100 cases: E[(F^p)^2] and E[F^2] from inner products
        # against exact_reference's F^{2p} and F^2 products
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
            F = ChaosElement(3, {k: Fraction(rng.randint(-3, 3)) for k in support})
            if not F.coeffs:
                continue
            p = rng.choice([2, 3])
            assert moment_equivalence_report(F, p) == ref.moment_equivalence_report(F, p)

    def test_rejects_inhomogeneous(self):
        F = ChaosElement(1, {MultiIndex({0: 1}): 1, MultiIndex({0: 2}): 1})
        with pytest.raises(ValueError):
            moment_equivalence_report(F, 2)


def test_budget_guard():
    F = phi(2, k={0: 5})
    G = phi(2, k={0: 5})
    with pytest.raises(ValueError):
        chaos_multiply(F, G, "contraction")
