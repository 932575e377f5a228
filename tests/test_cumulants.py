import random
from fractions import Fraction
from math import comb, factorial

import pytest

from wickworks import cumulants as cu
from wickworks import polyalg
from wickworks.cumulants import Functional, RingElem, RingPoly

import exact_reference as ref


def random_functional(rng, D, first=None):
    vals = [
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(D + 1)
    ]
    if first is not None:
        vals[0] = Fraction(first)
    return Functional(vals)


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


class TestConvolve:
    def test_unit_is_neutral(self):
        rng = random.Random(0)
        phi = random_functional(rng, 8)
        unit = Functional.unit(8)
        assert cu.convolve(unit, phi) == phi
        assert cu.convolve(phi, unit) == phi

    def test_gaussian_square_degree2(self):
        mu = Functional.gaussian_moments(4)
        sq = cu.convolve(mu, mu)
        assert sq(2) == 2

    def test_associative(self):
        rng = random.Random(1)
        a, b, c = (random_functional(rng, 8) for _ in range(3))
        assert cu.convolve(cu.convolve(a, b), c) == cu.convolve(a, cu.convolve(b, c))

    def test_commutative(self):
        rng = random.Random(2)
        a, b = (random_functional(rng, 6) for _ in range(2))
        assert cu.convolve(a, b) == cu.convolve(b, a)

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            cu.convolve(Functional.unit(3), Functional.unit(4))

    def test_lambda_morphism(self):
        # truncated Cauchy product of the Lambda images equals Lambda of the convolution
        rng = random.Random(3)
        a, b = (random_functional(rng, 10) for _ in range(2))
        sa, sb = cu.lambda_series(a), cu.lambda_series(b)
        sc = cu.lambda_series(cu.convolve(a, b))
        for n in range(11):
            cauchy = sum(sa[k] * sb[n - k] for k in range(n + 1))
            assert cauchy == sc[n]


class TestInverse:
    def test_unit_inverse(self):
        unit = Functional.unit(6)
        assert cu.conv_inverse(unit) == unit

    def test_gaussian_inverse(self):
        mu = Functional.gaussian_moments(10)
        inv = cu.conv_inverse(mu)
        prod = cu.convolve(mu, inv)
        assert prod == Functional.unit(10)

    def test_random_inverse_via_convolve(self):
        rng = random.Random(4)
        for _ in range(5):
            phi = random_functional(rng, 8, first=1)
            assert cu.convolve(phi, cu.conv_inverse(phi)) == Functional.unit(8)

    def test_neumann_route_agrees(self):
        rng = random.Random(5)
        for _ in range(5):
            phi = random_functional(rng, 8, first=1)
            assert cu.conv_inverse(phi) == ref.conv_inverse_neumann(phi)

    def test_precondition(self):
        with pytest.raises(ValueError, match=r"conv_inverse requires phi\(x\^0\) = 1"):
            cu.conv_inverse(Functional([Fraction(2), Fraction(1)]))


class TestExpLog:
    def test_exp_of_zero(self):
        zero = Functional([Fraction(0)] * 7)
        assert cu.exp_star(zero) == Functional.unit(6)

    def test_log_exp_roundtrip(self):
        rng = random.Random(6)
        for _ in range(5):
            phi = random_functional(rng, 8, first=0)
            assert cu.log_star(cu.exp_star(phi)) == phi

    def test_exp_log_roundtrip(self):
        rng = random.Random(7)
        for _ in range(5):
            phi = random_functional(rng, 8, first=1)
            assert cu.exp_star(cu.log_star(phi)) == phi

    def test_gaussian_moments_from_cumulants(self):
        kappa = Functional.gaussian_cumulants(12)
        mu = cu.exp_star(kappa)
        for k in range(7):
            assert mu(2 * k) == Fraction(factorial(2 * k), factorial(k) * 2**k)
            if 2 * k + 1 <= 12:
                assert mu(2 * k + 1) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"exp_star requires phi\(x\^0\) = 0"):
            cu.exp_star(Functional([Fraction(1), Fraction(0)]))
        with pytest.raises(ValueError, match=r"log_star requires phi\(x\^0\) = 1"):
            cu.log_star(Functional([Fraction(0), Fraction(0)]))


class TestRecursionsMatchCompositionPass:
    # exp*, log* and the star-inverse each run their own quadratic recursion;
    # exact_reference keeps the composition pass they replaced, as the oracle.

    def test_seeded_fraction_functionals(self):
        rng = random.Random(19)
        for _ in range(30):
            D = rng.randint(0, 9)
            kappa = random_functional(rng, D, first=0)
            assert cu.exp_star(kappa) == ref.exp_star(kappa)
            phi = random_functional(rng, D, first=1)
            assert cu.log_star(phi) == ref.log_star(phi)
            assert cu.conv_inverse(phi) == ref.conv_inverse(phi)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bell_cumulants(self, sign):
        for n in range(9):
            kappa = cu.bell_cumulants(n, sign)
            mu = cu.exp_star(kappa)
            assert mu == ref.exp_star(kappa)
            assert cu.log_star(mu) == ref.log_star(mu) == kappa
            assert cu.conv_inverse(mu) == ref.conv_inverse(mu)


class TestMomentCumulant:
    def test_gaussian(self):
        kappa = Functional.gaussian_cumulants(8)
        mu = cu.moments_from_cumulants(kappa)
        assert [mu(n) for n in range(7)] == [1, 0, 1, 0, 3, 0, 15]

    def test_all_ones_cumulants_give_bell_numbers(self):
        D = 6
        kappa = Functional([Fraction(0)] + [Fraction(1)] * D)
        mu = cu.moments_from_cumulants(kappa)
        for n in range(1, D + 1):
            bell = sum(1 for _ in set_partitions(list(range(n))))
            assert mu(n) == bell
        assert mu(3) == 5

    def test_roundtrip_random(self):
        rng = random.Random(8)
        for _ in range(10):
            kappa = random_functional(rng, 10, first=0)
            mu = cu.moments_from_cumulants(kappa)
            assert cu.cumulants_from_moments(mu) == kappa


class TestWickMap:
    def test_gaussian_wick_is_hermite(self):
        kappa = Functional.gaussian_cumulants(12)
        for n in range(13):
            w = cu.wick_map(kappa, n)
            h = polyalg.hermite(n)
            for d in range(n + 1):
                assert w.coefficient(d) == h.coefficient(d)

    def test_symbolic_second_cumulant_is_scaled_hermite(self):
        # kappa(x^2) = y2 gives W(x^n) = H_n(x; y2)
        zero, one = RingElem(), RingElem.scalar(1)
        y2 = RingElem.symbol("y2")
        kappa = Functional([zero, zero, y2] + [zero] * 4, zero, one)
        for n in range(7):
            w = cu.wick_map(kappa, n)
            h = polyalg.hermite_scaled(n, Fraction(1))
            # compare coefficient of x^(n-2k): rational coefficient times y2^k
            for k in range(n // 2 + 1):
                c = polyalg.hermite(n).coefficient(n - 2 * k)
                expected = RingElem({(("y2", k),): c}) if k else RingElem.scalar(c)
                got = RingElem.coerce(w.coefficient(n - 2 * k))
                assert got == expected, (n, k)

    def test_wick_n3_matches_spec_example(self):
        zero, one = RingElem(), RingElem.scalar(1)
        y2 = RingElem.symbol("y2")
        kappa = Functional([zero, zero, y2, zero], zero, one)
        w = cu.wick_map(kappa, 3)
        assert RingElem.coerce(w.coefficient(3)) == one
        assert RingElem.coerce(w.coefficient(1)) == y2 * -3

    def test_inverse_composition(self):
        rng = random.Random(9)
        for _ in range(3):
            vals = [Fraction(0), Fraction(0)] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)
            ]
            kappa = Functional(vals)
            for n in range(9):
                w = cu.wick_map(kappa, n)
                # apply W^{-1} to each monomial of W(x^n) and re-sum
                acc = {}
                for d, c in w.coeffs.items():
                    inv = cu.wick_inverse_map(kappa, d)
                    for dd, cc in inv.coeffs.items():
                        acc[dd] = acc.get(dd, Fraction(0)) + c * cc
                acc = {d: c for d, c in acc.items() if c}
                assert acc == {n: Fraction(1)} if n else acc in ({0: Fraction(1)}, {})

    def test_inverse_map_is_the_moment_sum(self):
        # W^{-1}(x^n) = sum_k C(n,k) mu(x^k) x^{n-k} with mu = exp*(kappa)
        for kappa in (cu.bell_cumulants(8), Functional.gaussian_cumulants(8)):
            mu = ref.exp_star(kappa)
            for n in range(9):
                want = RingPoly({n - k: mu.values[k] * Fraction(comb(n, k)) for k in range(n + 1)})
                assert cu.wick_inverse_map(kappa, n) == want

    def test_preconditions(self):
        for wick in (cu.wick_map, cu.wick_inverse_map):
            with pytest.raises(ValueError, match="truncation degree too small"):
                wick(Functional.gaussian_cumulants(3), 4)
            with pytest.raises(ValueError, match=r"wick map requires kappa\(x\^0\) = 0"):
                wick(Functional([Fraction(1), Fraction(0), Fraction(1)]), 2)
            with pytest.raises(ValueError, match=r"wick map requires kappa\(x\^1\) = 0"):
                wick(Functional([Fraction(0), Fraction(1), Fraction(1)]), 2)

    def test_wick_exponential_series(self):
        # Lambda(W)(t) = exp(t x - K(t)) as a truncated series identity:
        # with kappa(x^2) = s, coefficient of t^n is H_n(x; s)/n!.
        zero, one = RingElem(), RingElem.scalar(1)
        s = RingElem.symbol("s")
        D = 6
        kappa = Functional([zero, zero, s] + [zero] * (D - 2), zero, one)
        for n in range(D + 1):
            w = cu.wick_map(kappa, n)
            # brute expansion of sum_{a+2b=n} x^a (-s)^b n!/(a! 2^b b!)
            for d in range(n + 1):
                if (n - d) % 2:
                    assert not RingElem.coerce(w.coefficient(d)).terms
                else:
                    b = (n - d) // 2
                    coeff = Fraction(factorial(n), factorial(d) * 2**b * factorial(b))
                    expected = RingElem({(("s", b),): coeff * (-1) ** b})
                    assert RingElem.coerce(w.coefficient(d)) == expected


class TestBell:
    def test_incomplete_bell_53(self):
        b53 = cu.incomplete_bell(5, 3)
        x, y2, y3 = RingElem.symbol("x"), RingElem.symbol("y2"), RingElem.symbol("y3")
        assert b53 == x * y2 * y2 * 15 + x * x * y3 * 10

    def test_complete_bell_reduces_to_scaled_hermite(self):
        # substitute y2 = sigma^2 (rational), y_m = 0 for m >= 3
        sigma2 = Fraction(3, 2)
        for n in range(7):
            bell = cu.complete_bell(n)
            h = polyalg.hermite_scaled(n, sigma2)
            for d in range(n + 1):
                c = RingElem.coerce(bell.coefficient(d)).substitute(
                    {"y2": RingElem.scalar(sigma2)}
                )
                # kill any terms still containing y3..yn
                c = RingElem(
                    {m: v for m, v in c.terms.items() if not m}
                )
                assert c.as_scalar() == h.coefficient(d)

    def test_partition_count_by_profile(self):
        # coefficient of x y2^2 in the classical B_5 counts partitions of [5]
        # into blocks of sizes {1, 2, 2}
        bell = cu.classical_bell(5)
        coeff = RingElem.coerce(bell.coefficient(1))
        count = coeff.terms.get((("y2", 2),))
        partitions = [
            p
            for p in set_partitions(list(range(5)))
            if sorted(len(b) for b in p) == [1, 2, 2]
        ]
        assert count == len(partitions) == 15

    def test_incomplete_bell_sums_to_complete(self):
        for n in range(1, 7):
            total = RingElem()
            for k in range(n + 1):
                total = total + cu.incomplete_bell(n, k)
            alt = RingElem()
            for d, c in cu.classical_bell(n).coeffs.items():
                alt = alt + RingElem.coerce(c) * RingElem.symbol("x") ** d
            assert total == alt

    def test_degree_zero_is_one(self):
        one = RingPoly({0: RingElem.scalar(1)})
        assert cu.complete_bell(0) == one
        assert cu.classical_bell(0) == one

    def test_bell_range_check(self):
        with pytest.raises(ValueError):
            cu.incomplete_bell(3, 4)


class TestHopf:
    def test_coproduct_counit(self):
        for n in range(8):
            table = cu.coproduct_table(n)
            # (counit x id) Delta = id
            assert table[(0, n)] == 1
            assert sum(c for (k, _), c in table.items() if k == 0) == 1

    def test_coassociativity(self):
        for n in range(9):
            left = cu.coproduct2_left(n)
            right = cu.coproduct2_right(n)
            assert left == right
            for (a, b, c), v in left.items():
                assert v == factorial(n) // (
                    factorial(a) * factorial(b) * factorial(c)
                )

    def test_antipode_identity(self):
        assert cu.hopf_antipode_identity(0) == 1
        for n in range(1, 10):
            assert cu.hopf_antipode_identity(n) == 0


class TestRingElem:
    def test_canonical_zero(self):
        assert RingElem.symbol("a") - RingElem.symbol("a") == RingElem()
        assert not (RingElem.symbol("a") - RingElem.symbol("a"))

    def test_commutative_product(self):
        a, b = RingElem.symbol("a"), RingElem.symbol("b")
        assert a * b == b * a

    def test_substitute(self):
        a, b = RingElem.symbol("a"), RingElem.symbol("b")
        e = (a + b) * (a - b)
        val = e.substitute({"a": RingElem.scalar(3), "b": RingElem.scalar(2)})
        assert val.as_scalar() == 5
