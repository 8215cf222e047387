import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from scipy import integrate

import oracles
from reference import (
    average_subentropy_series,
    digamma_integer_diff,
    isospectral_average_coherence,
    levy_coherence_bound_half,
    selberg_integral,
)
from subent import closedform
from subent import (
    DimensionOrder,
    DomainError,
    EULER_GAMMA,
    Spectrum,
    average_coherence_exact,
    average_entropy_exact,
    average_subentropy_exact,
    harmonic,
    levy_coherence_bound,
    normalization_integral,
    subentropy,
    von_neumann_entropy,
)


class TestHarmonic:
    def test_basics(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(4) == Fraction(25, 12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            harmonic(-1)

    @pytest.mark.parametrize("indices", [
        [0], [1], [2000], [1777], [1600, 3, 2000, 40, 3, 1600], [7, 0, 7, 1999, 2],
        range(0, 2001), range(2000, -1, -13), {5, 1000, 333},
    ], ids=lambda indices: repr(indices)[:24])
    def test_numerators_on_any_index_set_equal_fraction_sums(self, indices):
        expected = oracles.harmonic_numbers(2000)
        numerators, denominator = closedform.harmonic_numerators(indices)
        assert set(numerators) == set(indices)
        assert denominator == math.lcm(*range(1, max(indices) + 1))
        assert all(Fraction(a, denominator) == expected[k] for k, a in numerators.items())

    def test_numerators_at_random_k_equal_term_by_term_sums(self):
        rng = random.Random(25)
        ks = [rng.randint(1, 10**4) for _ in range(5)]
        numerators, denominator = closedform.harmonic_numerators(ks)
        for k in ks:
            assert Fraction(numerators[k], denominator) == sum(Fraction(1, j) for j in range(1, k + 1))
            assert harmonic(k) == Fraction(numerators[k], denominator)

    def test_numerators_reject_negative(self):
        with pytest.raises(DomainError):
            closedform.harmonic_numerators([3, -1])

    def test_memory_does_not_grow_with_k_squared(self):
        # a table of every H_j up to k held about 1.44 k^2 bits (74 MiB at k = 20000)
        tracemalloc.start()
        try:
            harmonic(20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestGammaRatioTerms:
    def test_recurrence_equals_factorial_terms(self):
        for m in range(1, 61):
            for n in range(m, 61):
                expected = [oracles._gamma_ratio_term(m, n, k) for k in range(m)]
                assert closedform.gamma_ratio_terms(m, n) == expected, (m, n)


class TestDigammaDiff:
    def test_examples(self):
        assert digamma_integer_diff(2, 1) == 1
        assert digamma_integer_diff(5, 3) == Fraction(7, 12)
        assert digamma_integer_diff(9, 9) == 0

    def test_antisymmetry(self):
        assert digamma_integer_diff(7, 3) == -digamma_integer_diff(3, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma_integer_diff(0, 1)


class TestSelbergIntegral:
    def test_m1_is_beta(self):
        for alpha, beta in ((1.0, 1.0), (2.5, 0.5), (3.0, 4.0)):
            expected = math.gamma(alpha) * math.gamma(beta) / math.gamma(alpha + beta)
            assert selberg_integral(1, alpha, beta, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_m2_unit_parameters_against_quadrature(self):
        # independent oracle: int_0^1 int_0^1 (x - y)^2 dx dy = 1/6
        oracle, err = integrate.dblquad(lambda y, x: (x - y) ** 2, 0, 1, 0, 1)
        assert err < 1e-10
        assert oracle == pytest.approx(1 / 6, abs=1e-12)
        assert selberg_integral(2, 1.0, 1.0, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_positive(self):
        for m in (1, 2, 4):
            assert selberg_integral(m, 1.5, 2.0, 1.0) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            selberg_integral(2, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            selberg_integral(3, 1.0, 1.0, -2.0)


class TestNormalizationIntegral:
    def test_m1_alpha1(self):
        assert normalization_integral(1, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_m2_value(self):
        # reduces to int_0^1 (2l - 1)^2 dl = 1/3
        assert normalization_integral(2, 1.0) == pytest.approx(1 / 3, rel=1e-13)

    def test_log_form_consistency(self):
        # multiplying back the leading Gamma factor must recover the plain product
        for m, alpha in ((2, 1.0), (3, 2.5), (5, 1.0)):
            log_i = closedform.aomoto_moment_log(m, 0, alpha)
            log_product = sum(
                math.lgamma(alpha + j - 1) + math.lgamma(1 + j) for j in range(1, m + 1)
            )
            recovered = log_i + math.lgamma(alpha * m + m * (m - 1))
            assert recovered == pytest.approx(log_product, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalization_integral(2, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                closedform.aomoto_moment_log(3, 0, bad)


def _gamma_exact(x: Fraction) -> tuple[Fraction, int]:
    """(r, p) with Gamma(x) = r sqrt(pi)^p, for x a positive integer or half-integer."""
    if x.denominator == 1:
        return Fraction(math.factorial(x.numerator - 1)), 0
    j = x.numerator // 2  # Gamma(j + 1/2) = (2j)! / (4^j j!) sqrt(pi)
    return Fraction(math.factorial(2 * j), 4**j * math.factorial(j)), 1


class TestAomotoMomentLog:
    @pytest.mark.parametrize("alpha", [1, 1.5, 2, 2.5, 3, 3.5, 5])
    def test_equals_exact_log_of_the_product(self, alpha):
        # the same Gamma product as a rational times a power of sqrt(pi), compared
        # in logs: at m = 16, alpha = 1.5 the integral is about e^-806
        a = Fraction(alpha)
        for m in range(1, 17):
            for k in range(m + 1):
                rational, power = Fraction(1), 0
                for j in range(1, k + 1):
                    rational *= a + m - j
                for j in range(1, m + 1):
                    r, p = _gamma_exact(a + j - 1)
                    rational, power = rational * r * math.factorial(j), power + p
                r, p = _gamma_exact(a * m + m * (m - 1) + k)
                rational, power = rational / r, power - p
                exact = (math.log(rational.numerator) - math.log(rational.denominator)
                         + power * math.log(math.pi) / 2)
                got = closedform.aomoto_moment_log(m, k, alpha)
                assert got == pytest.approx(exact, abs=1e-11, rel=0), (m, k)

    def test_domain(self):
        for m, k in ((0, 0), (2, -1), (2, 3)):
            with pytest.raises(DomainError):
                closedform.aomoto_moment_log(m, k, 1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                closedform.aomoto_moment_log(3, 1, bad)


class TestSeriesForm:
    def test_one_dimensional_vanishes(self):
        for alpha in (1, 2, 7):
            assert average_subentropy_series(1, alpha).exact == 0

    def test_two_by_two(self):
        value = average_subentropy_series(2, 1)
        assert value.exact == Fraction(1, 12)
        # independent arithmetic: 1 + H_4 - 2 H_2
        assert value.exact == 1 + Fraction(25, 12) - 2 * Fraction(3, 2)
        assert value.approx == pytest.approx(1 / 12, abs=1e-15)

    def test_three_by_four(self):
        got = average_subentropy_series(3, 2).exact
        assert got == 1 + harmonic(12) - harmonic(3) - harmonic(4)

    def test_matches_closed_form_small_sweep(self):
        for m in range(1, 13):
            for n in range(m, 13):
                assert (
                    average_subentropy_series(m, n - m + 1).exact
                    == average_subentropy_exact(m, n)
                )

    def test_matches_term_by_term_harmonics_on_formula_grid(self):
        # the m <= n <= 40 grid of `formula --m-range 1..40 --n-range 1..40`,
        # against harmonic numbers summed fraction by fraction
        h = oracles.harmonic_numbers(40 * 40)
        for m in range(1, 41):
            for n in range(m, 41):
                value = average_subentropy_series(m, n - m + 1)
                expected = 1 + h[m * n] - h[m] - h[n]
                assert value.exact == expected, (m, n)
                assert value.approx == float(expected), (m, n)

    def test_rejects_non_integer_alpha(self):
        with pytest.raises(DomainError):
            average_subentropy_series(2, 1.5)


class TestClosedFormAverages:
    def test_subentropy_values(self):
        assert average_subentropy_exact(2, 2) == Fraction(1, 12)
        for n in (1, 4, 9):
            assert average_subentropy_exact(1, n) == 0

    def test_subentropy_bounds(self):
        limit = 1 - EULER_GAMMA
        for m in range(1, 65):
            value = float(average_subentropy_exact(m, m))
            assert 0.0 <= value <= limit

    def test_subentropy_gap_monotone(self):
        limit = 1 - EULER_GAMMA
        signed = [float(average_subentropy_exact(m, m)) - limit for m in range(2, 65)]
        assert all(g < 0 for g in signed)  # approach is from below
        gaps = [abs(g) for g in signed]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_square_dimension_value_at_64(self):
        # exact value of the closed form at m = n = 64; the distance to the
        # limiting constant shrinks like 1/m, reaching about 1.55e-2 here
        value = average_subentropy_exact(64, 64)
        assert value == 1 + harmonic(4096) - 2 * harmonic(64)
        assert abs(float(value) - (1 - EULER_GAMMA)) == pytest.approx(0.015462, abs=1e-5)

    def test_entropy_values(self):
        assert average_entropy_exact(2, 2) == Fraction(1, 3)
        assert average_entropy_exact(1, 7) == 0
        assert average_entropy_exact(2, 4) == harmonic(8) - harmonic(4) - Fraction(1, 8)

    def test_coherence_values(self):
        assert average_coherence_exact(2, 2) == Fraction(1, 4)
        assert average_coherence_exact(1, 9) == 0
        assert float(average_coherence_exact(5000, 5000)) == pytest.approx(0.5, abs=1e-4)

    def test_coherence_square_dimension_increases_to_half(self):
        values = [float(average_coherence_exact(m, m)) for m in (2, 4, 8, 16, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 0.5 for v in values)

    def test_assembly_identity_exact(self):
        for m in range(1, 21):
            for n in range(m, 21):
                lhs = (
                    (harmonic(m) - 1)
                    + average_subentropy_exact(m, n)
                    - average_entropy_exact(m, n)
                )
                assert lhs == average_coherence_exact(m, n)

    def test_dimension_order(self):
        for fn in (average_subentropy_exact, average_entropy_exact, average_coherence_exact):
            with pytest.raises(DimensionOrder):
                fn(3, 2)


class TestIsospectralAverage:
    def test_uniform_spectrum_vanishes(self):
        assert isospectral_average_coherence(Spectrum([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_pure_spectrum_gives_harmonic(self):
        for m in (2, 3, 6):
            spec = Spectrum([1.0] + [0.0] * (m - 1))
            expected = float(harmonic(m)) - 1.0
            assert isospectral_average_coherence(spec) == pytest.approx(expected, abs=1e-12)

    def test_composite_value(self):
        spec = Spectrum([2 / 3, 1 / 3])
        expected = 0.5 + subentropy(spec) - von_neumann_entropy(spec)
        assert isospectral_average_coherence(spec) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.037902, abs=1e-6)


class TestLevyBounds:
    def test_small_case_value(self):
        assert levy_coherence_bound(3, 3, 0.1) == pytest.approx(1.9999518117897304, rel=1e-12)

    def test_vanishes_for_large_eps(self):
        assert levy_coherence_bound(3, 3, 1e6) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("eps", [1.4e154, 1e308])
    def test_vanishes_where_eps_squared_overflows(self, eps):
        assert levy_coherence_bound(3, 3, eps) == 0.0

    def test_monotone(self):
        assert levy_coherence_bound(3, 3, 0.2) < levy_coherence_bound(3, 3, 0.1)
        assert levy_coherence_bound(3, 9, 0.1) < levy_coherence_bound(3, 3, 0.1)
        # in m the exponent scales like m n / (ln m)^2, which only grows for
        # m > e^2; below that the bound actually loosens with m
        assert levy_coherence_bound(9, 20, 0.1) < levy_coherence_bound(8, 20, 0.1)
        assert levy_coherence_bound(4, 20, 0.1) > levy_coherence_bound(3, 20, 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_coherence_bound(2, 3, 0.1)
        with pytest.raises(DimensionOrder):
            levy_coherence_bound(4, 3, 0.1)
        with pytest.raises(DomainError):
            levy_coherence_bound(3, 3, 0.0)
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError):
                levy_coherence_bound(3, 3, eps)

    def test_half_bound_is_theorem_form_at_half_eps(self):
        for m in (5, 10, 40):
            eps = 0.3
            assert levy_coherence_bound_half(m, eps) == pytest.approx(
                levy_coherence_bound(m, m, eps / 2), rel=1e-14
            )

    def test_half_bound_direct_value(self):
        expected = 2 * math.exp(
            -(100 * 0.04) / (576 * math.pi**3 * math.log(2) * math.log(10) ** 2)
        )
        assert levy_coherence_bound_half(10, 0.2) == pytest.approx(expected, rel=1e-14)

    def test_half_bound_premise(self):
        with pytest.raises(DomainError):
            levy_coherence_bound_half(4, 0.2)  # needs m > 1/eps
        with pytest.raises(DomainError):
            levy_coherence_bound_half(2, 0.9)
