import json
import math
from fractions import Fraction

import pytest

import oracles
from reference import simplex_integral_reference
from subent import (
    DimensionOrder,
    DomainError,
    IdentityReport,
    QuadratureFailure,
    aomoto_quadrature_oracle,
    gamma_ratio_sum_harmonic,
    gamma_ratio_sum_plain,
    normalization_integral,
    riordan_identity_check,
)
from subent import identities
from subent.cli import main
from subent.closedform import aomoto_moment_log
from subent.identities import QUADRATURE_TARGETS


class TestGammaRatioSums:
    def test_plain_examples(self):
        assert gamma_ratio_sum_plain(1, 1).lhs == 1
        report = gamma_ratio_sum_plain(2, 3)
        assert report.lhs == 6 and report.holds
        report = gamma_ratio_sum_plain(20, 20)
        assert report.rhs == 400 and report.holds

    def test_harmonic_examples(self):
        report = gamma_ratio_sum_harmonic(1, 1)
        assert report.lhs == 1 and report.holds
        report = gamma_ratio_sum_harmonic(2, 2)
        assert report.rhs == 8 and report.holds
        assert gamma_ratio_sum_harmonic(5, 7).holds

    def test_small_sweep_holds(self):
        for m in range(1, 9):
            for n in range(m, 9):
                assert gamma_ratio_sum_plain(m, n).holds
                assert gamma_ratio_sum_harmonic(m, n).holds

    def test_rejects_bad_order(self):
        with pytest.raises(DimensionOrder):
            gamma_ratio_sum_plain(3, 2)


class TestRiordanIdentity:
    def test_unit_case(self):
        # C(z,1)^2 = 2 C(z,2) + C(z,1), checked across the z sweep
        assert riordan_identity_check(1, 1).holds

    def test_pointwise_example(self):
        # (m, n) = (2, 3) at z = 5: both sides must give exactly 100
        z = 5
        lhs = math.comb(z, 2) * math.comb(z, 3)
        terms = [
            math.factorial(5 - k)
            // (math.factorial(k) * math.factorial(2 - k) * math.factorial(3 - k))
            * math.comb(z, 5 - k)
            for k in range(3)
        ]
        assert lhs == 100 and terms == [10, 60, 30]
        assert riordan_identity_check(2, 3).holds

    def test_first_column_cases(self):
        for k in (1, 2, 5, 9):
            assert riordan_identity_check(1, k).holds

    def test_sweep_holds(self):
        for m in range(1, 9):
            for n in range(m, 9):
                assert riordan_identity_check(m, n).holds

    def test_report_stores_final_evaluation(self):
        report = riordan_identity_check(2, 2)
        z = 4
        assert report.lhs == Fraction(math.comb(z, 2) ** 2)
        assert report.lhs == report.rhs


class TestAgainstTermByTermFractions:
    def test_reports_equal_fraction_oracle(self):
        for m in range(1, 21):
            for n in range(m, 21):
                sides = oracles.identity_sides(m, n)
                for report in (
                    gamma_ratio_sum_plain(m, n),
                    gamma_ratio_sum_harmonic(m, n),
                    riordan_identity_check(m, n),
                ):
                    assert report.parameters == (m, n)
                    assert (report.lhs, report.rhs) == sides[report.name], (report.name, m, n)
                    assert isinstance(report.lhs, Fraction) and isinstance(report.rhs, Fraction)
                    assert report.holds

    def test_riordan_reports_first_mismatching_point(self, monkeypatch):
        # corrupt C(1, 1) only: at (m, n) = (1, 1) the sides first differ at
        # z = 1 (lhs 2 * 2, rhs 2 C(1,2) + 2) and agree again at z = 2
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda z, k: comb(z, k) + (z == k == 1))
        report = riordan_identity_check(1, 1)
        assert not report.holds
        assert (report.lhs, report.rhs) == (4, 2)


class TestIdentityReport:
    def test_flag_must_match_sides(self):
        with pytest.raises(ValueError):
            IdentityReport("x", (1, 1), Fraction(1), Fraction(2), True)


def _closed(m, k, alpha):
    return math.exp(aomoto_moment_log(m, k, alpha))


class TestSelbergQuadratureOracle:
    # the one (m, k, alpha) oracle at k = 0, the Selberg integral
    def test_m2_unit_alpha(self):
        # int_0^1 (2l - 1)^2 dl = 1/3
        assert aomoto_quadrature_oracle(2, 0, 1.0) == pytest.approx(1 / 3, rel=1e-9)

    def test_matches_closed_form_on_grid(self):
        for m in (2, 3):
            tolerance = QUADRATURE_TARGETS[m]
            for alpha in (1.0, 1.5, 2.0, 3.0):
                closed = normalization_integral(m, alpha)
                assert closed == _closed(m, 0, alpha)
                value = aomoto_quadrature_oracle(m, 0, alpha)
                assert value == pytest.approx(closed, rel=tolerance)

    def test_domain(self):
        for m in (4, 1):
            with pytest.raises(DomainError):
                aomoto_quadrature_oracle(m, 0, 1.0)
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                aomoto_quadrature_oracle(2, 0, alpha)


class TestAomotoQuadratureOracle:
    def test_m2_full_moment(self):
        # int_0^1 l (1 - l) (2l - 1)^2 dl = 1/30
        assert aomoto_quadrature_oracle(2, 2, 1.0) == pytest.approx(1 / 30, rel=1e-9)
        assert _closed(2, 2, 1.0) == pytest.approx(1 / 30, rel=1e-12)

    def test_m2_single_moment_symmetry(self):
        # the single moment is half of the full mass by symmetry of l <-> 1-l
        value = aomoto_quadrature_oracle(2, 1, 1.0)
        mass = aomoto_quadrature_oracle(2, 0, 1.0)
        assert value == pytest.approx(mass / 2, rel=1e-9)
        assert value == pytest.approx(_closed(2, 1, 1.0), rel=1e-9)

    def test_matches_closed_form_on_grid(self):
        for m in (2, 3):
            tolerance = QUADRATURE_TARGETS[m]
            for alpha in (1.0, 1.5, 2.0, 3.0):
                for k in range(1, m + 1):
                    value = aomoto_quadrature_oracle(m, k, alpha)
                    assert value == pytest.approx(_closed(m, k, alpha), rel=tolerance)

    def test_closed_form_positive(self):
        for m in (2, 3):
            for k in range(m + 1):
                assert _closed(m, k, 1.7) > 0

    def test_domain(self):
        for m, k in ((2, 3), (5, 1), (2, -1)):
            with pytest.raises(DomainError):
                aomoto_quadrature_oracle(m, k, 1.0)
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                aomoto_quadrature_oracle(2, 1, alpha)
            with pytest.raises(DomainError):
                _closed(3, 1, alpha)

    @pytest.mark.parametrize("value, err", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                            (math.nan, math.nan)])
    def test_non_finite_integral_is_not_certified(self, monkeypatch, value, err):
        monkeypatch.setattr(identities, "_simplex_integral", lambda m, alpha, moment: (value, err))
        for k in (0, 1):
            with pytest.raises(QuadratureFailure):
                aomoto_quadrature_oracle(2, k, 1.0)


_INTEGRALS = [(m, alpha, moment) for m in (2, 3) for alpha in (1.0, 1.5, 2.0, 3.0)
              for moment in range(m + 1)]


@pytest.mark.parametrize("m, alpha, moment", _INTEGRALS)
def test_simplex_integral_equals_scalar_reference(m, alpha, moment):
    # value and error estimate, bit for bit
    assert identities._simplex_integral(m, alpha, moment) == simplex_integral_reference(
        m, alpha, moment)


def test_quadrature_records_equal_scalar_reference(tmp_path):
    out = tmp_path / "q.json"
    code = main(["identities", "--max-m", "1", "--max-n", "1", "--quadrature", "--workers", "2",
                 "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    values = {(row["m"], row["alpha"], row["k"] or 0): row["value"]
              for row in rows if row["record"] == "quadrature"}
    assert sorted(values) == sorted(_INTEGRALS)
    for (m, alpha, moment), value in values.items():
        assert value == simplex_integral_reference(m, alpha, moment)[0], (m, alpha, moment)


def test_quadrature_records_are_the_oracle_and_the_closed_form(tmp_path):
    out = tmp_path / "q.json"
    code = main(["identities", "--max-m", "3", "--max-n", "3", "--quadrature", "--workers", "1",
                 "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    quadrature = [row for row in rows if row["record"] == "quadrature"]
    # (m, alpha, k) order, k null exactly on the Selberg rows
    assert [(row["m"], row["alpha"], row["k"], row["name"]) for row in quadrature] == [
        (m, alpha, k or None, "aomoto_moment" if k else "selberg_simplex")
        for m in (2, 3) for alpha in (1.0, 1.5, 2.0, 3.0) for k in range(m + 1)]
    assert len(quadrature) == 28
    for row in quadrature:
        m, k, alpha = row["m"], row["k"] or 0, row["alpha"]
        assert row["closed_form"] == math.exp(aomoto_moment_log(m, k, alpha)), (m, k, alpha)
        assert row["value"] == aomoto_quadrature_oracle(m, k, alpha), (m, k, alpha)
