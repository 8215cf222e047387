import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from subent import (
    DimensionOrder,
    RngStream,
    SingularSample,
    Spectrum,
    UnitaryMatrix,
    estimate_isospectral_coherence,
    ginibre,
    haar_pure_state,
    haar_unitary,
    induced_mixed_state,
    isospectral_state,
    spectrum_of,
)
from subent.sampling import complex_normals, draw_haar, draw_induced, draw_pure


class TestRngStream:
    def test_determinism_bit_identical(self):
        a = ginibre(3, 5, RngStream(99, 4))
        b = ginibre(3, 5, RngStream(99, 4))
        assert (a == b).all()

    def test_streams_differ(self):
        a = ginibre(3, 5, RngStream(99, 4))
        b = ginibre(3, 5, RngStream(99, 5))
        assert not np.allclose(a, b)

    def test_golden_values(self):
        # regression anchor for the (seed, stream_id) -> sample contract
        got = complex_normals(RngStream(12345, 7).generator(), 2)
        assert got[0] == complex(-0.10077365194486726, 0.17735473926998604)
        assert got[1] == complex(-0.3765286594017468, 0.5486513442191066)

    def test_block_draws_concatenate(self):
        gen = RngStream(5, 1).generator()
        first = complex_normals(gen, 3)
        second = complex_normals(gen, 2)
        combined = complex_normals(RngStream(5, 1).generator(), 5)
        assert_allclose(np.concatenate([first, second]), combined, rtol=0, atol=0)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestGinibre:
    def test_shape(self):
        assert ginibre(3, 5, RngStream(1)).shape == (3, 5)

    def test_single_entry_second_moment(self):
        g = complex_normals(RngStream(2024).generator(), 10**6)
        second = np.mean(np.abs(g) ** 2)
        assert second == pytest.approx(1.0, abs=0.005)

    def test_part_variances(self):
        g = complex_normals(RngStream(77).generator(), 200_000)
        assert np.var(g.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(g.imag) == pytest.approx(0.5, abs=0.01)
        assert np.mean(g.real) == pytest.approx(0.0, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ginibre(0, 3, RngStream(1))


class TestHaarUnitary:
    def test_dim_one_is_phase(self):
        u = haar_unitary(1, RngStream(11))
        assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for dim in (2, 3, 8, 17):
            u = haar_unitary(dim, RngStream(4, dim))
            defect = np.abs(u.entries.conj().T @ u.entries - np.eye(dim)).max()
            assert defect <= 1e-10

    def test_first_entry_moment(self):
        # E|U_11|^2 = 1/2 for dim 2 by column uniformity
        u = draw_haar(2, RngStream(31, 0), 100_000)
        assert np.mean(np.abs(u[:, 0, 0]) ** 2) == pytest.approx(0.5, abs=0.01)

    def test_left_invariance_first_column_moments(self):
        dim = 3
        fourier = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim)
        fixed = UnitaryMatrix(fourier / math.sqrt(dim))
        u = draw_haar(dim, RngStream(6, 1), 40_000)
        vu = fixed.entries @ u
        m_u = np.mean(np.abs(u[:, :, 0]) ** 4, axis=0)
        m_vu = np.mean(np.abs(vu[:, :, 0]) ** 4, axis=0)
        assert_allclose(m_u, m_vu, atol=0.01)

    def test_singular_draw_raises_without_redraw(self, monkeypatch):
        calls = []

        def singular_qr(a):
            calls.append(a.shape)
            return np.zeros_like(a), np.zeros_like(a)

        monkeypatch.setattr(np.linalg, "qr", singular_qr)
        with pytest.raises(SingularSample):
            haar_unitary(3, RngStream(1))
        with pytest.raises(SingularSample):
            estimate_isospectral_coherence(Spectrum([0.5, 0.3, 0.2]), 10, 1, workers=1)
        assert len(calls) == 2

    def test_unitary_type_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestHaarPureState:
    def test_norm(self):
        for dim in (1, 2, 9):
            psi = haar_pure_state(dim, RngStream(3, dim))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_component_moment(self):
        states = draw_pure(4, RngStream(8, 0), 100_000)
        assert np.mean(np.abs(states[:, 0]) ** 2) == pytest.approx(0.25, abs=0.005)


class TestInducedMixedState:
    def test_one_dimensional(self):
        rho = induced_mixed_state(1, 5, RngStream(2))
        assert_allclose(rho.entries, [[1.0]], atol=1e-15)

    def test_valid_density_matrix(self):
        for m, n in ((2, 2), (3, 7), (5, 5)):
            rho = induced_mixed_state(m, n, RngStream(m, n))
            assert rho.dim == m
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_order(self):
        with pytest.raises(DimensionOrder):
            induced_mixed_state(3, 2, RngStream(0))

    def test_purity_matches_eigenvalue_density(self):
        # independent oracle: for m = n = 2 the eigenvalue density is
        # 3 (2l - 1)^2 on [0, 1], so E tr rho^2 = int 3 (2l-1)^2 (l^2 + (1-l)^2)
        oracle, err = integrate.quad(
            lambda lam: 3 * (2 * lam - 1) ** 2 * (lam**2 + (1 - lam) ** 2), 0, 1
        )
        assert err < 1e-10
        assert oracle == pytest.approx(0.8, abs=1e-12)
        rho = draw_induced(2, 2, RngStream(14, 0), 100_000)
        purity = np.einsum("sij,sji->s", rho, rho).real
        stderr = purity.std(ddof=1) / math.sqrt(purity.size)
        assert abs(purity.mean() - oracle) <= 3 * stderr


class TestBatchedDraws:
    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_first_row_is_the_single_state(self, m):
        rng = RngStream(21, m)
        single = induced_mixed_state(m, m + 1, rng).entries
        assert_array_equal(draw_induced(m, m + 1, rng, 5)[0], single)
        assert_array_equal(draw_haar(m, rng, 5)[0], haar_unitary(m, rng).entries)
        assert_array_equal(draw_pure(m, rng, 5)[0], haar_pure_state(m, rng).amplitudes)


class TestIsospectralState:
    def test_pure_spectrum_gives_projector(self):
        spec = Spectrum([1.0, 0.0, 0.0])
        rho = isospectral_state(spec, RngStream(5))
        assert_allclose(np.sort(np.linalg.eigvalsh(rho.entries)), [0, 0, 1], atol=1e-12)

    def test_uniform_spectrum_fixed_point(self):
        rho = isospectral_state(Spectrum([0.25] * 4), RngStream(6))
        assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_spectrum_preserved(self):
        spec = Spectrum([0.4, 0.3, 0.2, 0.1])
        rho = isospectral_state(spec, RngStream(7))
        assert_allclose(spectrum_of(rho).values, spec.values, atol=1e-9)


def test_spectrum_of_traced_haar_state_is_valid():
    from subent import haar_pure_state, partial_trace, spectrum_of

    for m, n in ((2, 2), (2, 5), (3, 3), (4, 6)):
        psi = haar_pure_state(m * n, RngStream(40, m * 10 + n))
        spec = spectrum_of(partial_trace(psi, m, n))
        assert spec.m == m
        assert spec.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.values.min() >= 0.0


class TestRouteEquivalence:
    """Partial tracing Haar pure states equals the Ginibre matrix model."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_largest_eigenvalue_ks_distance(self, m, n):
        count = 50_000
        lam_direct = np.linalg.eigvalsh(draw_induced(m, n, RngStream(100 + m, n), count))[:, -1]

        mats = draw_pure(m * n, RngStream(200 + m, n), count).reshape(count, m, n)
        rho = mats @ np.conjugate(np.swapaxes(mats, 1, 2))
        lam_traced = np.linalg.eigvalsh(rho)[:, -1]

        distance = stats.ks_2samp(lam_direct, lam_traced).statistic
        assert distance < 0.01
