"""The embedded-entanglement claim, computed on the explicit states.

For chi = sum_ij rho_ij |ii><jj| the coherent information (a lower bound on
the distillable entanglement) and the relative entropy to the dephased
state (an upper bound on the relative entropy of entanglement) both equal
the relative entropy of coherence of rho. As E_D <= E_R, that pins both
measures to the coherence that `average_embedded_entanglement` averages.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from reference import DensityMatrix, induced_mixed_state, relative_entropy_coherence
from subent import (
    DomainError,
    RngStream,
    average_coherence_exact,
    average_embedded_entanglement,
    estimate_induced,
)


def plus_state() -> DensityMatrix:
    return DensityMatrix(np.full((2, 2), 0.5))


def marginal_over_ancilla(chi: np.ndarray, m: int) -> np.ndarray:
    return np.einsum("ijkj->ik", chi.reshape(m, m, m, m))


def bounds(rho: DensityMatrix) -> tuple[float, float]:
    """(lower bound on E_D, upper bound on E_R) of the embedding of rho."""
    chi = oracles.embed(rho)
    return oracles.coherent_information(chi, rho.dim), oracles.dephased_relative_entropy(chi, rho.dim)


class TestEmbedding:
    def test_plus_state_gives_bell_projector(self):
        chi = oracles.embed(plus_state())
        bell = np.zeros(4)
        bell[[0, 3]] = 1 / math.sqrt(2)
        assert_allclose(chi, np.outer(bell, bell), atol=1e-15)

    def test_diagonal_source_stays_classical(self):
        chi = oracles.embed(DensityMatrix(np.diag([0.6, 0.4])))
        assert_allclose(chi, np.diag([0.6, 0.0, 0.0, 0.4]), atol=1e-15)

    def test_trace_one(self):
        rho = induced_mixed_state(4, 4, RngStream(1))
        chi = oracles.embed(rho)
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-12)

    def test_structure(self):
        for trial in range(40):
            m = 2 + trial % 4
            rho = induced_mixed_state(m, m + 1, RngStream(2, trial))
            chi = oracles.embed(rho)
            nonzero = np.abs(chi) > 0
            assert nonzero.sum() <= m * m
            pairs = np.arange(m) * (m + 1)
            assert_allclose(chi[np.ix_(pairs, pairs)], rho.entries, atol=1e-14)
            mask = np.zeros_like(nonzero)
            mask[np.ix_(pairs, pairs)] = True
            assert not np.abs(chi[~mask]).any()

    def test_marginal_is_dephased_source(self):
        rho = induced_mixed_state(3, 5, RngStream(3))
        chi = oracles.embed(rho)
        assert_allclose(
            marginal_over_ancilla(chi, 3),
            np.diag(np.diagonal(rho.entries)),
            atol=1e-12,
        )


class TestMeasures:
    def test_equal_to_source_coherence(self):
        # 70 induced sources, m = 3..16 and n = m..m+4: chi is up to 256 x 256
        for m in range(3, 17):
            for n in range(m, m + 5):
                rho = induced_mixed_state(m, n, RngStream(4, 100 * m + n))
                expected = relative_entropy_coherence(rho)
                lower, upper = bounds(rho)
                assert abs(lower - expected) <= 1e-10, (m, n)
                assert abs(upper - expected) <= 1e-10, (m, n)

    def test_incoherent_source_gives_zero(self):
        lower, upper = bounds(DensityMatrix(np.eye(3) / 3))
        assert abs(lower) <= 1e-12 and abs(upper) <= 1e-12

    def test_plus_state_gives_ln2(self):
        lower, upper = bounds(plus_state())
        assert lower == pytest.approx(math.log(2), abs=1e-10)
        assert upper == pytest.approx(math.log(2), abs=1e-10)

    def test_range(self):
        for trial in range(20):
            m = 2 + trial % 5
            rho = induced_mixed_state(m, m + 2, RngStream(5, trial))
            lower, upper = bounds(rho)
            assert -1e-12 <= lower <= upper + 1e-12 <= math.log(m) + 2e-12

    def test_diagonal_unitary_invariance(self):
        gen = RngStream(6).generator()
        rho = induced_mixed_state(4, 4, RngStream(6, 1))
        phases = np.exp(2j * np.pi * gen.random(4))
        rotated = DensityMatrix((phases[:, None] * rho.entries) * phases.conj()[None, :])
        assert_allclose(bounds(rho), bounds(rotated), atol=1e-10)

    def test_product_embedding_is_not_entangled(self):
        # rho on |i0><j0| is rho (x) |0><0|: its coherent information is -S(rho)
        # and its support leaves span{|ii>}, so the gate above would fail on it
        rho = induced_mixed_state(3, 3, RngStream(7))
        chi = np.zeros((9, 9), dtype=complex)
        chi[np.ix_([0, 3, 6], [0, 3, 6])] = rho.entries
        entropy = oracles.von_neumann_entropy_full(rho.entries)
        assert oracles.coherent_information(chi, 3) == pytest.approx(-entropy, abs=1e-12)
        assert oracles.dephased_relative_entropy(chi, 3) == math.inf


class TestAverage:
    def test_matches_coherence_average(self):
        est, tails = average_embedded_entanglement(3, 3, 20000, seed=7)
        target = float(average_coherence_exact(3, 3))
        assert target == pytest.approx(1 / 3, abs=1e-15)
        assert abs(est.mean - target) <= 5 * est.stderr
        assert tails == []

    def test_is_the_coherence_draw(self):
        # one result shape for a draw with tails: estimate_induced's own pair
        kwargs = dict(chunk=128, epsilons=(0.05, 0.2))
        est, tails = average_embedded_entanglement(3, 4, 700, seed=3, **kwargs)
        estimates, expected_tails = estimate_induced(3, 4, 700, 3, ("coherence",), **kwargs)
        assert (est, tails) == (estimates["coherence"], expected_tails)

    def test_deterministic_and_worker_invariant(self, every_worker_pays):
        a, _ = average_embedded_entanglement(3, 4, 2000, seed=8, workers=1)
        b, _ = average_embedded_entanglement(3, 4, 2000, seed=8, workers=2)
        assert (a.mean, a.variance, a.count) == (b.mean, b.variance, b.count)

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            average_embedded_entanglement(2, 2, 100, seed=0)
