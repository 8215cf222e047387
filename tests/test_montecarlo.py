import math
import tracemalloc

import numpy as np
import pytest

import oracles
from reference import (
    _isospectral_chunk,
    _lipschitz_chunk,
    _lipschitz_ratios,
    estimate_isospectral_coherence,
    haar_blocks,
    isospectral_average_coherence,
    lipschitz_check,
    pure_blocks,
)
from subent import (
    ConvergenceFailure,
    DimensionOrder,
    DomainError,
    MonteCarloEstimate,
    RngStream,
    Spectrum,
    average_coherence_exact,
    average_entropy_exact,
    average_subentropy_exact,
    concentration_sweep,
    estimate_functional,
    estimate_induced,
    harmonic,
    tail_experiment,
)
from subent import montecarlo, pool
from subent.montecarlo import FUNCTIONALS, TailReport, _induced_chunk
from subent.qcore import entropy_values
from subent.sampling import complex_normals, induced_blocks


class TestMonteCarloEstimate:
    def test_from_samples(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        est = MonteCarloEstimate.from_samples(values)
        assert est.mean == 2.5
        assert est.variance == pytest.approx(np.var(values, ddof=1), abs=1e-15)
        assert est.stderr == pytest.approx(math.sqrt(est.variance / 4), abs=1e-15)

    def test_combine_matches_pooled(self):
        gen = RngStream(1).generator()
        a, b = gen.random(400), gen.random(300)
        merged = MonteCarloEstimate.from_samples(a).combine(MonteCarloEstimate.from_samples(b))
        pooled = MonteCarloEstimate.from_samples(np.concatenate([a, b]))
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-14)
        assert merged.variance == pytest.approx(pooled.variance, rel=1e-12)
        assert merged.count == pooled.count

    def test_merge_associative_to_rounding(self):
        gen = RngStream(2).generator()
        parts = [MonteCarloEstimate.from_samples(gen.random(size)) for size in (100, 57, 212, 3)]
        left = parts[0]
        for p in parts[1:]:
            left = left.combine(p)
        right = parts[0].combine(parts[1].combine(parts[2].combine(parts[3])))
        assert left.mean == pytest.approx(right.mean, rel=1e-12)
        assert left.variance == pytest.approx(right.variance, rel=1e-12)

    def test_single_sample_has_zero_variance(self):
        est = MonteCarloEstimate.from_samples([0.7])
        assert est.variance == 0.0 and est.count == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(0.0, 0.0, 0)


class TestEstimateFunctional:
    def test_deterministic_rerun(self):
        a = estimate_functional(3, 3, "coherence", 3000, seed=11)
        b = estimate_functional(3, 3, "coherence", 3000, seed=11)
        assert (a.mean, a.variance, a.count) == (b.mean, b.variance, b.count)

    def test_worker_count_invariance(self, every_worker_pays):
        a = estimate_functional(2, 3, "entropy", 4000, seed=5, workers=1)
        b = estimate_functional(2, 3, "entropy", 4000, seed=5, workers=3)
        assert (a.mean, a.variance, a.count) == (b.mean, b.variance, b.count)

    def test_chunk_size_changes_nothing_but_grouping(self, every_worker_pays):
        # the chunk size is part of the reproducibility key, so only compare
        # a chunked run against itself
        a = estimate_functional(2, 2, "coherence", 2500, seed=9, chunk=512)
        b = estimate_functional(2, 2, "coherence", 2500, seed=9, chunk=512, workers=2)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_one_dimensional_all_zero(self):
        for which in ("entropy", "subentropy", "coherence"):
            est = estimate_functional(1, 6, which, 256, seed=3)
            assert est.mean == 0.0 and est.variance == 0.0

    def test_coherence_hits_target(self):
        est = estimate_functional(2, 2, "coherence", 20000, seed=7)
        target = float(average_coherence_exact(2, 2))
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_subentropy_hits_target(self):
        est = estimate_functional(2, 2, "subentropy", 20000, seed=7)
        target = float(average_subentropy_exact(2, 2))
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_entropy_hits_target(self):
        est = estimate_functional(3, 4, "entropy", 20000, seed=8)
        target = float(average_entropy_exact(3, 4))
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_stderr_scales_like_inverse_sqrt(self):
        small = estimate_functional(2, 2, "coherence", 4000, seed=21)
        large = estimate_functional(2, 2, "coherence", 16000, seed=22)
        ratio = small.stderr / large.stderr
        assert 1.7 <= ratio <= 2.3  # ideal factor is 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_eigensolver_failure_is_convergence_failure(self, monkeypatch, workers,
                                                        every_worker_pays):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            estimate_functional(2, 2, "entropy", 8, seed=0, chunk=4, workers=workers)

    def test_run_past_memory_names_the_chunks(self, monkeypatch):
        def out_of_memory(fn, tasks, workers, work=None):
            raise MemoryError

        monkeypatch.setattr(montecarlo, "run_ordered", out_of_memory)
        with pytest.raises(DomainError, match=r"^3 chunks ran out of memory$"):
            estimate_functional(2, 2, "entropy", 9, seed=0, chunk=4)

    def test_validation(self):
        with pytest.raises(DimensionOrder):
            estimate_functional(3, 2, "entropy", 100, seed=0)
        with pytest.raises(DomainError):
            estimate_functional(2, 2, "entropy", 1, seed=0)
        with pytest.raises(DomainError):
            estimate_functional(2, 2, "purity", 100, seed=0)


class TestIsospectral:
    def test_uniform_spectrum_degenerate(self):
        # the rotated diagonal equals the spectrum up to column-norm rounding,
        # so only float crumbs of order 1e-16 survive the clamp
        est = estimate_isospectral_coherence(Spectrum([0.25] * 4), 512, seed=1)
        assert est.mean <= 1e-15 and est.stddev <= 1e-15

    def test_pure_spectrum_matches_harmonic(self):
        spec = Spectrum([1.0, 0.0, 0.0])
        est = estimate_isospectral_coherence(spec, 20000, seed=2)
        target = float(harmonic(3)) - 1.0
        assert abs(est.mean - target) <= 5 * est.stderr

    def test_generic_spectrum_matches_formula(self):
        spec = Spectrum([2 / 3, 1 / 3])
        est = estimate_isospectral_coherence(spec, 20000, seed=3)
        assert abs(est.mean - isospectral_average_coherence(spec)) <= 5 * est.stderr

    def test_deterministic(self):
        spec = Spectrum([0.5, 0.3, 0.2])
        a = estimate_isospectral_coherence(spec, 2000, seed=4, workers=1)
        b = estimate_isospectral_coherence(spec, 2000, seed=4, workers=2)
        assert (a.mean, a.variance) == (b.mean, b.variance)


class TestChunkBlocks:
    """The chunk kernels walk the sample blocks and report what one draw of
    the whole chunk reports, bit for bit."""

    @pytest.mark.parametrize(
        "m, n, which, size, blocks",
        [
            (16, 16, FUNCTIONALS, 150, 3),  # 64 states per block, the last one partial
            (130, 130, ("entropy", "coherence"), 3, 3),  # m n > _BLOCK_VALUES: one per block
            (3, 5, FUNCTIONALS, 1, 1),
        ],
    )
    def test_induced_chunk_matches_one_shot(self, m, n, which, size, blocks):
        epsilons = (0.01, 0.05)
        rng = RngStream(71, 2)
        assert len(list(induced_blocks(m, n, rng, size))) == blocks
        got = _induced_chunk((m, n, which, epsilons, rng.seed, rng.stream_id, size))
        assert got == oracles.induced_chunk_one_shot(m, n, which, epsilons, rng, size)

    @pytest.mark.parametrize("dim, size, blocks", [(16, 150, 3), (130, 2, 2)])
    def test_isospectral_chunk_matches_one_shot(self, dim, size, blocks):
        lam = np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2)
        rng = RngStream(72, 1)
        assert len(list(haar_blocks(dim, rng, size))) == blocks
        diag = np.abs(oracles.haar_one_shot(dim, rng, size)) ** 2 @ lam
        coherence = np.maximum(entropy_values(diag) - entropy_values(lam[None, :])[0], 0.0)
        got = _isospectral_chunk((tuple(lam), rng.seed, rng.stream_id, size))
        assert got == MonteCarloEstimate.from_samples(coherence)

    @pytest.mark.parametrize("m, n, size, blocks", [(4, 16, 300, 3), (4, 2100, 3, 3)])
    @pytest.mark.parametrize("which", ["coherence", "entropy"])
    def test_lipschitz_chunk_matches_one_shot(self, m, n, size, blocks, which):
        rng = RngStream(73, 4)
        assert len(list(pure_blocks((2, m * n), rng, size))) == blocks
        pairs = oracles.pure_one_shot(m * n, rng, 2 * size).reshape(size, 2, m * n)
        ratios, skipped = _lipschitz_ratios(pairs[:, 0, :], pairs[:, 1, :], m, n, which)
        got = _lipschitz_chunk((m, n, which, rng.seed, rng.stream_id, size))
        assert got == (float(ratios.max()), ratios.size, skipped)

    def test_chunk_memory_bounded_by_block(self):
        # one draw of the whole chunk held about 112 MiB at these sizes:
        # Gaussians, G, its conjugate transpose and the states, each
        # 512 x 64 x 64 complex values
        _induced_chunk((4, 4, ("entropy",), (), 0, 0, 8))  # first-call set-up
        tracemalloc.start()
        try:
            _induced_chunk((64, 64, ("entropy",), (), 0, 0, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTailExperiment:
    def test_fractions_monotone_in_eps(self):
        reports = tail_experiment(3, 3, [0.02, 0.05, 0.1, 0.3], 4000, seed=5)
        fractions = [r.empirical_fraction for r in reports]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_huge_eps_gives_zero(self):
        (report,) = tail_experiment(3, 3, [50.0], 1000, seed=6)
        assert report.empirical_fraction == 0.0

    def test_center_and_bound_fields(self):
        (report,) = tail_experiment(3, 6, [0.1], 500, seed=7)
        assert report.center == pytest.approx(2 / 12, abs=1e-15)
        assert report.levy_bound > 1.9  # vacuous at this scale, but recorded
        assert report.count == 500

    def test_validation(self):
        with pytest.raises(DomainError):
            tail_experiment(2, 2, [0.1], 100, seed=0)
        with pytest.raises(DomainError):
            tail_experiment(3, 3, [0.0], 100, seed=0)
        with pytest.raises(ValueError):
            TailReport(0.1, 0.25, 1.5, 2.0, 10)

    @pytest.mark.parametrize("eps", [[math.nan, 0.1], [math.inf], [0.1, -math.inf]])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(DomainError):
            tail_experiment(3, 3, eps, 100, seed=0)
        with pytest.raises(DomainError):
            estimate_induced(3, 3, 100, seed=0, epsilons=eps)


class TestPoolSize:
    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(64, 3, [3]), (2, 3, [2]), (64, 16, [8]), (4, 1, [])],
    )
    @pytest.mark.skipif(not pool._FORKS, reason="the tasks run in one process here")
    def test_capped_at_tasks_and_usable_cpus(self, monkeypatch, every_worker_pays, forks, workers,
                                             cpus, expected):
        # 8 chunks; the spy counts the workers the runner really forks
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        est = estimate_functional(2, 2, "coherence", 8 * 16, seed=3, chunk=16, workers=workers)
        assert ([len(forks)] if forks else []) == expected
        assert est == estimate_functional(2, 2, "coherence", 8 * 16, seed=3, chunk=16)


class TestConcentrationSweep:
    def test_stddev_decreases(self):
        rows = concentration_sweep([2, 4, 8], 4000, seed=8)
        spreads = [r.stddev for r in rows]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_means_on_target(self):
        ms = [2, 4]
        for m, est in zip(ms, concentration_sweep(ms, 8000, seed=9)):
            assert abs(est.mean - (m - 1) / (2 * m)) <= 5 * est.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_estimate_per_m_in_order(self, every_worker_pays, workers):
        # each m's chunks are its own streams, so the sweep's estimate at m is
        # the one-dimension estimate at the same seed and chunk size
        ms = [3, 2, 5]
        swept = concentration_sweep(ms, 700, seed=12, chunk=128, workers=workers)
        alone = [estimate_functional(m, m, "coherence", 700, seed=12, chunk=128) for m in ms]
        assert swept == alone

    def test_validation(self):
        with pytest.raises(DomainError):
            concentration_sweep([1, 2], 100, seed=0)

    def test_chunks_of_every_m_counted_in_one_list(self):
        # 2 * 2^62 tasks are past the largest list, so nothing is allocated
        with pytest.raises(DomainError, match=f"^{2**63} chunks are too many to list$"):
            concentration_sweep([2, 3], 2**62, seed=0, chunk=1)

    def test_validates_every_m_before_drawing(self, monkeypatch):
        def draw(*args):
            pytest.fail("drew samples before validating every m")

        monkeypatch.setattr(montecarlo, "_run_ordered", draw)
        with pytest.raises(DomainError):
            concentration_sweep([2, 3, 1], 100, seed=0)


class TestLipschitz:
    def test_identical_pairs_are_skipped(self):
        gen = RngStream(10).generator()
        psi = complex_normals(gen, 3 * 9).reshape(3, 9)
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        ratios, skipped = _lipschitz_ratios(psi, psi.copy(), 3, 3, "coherence")
        assert skipped == 3 and ratios.size == 0

    def test_mixed_batch_skips_only_duplicates(self):
        gen = RngStream(11).generator()
        states = complex_normals(gen, 4 * 9).reshape(4, 9)
        states /= np.linalg.norm(states, axis=1)[:, None]
        phi = states.copy()
        phi[1] = states[0]
        ratios, skipped = _lipschitz_ratios(states[:2], phi[:2][::-1], 3, 3, "coherence")
        assert skipped + ratios.size == 2

    def test_coherence_bound_holds(self):
        report = lipschitz_check(3, 3, 4000, seed=12)
        assert report.evaluated == 4000
        assert report.max_ratio <= 2 * math.sqrt(8) * math.log(3)

    def test_component_bounds_hold(self):
        bound = math.sqrt(8) * math.log(4)
        for which in ("entropy", "dephased_entropy"):
            report = lipschitz_check(4, 4, 3000, seed=13, which=which)
            assert report.max_ratio <= bound

    def test_ratios_nonnegative(self):
        report = lipschitz_check(3, 4, 500, seed=14)
        assert report.max_ratio >= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            lipschitz_check(2, 2, 100, seed=0)
        with pytest.raises(DomainError):
            lipschitz_check(3, 3, 100, seed=0, which="purity")
