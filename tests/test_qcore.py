import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mpmath as mp
import oracles
from mpmath import libmp
from reference import (
    DensityMatrix,
    DimensionMismatch,
    Functionals,
    PureState,
    dephase,
    draw_induced,
    functionals,
    induced_mixed_state,
    partial_trace,
    relative_entropy_coherence,
    spectrum_of,
)
from subent import (
    EULER_GAMMA,
    SUBENTROPY_MAX,
    RngStream,
    Spectrum,
    qcore,
    subentropy,
    von_neumann_entropy,
)
from subent.qcore import (
    _divided_difference_plain,
    _mantissa_table,
    _subentropy_escalated,
    _subentropy_integral,
    entropy_values,
    subentropy_values,
)
from subent.sampling import induced_blocks


def spec(*values) -> Spectrum:
    return Spectrum(list(values))


def plus_state(m: int = 2) -> DensityMatrix:
    v = np.full(m, 1.0 / math.sqrt(m), dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


spectra_strategy = st.lists(
    st.floats(1e-3, 1.0), min_size=1, max_size=8
).map(lambda xs: Spectrum(np.array(xs) / np.sum(xs)))


class TestSpectrum:
    def test_sorted_descending_and_renormalized(self):
        s = spec(0.2, 0.5, 0.3)
        assert_allclose(s.values, [0.5, 0.3, 0.2])
        assert s.values.sum() == pytest.approx(1.0, abs=1e-15)
        assert s.m == 3

    def test_small_negatives_clamp(self):
        s = Spectrum([1.0 + 5e-13, -5e-13])
        assert s.values[1] == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Spectrum([0.5, -1e-6, 0.5])
        with pytest.raises(ValueError):
            Spectrum([0.4, 0.4])
        with pytest.raises(ValueError):
            Spectrum([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum([bad, 0.5])

    def test_values_frozen(self):
        s = spec(0.5, 0.5)
        with pytest.raises(ValueError):
            s.values[0] = 0.7


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(spec(1.0)) == 0.0

    def test_uniform(self):
        assert von_neumann_entropy(spec(0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_thirds(self):
        expected = (2 / 3) * math.log(3 / 2) + (1 / 3) * math.log(3)
        assert von_neumann_entropy(spec(2 / 3, 1 / 3)) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.636514, abs=1e-6)

    @given(spectra_strategy)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_range(self, s):
        h = von_neumann_entropy(s)
        assert 0.0 <= h <= math.log(s.m) + 1e-12


class TestSubentropy:
    def test_pure(self):
        assert subentropy(spec(1.0, 0.0)) == 0.0
        assert subentropy(spec(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_uniform_two(self):
        assert subentropy(spec(0.5, 0.5)) == pytest.approx(math.log(2) - 0.5, abs=1e-12)

    def test_uniform_matches_harmonic_formula(self):
        # Q(1/m, ..., 1/m) = ln m - H_m + 1
        for m in (2, 3, 5, 8, 17):
            h_m = sum(1.0 / k for k in range(1, m + 1))
            got = subentropy(Spectrum(np.full(m, 1.0 / m)))
            assert got == pytest.approx(math.log(m) - h_m + 1.0, abs=1e-12)

    def test_two_point_value(self):
        expected = -(4 / 3) * math.log(2) + math.log(3)
        assert subentropy(spec(2 / 3, 1 / 3)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.174416, abs=1e-6)

    def test_confluent_against_perturbation_oracle(self):
        values = [0.5, 0.25, 0.25]
        oracle = oracles.subentropy_perturbation_oracle(values)
        assert subentropy(spec(*values)) == pytest.approx(oracle, abs=1e-7)

    def test_large_tie_group_near_second_level(self):
        # six-fold tie a hair away from a two-fold tie: the float table
        # cancels catastrophically here and must escalate to the extended
        # precision path, certified by the x^m probe
        values = np.array([0.12524595] * 6 + [0.12426214] * 2)
        values /= values.sum()
        oracle = oracles.subentropy_perturbation_oracle(values)
        assert subentropy(Spectrum(values)) == pytest.approx(oracle, abs=1e-10)

    def test_cluster_just_past_confluence_threshold(self):
        a = 0.125
        values = np.array([a] * 7 + [a * (1 + 2e-8)])
        values /= values.sum()
        oracle = oracles.subentropy_perturbation_oracle(
            values, deltas=(1e-11, 1e-12, 1e-13), dps=250
        )
        assert subentropy(Spectrum(values)) == pytest.approx(oracle, abs=1e-9)

    def test_confluent_with_zero_block(self):
        values = [0.6, 0.4, 0.0, 0.0]
        # zeros contribute nothing; push them to distinct tiny positives,
        # shaving the difference off the large eigenvalues to keep the sum
        oracle = float(oracles.subentropy_raw([0.6 - 7.5e-10, 0.4 - 7.5e-10, 1e-9, 5e-10]))
        assert subentropy(spec(*values)) == pytest.approx(oracle, abs=1e-6)

    def test_batch_matches_scalar_on_separated_rows(self):
        # well-separated nodes keep the divided differences conditioned, so
        # the two code paths agree essentially to rounding
        gen = RngStream(42).generator()
        base = np.array([0.45, 0.25, 0.15, 0.09, 0.06])
        rows = base + 0.004 * (gen.random((64, 5)) - 0.5)
        rows /= rows.sum(axis=1)[:, None]
        batch = subentropy_values(rows)
        single = [subentropy(Spectrum(r)) for r in rows]
        assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_batch_matches_public_scalar(self):
        # generic rows can carry gaps of 1e-4; node perturbations of an ulp
        # are then amplified by roughly one over the smallest gap
        gen = RngStream(43).generator()
        rows = gen.random((64, 6))
        rows /= rows.sum(axis=1)[:, None]
        batch = subentropy_values(rows)
        single = [subentropy(Spectrum(r)) for r in rows]
        assert_allclose(batch, single, rtol=0, atol=1e-8)

    def test_matches_extended_precision_oracle(self):
        gen = RngStream(44).generator()
        for m in (2, 3, 5, 8):
            rows = gen.random((8, m))
            rows /= rows.sum(axis=1)[:, None]
            batch = subentropy_values(rows)
            for row, got in zip(rows, batch):
                assert got == pytest.approx(float(oracles.subentropy_raw(row)), abs=1e-9)

    def test_batch_handles_ties(self):
        rows = np.array([[0.5, 0.25, 0.25], [0.4, 0.4, 0.2], [1.0, 0.0, 0.0]])
        batch = subentropy_values(rows)
        single = [subentropy(Spectrum(r)) for r in rows]
        assert_allclose(batch, single, rtol=0, atol=1e-14)

    @given(spectra_strategy)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bounds(self, s):
        q = subentropy(s)
        assert 0.0 <= q <= SUBENTROPY_MAX + 1e-9
        assert q <= -math.log(s.values[0]) + 1e-9


class TestSubentropyMatrixProperties:
    """Properties that need density matrices rather than bare spectra."""

    @staticmethod
    def _q(rho: DensityMatrix) -> float:
        return subentropy(spectrum_of(rho))

    def test_concavity_on_random_mixtures(self):
        gen_seed = 0
        for trial in range(60):
            m = 2 + trial % 4
            rho = induced_mixed_state(m, m + 1, RngStream(gen_seed, 2 * trial))
            sigma = induced_mixed_state(m, m + 1, RngStream(gen_seed, 2 * trial + 1))
            for q_mix in (0.0, 0.25, 0.5, 0.9, 1.0):
                mixed = DensityMatrix(q_mix * rho.entries + (1 - q_mix) * sigma.entries)
                lhs = self._q(mixed)
                rhs = q_mix * self._q(rho) + (1 - q_mix) * self._q(sigma)
                assert lhs >= rhs - 1e-9

    def test_schur_concavity_on_majorization_pairs(self):
        gen = RngStream(9).generator()
        for _ in range(200):
            m = int(gen.integers(2, 8))
            raw = gen.random(m) + 1e-3
            a = np.sort(raw / raw.sum())[::-1]
            t = gen.random()
            b = t * a + (1 - t) / m  # doubly stochastic average: a majorizes b
            assert subentropy(Spectrum(a)) <= subentropy(Spectrum(b)) + 1e-9

    def test_continuity_bound(self):
        for trial in range(40):
            m = 2 + trial % 5
            rho = induced_mixed_state(m, m, RngStream(5, 2 * trial))
            sigma = induced_mixed_state(m, m, RngStream(5, 2 * trial + 1))
            s = 0.05 * (1 + trial % 3)
            near = DensityMatrix((1 - s) * rho.entries + s * sigma.entries)
            t = oracles.trace_norm(rho.entries - near.entries)
            assert t <= math.exp(-1)
            bound = math.log(m) * t + (-t * math.log(t) if t > 0 else 0.0)
            assert abs(self._q(rho) - self._q(near)) <= bound + 1e-9

    def test_tensor_product_subadditive(self):
        gen = RngStream(13).generator()
        for _ in range(80):
            ma, mb = int(gen.integers(2, 5)), int(gen.integers(2, 5))
            a = gen.random(ma) + 1e-3
            b = gen.random(mb) + 1e-3
            a /= a.sum()
            b /= b.sum()
            q_joint = subentropy(Spectrum(np.outer(a, b).ravel()))
            assert q_joint <= subentropy(Spectrum(a)) + subentropy(Spectrum(b)) + 1e-9


class TestDephaseAndCoherence:
    def test_dephase_diagonal_is_identity_map(self):
        rho = DensityMatrix(np.diag([1 / 3, 1 / 3, 1 / 3]))
        assert_allclose(dephase(rho).entries, rho.entries)

    def test_dephase_kills_offdiagonals(self):
        rho = plus_state()
        out = dephase(rho).entries
        assert_allclose(out, np.diag([0.5, 0.5]))

    def test_dephase_preserves_trace_exactly(self):
        rho = induced_mixed_state(4, 5, RngStream(3))
        assert np.trace(dephase(rho).entries) == np.trace(rho.entries)

    def test_coherence_diagonal_zero(self):
        assert relative_entropy_coherence(DensityMatrix(np.diag([0.7, 0.3]))) == 0.0

    def test_coherence_plus_state(self):
        assert relative_entropy_coherence(plus_state()) == pytest.approx(math.log(2), abs=1e-10)

    def test_coherence_maximally_mixed(self):
        for m in (2, 3, 7):
            rho = DensityMatrix(np.eye(m) / m)
            assert relative_entropy_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_phase_unitary_invariance(self):
        gen = RngStream(21).generator()
        for trial in range(20):
            m = 2 + trial % 4
            rho = induced_mixed_state(m, m + 2, RngStream(21, trial))
            phases = np.exp(2j * np.pi * gen.random(m))
            rotated = DensityMatrix((phases[:, None] * rho.entries) * phases.conj()[None, :])
            assert relative_entropy_coherence(rotated) == pytest.approx(
                relative_entropy_coherence(rho), abs=1e-10
            )


class TestSpectrumOf:
    def test_identity(self):
        s = spectrum_of(DensityMatrix(np.eye(4) / 4))
        assert_allclose(s.values, np.full(4, 0.25), atol=1e-14)

    def test_diagonal(self):
        s = spectrum_of(DensityMatrix(np.diag([0.7, 0.3])))
        assert_allclose(s.values, [0.7, 0.3], atol=1e-14)

    def test_rank_one_projector(self):
        v = np.array([1, 1j, -1], dtype=complex) / math.sqrt(3)
        s = spectrum_of(DensityMatrix(np.outer(v, v.conj())))
        assert_allclose(s.values, [1.0, 0.0, 0.0], atol=1e-12)

    def test_random_state_residuals(self):
        rho = induced_mixed_state(6, 6, RngStream(8))
        w, v = np.linalg.eigh(rho.entries)
        residual = np.linalg.norm(rho.entries @ v - v * w, axis=0).max()
        assert residual <= 1e-10 * rho.dim


class TestPartialTrace:
    def test_product_state(self):
        psi = PureState([1, 0, 0, 0])
        rho = partial_trace(psi, 2, 2)
        assert_allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        psi = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace(psi, 2, 2)
        assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_trace_one(self):
        psi = PureState(np.exp(1j * np.arange(12)) / math.sqrt(12))
        rho = partial_trace(psi, 3, 4)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(PureState([1, 0, 0]), 2, 2)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.5], [0.2, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix([[1.2, 0.0], [0.0, -0.2]])


class TestFunctionals:
    def test_record_consistency(self):
        rho = induced_mixed_state(4, 6, RngStream(17))
        rec = functionals(rho)
        assert rec.entropy == pytest.approx(von_neumann_entropy(spectrum_of(rho)), abs=1e-14)
        assert rec.coherence == pytest.approx(relative_entropy_coherence(rho), abs=1e-12)
        assert 0.0 <= rec.subentropy <= SUBENTROPY_MAX + 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Functionals(entropy=0.1, subentropy=0.6, coherence=0.0)
        with pytest.raises(ValueError):
            Functionals(entropy=-0.1, subentropy=0.0, coherence=0.0)


def test_entropy_values_handles_zeros():
    out = entropy_values(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    assert_allclose(out, [math.log(2), 0.0], atol=1e-15)


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
    assert SUBENTROPY_MAX == pytest.approx(0.4227843350984671, abs=1e-15)


def _assert_integral_route(row, value):
    """`value` is the integral form's bits on `row`, and within 1e-12 of the
    400-digit pole sum."""
    assert value.hex() == max(0.0, _subentropy_integral(row[None])[0]).hex()
    assert value == pytest.approx(float(oracles.subentropy_raw(row, 400)), abs=1e-12)


class TestSubentropyRoutes:
    """The integral form against independent oracles, on the rows it takes over
    from the table and away from them."""

    @pytest.mark.parametrize("rows", [[[0.6, 0.6, 0.2]], [[math.nan, 0.5]]])
    def test_rejects_unnormalised_and_non_finite_rows(self, rows):
        # the integral form assumes a unit sum, so without the check an
        # unnormalised row's value would depend on the route it takes
        with pytest.raises(ValueError):
            subentropy_values(np.array(rows))

    @pytest.mark.parametrize("m", [96, 128])
    def test_rows_no_precision_certifies(self, m):
        # induced rows at m = n >= 96 defeat the table in floats and in 40
        # digits, and reach the integral
        rho = draw_induced(m, m, RngStream(47, m), 1)
        row = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        got = subentropy_values(row)[0]
        assert got == pytest.approx(float(oracles.subentropy_raw(row[0], 400)), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_past_forty_digits_take_the_integral(self, seed):
        # at m = 80 about half the induced rows defeat the 40-digit pass:
        # rows 0 and 1 here, which the table certifies only at 80 and 640
        # digits (seed 0) and at 1280 and 160 digits (seed 1)
        blocks = induced_blocks(80, 80, RngStream(seed, 80), 4)
        rows = np.concatenate([np.clip(np.linalg.eigvalsh(b), 0.0, None) for b in blocks])
        rows = -np.sort(-rows, axis=1)
        assert [math.isnan(oracles.subentropy_escalated_mpf(row)) for row in rows] == [
            True, True, False, False]
        got = subentropy_values(rows)
        for row, value in zip(rows[:2], got[:2]):
            _assert_integral_route(row, value)

    def test_integral_at_large_dimension(self):
        row = np.clip(np.linalg.eigvalsh(draw_induced(256, 256, RngStream(48), 1)), 0.0, None)
        got = _subentropy_integral(row)[0]
        assert got == pytest.approx(float(oracles.subentropy_raw(row[0], 400)), abs=1e-12)

    def test_integral_away_from_ties(self):
        # the 200-digit pole sum, not the float table: rows the float probe
        # certifies at 1e-11 can still be 1e-11 off, the integral is not
        gen = RngStream(49).generator()
        for m in range(2, 65):
            row = gen.random(m)
            row /= row.sum()
            got = _subentropy_integral(row[None, :])[0]
            assert got == pytest.approx(float(oracles.subentropy_raw(row, 200)), abs=1e-13)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the float pass certifies this row by its x^m probe "
        "(7.6e-12), which does not bound the value column; 2.1e-9 off"))
    def test_float_pass_row_within_pole_sum(self):
        # row 101 of `subentropy-m32` at seed 1: the vectorized probe rejects
        # it (1.28e-11), the libm float pass certifies it, and its value is
        # 0x1.92991e30e7606p-2 against the pole sum's 0x1.92991e5516b15p-2
        blocks = induced_blocks(32, 32, RngStream(1, 3), 32)
        rows = np.concatenate([np.clip(np.linalg.eigvalsh(b), 0.0, None) for b in blocks])
        row = -np.sort(-rows[5])
        got = subentropy_values(row[None])[0]
        assert got == pytest.approx(float(oracles.subentropy_raw(row, 200)), abs=1e-12)


class TestOwnLibmp:
    """`qcore._own_libmp`, mpmath's `libmp` loaded without mpmath, against
    `mpmath.libmp` itself."""

    def test_loads_mpmath_own_files(self):
        own = qcore._own_libmp()
        assert own is not libmp and own.__name__ == qcore._LIBMP
        assert os.path.dirname(own.__file__) == os.path.dirname(libmp.__file__)
        assert os.path.dirname(own.libmpf.__file__) == os.path.dirname(libmp.libmpf.__file__)
        assert qcore._own_libmp() is own is sys.modules[qcore._LIBMP]

    def test_threads_racing_the_first_load_get_the_whole_module(self):
        # a fresh interpreter, so that the first load is the one raced
        code = (
            "import threading\n"
            "from subent import qcore\n"
            "start, got = threading.Barrier(8), []\n"
            "def load():\n"
            "    start.wait()\n"
            "    module = qcore._own_libmp()\n"
            "    got.append((module, module.mpf_log, module.to_float))\n"
            "threads = [threading.Thread(target=load) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "assert len(got) == 8 and len(set(got)) == 1, got\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr

    @given(values=st.lists(st.floats(min_value=5e-324, max_value=1e300, allow_infinity=False),
                           min_size=1, max_size=6),
           exponent=st.integers(0, 64))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_results_as_mpmath_libmp(self, values, exponent):
        prec = libmp.dps_to_prec(40)  # 136 bits, as in the 40-digit pass
        results = []
        for lib in (qcore._own_libmp(), libmp):
            x = [lib.from_float(v) for v in values]
            power = [lib.mpf_pow_int(v, exponent, prec, "n") for v in x]
            logs = [lib.mpf_log(v, prec, "n") for v in x]
            products = [lib.mpf_mul(p, q, prec, "n") for p, q in zip(power, logs)]
            total = lib.mpf_sum(products + x, prec, "n")
            results.append((x, power, logs, products, total,
                            [lib.to_float(v, rnd="n") for v in products + [total]]))
        assert results[0] == results[1]


@st.composite
def _distinct_nodes(draw):
    """2 to 7 distinct float nodes in [0, 1], many of them dyadic k/64, and
    often a zero."""
    node = st.one_of(st.integers(1, 64).map(lambda k: k / 64), st.floats(0.0, 1.0), st.just(0.0))
    return draw(st.lists(node, min_size=2, max_size=7, unique=True))


class TestMantissaTable:
    """`_mantissa_table` against the same table on `mp.mpf` numbers
    (`oracles.scalar_table`), at precisions low enough that subtraction
    ties, carries and zero differences are common."""

    @pytest.mark.parametrize("prec", [4, 6, 8, 12, 20, 53, 136])
    @given(nodes=_distinct_nodes())
    @settings(max_examples=300, deadline=None)
    def test_equals_mpf_table(self, prec, nodes):
        exact = [libmp.from_float(v) for v in nodes]
        with mp.workprec(prec):
            value, probe = oracles.scalar_table([mp.make_mpf(v) for v in exact], mp.log)
        assert _mantissa_table(exact, prec) == (value._mpf_, probe._mpf_)


class TestBatchedEscalation:
    """`subentropy_values` on one chunk whose rows take every route: the
    vectorized table, the batched float pass, the 40-digit pass and the
    integral form, checked row by row."""

    def test_mixed_chunk(self, monkeypatch):
        m = 24
        rows = np.clip(np.linalg.eigvalsh(draw_induced(m, m, RngStream(0, m), 16)), 0.0, None)
        rows = -np.sort(-rows, axis=1)
        cluster = np.concatenate([np.linspace(0.5, 0.05, m - 8), 0.173 + 3e-8 * np.arange(8)])
        zero = rows[7].copy()
        zero[-1] = 0.0
        chunk = np.vstack([rows, -np.sort(-cluster / cluster.sum()), zero / zero.sum()])
        plain, probe_error = _divided_difference_plain(chunk)
        # At m = 24, seed 0, numpy's vectorized pow differs from libm's on an
        # AVX-512 host, and row 11 fails the vectorized probe (3.3e-11) while
        # the float pass certifies it (2.2e-12). Rows 13 and 14 (probe error
        # about 1e-13) are reported as failed, so the float pass takes rows
        # on any host.
        forced = [13, 14]

        def probe_fails_on_forced(z):
            assert len(z) == len(chunk)  # no row is confluent
            value, error = _divided_difference_plain(z)
            error[forced] = 1.0
            return value, error

        monkeypatch.setattr(qcore, "_divided_difference_plain", probe_fails_on_forced)
        got = subentropy_values(chunk)
        kinds = []
        for j, (row, value) in enumerate(zip(chunk, got)):
            if probe_error[j] <= 1e-11 and j not in forced:
                kinds.append("vectorized")
                assert value.hex() == max(0.0, plain[j]).hex()
                continue
            _, probe = oracles.scalar_table(row.tolist(), math.log)
            escalated = oracles.subentropy_escalated_mpf(row)
            if math.isnan(escalated):
                kinds.append("integral")
                _assert_integral_route(row, value)
                continue
            kinds.append("float" if abs(probe - row.sum()) <= 1e-11 else "digits")
            assert value.hex() == escalated.hex()
        assert [kinds[j] for j in forced] == ["float", "float"]
        assert kinds[15] == "vectorized"
        # the table certifies the cluster only at 640 digits, so it takes the
        # integral; the row with a zero eigenvalue takes the 40-digit pass on
        # the AVX-512 host
        assert kinds[16] == "integral"


class TestEscalatedAgainstMpfTable:
    """`_subentropy_escalated` against the table it replaced, run on `mp.mpf`
    numbers (`oracles.subentropy_escalated_mpf`), by float bits."""

    @staticmethod
    def _induced_rows(m, count):
        rows = np.clip(np.linalg.eigvalsh(draw_induced(m, m, RngStream(51, m), count)), 0.0, None)
        return -np.sort(-rows, axis=1)

    @pytest.mark.parametrize("m", [8, 16, 32, 48, 64])
    def test_induced_rows(self, m):
        # the float pass certifies these rows at m = 8 and 16; from m = 32 on
        # they take the 40-digit pass
        for row in self._induced_rows(m, 2):
            assert _subentropy_escalated(row[None])[0].hex() == oracles.subentropy_escalated_mpf(row).hex()

    @pytest.mark.parametrize("m, size, gap", [(8, 6, 2e-8), (16, 8, 3e-8)])
    def test_clustered_rows_take_the_integral(self, m, size, gap):
        # a cluster of `size` nodes `gap` apart needs 160 (m = 8) and 320
        # (m = 16) digits for the table to certify it, so it takes the integral
        row = np.concatenate([np.linspace(0.5, 0.05, m - size), 0.173 + gap * np.arange(size)])
        row = -np.sort(-row / row.sum())
        assert math.isnan(_subentropy_escalated(row[None])[0])
        assert math.isnan(oracles.subentropy_escalated_mpf(row))
        _assert_integral_route(row, subentropy_values(row[None])[0])

    def test_row_no_precision_certifies(self):
        row = self._induced_rows(96, 1)[0]
        assert math.isnan(_subentropy_escalated(row[None])[0])
        assert math.isnan(oracles.subentropy_escalated_mpf(row))

    def test_one_digit_pass_per_row(self, monkeypatch):
        # the m = 96 row fails every pass; it costs one 40-digit table on its
        # way to the integral form
        calls = []

        def counted(nodes, prec):
            calls.append(prec)
            return _mantissa_table(nodes, prec)

        monkeypatch.setattr(qcore, "_mantissa_table", counted)
        row = self._induced_rows(96, 1)[0]
        _assert_integral_route(row, subentropy_values(row[None])[0])
        assert calls == [libmp.dps_to_prec(40)]

    def test_table_equal_at_every_precision(self):
        row = self._induced_rows(32, 1)[0].tolist()
        for dps in (40, 80, 160, 320, 640, 1280):
            with mp.workdps(dps):
                value, probe = oracles.scalar_table([mp.mpf(v) for v in row], mp.log)
            got = _mantissa_table([libmp.from_float(v) for v in row], libmp.dps_to_prec(dps))
            assert got == (value._mpf_, probe._mpf_)
