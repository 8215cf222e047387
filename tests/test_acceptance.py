"""End-to-end acceptance gates, one test per criterion.

Each test prints a PASS/FAIL line (visible with -s or on failure) and
asserts both the mathematical content and its runtime budget.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import oracles
from reference import (
    DensityMatrix,
    average_subentropy_series,
    induced_mixed_state,
    lipschitz_check,
    relative_entropy_coherence,
    spectrum_of,
)
from subent import (
    EULER_GAMMA,
    RngStream,
    Spectrum,
    average_coherence_exact,
    average_embedded_entanglement,
    average_entropy_exact,
    average_subentropy_exact,
    concentration_sweep,
    estimate_functional,
    gamma_ratio_sum_harmonic,
    gamma_ratio_sum_plain,
    harmonic,
    riordan_identity_check,
    subentropy,
    tail_experiment,
)
from subent.cli import main
from subent.closedform import aomoto_moment_log
from subent.identities import QUADRATURE_TARGETS, aomoto_quadrature_oracle
from subent.qcore import SUBENTROPY_MAX, subentropy_values


def _gate(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_01_series_equals_closed_form():
    start = time.time()
    mismatches = []
    for m in range(1, 33):
        for n in range(m, 33):
            series = average_subentropy_series(m, n - m + 1).exact
            closed = average_subentropy_exact(m, n)
            if series != closed:
                mismatches.append((m, n))
    elapsed = time.time() - start
    _gate(
        "01 exact series vs closed form (m <= n <= 32)",
        not mismatches and elapsed < 10.0,
        f"mismatches={mismatches[:3]} elapsed={elapsed:.2f}s",
    )


def test_02_coherence_assembly_exact():
    start = time.time()
    mismatches = []
    for m in range(1, 65):
        for n in range(m, 65):
            lhs = (
                (harmonic(m) - 1)
                + average_subentropy_exact(m, n)
                - average_entropy_exact(m, n)
            )
            if lhs != Fraction(m - 1, 2 * n):
                mismatches.append((m, n))
    elapsed = time.time() - start
    _gate(
        "02 exact coherence assembly (m <= n <= 64)",
        not mismatches and elapsed < 5.0,
        f"mismatches={mismatches[:3]} elapsed={elapsed:.2f}s",
    )


def test_03_monte_carlo_matches_closed_forms():
    start = time.time()
    pairs = [(2, 2), (2, 4), (3, 3), (3, 6), (4, 4), (6, 8)]
    targets = {
        "entropy": average_entropy_exact,
        "subentropy": average_subentropy_exact,
        "coherence": average_coherence_exact,
    }
    failures = []
    for m, n in pairs:
        for which, exact in targets.items():
            est = estimate_functional(m, n, which, 20_000, seed=20_000 + m * 100 + n)
            target = float(exact(m, n))
            z = (est.mean - target) / est.stderr if est.stderr else 0.0
            if abs(est.mean - target) > 5 * est.stderr:
                failures.append((m, n, which, z))
    elapsed = time.time() - start
    _gate(
        "03 Monte Carlo means within 5 stderr (6 pairs, N=2e4)",
        not failures and elapsed < 120.0,
        f"failures={failures} elapsed={elapsed:.1f}s",
    )


def test_04_square_dimension_asymptote():
    start = time.time()
    limit = 1 - EULER_GAMMA
    dims = (2, 4, 8, 16, 32, 64)
    gaps = {m: float(average_subentropy_exact(m, m)) - limit for m in dims}
    # Euler-Maclaurin, H_N = ln N + gamma + 1/(2N) - 1/(12N^2) + 1/(120N^4) - ...,
    # applied to gap(m) = H_{m^2} - 2 H_m + gamma gives
    #     gap(m) = -1/m + 2/(3m^2) - 1/(10m^4) + O(m^-6),
    # so the remainder after the first two terms stays within 1/(8m^4) for
    # m >= 2. The gap is -1.5462e-2 at m = 64 and first falls below 1e-3 in
    # size only at m = 1000, beyond what exact rationals reach quickly.
    below = all(gaps[m] < 0 for m in dims)
    monotone = all(abs(gaps[a]) > abs(gaps[b]) for a, b in zip(dims, dims[1:]))
    worst = max(abs(gaps[m] + 1 / m - 2 / (3 * m**2)) * 8 * m**4 for m in dims)
    elapsed = time.time() - start
    _gate(
        "04 square-dimension asymptote (from below, monotone, -1/m + 2/(3m^2) to O(m^-4))",
        below and monotone and worst <= 1.0 and elapsed < 1.0,
        f"gap(64)={gaps[64]:.5g} below={below} monotone={monotone} "
        f"remainder/bound={worst:.3g} elapsed={elapsed:.2f}s",
    )


def test_05_identity_suite():
    start = time.time()
    failures = []
    for m in range(1, 21):
        for n in range(m, 21):
            if not gamma_ratio_sum_plain(m, n).holds:
                failures.append(("plain", m, n))
            if not gamma_ratio_sum_harmonic(m, n).holds:
                failures.append(("harmonic", m, n))
    for m in range(1, 13):
        for n in range(m, 13):
            if not riordan_identity_check(m, n).holds:
                failures.append(("riordan", m, n))
    elapsed = time.time() - start
    _gate(
        "05 exact identity suite (gamma sums to 20, binomial product to 12)",
        not failures and elapsed < 30.0,
        f"failures={failures[:3]} elapsed={elapsed:.2f}s",
    )


def test_06_quadrature_oracles():
    start = time.time()
    failures = []
    for m in (2, 3):
        tolerance = QUADRATURE_TARGETS[m]
        for alpha in (1.0, 1.5, 2.0, 3.0):
            # k = 0 is the Selberg integral, the normalization of the measure
            for k in range(m + 1):
                value = aomoto_quadrature_oracle(m, k, alpha)
                closed = math.exp(aomoto_moment_log(m, k, alpha))
                if abs(value - closed) > tolerance * abs(closed):
                    failures.append(("aomoto", m, k, alpha))
    elapsed = time.time() - start
    _gate(
        "06 quadrature vs Gamma products (1e-6 at m=2, 1e-4 at m=3)",
        not failures and elapsed < 60.0,
        f"failures={failures} elapsed={elapsed:.2f}s",
    )


def test_07_subentropy_property_suite():
    start = time.time()
    total = 100_000
    per_m = total // 7 + 1
    problems = []

    # bounds on random simplex spectra, all m in 2..8
    for m in range(2, 9):
        gen = RngStream(700 + m).generator()
        rows = -np.log1p(-gen.random((per_m, m)))
        rows /= rows.sum(axis=1)[:, None]
        q = subentropy_values(rows)
        lam_max = rows.max(axis=1)
        if not ((q >= 0.0).all() and (q <= SUBENTROPY_MAX + 1e-9).all()):
            problems.append(("range", m))
        if not (q <= -np.log(lam_max) + 1e-9).all():
            problems.append(("lam-max", m))

    # concavity spot checks on mixtures of induced states
    for trial in range(300):
        m = 2 + trial % 4
        rho = induced_mixed_state(m, m + 1, RngStream(701, trial))
        sigma = induced_mixed_state(m, m + 1, RngStream(702, trial))
        q_mix = 0.1 + 0.8 * (trial % 9) / 9
        mixed = DensityMatrix(q_mix * rho.entries + (1 - q_mix) * sigma.entries)
        lhs = subentropy(spectrum_of(mixed))
        rhs = q_mix * subentropy(spectrum_of(rho)) + (1 - q_mix) * subentropy(
            spectrum_of(sigma)
        )
        if lhs < rhs - 1e-9:
            problems.append(("concavity", trial))

    # majorization spot checks: a majorizes its doubly stochastic average
    gen = RngStream(705).generator()
    for trial in range(300):
        m = int(gen.integers(2, 9))
        raw = gen.random(m) + 1e-3
        a = raw / raw.sum()
        t = gen.random()
        b = t * a + (1 - t) / m
        if subentropy(Spectrum(a)) > subentropy(Spectrum(b)) + 1e-9:
            problems.append(("majorization", trial))

    # confluent evaluation against the perturbation oracle on exact ties
    gen = RngStream(706).generator()
    worst = 0.0
    for trial in range(1000):
        m = 2 + trial % 7
        values = oracles.random_tied_spectrum(gen, m)
        got = subentropy(Spectrum(values))
        want = oracles.subentropy_perturbation_oracle(values)
        worst = max(worst, abs(got - want))
    if worst > 1e-7:
        problems.append(("confluent", worst))

    elapsed = time.time() - start
    _gate(
        "07 subentropy properties (1e5 spectra + 1e3 degenerate oracles)",
        not problems and elapsed < 120.0,
        f"problems={problems[:3]} worst_confluent={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_08_concentration_and_lipschitz():
    start = time.time()
    problems = []

    ms = [2, 4, 8, 16]
    estimates = concentration_sweep(ms, 10_000, seed=800)
    spreads = [est.stddev for est in estimates]
    if not all(a > b for a, b in zip(spreads, spreads[1:])):
        problems.append(("stddev-trend", spreads))
    for m, est in zip(ms, estimates):
        if abs(est.mean - (m - 1) / (2 * m)) > 5 * est.stderr:
            problems.append(("sweep-mean", m))

    for m in (4, 8, 16):
        for report in tail_experiment(m, m, (0.05, 0.1, 0.2, 1.0), 10_000, seed=801):
            if report.empirical_fraction > min(1.0, report.levy_bound):
                problems.append(("tail", m, report.epsilon))

    for m in range(3, 9):
        bound = 2 * math.sqrt(8) * math.log(m)
        report = lipschitz_check(m, m, 10_000, seed=802 + m)
        if report.max_ratio > bound:
            problems.append(("lipschitz", m, report.max_ratio))

    elapsed = time.time() - start
    _gate(
        "08 concentration trend, tails and Lipschitz ratios",
        not problems and elapsed < 300.0,
        f"problems={problems[:3]} elapsed={elapsed:.1f}s",
    )


def test_09_embedded_entanglement():
    start = time.time()
    problems = []

    est, _ = average_embedded_entanglement(3, 3, 20_000, seed=900)
    target = float(average_coherence_exact(3, 3))
    if abs(est.mean - target) > 5 * est.stderr:
        problems.append(("average", est.mean, target))

    # the coherent information bounds E_D from below and S(chi || Delta chi)
    # bounds E_R from above; both equal to the coherence pins E_D = E_R = C_r
    worst = 0.0
    for m in range(3, 17):
        for n in range(m, m + 5):
            rho = induced_mixed_state(m, n, RngStream(901, 100 * m + n))
            chi = oracles.embed(rho)
            coherence = relative_entropy_coherence(rho)
            for bound in (oracles.coherent_information, oracles.dephased_relative_entropy):
                deviation = abs(bound(chi, m) - coherence)
                worst = max(worst, deviation)
                if not deviation <= 1e-10:
                    problems.append((bound.__name__, m, n, deviation))

    elapsed = time.time() - start
    _gate(
        "09 embedded entanglement average and E_D, E_R bounds",
        not problems and elapsed < 60.0,
        f"problems={problems[:2]} worst={worst:.2g} elapsed={elapsed:.1f}s",
    )


_CLI_CASES = [
    ["formula", "--m-range", "2..5", "--n-range", "2..6"],
    ["estimate", "--m", "2", "--n", "3", "--which", "all", "--samples", "3000", "--seed", "4"],
    ["concentration", "--m", "3", "--n", "3", "--eps", "0.1,0.3", "--samples", "3000", "--seed", "5"],
    ["concentration", "--m-range", "2..4", "--samples", "3000", "--seed", "6"],
    ["identities", "--max-m", "8", "--max-n", "8"],
    ["entangle", "--m", "3", "--n", "3", "--samples", "3000", "--seed", "7"],
]


def test_10_cli_determinism(tmp_path, every_worker_pays):
    start = time.time()
    problems = []
    for index, argv in enumerate(_CLI_CASES):
        out_a = tmp_path / f"{index}_a.json"
        out_b = tmp_path / f"{index}_b.json"
        code_a = main(argv + ["--workers", "1", "--out", str(out_a)])
        code_b = main(argv + ["--workers", "2", "--out", str(out_b)])
        if code_a != code_b or code_a != 0:
            problems.append(("exit", argv[0], code_a, code_b))
            continue
        lines_a = out_a.read_text().splitlines()
        lines_b = out_b.read_text().splitlines()
        manifest_a = json.loads(lines_a[0])
        manifest_b = json.loads(lines_b[0])
        for key in ("started", "finished"):
            manifest_a.pop(key), manifest_b.pop(key)
        if manifest_a != manifest_b:
            problems.append(("manifest", argv[0]))
        if lines_a[1:] != lines_b[1:]:
            problems.append(("payload", argv[0]))
    elapsed = time.time() - start
    _gate(
        "10 CLI reruns reproduce payload bytes across worker counts",
        not problems and elapsed < 120.0,
        f"problems={problems} elapsed={elapsed:.1f}s",
    )
