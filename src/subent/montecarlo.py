"""Chunked, reproducible Monte Carlo estimation of the spectral functionals.

Samples are drawn in fixed-size chunks, chunk i from RngStream(seed, i),
and the per-chunk summaries are merged in chunk order. Results therefore
depend only on (seed, chunk size, sample count) and never on how many
workers executed the chunks. Within a chunk the states arrive in the
cache-sized blocks of `sampling`; only per-sample rows (spectra, diagonals,
functional values) are kept for the whole chunk. A failed sample aborts the
whole run; nothing is resampled, since that would bias the measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_CHUNK
from .closedform import _check_pair, levy_coherence_bound
from .errors import ConvergenceFailure, DomainError
from .pool import run_ordered
from .qcore import Spectrum, entropy_values, subentropy_values
# complex_normals is not called here; perfbench/inproc.py reads it from this module.
from .sampling import RngStream, complex_normals, haar_blocks, induced_blocks, pure_blocks  # noqa: F401

FUNCTIONALS = ("entropy", "subentropy", "coherence")
LIPSCHITZ_FUNCTIONALS = ("coherence", "dephased_entropy", "entropy")
_MIN_PAIR_DISTANCE = 1e-8


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Streaming mean/variance summary of one scalar sample set."""

    mean: float
    variance: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("an estimate needs at least one sample")

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.count)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @classmethod
    def from_samples(cls, values) -> "MonteCarloEstimate":
        v = np.asarray(values, dtype=float)
        n = v.size
        mean = float(v.mean())
        variance = float(np.square(v - mean).sum() / (n - 1)) if n > 1 else 0.0
        return cls(mean, variance, n)

    def combine(self, other: "MonteCarloEstimate") -> "MonteCarloEstimate":
        """Merge two disjoint sample summaries (parallel Welford update)."""
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * (nb / n)
        m2 = (
            self.variance * (na - 1)
            + other.variance * (nb - 1)
            + delta * delta * (na * nb / n)
        )
        return MonteCarloEstimate(mean, m2 / (n - 1) if n > 1 else 0.0, n)


@dataclass(frozen=True)
class TailReport:
    """Empirical tail fraction of the coherence against its concentration bound."""

    epsilon: float
    center: float
    empirical_fraction: float
    levy_bound: float
    count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.empirical_fraction <= 1.0:
            raise ValueError("the empirical fraction must lie in [0, 1]")


@dataclass(frozen=True)
class ConcentrationRow:
    """Coherence spread at square dimensions n = m for one m."""

    m: int
    mean: float
    stddev: float
    stderr: float
    count: int
    target: float


@dataclass(frozen=True)
class LipschitzReport:
    """Largest observed difference quotient over random pure-state pairs."""

    max_ratio: float
    evaluated: int
    skipped: int


def _chunk_sizes(samples: int, chunk: int) -> list[int]:
    if chunk < 1:
        raise DomainError("chunk size must be positive")
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
    return sizes


def _tasks(head: tuple, seed: int, samples: int, chunk: int) -> list[tuple]:
    """One task per chunk: `head`, then the seed, chunk index and chunk size."""
    return [(*head, seed, index, size) for index, size in enumerate(_chunk_sizes(samples, chunk))]


def _run_ordered(fn, tasks, workers: int) -> list:
    try:
        return run_ordered(fn, tasks, workers)
    except np.linalg.LinAlgError as exc:  # from any chunk's eigensolver, here or in a worker
        raise ConvergenceFailure(str(exc)) from exc


def _merge(parts: list[MonteCarloEstimate]) -> MonteCarloEstimate:
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.combine(part)
    return merged


def _functional_samples(which: str, lams: np.ndarray, diag: np.ndarray) -> np.ndarray:
    if which == "entropy":
        return entropy_values(lams)
    if which == "subentropy":
        return subentropy_values(lams)
    return np.maximum(entropy_values(diag) - entropy_values(lams), 0.0)


def _induced_chunk(task) -> tuple[dict[str, MonteCarloEstimate], list[int]]:
    """Summaries of the functionals in `which` and, per epsilon, the number of
    coherence samples farther than it from the center, all from one draw."""
    m, n, which, epsilons, seed, index, size = task
    lams, diag = np.empty((size, m)), np.empty((size, m))
    stop = 0
    for rho in induced_blocks(m, n, RngStream(seed, index), size):
        start, stop = stop, stop + len(rho)
        lams[start:stop] = np.linalg.eigvalsh(rho)
        diag[start:stop] = np.einsum("sii->si", rho).real
    np.clip(lams, 0.0, None, out=lams)
    np.clip(diag, 0.0, None, out=diag)
    needed = set(which) | ({"coherence"} if epsilons else set())
    values = {w: _functional_samples(w, lams, diag) for w in needed}
    deviation = np.abs(values["coherence"] - (m - 1) / (2 * n)) if epsilons else None
    summaries = {w: MonteCarloEstimate.from_samples(values[w]) for w in which}
    return summaries, [int((deviation > eps).sum()) for eps in epsilons]


def estimate_induced(
    m: int,
    n: int,
    samples: int,
    seed: int,
    which=FUNCTIONALS,
    epsilons=(),
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> tuple[dict[str, MonteCarloEstimate], list[TailReport]]:
    """Averages of the functionals in `which` and coherence tail reports at
    `epsilons`, all from one draw of each chunk's stream.

    Each result equals the one estimate_functional or tail_experiment returns
    for it alone at the same seed and chunk size.
    """
    _check_pair(m, n)
    if samples < 2:
        raise DomainError("need at least two samples")
    which = tuple(which)
    if any(w not in FUNCTIONALS for w in which):
        raise DomainError(f"which must be one of {FUNCTIONALS}")
    eps = tuple(float(e) for e in epsilons)
    if eps and m < 3:
        raise DomainError("the concentration bound needs m >= 3")
    if not all(math.isfinite(e) and e > 0 for e in eps):
        raise DomainError("epsilons must be positive and finite")
    parts = _run_ordered(_induced_chunk, _tasks((m, n, which, eps), seed, samples, chunk), workers)
    estimates = {w: _merge([summaries[w] for summaries, _ in parts]) for w in which}
    center = (m - 1) / (2 * n)
    tails = [
        TailReport(e, center, sum(counts[i] for _, counts in parts) / samples,
                   levy_coherence_bound(m, n, e), samples)
        for i, e in enumerate(eps)
    ]
    return estimates, tails


def estimate_functional(
    m: int,
    n: int,
    which: str,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Average of one spectral functional over induced-measure random states."""
    estimates, _ = estimate_induced(m, n, samples, seed, (which,), (), chunk, workers)
    return estimates[which]


def _isospectral_chunk(task) -> MonteCarloEstimate:
    values, seed, index, size = task
    lam = np.asarray(values, dtype=float)
    blocks = haar_blocks(lam.size, RngStream(seed, index), size)
    diag = np.concatenate([np.abs(u) ** 2 @ lam for u in blocks])
    base = float(entropy_values(lam[None, :])[0])
    return MonteCarloEstimate.from_samples(np.maximum(entropy_values(diag) - base, 0.0))


def estimate_isospectral_coherence(
    spec: Spectrum,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Average coherence of U diag(spec) U^H over Haar-random U.

    The spectrum is held fixed, so each sample only needs the diagonal of
    the rotated state; the subtracted entropy is that of the spectrum itself.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    values = tuple(float(v) for v in spec.values)
    tasks = _tasks((values,), seed, samples, chunk)
    return _merge(_run_ordered(_isospectral_chunk, tasks, workers))


def tail_experiment(
    m: int,
    n: int,
    epsilons,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> list[TailReport]:
    """Empirical coherence tail fractions against the concentration bounds."""
    _, tails = estimate_induced(m, n, samples, seed, (), epsilons, chunk, workers)
    return tails


def concentration_sweep(
    ms,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> list[ConcentrationRow]:
    """Sample spread of the coherence at n = m across a grid of dimensions.

    Every dimension is validated before any sample is drawn, and the chunks
    of all dimensions share one set of workers.
    """
    ms = list(ms)
    if any(m < 2 for m in ms):
        raise DomainError("the sweep needs m >= 2")
    if samples < 2:
        raise DomainError("need at least two samples")
    tasks = [task for m in ms for task in _tasks((m, m, ("coherence",), ()), seed, samples, chunk)]
    parts = _run_ordered(_induced_chunk, tasks, workers)
    per_m = len(_chunk_sizes(samples, chunk))
    rows = []
    for i, m in enumerate(ms):
        est = _merge([summaries["coherence"] for summaries, _ in parts[i * per_m:(i + 1) * per_m]])
        rows.append(
            ConcentrationRow(m, est.mean, est.stddev, est.stderr, est.count, (m - 1) / (2 * m))
        )
    return rows


def _pure_pair_values(states: np.ndarray, m: int, n: int, which: str) -> np.ndarray:
    mats = states.reshape(-1, m, n)
    diag = np.square(np.abs(mats)).sum(axis=2)
    if which == "dephased_entropy":
        return entropy_values(diag)
    rho = mats @ np.conjugate(np.swapaxes(mats, 1, 2))
    lams = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    if which == "entropy":
        return entropy_values(lams)
    return entropy_values(diag) - entropy_values(lams)


def _lipschitz_ratios(psi, phi, m, n, which):
    distance = np.linalg.norm(psi - phi, axis=1)
    keep = distance >= _MIN_PAIR_DISTANCE
    skipped = int((~keep).sum())
    if not keep.any():
        return np.empty(0), skipped
    f = _pure_pair_values(psi[keep], m, n, which)
    g = _pure_pair_values(phi[keep], m, n, which)
    return np.abs(f - g) / distance[keep], skipped


def _lipschitz_chunk(task):
    m, n, which, seed, index, size = task
    parts, skipped = [], 0
    for pairs in pure_blocks((2, m * n), RngStream(seed, index), size):
        ratios, dropped = _lipschitz_ratios(pairs[:, 0, :], pairs[:, 1, :], m, n, which)
        parts.append(ratios)
        skipped += dropped
    ratios = np.concatenate(parts)
    peak = float(ratios.max()) if ratios.size else 0.0
    return peak, int(ratios.size), skipped


def lipschitz_check(
    m: int,
    n: int,
    pairs: int,
    seed: int,
    which: str = "coherence",
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> LipschitzReport:
    """Max |F(psi) - F(phi)| / ||psi - phi|| over random pure-state pairs.

    F maps a bipartite pure state to a functional of its m-dimensional
    marginal: its coherence, the entropy of its diagonal, or its entropy.
    Pairs closer than 1e-8 are skipped as ill-conditioned and counted.
    """
    if m < 3:
        raise DomainError("the Lipschitz bound is stated for m >= 3")
    _check_pair(m, n)
    if which not in LIPSCHITZ_FUNCTIONALS:
        raise DomainError(f"which must be one of {LIPSCHITZ_FUNCTIONALS}")
    if pairs < 1:
        raise DomainError("need at least one pair")
    tasks = _tasks((m, n, which), seed, pairs, chunk)
    peak, evaluated, skipped = 0.0, 0, 0
    for part_peak, part_evaluated, part_skipped in _run_ordered(_lipschitz_chunk, tasks, workers):
        peak = max(peak, part_peak)
        evaluated += part_evaluated
        skipped += part_skipped
    return LipschitzReport(peak, evaluated, skipped)
