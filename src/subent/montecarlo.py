"""Chunked, reproducible Monte Carlo estimation of the spectral functionals
of induced-measure random states: their averages, the coherence tail
fractions against the concentration bound, and the square-dimension
concentration sweep.

Samples are drawn in fixed-size chunks, chunk i from RngStream(seed, i),
and the per-chunk summaries are merged in chunk order. Results therefore
depend only on (seed, chunk size, sample count) and never on how many
workers executed the chunks. Within a chunk the states arrive in the
cache-sized blocks of `sampling`; only per-sample rows (spectra, diagonals,
functional values) are kept for the whole chunk, and a chunk too large to
allocate them, or a sample too large to draw, is a DomainError. A failed sample aborts the whole run;
nothing is resampled, since that would bias the measure. One work measure,
`sampling_work`, sizes the pool of a run; the command line also bounds a run
by it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_CHUNK
from .closedform import _check_pair, average_coherence_exact, levy_coherence_bound
from .errors import ConvergenceFailure, DomainError
from .pool import run_ordered
from .qcore import entropy_values, subentropy_values
# complex_normals is not called here; perfbench/inproc.py reads it from this module.
from .sampling import RngStream, complex_normals, induced_blocks  # noqa: F401

FUNCTIONALS = ("entropy", "subentropy", "coherence")
# A chunk's own stream, arrays and summary, in work units: it took 50-120 us
# on a 2-core host, where a unit of sample_work took 0.4-1.2 ns. Without this
# term a --chunk 1 run within the command line's limit could take tens of minutes.
CHUNK_WORK = 10**5


def sample_work(m: int, n: int) -> int:
    """The work units of one (m, n) sample: G G^dagger and eigvalsh grow as
    m^3; the 10 charges the fixed cost of a sample, which dominates small m
    (m^3 alone let a sweep over m = 2..3 of 10^9 samples pass a limit of
    about a minute and run for half an hour); and 64 m n charges its m n
    Gaussians, about 65 ns each, which dominate when n is much larger than m."""
    return max((m + 10)**3, 64 * m * n)


def sampling_work(pairs, samples: int, chunk: int) -> int:
    """The work of drawing `samples` samples in chunks of `chunk` at each
    (m, n) of `pairs`: sample_work per sample, CHUNK_WORK per chunk."""
    chunks = -(-samples // chunk)
    return sum(samples * sample_work(m, n) + CHUNK_WORK * chunks for m, n in pairs)


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


def _tasks(heads: list[tuple], seed: int, samples: int, chunk: int) -> list[tuple]:
    """One task per chunk of each head, the chunks of a head consecutive: the
    head, then the seed, chunk index and chunk size."""
    if chunk < 1:
        raise DomainError("chunk size must be positive")
    count = -(-samples // chunk)
    try:
        tasks = [None] * (len(heads) * count)  # a list past any memory fails here, at once
        for j, (head, index) in enumerate(itertools.product(heads, range(count))):
            tasks[j] = (*head, seed, index, min(chunk, samples - index * chunk))
    except (MemoryError, OverflowError) as exc:  # OverflowError: past the largest list
        raise DomainError(f"{len(heads) * count} chunks are too many to list") from exc
    return tasks


def _run_ordered(fn, tasks, workers: int, work: int | None = None) -> list:
    try:
        return run_ordered(fn, tasks, workers, work)
    except np.linalg.LinAlgError as exc:  # from any chunk's eigensolver, here or in a worker
        raise ConvergenceFailure(str(exc)) from exc
    except MemoryError as exc:  # every chunk's summary is held until the merge
        raise DomainError(f"{len(tasks)} chunks ran out of memory") from exc


def _merge(parts: list[MonteCarloEstimate]) -> MonteCarloEstimate:
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.combine(part)
    return merged


def _induced_chunk(task) -> tuple[dict[str, MonteCarloEstimate], list[int]]:
    """Summaries of the functionals in `which` and, per epsilon, the number of
    coherence samples farther than it from the center, all from one draw."""
    m, n, which, epsilons, seed, index, size = task
    try:
        lams, diag = np.empty((size, m)), np.empty((size, m))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array size
        raise DomainError(f"a chunk of {size} samples is too large to allocate: {exc}") from exc
    blocks, stop = induced_blocks(m, n, RngStream(seed, index), size), 0
    while stop < size:
        try:
            rho = next(blocks)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array size
            raise DomainError(f"one sample's {m}x{n} = {m * n} Gaussians are too many to draw: "
                              f"{exc}") from exc
        start, stop = stop, stop + len(rho)
        lams[start:stop] = np.linalg.eigvalsh(rho)
        diag[start:stop] = np.einsum("sii->si", rho).real
    np.clip(lams, 0.0, None, out=lams)
    np.clip(diag, 0.0, None, out=diag)
    needed = set(which) | ({"coherence"} if epsilons else set())
    values = {"entropy": entropy_values(lams)} if needed & {"entropy", "coherence"} else {}
    if "subentropy" in needed:
        values["subentropy"] = subentropy_values(lams)
    if "coherence" in needed:
        values["coherence"] = np.maximum(entropy_values(diag) - values["entropy"], 0.0)
    if epsilons:
        deviation = np.abs(values["coherence"] - float(average_coherence_exact(m, n)))
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
    tasks = _tasks([(m, n, which, eps)], seed, samples, chunk)
    parts = _run_ordered(_induced_chunk, tasks, workers, sampling_work([(m, n)], samples, chunk))
    estimates = {w: _merge([summaries[w] for summaries, _ in parts]) for w in which}
    center = float(average_coherence_exact(m, n))
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
) -> list[MonteCarloEstimate]:
    """The coherence estimate at n = m for each m of a grid of dimensions, in order.

    Every dimension is validated before any sample is drawn, and the chunks
    of all dimensions share one set of workers.
    """
    ms = list(ms)
    if any(m < 2 for m in ms):
        raise DomainError("the sweep needs m >= 2")
    if samples < 2:
        raise DomainError("need at least two samples")
    tasks = _tasks([(m, m, ("coherence",), ()) for m in ms], seed, samples, chunk)
    parts = _run_ordered(_induced_chunk, tasks, workers,
                         sampling_work([(m, m) for m in ms], samples, chunk))
    per_m = -(-samples // chunk)
    return [_merge([summaries["coherence"] for summaries, _ in parts[i:i + per_m]])
            for i in range(0, len(parts), per_m)]
