"""Maximally correlated bipartite states built by a generalized CNOT.

Embedding an m-dimensional source rho as sum_ij rho_ij |ii><jj| against an
equal-size ancilla turns its coherence into entanglement: both the relative
entropy of entanglement and the distillable entanglement of the embedded
state equal the coherence of the source, so neither needs an optimization
over separable states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .montecarlo import DEFAULT_CHUNK, MonteCarloEstimate, TailReport, estimate_induced
from .qcore import DensityMatrix, relative_entropy_coherence


@dataclass
class MaxCorrelatedState:
    """Bipartite state sum_ij rho_ij |ii><jj| holding its m x m source.

    The ancilla dimension is fixed at m: larger ancillas only pad the
    embedding with rows and columns of zeros.
    """

    source: DensityMatrix
    dim_a: int
    _embedded: np.ndarray | None = field(default=None, repr=False, compare=False)

    def embedded(self) -> np.ndarray:
        """The m^2 x m^2 matrix, materialized lazily on first use."""
        if self._embedded is None:
            m = self.dim_a
            chi = np.zeros((m * m, m * m), dtype=complex)
            pairs = np.arange(m) * (m + 1)
            chi[np.ix_(pairs, pairs)] = self.source.entries
            chi.flags.writeable = False
            self._embedded = chi
        return self._embedded


def cnot_embed(rho: DensityMatrix) -> MaxCorrelatedState:
    """Apply the generalized CNOT to rho tensored with a fresh |0><0| ancilla."""
    if rho.dim < 2:
        raise DomainError("the embedding needs a source of dimension >= 2")
    return MaxCorrelatedState(rho, rho.dim)


def entanglement_measures(chi: MaxCorrelatedState) -> tuple[float, float]:
    """(relative entropy of entanglement, distillable entanglement) across A|B.

    For maximally correlated states both coincide with the coherence of the
    source, which is what makes them cheap to evaluate here.
    """
    value = relative_entropy_coherence(chi.source)
    return value, value


@dataclass(frozen=True)
class EmbeddedAverage(MonteCarloEstimate):
    """Average embedded entanglement, with coherence tails from the same draws."""

    tails: tuple[TailReport, ...] = ()


def average_embedded_entanglement(
    m: int,
    n: int,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
    epsilons=(),
) -> EmbeddedAverage:
    """Average entanglement of embeddings of induced-measure random sources.

    Evaluated through the coherence identity, so this is exactly the average
    coherence of the sources. The coherence tail reports at `epsilons` come
    from the same draws.
    """
    if m < 3:
        raise DomainError("the average is stated for m >= 3")
    estimates, tails = estimate_induced(m, n, samples, seed, ("coherence",), epsilons,
                                        chunk, workers)
    est = estimates["coherence"]
    return EmbeddedAverage(est.mean, est.variance, est.count, tuple(tails))
