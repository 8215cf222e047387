"""Average entanglement of maximally correlated states built by a generalized CNOT.

Embedding an m-dimensional source rho as sum_ij rho_ij |ii><jj| against an
equal-size ancilla turns its coherence into entanglement: both the relative
entropy of entanglement and the distillable entanglement of the embedded
state equal the relative entropy of coherence of the source. The average
is therefore the average coherence of the sources; the test-suite checks
the identity on the explicit m^2 x m^2 states.
"""

from __future__ import annotations

from .errors import DomainError
from .montecarlo import DEFAULT_CHUNK, MonteCarloEstimate, TailReport, estimate_induced


def average_embedded_entanglement(
    m: int,
    n: int,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
    epsilons=(),
) -> tuple[MonteCarloEstimate, list[TailReport]]:
    """Average entanglement of embeddings of induced-measure random sources,
    and the coherence tail reports at `epsilons` from the same draws."""
    if m < 3:
        raise DomainError("the average is stated for m >= 3")
    estimates, tails = estimate_induced(m, n, samples, seed, ("coherence",), epsilons,
                                        chunk, workers)
    return estimates["coherence"], tails
