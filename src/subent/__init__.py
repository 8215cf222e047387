"""Random mixed quantum states: spectral functionals, their closed-form
averages, and Monte Carlo plus exact-arithmetic verification of both."""

__version__ = "0.1.0"

from .closedform import (
    ExactValue,
    average_coherence_exact,
    average_entropy_exact,
    average_subentropy_exact,
    average_subentropy_series,
    digamma_integer_diff,
    harmonic,
    isospectral_average_coherence,
    levy_coherence_bound,
    levy_coherence_bound_half,
    normalization_integral,
    selberg_integral,
)
from .entangle import (
    EmbeddedAverage,
    MaxCorrelatedState,
    average_embedded_entanglement,
    cnot_embed,
    entanglement_measures,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DimensionOrder,
    DomainError,
    QuadratureFailure,
    SingularSample,
    SubentError,
)
from .identities import (
    IdentityReport,
    aomoto_quadrature_oracle,
    gamma_ratio_sum_harmonic,
    gamma_ratio_sum_plain,
    riordan_identity_check,
    selberg_quadrature_oracle,
)
from .montecarlo import (
    ConcentrationRow,
    LipschitzReport,
    MonteCarloEstimate,
    TailReport,
    concentration_sweep,
    estimate_functional,
    estimate_induced,
    estimate_isospectral_coherence,
    lipschitz_check,
    tail_experiment,
)
from .qcore import (
    EULER_GAMMA,
    SUBENTROPY_MAX,
    DensityMatrix,
    Functionals,
    PureState,
    Spectrum,
    dephase,
    functionals,
    partial_trace,
    relative_entropy_coherence,
    spectrum_of,
    subentropy,
    von_neumann_entropy,
)
from .sampling import (
    RngStream,
    UnitaryMatrix,
    ginibre,
    haar_pure_state,
    haar_unitary,
    induced_mixed_state,
    isospectral_state,
)
