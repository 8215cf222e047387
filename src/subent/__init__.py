"""Random mixed quantum states: spectral functionals, their closed-form
averages, and Monte Carlo plus exact-arithmetic verification of both.

The public names below are loaded on first access (PEP 562), so the exact
commands, which need no linear algebra, never import numpy or mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"
#: Samples per RNG stream; part of every run manifest, hence of every payload.
DEFAULT_CHUNK = 1024

_EXPORTS = {
    "closedform": (
        "average_coherence_exact",
        "average_entropy_exact",
        "average_subentropy_exact",
        "harmonic",
        "levy_coherence_bound",
        "normalization_integral",
    ),
    "entangle": ("average_embedded_entanglement",),
    "errors": (
        "ConvergenceFailure",
        "DimensionOrder",
        "DomainError",
        "QuadratureFailure",
        "SubentError",
    ),
    "identities": (
        "IdentityReport",
        "aomoto_quadrature_oracle",
        "gamma_ratio_sum_harmonic",
        "gamma_ratio_sum_plain",
        "riordan_identity_check",
    ),
    "montecarlo": (
        "ConcentrationRow",
        "MonteCarloEstimate",
        "TailReport",
        "concentration_sweep",
        "estimate_functional",
        "estimate_induced",
        "tail_experiment",
    ),
    "qcore": (
        "EULER_GAMMA",
        "SUBENTROPY_MAX",
        "Spectrum",
        "subentropy",
        "von_neumann_entropy",
    ),
    "sampling": ("RngStream",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
