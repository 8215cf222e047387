"""The package's public names, loaded on first access."""

import importlib

import pytest

import subent

# Every name `subent` exported before its exports became lazy, by the
# submodule that defines it.
PUBLIC = {
    "closedform": [
        "ExactValue", "average_coherence_exact", "average_entropy_exact",
        "average_subentropy_exact", "average_subentropy_series", "digamma_integer_diff",
        "harmonic", "isospectral_average_coherence", "levy_coherence_bound",
        "levy_coherence_bound_half", "normalization_integral", "selberg_integral",
    ],
    "entangle": [
        "EmbeddedAverage", "MaxCorrelatedState", "average_embedded_entanglement",
        "cnot_embed", "entanglement_measures",
    ],
    "errors": [
        "ConvergenceFailure", "DimensionMismatch", "DimensionOrder", "DomainError",
        "QuadratureFailure", "SingularSample", "SubentError",
    ],
    "identities": [
        "IdentityReport", "aomoto_quadrature_oracle", "gamma_ratio_sum_harmonic",
        "gamma_ratio_sum_plain", "riordan_identity_check", "selberg_quadrature_oracle",
    ],
    "montecarlo": [
        "ConcentrationRow", "LipschitzReport", "MonteCarloEstimate", "TailReport",
        "concentration_sweep", "estimate_functional", "estimate_induced",
        "estimate_isospectral_coherence", "lipschitz_check", "tail_experiment",
    ],
    "qcore": [
        "EULER_GAMMA", "SUBENTROPY_MAX", "DensityMatrix", "Functionals", "PureState",
        "Spectrum", "dephase", "functionals", "partial_trace", "relative_entropy_coherence",
        "spectrum_of", "subentropy", "von_neumann_entropy",
    ],
    "sampling": [
        "RngStream", "UnitaryMatrix", "ginibre", "haar_pure_state", "haar_unitary",
        "induced_mixed_state", "isospectral_state",
    ],
}


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in PUBLIC.items() for name in names])
def test_public_name_is_the_submodule_object(module, name):
    assert getattr(subent, name) is getattr(importlib.import_module(f"subent.{module}"), name)
    assert name in dir(subent)
    assert name in subent.__all__


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        subent.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from subent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(subent.__all__)


def test_default_chunk_is_shared_with_montecarlo():
    from subent import montecarlo

    assert montecarlo.DEFAULT_CHUNK == subent.DEFAULT_CHUNK == 1024
