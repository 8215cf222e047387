"""Exact and floating closed forms for the averaged spectral functionals.

Integer-parameter averages are evaluated in exact rational arithmetic
(digamma differences at integers reduce to harmonic differences, Gamma
ratios to factorials), because the alternating series below cancel
catastrophically in floats beyond m of about 15. Real-parameter Gamma
products are evaluated in log-Gamma space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import qcore
from .errors import DimensionOrder, DomainError
from .qcore import Spectrum

_LN2 = math.log(2.0)
_harmonics: list[Fraction] = [Fraction(0)]


class ExactValue(NamedTuple):
    """An exact rational together with its float projection."""

    exact: Fraction
    approx: float


def harmonic(k: int) -> Fraction:
    """k-th harmonic number 1 + 1/2 + ... + 1/k, exactly; H_0 = 0."""
    if k < 0:
        raise DomainError("harmonic numbers need k >= 0")
    while len(_harmonics) <= k:
        _harmonics.append(_harmonics[-1] + Fraction(1, len(_harmonics)))
    return _harmonics[k]


def digamma_integer_diff(a: int, b: int) -> Fraction:
    """psi(a) - psi(b) at positive integers: H_{a-1} - H_{b-1}, exactly."""
    if a < 1 or b < 1:
        raise DomainError("digamma differences need positive integer arguments")
    return harmonic(a - 1) - harmonic(b - 1)


def _selberg_domain(m: int, alpha: float, beta: float, gamma: float) -> None:
    if m < 1:
        raise DomainError("m must be a positive integer")
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must have positive real part")
    bound = 1.0 / m
    if m > 1:
        bound = min(bound, alpha / (m - 1), beta / (m - 1))
    if gamma <= -bound:
        raise DomainError(f"gamma={gamma:g} outside the convergence region")


def selberg_integral_log(m: int, alpha: float, beta: float, gamma: float) -> float:
    """log of the m-dimensional Selberg integral S_m(alpha, beta, gamma)."""
    _selberg_domain(m, alpha, beta, gamma)
    total = 0.0
    for j in range(1, m + 1):
        total += (
            math.lgamma(alpha + gamma * (j - 1))
            + math.lgamma(beta + gamma * (j - 1))
            + math.lgamma(1 + gamma * j)
            - math.lgamma(alpha + beta + gamma * (m + j - 2))
            - math.lgamma(1 + gamma)
        )
    return total


def selberg_integral(m: int, alpha: float, beta: float, gamma: float) -> float:
    """The Selberg integral over [0,1]^m of prod x^(a-1) (1-x)^(b-1) |Vandermonde|^(2g)."""
    return math.exp(selberg_integral_log(m, alpha, beta, gamma))


def normalization_integral_log(m: int, alpha: float, gamma: float) -> float:
    """log of the trace-constrained eigenvalue integral whose reciprocal normalizes the measure."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    if alpha <= 0 or gamma <= 0:
        raise DomainError("alpha and gamma must be positive")
    total = -math.lgamma(alpha * m + gamma * m * (m - 1))
    for j in range(1, m + 1):
        total += (
            math.lgamma(alpha + gamma * (j - 1))
            + math.lgamma(1 + gamma * j)
            - math.lgamma(1 + gamma)
        )
    return total


def normalization_integral(m: int, alpha: float, gamma: float) -> float:
    """Total mass of the unnormalized eigenvalue density on the simplex."""
    return math.exp(normalization_integral_log(m, alpha, gamma))


def average_subentropy_series(m: int, alpha: int) -> ExactValue:
    """Average subentropy under the (alpha, 1) eigenvalue measure, summed exactly.

    The digamma/Gamma series evaluated here is

        (1 / (m (m + alpha - 1))) sum_{k=0}^{m-1} g_k u_k,
        g_k = psi(m(m+alpha-1) + 1) - psi(2(m-1) + alpha + 1 - k),
        u_k = (-1)^k Gamma(2(m-1)+alpha+1-k)
              / (Gamma(k+1) Gamma(m-k) Gamma(m+alpha-1-k)),

    which for integer alpha is an exact rational: the Euler constants in the
    digammas cancel and every Gamma is a factorial.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    if alpha < 1 or int(alpha) != alpha:
        raise DomainError("exact summation needs an integer alpha >= 1")
    alpha = int(alpha)
    scale = m * (m + alpha - 1)
    acc = Fraction(0)
    for k in range(m):
        top = 2 * (m - 1) + alpha - k
        g = harmonic(scale) - harmonic(top)
        u = Fraction(
            math.factorial(top),
            math.factorial(k) * math.factorial(m - 1 - k) * math.factorial(m + alpha - 2 - k),
        )
        acc += -g * u if k % 2 else g * u
    value = acc / scale
    return ExactValue(value, float(value))


def _check_pair(m: int, n: int) -> None:
    if m < 1:
        raise DomainError("system dimension must be positive")
    if m > n:
        raise DimensionOrder(f"need m <= n, got m={m}, n={n}")


def average_subentropy_exact(m: int, n: int) -> Fraction:
    """Average subentropy of the m-dimensional marginal: 1 + H_mn - H_m - H_n."""
    _check_pair(m, n)
    return 1 + harmonic(m * n) - harmonic(m) - harmonic(n)


def average_entropy_exact(m: int, n: int) -> Fraction:
    """Page's average marginal entropy: H_mn - H_n - (m-1)/(2n)."""
    _check_pair(m, n)
    return harmonic(m * n) - harmonic(n) - Fraction(m - 1, 2 * n)


def average_coherence_exact(m: int, n: int) -> Fraction:
    """Average relative entropy of coherence of the marginal: (m-1)/(2n)."""
    _check_pair(m, n)
    return Fraction(m - 1, 2 * n)


def isospectral_average_coherence(spec: Spectrum) -> float:
    """Haar-average coherence on one isospectral orbit: H_m - 1 + Q - S."""
    base = float(harmonic(spec.m)) - 1.0
    return base + qcore.subentropy(spec) - qcore.von_neumann_entropy(spec)


def levy_coherence_bound(m: int, n: int, eps: float) -> float:
    """Concentration bound 2 exp(-m n eps^2 / (144 pi^3 ln2 (ln m)^2)).

    The raw right-hand side is returned even when it exceeds one (a vacuous
    bound); callers decide whether to clamp.
    """
    if m < 3:
        raise DomainError("the concentration bound needs m >= 3")
    if n < m:
        raise DimensionOrder(f"need m <= n, got m={m}, n={n}")
    if eps <= 0:
        raise DomainError("eps must be positive")
    exponent = m * n * eps**2 / (144.0 * math.pi**3 * _LN2 * math.log(m) ** 2)
    return 2.0 * math.exp(-exponent)


def levy_coherence_bound_half(m: int, eps: float) -> float:
    """Square-dimension deviation-from-one-half bound with the 576 constant.

    Valid once the average itself is within eps/2 of one half, which is
    exactly the condition m > 1/eps.
    """
    if m < 3:
        raise DomainError("the concentration bound needs m >= 3")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if m <= 1.0 / eps:
        raise DomainError(f"need m > 1/eps, got m={m}, eps={eps:g}")
    exponent = m**2 * eps**2 / (576.0 * math.pi**3 * _LN2 * math.log(m) ** 2)
    return 2.0 * math.exp(-exponent)
