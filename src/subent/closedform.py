"""Exact and floating closed forms for the averaged spectral functionals.

Integer-parameter averages are evaluated in exact rational arithmetic
(digamma differences at integers reduce to harmonic differences, Gamma
ratios to factorials), because the alternating series below cancel
catastrophically in floats beyond m of about 15. The series terms are
summed as integers over one common denominator, so a single `Fraction` is
reduced per result. Real-parameter Gamma products are evaluated in
log-Gamma space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionOrder, DomainError

if TYPE_CHECKING:
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


def gamma_ratio_terms(m: int, n: int) -> list[int]:
    """(-1)^k Gamma(m+n-k) / (k! Gamma(m-k) Gamma(n-k)) for k = 0..m-1, exactly.

    Each term is (m+n-1-k) times the multinomial of m+n-2-k over
    (k, m-1-k, n-1-k), so it is an integer and the division is exact.
    """
    f = math.factorial
    return [
        (-1) ** k * (f(m + n - 1 - k) // (f(k) * f(m - 1 - k) * f(n - 1 - k)))
        for k in range(m)
    ]


def harmonic_weighted_sum(terms: list[int], top: int) -> Fraction:
    """sum_k terms[k] H_{top-k}, summed in integers over the one denominator lcm(1..top)."""
    denominator = math.lcm(*range(1, top + 1))
    scaled = [0]  # scaled[j] = H_j * denominator
    for j in range(1, top + 1):
        scaled.append(scaled[-1] + denominator // j)
    return Fraction(sum(t * scaled[top - k] for k, t in enumerate(terms)), denominator)


def average_subentropy_series(m: int, alpha: int) -> ExactValue:
    """Average subentropy under the (alpha, 1) eigenvalue measure, summed exactly.

    The digamma/Gamma series evaluated here is

        (1 / (m (m + alpha - 1))) sum_{k=0}^{m-1} g_k u_k,
        g_k = psi(m(m+alpha-1) + 1) - psi(2(m-1) + alpha + 1 - k),
        u_k = (-1)^k Gamma(2(m-1)+alpha+1-k)
              / (Gamma(k+1) Gamma(m-k) Gamma(m+alpha-1-k)),

    which for integer alpha is an exact rational: the Euler constants in the
    digammas cancel and every Gamma is a factorial. The u_k are the integer
    `gamma_ratio_terms(m, m + alpha - 1)`, so the sum splits into
    H_{scale} sum_k u_k - sum_k u_k H_{2(m-1)+alpha-k}, and only the second
    part has a denominator.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    if alpha < 1 or int(alpha) != alpha:
        raise DomainError("exact summation needs an integer alpha >= 1")
    n = m + int(alpha) - 1
    scale = m * n
    u = gamma_ratio_terms(m, n)
    value = (harmonic(scale) * sum(u) - harmonic_weighted_sum(u, m + n - 1)) / scale
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
    from . import qcore  # numpy and mpmath, which the exact forms never need

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
