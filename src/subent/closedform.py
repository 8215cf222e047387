"""Exact and floating closed forms for the averaged spectral functionals.

Integer-parameter averages are evaluated in exact rational arithmetic
(digamma differences at integers reduce to harmonic differences, Gamma
ratios to integer recurrences), because the alternating subentropy series
cancels catastrophically in floats beyond m of about 15. Harmonic numbers
are kept as integer numerators over one common denominator, in one table
that grows on demand, so series terms are summed as integers and a single
`Fraction` is reduced per result. Real-parameter Gamma products are
evaluated in log-Gamma space. Only the standard library is imported.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionOrder, DomainError

_LN2 = math.log(2.0)


class _HarmonicTable:
    """H_0..H_top as integer numerators over one denominator lcm(1..top)."""

    __slots__ = ("numerators", "denominator")

    def __init__(self) -> None:
        self.numerators = [0]
        self.denominator = 1

    def grow(self, top: int) -> None:
        """Cover H_top; a new table is at least a quarter longer, so growing
        one k at a time rescales the table a logarithmic number of times."""
        have = len(self.numerators) - 1
        if top <= have:
            return
        top = max(top, have + have // 4)
        denominator = _lcm_upto(top)
        factor = denominator // self.denominator
        numerators = self.numerators
        if factor != 1:
            for k in range(1, have + 1):
                numerators[k] *= factor
        running = numerators[-1]
        for j in range(have + 1, top + 1):
            running += denominator // j
            numerators.append(running)
        self.denominator = denominator


_harmonics = _HarmonicTable()


def _lcm_upto(top: int) -> int:
    """lcm(1..top) for top >= 1, from (top/2, top] alone, which every k <= top
    divides a member of; pairwise, so no step grows the whole product by one factor."""
    values = list(range(top // 2 + 1, top + 1))
    while len(values) > 1:
        values = [math.lcm(*values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0]


def harmonic(k: int) -> Fraction:
    """k-th harmonic number 1 + 1/2 + ... + 1/k, exactly; H_0 = 0."""
    if k < 0:
        raise DomainError("harmonic numbers need k >= 0")
    _harmonics.grow(k)
    return Fraction(_harmonics.numerators[k], _harmonics.denominator)


def harmonic_numerators(top: int) -> tuple[list[int], int]:
    """(A, L) with H_k = A[k] / L for every k <= top; L = lcm(1..K) for some K >= top.

    A is the shared table itself, valid until the next call that grows it.
    """
    if top < 0:
        raise DomainError("harmonic numbers need k >= 0")
    _harmonics.grow(top)
    return _harmonics.numerators, _harmonics.denominator


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
    (k, m-1-k, n-1-k), so it is an integer. From u_0 = (m+n-1) C(m+n-2, m-1)
    the terms follow the ratio u_{k+1} / u_k = -(m-1-k)(n-1-k) / ((k+1)(m+n-1-k)),
    whose division is exact because u_{k+1} is an integer.
    """
    u = (m + n - 1) * math.comb(m + n - 2, m - 1)
    terms = [u]
    for k in range(m - 1):
        u = -(u * (m - 1 - k) * (n - 1 - k)) // ((k + 1) * (m + n - 1 - k))
        terms.append(u)
    return terms


def harmonic_weighted_sum(terms: list[int], top: int) -> Fraction:
    """sum_k terms[k] H_{top-k}, summed in integers over the harmonic table's one denominator."""
    numerators, denominator = harmonic_numerators(top)
    return Fraction(sum(t * numerators[top - k] for k, t in enumerate(terms)), denominator)


def subentropy_series_numerator(m: int, n: int, a: list[int]) -> int:
    """m n L times the average subentropy's digamma/Gamma series
    (1/(mn)) sum_k u_k (psi(mn + 1) - psi(m + n - k)), u = `gamma_ratio_terms(m, n)`,
    from harmonic numerators H_k = a[k] / L up to k = m n; the digammas' Euler
    constants cancel, so only the H_{m+n-1-k} part has a denominator."""
    u = gamma_ratio_terms(m, n)
    return a[m * n] * sum(u) - sum(t * a[m + n - 1 - k] for k, t in enumerate(u))


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
