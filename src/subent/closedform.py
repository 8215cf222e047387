"""Exact and floating closed forms for the averaged spectral functionals.

Integer-parameter averages are evaluated in exact rational arithmetic
(digamma differences at integers reduce to harmonic differences, Gamma
ratios to integer recurrences), because the alternating subentropy series
cancels catastrophically in floats beyond m of about 15. Harmonic numbers
come as integer numerators over one common denominator lcm(1..K), built
per call for the requested k only, so series terms are summed as integers
and a single `Fraction` is reduced per result; nothing is kept between
calls. The one Selberg-Aomoto Gamma product is evaluated in log-Gamma space.
Only the standard library is imported.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import DimensionOrder, DomainError

_LN2 = math.log(2.0)


def _reciprocal_sum(a: int, b: int) -> tuple[int, int]:
    """(p, q) with 1/a + 1/(a+1) + ... + 1/(b-1) = p / q and q = lcm(a..b-1).

    A range longer than 128 terms is halved and the halves' sums added over
    the lcm of their denominators. A shorter one is summed over its lcm in
    neighbouring pairs 1/j + 1/(j+1) = (2j+1) / (j(j+1)), whose lcm is
    j(j+1) because neighbours are coprime; an odd last term stands alone.
    """
    if b - a > 128:
        mid = (a + b) // 2
        p1, q1 = _reciprocal_sum(a, mid)
        p2, q2 = _reciprocal_sum(mid, b)
        g = math.gcd(q1, q2)
        return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2
    paired = a + (b - a) // 2 * 2
    dens = [*map(operator.mul, range(a, paired, 2), range(a + 1, paired, 2)), *range(paired, b)]
    nums = [*range(2 * a + 1, 2 * paired, 4), *[1] * (b - paired)]
    q = math.lcm(*dens)
    return sum(map(operator.mul, nums, map(q.__floordiv__, dens))), q


def harmonic_numerators(indices: Iterable[int]) -> tuple[dict[int, int], int]:
    """({k: A_k}, L) with H_k = A_k / L for each requested k, L = lcm(1..max k).

    Each stretch between consecutive requested k is summed over its own lcm,
    L is the lcm of those, and the running sum is kept at the requested k
    only, so memory is a few integers of L's size per requested k.
    """
    wanted = sorted(set(indices))
    if wanted and wanted[0] < 0:
        raise DomainError("harmonic numbers need k >= 0")
    sums = [_reciprocal_sum(start + 1, k + 1) for start, k in zip([0, *wanted], wanted)]
    denominator = math.lcm(*(q for _, q in sums))
    numerators, running = {}, 0
    for k, (p, q) in zip(wanted, sums):
        running += p * (denominator // q)
        numerators[k] = running
    return numerators, denominator


def harmonic(k: int) -> Fraction:
    """k-th harmonic number 1 + 1/2 + ... + 1/k, exactly; H_0 = 0."""
    a, denominator = harmonic_numerators((k,))
    return Fraction(a[k], denominator)


def aomoto_moment_log(m: int, k: int, alpha: float) -> float:
    """log of the k-th Aomoto moment of the trace-constrained Selberg integral at unit
    Vandermonde power, k = 0 the integral itself: prod_{j<=k} (alpha + m - j)
    * prod_{j<=m} Gamma(alpha + j - 1) Gamma(1 + j) / Gamma(alpha m + m(m - 1) + k)."""
    if m < 1 or not 0 <= k <= m:
        raise DomainError(f"need 0 <= k <= m, got m={m}, k={k}")
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    total = -math.lgamma(alpha * m + m * (m - 1) + k)
    for j in range(1, k + 1):
        total += math.log(alpha + (m - j))
    for j in range(1, m + 1):
        total += math.lgamma(alpha + (j - 1)) + math.lgamma(1 + j)
    return total


def normalization_integral(m: int, alpha: float) -> float:
    """Total mass of the unnormalized eigenvalue density on the simplex: the k = 0 product."""
    return math.exp(aomoto_moment_log(m, 0, alpha))


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
    """sum_k terms[k] H_{top-k}, summed in integers over one common denominator."""
    numerators, denominator = harmonic_numerators(range(top - len(terms) + 1, top + 1))
    return Fraction(sum(t * numerators[top - k] for k, t in enumerate(terms)), denominator)


def subentropy_series_numerator(m: int, n: int, a: Mapping[int, int]) -> int:
    """m n L times the average subentropy's digamma/Gamma series
    (1/(mn)) sum_k u_k (psi(mn + 1) - psi(m + n - k)), u = `gamma_ratio_terms(m, n)`,
    from harmonic numerators H_k = a[k] / L at k = m n and k = n .. m+n-1; the
    digammas' Euler constants cancel, so only the H_{m+n-1-k} part has a denominator."""
    u = gamma_ratio_terms(m, n)
    return a[m * n] * sum(u) - sum(t * a[m + n - 1 - k] for k, t in enumerate(u))


def _check_pair(m: int, n: int) -> None:
    if m < 1:
        raise DomainError("system dimension must be positive")
    if m > n:
        raise DimensionOrder(f"need m <= n, got m={m}, n={n}")


def subentropy_numerator(m: int, n: int, a: Mapping[int, int], denominator: int) -> int:
    """L times the average subentropy 1 + H_mn - H_m - H_n, from harmonic
    numerators H_k = a[k] / L, L = `denominator`."""
    return denominator + a[m * n] - a[m] - a[n]


def entropy_numerator(m: int, n: int, a: Mapping[int, int], denominator: int) -> int:
    """2 n L times Page's average entropy H_mn - H_n - (m-1)/(2n), from
    harmonic numerators H_k = a[k] / L, L = `denominator`."""
    return 2 * n * (a[m * n] - a[n]) - (m - 1) * denominator


def average_subentropy_exact(m: int, n: int) -> Fraction:
    """Average subentropy of the m-dimensional marginal: 1 + H_mn - H_m - H_n."""
    _check_pair(m, n)
    a, denominator = harmonic_numerators((m * n, m, n))
    return Fraction(subentropy_numerator(m, n, a, denominator), denominator)


def average_entropy_exact(m: int, n: int) -> Fraction:
    """Page's average marginal entropy: H_mn - H_n - (m-1)/(2n)."""
    _check_pair(m, n)
    a, denominator = harmonic_numerators((m * n, n))
    return Fraction(entropy_numerator(m, n, a, denominator), 2 * n * denominator)


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
    if not 0 < eps < math.inf:
        raise DomainError("eps must be positive and finite")
    try:
        exponent = m * n * eps**2 / (144.0 * math.pi**3 * _LN2 * math.log(m) ** 2)
    except OverflowError:  # eps^2 past the largest float: the bound is 2 exp(-inf)
        return 0.0
    return 2.0 * math.exp(-exponent)
