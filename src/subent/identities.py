"""Exact-arithmetic and quadrature oracles for the combinatorial identities.

The binomial-sum identities are checked in big-integer arithmetic; the
polynomial identity is checked by evaluation at degree + 1 integer points,
which over the rationals is equivalent to symbolic equality. The simplex
integrals are confirmed by adaptive quadrature after substituting away the
trace delta, independently of the Gamma-product closed forms they certify.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .closedform import _check_pair, gamma_ratio_terms, harmonic, harmonic_weighted_sum
from .errors import DomainError, QuadratureFailure

# `quadpack` is imported by the quadrature oracle only, so the exact checks
# (and `subent.cli`, which binds this module) start without it.

#: Relative accuracy the quadrature oracles must certify, per dimension.
QUADRATURE_TARGETS = {2: 1e-6, 3: 1e-4}


class IdentityReport:
    """One verified identity instance; holds is exact equality of the sides."""

    __slots__ = ("name", "parameters", "lhs", "rhs", "holds")

    def __init__(self, name: str, parameters: tuple[int, ...], lhs: Fraction, rhs: Fraction,
                 holds: bool) -> None:
        if holds != (lhs == rhs):
            raise ValueError("holds flag contradicts the recorded sides")
        self.name, self.parameters, self.lhs, self.rhs, self.holds = (
            name, parameters, lhs, rhs, holds)

    def __repr__(self) -> str:
        return (f"IdentityReport(name={self.name!r}, parameters={self.parameters!r}, "
                f"lhs={self.lhs!r}, rhs={self.rhs!r}, holds={self.holds!r})")


def gamma_ratio_sum_plain(m: int, n: int) -> IdentityReport:
    """sum_k (-1)^k Gamma(m+n-k) / (k! Gamma(m-k) Gamma(n-k)) = m n, exactly."""
    _check_pair(m, n)
    lhs = Fraction(sum(gamma_ratio_terms(m, n)))
    rhs = Fraction(m * n)
    return IdentityReport("gamma_ratio_sum_plain", (m, n), lhs, rhs, lhs == rhs)


def gamma_ratio_sum_harmonic(m: int, n: int) -> IdentityReport:
    """Same alternating sum weighted by H_{m+n-1-k}, against m n (H_m + H_n - 1)."""
    _check_pair(m, n)
    lhs = harmonic_weighted_sum(gamma_ratio_terms(m, n), m + n - 1)
    rhs = m * n * (harmonic(m) + harmonic(n) - 1)
    return IdentityReport("gamma_ratio_sum_harmonic", (m, n), lhs, rhs, lhs == rhs)


def riordan_identity_check(m: int, n: int) -> IdentityReport:
    """Binomial-product expansion C(z,m) C(z,n) = sum_k multinomial * C(z, m+n-k).

    Both sides are degree m + n polynomials in z, so agreement at the
    m + n + 1 integer points z = 0..m+n proves the identity. The sides are
    evaluated in integers; the report stores the evaluation at z = m + n, or
    the first mismatching point.
    """
    _check_pair(m, n)
    degree = m + n
    f = math.factorial
    multinomials = [f(degree - k) // (f(k) * f(m - k) * f(n - k)) for k in range(m + 1)]
    for z in range(degree + 1):
        lhs = math.comb(z, m) * math.comb(z, n)
        rhs = sum(c * math.comb(z, degree - k) for k, c in enumerate(multinomials))
        if lhs != rhs:
            break
    return IdentityReport("riordan_product", (m, n), Fraction(lhs), Fraction(rhs), lhs == rhs)


def _triangle_quad(row: Callable[[float], Callable[[float], float]], epsabs: float,
                   epsrel: float, panels: dict[float, dict] | None = None) -> tuple[float, float]:
    """Integral of f(x, y) over x + y <= 1 in the positive quadrant.

    `row(x)` is the function y -> f(x, y), built once per outer node x. Nests
    `quad` over y in [0, 1 - x] inside `quad` over x, both at epsabs, epsrel
    and limit 50, as `scipy.integrate.dblquad` does; the error is the largest
    estimate of any call, as dblquad reports it.

    `panels`, if given, maps each outer node x to the `quad` panel dict of
    the inner integral at x, so a later call on the same f with the same dict
    evaluates f only on inner subintervals no earlier call visited. The outer
    integrand is an inner integral at this call's tolerance, so its panels
    are not kept. The result is the same, bit for bit, with or without.
    """
    from .quadpack import quad

    worst = 0.0
    if panels is None:
        panels = {}

    def inner(x: float) -> float:
        nonlocal worst
        value, err = quad(row(x), 0.0, 1.0 - x, epsabs, epsrel, panels=panels.setdefault(x, {}))
        worst = max(worst, err)
        return value

    value, err = quad(inner, 0.0, 1.0, epsabs, epsrel)
    return value, max(worst, err)


def _simplex_row(alpha: float, moment: int) -> Callable[[float], Callable[[float], float]]:
    """x -> (y -> integrand at (x, y, 1 - x - y)) of the m = 3 simplex integral.

    Each closure is specialised to its moment and reads 1 - x and alpha - 1
    from its node; the floats are those of forming 1.0 - x - y, the squared
    Vandermonde times (x y z)^(alpha-1), then the moment factors x, y, z in
    that order, every time.
    """
    power = alpha - 1.0

    def row(x: float) -> Callable[[float], float]:
        rest = 1.0 - x  # 1.0 - x - y is (1.0 - x) - y

        def plain(y: float) -> float:
            z = rest - y
            if z <= 0.0:
                return 0.0
            return ((x - y) * (x - z) * (y - z)) ** 2 * (x * y * z) ** power

        def first(y: float) -> float:
            z = rest - y
            if z <= 0.0:
                return 0.0
            return ((x - y) * (x - z) * (y - z)) ** 2 * (x * y * z) ** power * x

        def second(y: float) -> float:
            z = rest - y
            if z <= 0.0:
                return 0.0
            return ((x - y) * (x - z) * (y - z)) ** 2 * (x * y * z) ** power * x * y

        def third(y: float) -> float:
            z = rest - y
            if z <= 0.0:
                return 0.0
            return ((x - y) * (x - z) * (y - z)) ** 2 * (x * y * z) ** power * x * y * z

        return (plain, first, second, third)[moment]

    return row


def _simplex_integral(m: int, alpha: float, moment: int) -> tuple[float, float]:
    """Adaptive quadrature of the delta-reduced simplex integral for m in {2, 3}.

    The trace delta is removed by substituting the last coordinate, leaving
    an ordinary integral over the (m-1)-simplex. At m = 3 a rough pass fixes
    the scale, then a second pass integrates to the certified tolerance. The
    fine pass visits almost every outer node of the rough one, so both share
    one inner panel dict per node and the fine pass evaluates the integrand
    only where it refines further. Returns (value, error estimate).
    """
    if m == 2:
        from .quadpack import quad

        def integrand(x: float) -> float:
            y = 1.0 - x
            value = (x - y) ** 2 * (x * y) ** (alpha - 1.0)
            if moment >= 1:
                value *= x
            if moment >= 2:
                value *= y
            return value

        return quad(integrand, 0.0, 1.0, 0.0, 1e-10, limit=200)

    row = _simplex_row(alpha, moment)
    target = QUADRATURE_TARGETS[m]
    panels: dict[float, dict] = {}
    rough, _ = _triangle_quad(row, 1e-13, 1e-3, panels)
    scale = max(abs(rough), 1e-300)
    return _triangle_quad(row, scale * target * 1e-3, target * 1e-2, panels)


def aomoto_quadrature_oracle(m: int, k: int, alpha: float) -> float:
    """Quadrature value of the k-moment simplex integral, k = 0 the Selberg integral.

    Integrates delta(1 - sum) |Vandermonde|^2 prod x^(alpha-1) times the first
    k coordinates directly, as an independent check on the Gamma product in
    `closedform`, certified to QUADRATURE_TARGETS[m] relative accuracy. Only
    m in {2, 3} keeps the dimension low enough for certified adaptive
    quadrature.
    """
    if m not in QUADRATURE_TARGETS:
        raise DomainError("the quadrature oracle covers m in {2, 3}")
    if not 0 <= k <= m:
        raise DomainError(f"need 0 <= k <= m, got k={k}")
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    value, err = _simplex_integral(m, alpha, k)
    if not (math.isfinite(value) and err <= QUADRATURE_TARGETS[m] * abs(value)):
        raise QuadratureFailure(f"{m - 1}-D error estimate {err:.3g} above target")
    return value
