"""Independent oracles used only by the test-suite.

These deliberately avoid the package's own evaluation paths: the subentropy
oracle works from the raw pole-sum formula in extended precision, and the
degenerate case is reached by symmetric eigenvalue perturbations followed by
Richardson extrapolation instead of any confluent table. The exact-rational
oracles build and reduce one `Fraction` per term, apart from the package's
integer kernels that sum over one common denominator. The one-shot draws
turn a whole stream into states with one `complex_normals` call, the way the
sampler worked before it drew in blocks, so blocked draws can be compared
with them bit for bit. The simplex integrals run through `scipy.integrate`,
whose QUADPACK routines `subent.quadpack` ports. The entanglement of the
maximally correlated embedding is bounded from both sides on the explicit
m^2 x m^2 state, with entropies from the eigenvalues of the full matrices.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import numpy as np
from scipy import integrate

from subent.identities import QUADRATURE_TARGETS
from subent.montecarlo import MonteCarloEstimate
from subent.qcore import entropy_values, subentropy_values
from subent.sampling import complex_normals


def subentropy_raw(values, dps: int = 60):
    """-sum_i v_i^m ln(v_i) / prod_{j != i}(v_i - v_j) for distinct values."""
    with mp.workdps(dps):
        vals = [mp.mpf(v) for v in values]
        m = len(vals)
        total = mp.mpf(0)
        for i, vi in enumerate(vals):
            if vi == 0:
                continue
            denom = mp.mpf(1)
            for j, vj in enumerate(vals):
                if j != i:
                    denom *= vi - vj
            total += vi**m * mp.log(vi) / denom
        return -total


def scalar_table(nodes, log):
    """(-[z_1,...,z_m] x^m ln x, [z_1,...,z_m] x^m) on distinct nodes, in the
    arithmetic of the nodes and `log`: Python floats with `math.log`, or
    mpmath numbers with `mp.log` at the working precision."""
    m = len(nodes)
    probe = [v**m for v in nodes]
    col = [p * log(v) if v > 0 else p for p, v in zip(probe, nodes)]
    for width in range(1, m):
        spans = [nodes[i + width] - nodes[i] for i in range(m - width)]
        col = [(col[i + 1] - col[i]) / span for i, span in enumerate(spans)]
        probe = [(probe[i + 1] - probe[i]) / span for i, span in enumerate(spans)]
    return -col[0], probe[0]


def subentropy_escalated_mpf(row) -> float:
    """The escalated subentropy of one row on `mp.mpf` numbers: the float
    table, then the same table in 40, 80, ... 1280 digits until its x^m probe
    matches the node sum to 10^(20 - dps), or nan if no precision does."""
    value, probe = scalar_table(row.tolist(), math.log)
    if abs(probe - row.sum()) <= 1e-11:
        return max(0.0, value)
    dps = 40
    while dps <= 1280:
        with mp.workdps(dps):
            zs = [mp.mpf(v) for v in row.tolist()]
            value, probe = scalar_table(zs, mp.log)
            if abs(probe - mp.fsum(zs)) < mp.mpf(10) ** (20 - dps):
                return max(0.0, float(value))
        dps *= 2
    return math.nan


def _perturb_ties(values, delta):
    """Split exactly tied values by a symmetric, sum-preserving progression."""
    vals = sorted(float(v) for v in values)
    out = []
    i = 0
    while i < len(vals):
        j = i
        while j < len(vals) and vals[j] == vals[i]:
            j += 1
        size = j - i
        for r in range(size):
            out.append(vals[i] + delta * (r - (size - 1) / 2.0))
        i = j
    return out


def subentropy_perturbation_oracle(values, deltas=(1e-6, 1e-7, 1e-8), dps: int = 60) -> float:
    """Subentropy of a degenerate spectrum by the limit definition.

    Evaluates the raw formula at symmetrically split eigenvalues for a
    decreasing sequence of offsets and removes the even-order error terms
    by two Richardson steps (the split is symmetric, so the error expansion
    contains only even powers of the offset).
    """
    if len(deltas) != 3:
        raise ValueError("expected exactly three offsets")
    q_a, q_b, q_c = (subentropy_raw(_perturb_ties(values, d), dps) for d in deltas)
    r1 = (100 * q_b - q_a) / 99
    r2 = (100 * q_c - q_b) / 99
    return float((10000 * r2 - r1) / 9999)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def von_neumann_entropy_full(matrix: np.ndarray) -> float:
    """-Tr X ln X in nats, from the eigenvalues of the whole Hermitian matrix;
    rounding-level negative eigenvalues count as zero."""
    w = np.linalg.eigvalsh(matrix)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def embed(rho) -> np.ndarray:
    """The maximally correlated state chi = sum_ij rho_ij |ii><jj| on C^m (x) C^m,
    as an m^2 x m^2 matrix with rows and columns ordered |ab> -> a m + b."""
    entries = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    m = entries.shape[0]
    chi = np.zeros((m * m, m * m), dtype=complex)
    pairs = np.arange(m) * (m + 1)
    chi[np.ix_(pairs, pairs)] = entries
    return chi


def coherent_information(chi: np.ndarray, m: int) -> float:
    """S(Tr_A chi) - S(chi): by the hashing inequality, a lower bound on the
    distillable entanglement of chi across A|B."""
    marginal = np.einsum("abac->bc", chi.reshape(m, m, m, m))
    return von_neumann_entropy_full(marginal) - von_neumann_entropy_full(chi)


def dephased_relative_entropy(chi: np.ndarray, m: int) -> float:
    """S(chi || Delta chi), Delta the dephasing onto span{|ii>}: an upper bound
    on the relative entropy of entanglement of chi across A|B.

    Delta chi = sum_i <ii|chi|ii> |ii><ii| is separable. If chi has weight
    outside span{|ii>}, Delta loses trace, chi's support leaves Delta chi's
    and the relative entropy is infinite. Otherwise Delta is a pinching on
    chi's support, so Tr chi ln(Delta chi) = Tr (Delta chi) ln(Delta chi) and
    the relative entropy is S(Delta chi) - S(chi).
    """
    pairs = np.arange(m) * (m + 1)
    dephased = np.zeros_like(chi)
    dephased[pairs, pairs] = chi[pairs, pairs]
    if abs(np.trace(dephased).real - np.trace(chi).real) > 1e-12:
        return math.inf
    return von_neumann_entropy_full(dephased) - von_neumann_entropy_full(chi)


def random_tied_spectrum(gen: np.random.Generator, m: int):
    """A spectrum of dimension m with at least one exactly repeated eigenvalue.

    Distinct levels are kept at least 1e-3 apart relative to the largest and
    no smaller than 1e-3 absolute, so the perturbation oracle stays
    well-conditioned.
    """
    while True:
        k = int(gen.integers(1, m))  # number of distinct levels
        cuts = np.sort(gen.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else []
        sizes = np.diff(np.concatenate(([0], cuts, [m]))).astype(int)
        levels = np.sort(gen.random(k))[::-1]
        values = np.repeat(levels, sizes)
        values = values / values.sum()
        levels_n = np.unique(values)
        if levels_n.min() < 1e-3:
            continue
        if len(levels_n) > 1 and np.diff(levels_n).min() < 1e-3 * levels_n.max():
            continue
        return values


def harmonic_numbers(top: int) -> list[Fraction]:
    """H_0..H_top as running sums of reduced fractions 1/j."""
    return list(accumulate((Fraction(1, j) for j in range(1, top + 1)), initial=Fraction(0)))


def _gamma_ratio_term(m: int, n: int, k: int) -> Fraction:
    # (-1)^k Gamma(m+n-k) / (k! Gamma(m-k) Gamma(n-k)) as one reduced fraction
    f = math.factorial
    value = Fraction(f(m + n - k - 1), f(k) * f(m - k - 1) * f(n - k - 1))
    return -value if k % 2 else value


def identity_sides(m: int, n: int) -> dict[str, tuple[Fraction, Fraction]]:
    """(lhs, rhs) of the three binomial identities, summed term by term in fractions.

    The Riordan sides are those at z = m + n, the last evaluation point.
    """
    h = harmonic_numbers(m + n)
    terms = [_gamma_ratio_term(m, n, k) for k in range(m)]
    z = m + n
    riordan_rhs = Fraction(0)
    for k in range(m + 1):
        multinomial = Fraction(
            math.factorial(m + n - k),
            math.factorial(k) * math.factorial(m - k) * math.factorial(n - k),
        )
        riordan_rhs += multinomial * math.comb(z, m + n - k)
    return {
        "gamma_ratio_sum_plain": (sum(terms, Fraction(0)), Fraction(m * n)),
        "gamma_ratio_sum_harmonic": (
            sum((t * h[m + n - 1 - k] for k, t in enumerate(terms)), Fraction(0)),
            m * n * (h[m] + h[n] - 1),
        ),
        "riordan_product": (Fraction(math.comb(z, m) * math.comb(z, n)), riordan_rhs),
    }


def formula_sides(m: int, n: int, h: list[Fraction]) -> dict[str, Fraction]:
    """The values of a `formula` record, from harmonic numbers `h` (up to
    H_mn) and the series summed term by term in reduced fractions."""
    terms = [_gamma_ratio_term(m, n, k) for k in range(m)]
    sub = 1 + h[m * n] - h[m] - h[n]
    ent = h[m * n] - h[n] - Fraction(m - 1, 2 * n)
    coh = Fraction(m - 1, 2 * n)
    weighted = sum((t * h[m + n - 1 - k] for k, t in enumerate(terms)), Fraction(0))
    series = (h[m * n] * sum(terms, Fraction(0)) - weighted) / (m * n)
    return {
        "avg_subentropy": sub,
        "avg_entropy": ent,
        "avg_coherence": coh,
        "series": series,
        "series_residual": series - sub,
        "consistency_residual": (h[m] - 1) + sub - ent - coh,
    }


def induced_one_shot(m: int, n: int, rng, size: int) -> np.ndarray:
    """`size` states G G^H / tr(G G^H) from one draw of the whole stream."""
    g = complex_normals(rng.generator(), size * m * n).reshape(size, m, n)
    rho = g @ np.conjugate(np.swapaxes(g, 1, 2))
    trace = np.einsum("sii->s", rho).real[:, None, None]
    rho.real /= trace
    rho.imag /= trace
    return rho


def haar_one_shot(dim: int, rng, size: int) -> np.ndarray:
    """`size` phase-fixed QR unitaries from one draw of the whole stream."""
    g = complex_normals(rng.generator(), size * dim * dim).reshape(size, dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def pure_one_shot(dim: int, rng, size: int) -> np.ndarray:
    """`size` normalized Gaussian rows from one draw of the whole stream."""
    v = complex_normals(rng.generator(), size * dim).reshape(size, dim)
    return v / np.linalg.norm(v, axis=1)[:, None]


def induced_chunk_one_shot(m, n, which, epsilons, rng, size):
    """What one induced-measure chunk reports when its states come from one
    draw: the summaries of the functionals in `which` and the coherence tail
    counts at `epsilons`."""
    rho = induced_one_shot(m, n, rng, size)
    lams = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    diag = np.clip(np.einsum("sii->si", rho).real, 0.0, None)
    values = {
        "entropy": entropy_values(lams),
        "coherence": np.maximum(entropy_values(diag) - entropy_values(lams), 0.0),
    }
    if "subentropy" in which:
        values["subentropy"] = subentropy_values(lams)
    deviation = np.abs(values["coherence"] - (m - 1) / (2 * n))
    summaries = {w: MonteCarloEstimate.from_samples(values[w]) for w in which}
    return summaries, [int((deviation > eps).sum()) for eps in epsilons]


def simplex_integral_scipy(m: int, alpha: float, moment: int) -> tuple[float, float]:
    """(value, error estimate) of `identities._simplex_integral` through
    `scipy.integrate`, the way the oracle computed it before QAGS was ported."""
    if m == 2:

        def integrand(x: float) -> float:
            y = 1.0 - x
            value = (x - y) ** 2 * (x * y) ** (alpha - 1.0)
            if moment >= 1:
                value *= x
            if moment >= 2:
                value *= y
            return value

        return integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)

    target = QUADRATURE_TARGETS[m]

    def integrand(y: float, x: float) -> float:
        z = 1.0 - x - y
        if z <= 0.0:
            return 0.0
        delta2 = ((x - y) * (x - z) * (y - z)) ** 2
        value = delta2 * (x * y * z) ** (alpha - 1.0)
        if moment >= 1:
            value *= x
        if moment >= 2:
            value *= y
        if moment >= 3:
            value *= z
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rough, _ = integrate.dblquad(
            integrand, 0.0, 1.0, 0.0, lambda x: 1.0 - x, epsabs=1e-13, epsrel=1e-3
        )
        scale = max(abs(rough), 1e-300)
        return integrate.dblquad(
            integrand,
            0.0,
            1.0,
            0.0,
            lambda x: 1.0 - x,
            epsabs=scale * target * 1e-3,
            epsrel=target * 1e-2,
        )
