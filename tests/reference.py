"""The single-state route that the batched kernels are checked against.

The package turns a stream into states one way, the batched blocks of
`subent.sampling.induced_blocks`, and reduces them in `subent.montecarlo`.
This module keeps the second route the tests compare that one with: value
types for one density matrix or pure state, validated on construction;
their spectrum, dephasing, coherence and partial trace; Haar unitaries,
Haar pure states and isospectral orbits from the same Philox streams; the
isospectral and Lipschitz Monte Carlo checks, with the isospectral average
coherence H_m - 1 + Q - S they meet; the exact digamma/Gamma series for the
average subentropy (`ExactValue`) and the square-dimension Lévy bound; the
Selberg integral; the simplex quadrature with its scalar m = 3 integrand;
and the two exceptions only these raise. No `subent` command reaches any
of it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from subent import DEFAULT_CHUNK
from subent.closedform import (
    _LN2,
    _check_pair,
    harmonic,
    harmonic_numerators,
    subentropy_series_numerator,
)
from subent.errors import ConvergenceFailure, DomainError, SubentError
from subent.identities import QUADRATURE_TARGETS
from subent.montecarlo import MonteCarloEstimate, _merge, _run_ordered, _tasks
from subent.qcore import (
    _SUM_TOL,
    SUBENTROPY_MAX,
    Spectrum,
    entropy_values,
    subentropy,
    von_neumann_entropy,
)
from subent.quadpack import quad
from subent.sampling import RngStream, _normal_blocks, complex_normals, induced_blocks


class SingularSample(SubentError):
    """A probability-zero singular draw; it is never redrawn, since that would bias the measure."""


class DimensionMismatch(SubentError):
    """A bipartite split does not match the vector it is applied to."""


_EIGENSOLVE_FLOOR = -1e-10   # noise tolerance for freshly solved eigenvalues
_HERMITIAN_TOL = 1e-12
_NORM_TOL = 1e-12


class DensityMatrix:
    """Square complex matrix that is Hermitian, PSD and unit-trace to tolerance."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("density matrix must be a nonempty square matrix")
        if np.abs(a - a.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian to 1e-12")
        tr = complex(a.trace())
        if abs(tr.imag) > _SUM_TOL or abs(tr.real - 1.0) > _SUM_TOL:
            raise ValueError(f"trace {tr:.12g} is not 1 to 1e-9")
        try:
            low = float(np.linalg.eigvalsh(a).min())
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure("eigensolver failed while validating a state") from exc
        if low < _EIGENSOLVE_FLOOR:
            raise ValueError(f"matrix has eigenvalue {low:.6g} < -1e-10")
        a.flags.writeable = False
        self.entries = a
        self.dim = a.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """Unit-norm complex amplitude vector."""

    __slots__ = ("amplitudes", "dim")

    def __init__(self, amplitudes) -> None:
        v = np.array(amplitudes, dtype=complex).ravel()
        if v.size == 0:
            raise ValueError("a pure state needs at least one amplitude")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm:.15g} is not 1 to 1e-12")
        v.flags.writeable = False
        self.amplitudes = v
        self.dim = v.size

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True)
class Functionals:
    """Entropy, subentropy and relative entropy of coherence of one state."""

    entropy: float
    subentropy: float
    coherence: float

    def __post_init__(self) -> None:
        if min(self.entropy, self.subentropy, self.coherence) < 0.0:
            raise ValueError("spectral functionals must be nonnegative")
        if self.subentropy > SUBENTROPY_MAX + 1e-9:
            raise ValueError(f"subentropy {self.subentropy:.12g} exceeds 1 - gamma")


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero every off-diagonal entry in the fixed computational basis."""
    return DensityMatrix(np.diag(np.diagonal(rho.entries)))


def relative_entropy_coherence(rho: DensityMatrix) -> float:
    """S(diag(rho)) - S(rho) in nats, clamped to zero from below."""
    diagonal = Spectrum(np.real(np.diagonal(rho.entries)))
    gain = von_neumann_entropy(diagonal) - von_neumann_entropy(spectrum_of(rho))
    return max(0.0, gain)


def spectrum_of(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues of rho as a Spectrum, with a residual check on every pair."""
    try:
        w, v = np.linalg.eigh(rho.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("eigendecomposition did not converge") from exc
    residual = np.linalg.norm(rho.entries @ v - v * w, axis=0).max()
    if residual > 1e-10 * rho.dim:
        raise ConvergenceFailure(f"eigenpair residual {residual:.3g} exceeds 1e-10 m")
    if w.min() < _EIGENSOLVE_FLOOR:
        raise ConvergenceFailure(f"eigensolver returned {w.min():.6g} < -1e-10")
    return Spectrum(np.clip(w, 0.0, None))


def partial_trace(psi: PureState, m: int, n: int) -> DensityMatrix:
    """Trace out the n-dimensional second factor of a row-major bipartite state."""
    if psi.dim != m * n:
        raise DimensionMismatch(f"state dimension {psi.dim} is not {m} * {n}")
    mat = psi.amplitudes.reshape(m, n)
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


def functionals(rho: DensityMatrix) -> Functionals:
    """Bundle S, Q and the coherence of one state into a Functionals record."""
    spec = spectrum_of(rho)
    entropy = von_neumann_entropy(spec)
    dephased = von_neumann_entropy(Spectrum(np.real(np.diagonal(rho.entries))))
    coherence = dephased - entropy
    if coherence < -1e-9:
        raise ConvergenceFailure(f"dephasing lowered the entropy by {-coherence:.3g}")
    return Functionals(entropy, subentropy(spec), max(0.0, coherence))


_UNITARY_TOL = 1e-10


class UnitaryMatrix:
    """Square complex matrix with max |U^H U - I| <= 1e-10."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries) -> None:
        u = np.array(entries, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
            raise ValueError("unitary must be a nonempty square matrix")
        defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if defect > _UNITARY_TOL:
            raise ValueError(f"unitarity defect {defect:.3g} exceeds 1e-10")
        u.flags.writeable = False
        self.entries = u
        self.dim = u.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def ginibre(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """rows x cols matrix of i.i.d. complex Gaussians, N(0, 1/2) per part."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    gen = rng.generator()
    return complex_normals(gen, rows * cols).reshape(rows, cols)


def _haar_q(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    if np.any(d == 0):
        raise SingularSample("QR met an exactly singular Ginibre draw")
    return q * (d / np.abs(d))[:, None, :]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1)[..., None]


def haar_blocks(dim: int, rng: RngStream, size: int) -> Iterator[np.ndarray]:
    """`size` Haar unitaries from one stream, in (k, dim, dim) blocks.

    Each is the Q factor of a Ginibre matrix with every column multiplied by
    the phase of the matching diagonal entry of R, which removes the sign
    ambiguity of the factorization and makes the output exactly Haar. An
    exactly singular draw (probability zero) raises SingularSample; it is
    never redrawn, since redrawing would bias the measure.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    return map(_haar_q, _normal_blocks(rng, size, (dim, dim)))


def pure_blocks(shape: tuple[int, ...], rng: RngStream, size: int) -> Iterator[np.ndarray]:
    """`size` samples of `shape` from one stream, in (k, *shape) blocks, each
    row along the last axis a uniform unit vector. A shape of (2, dim) keeps
    pairs of states in one block."""
    if min(shape) < 1:
        raise ValueError("dimension must be positive")
    return map(_unit_rows, _normal_blocks(rng, size, shape))


def draw_haar(dim: int, rng: RngStream, size: int) -> np.ndarray:
    """The blocks of `haar_blocks` as one (size, dim, dim) array."""
    return np.concatenate(list(haar_blocks(dim, rng, size)))


def draw_pure(dim: int, rng: RngStream, size: int) -> np.ndarray:
    """The blocks of `pure_blocks` of shape (dim,) as one (size, dim) array of
    uniform unit vectors."""
    return np.concatenate(list(pure_blocks((dim,), rng, size)))


def draw_induced(m: int, n: int, rng: RngStream, size: int) -> np.ndarray:
    """The blocks of `induced_blocks` as one (size, m, m) array."""
    return np.concatenate(list(induced_blocks(m, n, rng, size)))


def haar_unitary(dim: int, rng: RngStream) -> UnitaryMatrix:
    """Haar-distributed unitary: the single draw of `draw_haar` on this stream."""
    return UnitaryMatrix(draw_haar(dim, rng, 1)[0])


def haar_pure_state(dim: int, rng: RngStream) -> PureState:
    """Uniform state on the unit sphere: the single draw of `draw_pure` on this stream."""
    return PureState(draw_pure(dim, rng, 1)[0])


def induced_mixed_state(m: int, n: int, rng: RngStream) -> DensityMatrix:
    """Random m x m induced-measure state: the single draw of `draw_induced` on this stream."""
    return DensityMatrix(draw_induced(m, n, rng, 1)[0])


def isospectral_state(spec: Spectrum, rng: RngStream) -> DensityMatrix:
    """U diag(spec) U^H for a Haar-random U: uniform on the isospectral orbit."""
    u = haar_unitary(spec.m, rng).entries
    rho = (u * spec.values) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


LIPSCHITZ_FUNCTIONALS = ("coherence", "dephased_entropy", "entropy")
_MIN_PAIR_DISTANCE = 1e-8


@dataclass(frozen=True)
class LipschitzReport:
    """Largest observed difference quotient over random pure-state pairs."""

    max_ratio: float
    evaluated: int
    skipped: int


def _isospectral_chunk(task) -> MonteCarloEstimate:
    values, seed, index, size = task
    lam = np.asarray(values, dtype=float)
    blocks = haar_blocks(lam.size, RngStream(seed, index), size)
    diag = np.concatenate([np.abs(u) ** 2 @ lam for u in blocks])
    base = float(entropy_values(lam[None, :])[0])
    return MonteCarloEstimate.from_samples(np.maximum(entropy_values(diag) - base, 0.0))


def estimate_isospectral_coherence(
    spec: Spectrum,
    samples: int,
    seed: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Average coherence of U diag(spec) U^H over Haar-random U.

    The spectrum is held fixed, so each sample only needs the diagonal of
    the rotated state; the subtracted entropy is that of the spectrum itself.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    values = tuple(float(v) for v in spec.values)
    tasks = _tasks([(values,)], seed, samples, chunk)
    return _merge(_run_ordered(_isospectral_chunk, tasks, workers))


def isospectral_average_coherence(spec: Spectrum) -> float:
    """Haar-average coherence on one isospectral orbit: H_m - 1 + Q - S."""
    base = float(harmonic(spec.m)) - 1.0
    return base + subentropy(spec) - von_neumann_entropy(spec)


def _pure_pair_values(states: np.ndarray, m: int, n: int, which: str) -> np.ndarray:
    mats = states.reshape(-1, m, n)
    diag = np.square(np.abs(mats)).sum(axis=2)
    if which == "dephased_entropy":
        return entropy_values(diag)
    rho = mats @ np.conjugate(np.swapaxes(mats, 1, 2))
    lams = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    if which == "entropy":
        return entropy_values(lams)
    return entropy_values(diag) - entropy_values(lams)


def _lipschitz_ratios(psi, phi, m, n, which):
    distance = np.linalg.norm(psi - phi, axis=1)
    keep = distance >= _MIN_PAIR_DISTANCE
    skipped = int((~keep).sum())
    if not keep.any():
        return np.empty(0), skipped
    f = _pure_pair_values(psi[keep], m, n, which)
    g = _pure_pair_values(phi[keep], m, n, which)
    return np.abs(f - g) / distance[keep], skipped


def _lipschitz_chunk(task):
    m, n, which, seed, index, size = task
    parts, skipped = [], 0
    for pairs in pure_blocks((2, m * n), RngStream(seed, index), size):
        ratios, dropped = _lipschitz_ratios(pairs[:, 0, :], pairs[:, 1, :], m, n, which)
        parts.append(ratios)
        skipped += dropped
    ratios = np.concatenate(parts)
    peak = float(ratios.max()) if ratios.size else 0.0
    return peak, int(ratios.size), skipped


def lipschitz_check(
    m: int,
    n: int,
    pairs: int,
    seed: int,
    which: str = "coherence",
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> LipschitzReport:
    """Max |F(psi) - F(phi)| / ||psi - phi|| over random pure-state pairs.

    F maps a bipartite pure state to a functional of its m-dimensional
    marginal: its coherence, the entropy of its diagonal, or its entropy.
    Pairs closer than 1e-8 are skipped as ill-conditioned and counted.
    """
    if m < 3:
        raise DomainError("the Lipschitz bound is stated for m >= 3")
    _check_pair(m, n)
    if which not in LIPSCHITZ_FUNCTIONALS:
        raise DomainError(f"which must be one of {LIPSCHITZ_FUNCTIONALS}")
    if pairs < 1:
        raise DomainError("need at least one pair")
    tasks = _tasks([(m, n, which)], seed, pairs, chunk)
    peak, evaluated, skipped = 0.0, 0, 0
    for part_peak, part_evaluated, part_skipped in _run_ordered(_lipschitz_chunk, tasks, workers):
        peak = max(peak, part_peak)
        evaluated += part_evaluated
        skipped += part_skipped
    return LipschitzReport(peak, evaluated, skipped)


def digamma_integer_diff(a: int, b: int) -> Fraction:
    """psi(a) - psi(b) at positive integers: H_{a-1} - H_{b-1}, exactly."""
    if a < 1 or b < 1:
        raise DomainError("digamma differences need positive integer arguments")
    return harmonic(a - 1) - harmonic(b - 1)


class ExactValue(NamedTuple):
    """An exact rational together with its float projection."""

    exact: Fraction
    approx: float


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
    a, denominator = harmonic_numerators((m * n, *range(n, m + n)))
    value = Fraction(subentropy_series_numerator(m, n, a), m * n * denominator)
    return ExactValue(value, float(value))


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


def simplex_integral_reference(m: int, alpha: float, moment: int) -> tuple[float, float]:
    """(value, error estimate) of `identities._simplex_integral` as it was
    while the m = 3 integrand was one scalar f(x, y), bound to each outer
    node with `partial` and branching on the moment at every point."""
    if m == 2:

        def integrand2(x: float) -> float:
            y = 1.0 - x
            value = (x - y) ** 2 * (x * y) ** (alpha - 1.0)
            if moment >= 1:
                value *= x
            if moment >= 2:
                value *= y
            return value

        return quad(integrand2, 0.0, 1.0, 0.0, 1e-10, limit=200)

    def integrand(x: float, y: float) -> float:
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

    def triangle(epsabs: float, epsrel: float, panels: dict) -> tuple[float, float]:
        worst = 0.0

        def inner(x: float) -> float:
            nonlocal worst
            value, err = quad(partial(integrand, x), 0.0, 1.0 - x, epsabs, epsrel,
                              panels=panels.setdefault(x, {}))
            worst = max(worst, err)
            return value

        value, err = quad(inner, 0.0, 1.0, epsabs, epsrel)
        return value, max(worst, err)

    target = QUADRATURE_TARGETS[m]
    panels: dict[float, dict] = {}
    rough, _ = triangle(1e-13, 1e-3, panels)
    scale = max(abs(rough), 1e-300)
    return triangle(scale * target * 1e-3, target * 1e-2, panels)
