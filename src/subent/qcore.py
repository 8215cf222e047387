"""Core state types and the spectral functionals defined on them.

Everything here is a pure function of immutable value objects: spectra,
density matrices and pure states validate their invariants once, freeze
their storage, and are then safe to share between concurrent workers.
All entropic quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

EULER_GAMMA = 0.577215664901532860606512090082
#: Largest possible subentropy, attained in the infinite-dimensional
#: maximally mixed limit: lim (ln m - H_m + 1) = 1 - EULER_GAMMA.
SUBENTROPY_MAX = 1.0 - EULER_GAMMA

_VALUE_FLOOR = -1e-12        # eigenvalues below this are rejected outright
_EIGENSOLVE_FLOOR = -1e-10   # noise tolerance for freshly solved eigenvalues
_SUM_TOL = 1e-9
_HERMITIAN_TOL = 1e-12
_NORM_TOL = 1e-12
_CONFLUENCE_REL = 1e-8       # relative gap below which nodes merge in Q
_PROBE_TOL = 1e-11           # x^m probe deviation that triggers extended precision


class Spectrum:
    """Descending, nonnegative eigenvalue vector renormalized to unit sum.

    Non-finite values are rejected. Values in [-1e-12, 0] are clamped to
    zero; anything more negative is rejected. The sum must already be within
    1e-9 of one and is then renormalized exactly.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("a spectrum needs at least one eigenvalue")
        if not np.isfinite(arr).all():
            raise ValueError("eigenvalues must be finite")
        low = arr.min()
        if low < _VALUE_FLOOR:
            raise ValueError(f"eigenvalue {low:.6g} below the {_VALUE_FLOOR:g} floor")
        arr = np.clip(arr, 0.0, None)
        total = arr.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"eigenvalues sum to {total:.12g}, not 1")
        arr = np.sort(arr / total)[::-1].copy()
        arr.flags.writeable = False
        self.values = arr

    @property
    def m(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Spectrum({self.values.tolist()!r})"


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


def von_neumann_entropy(spec: Spectrum) -> float:
    """-sum(p ln p) in nats, with the 0 ln 0 = 0 convention."""
    return float(entropy_values(spec.values[None, :])[0])


def entropy_values(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats of an (..., m) array of probabilities."""
    p = np.asarray(probs, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=-1)


def subentropy(spec: Spectrum) -> float:
    """Subentropy Q in nats: minus the m-point divided difference of x^m ln x.

    Eigenvalues closer than 1e-8 relative to the largest one are treated
    as confluent and handled through exact derivative substitutions. For
    clusters that are close without being confluent the float table can
    cancel catastrophically; that loss is detected by a built-in probe
    (the same table applied to x^m, whose divided difference is exactly
    the eigenvalue sum) and such spectra are re-evaluated in adaptive
    extended precision.
    """
    return _subentropy_single(spec.values)


def subentropy_values(spectra: np.ndarray) -> np.ndarray:
    """Row-wise subentropy of an (N, m) array of spectra, each row summing to 1.

    Rows with well-conditioned, distinct eigenvalues go through a vectorized
    divided difference table; rows with ties or with a failing conditioning
    probe fall back to the scalar path used by :func:`subentropy`.
    """
    z = np.asarray(spectra, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an (N, m) array of spectra")
    z = -np.sort(-z, axis=1)
    n_rows, m = z.shape
    if m == 1:
        return np.zeros(n_rows)
    tol = _CONFLUENCE_REL * np.maximum(z[:, 0], 1.0 / m)
    gaps = z[:, :-1] - z[:, 1:]
    confluent = (gaps < tol[:, None]).any(axis=1)
    out = np.empty(n_rows)
    plain = ~confluent
    if plain.any():
        values, probe_error = _divided_difference_plain(z[plain])
        out[plain] = values
        bad = np.nonzero(plain)[0][probe_error > _PROBE_TOL]
    else:
        bad = np.empty(0, dtype=int)
    for i in np.concatenate([np.nonzero(confluent)[0], bad]):
        out[i] = _subentropy_single(z[i])
    return np.maximum(out, 0.0)


def _divided_difference_plain(z: np.ndarray):
    """-[z_1,...,z_m] f for f(x) = x^m ln x on rows with distinct nodes.

    Returns the values together with a per-row conditioning estimate: the
    identical table applied to x^m must reproduce the node sum exactly, so
    its observed deviation measures the cancellation suffered by the row.
    """
    m = z.shape[1]
    safe = np.where(z > 0.0, z, 1.0)
    power = z ** float(m)
    table = power * np.log(safe)
    probe = power.copy()
    for width in range(1, m):
        span = z[:, width:] - z[:, :-width]
        table = (table[:, 1:] - table[:, :-1]) / span
        probe = (probe[:, 1:] - probe[:, :-1]) / span
    probe_error = np.abs(probe[:, 0] - z.sum(axis=1))
    return -table[:, 0], probe_error


@lru_cache(maxsize=None)
def _float_harmonics(m: int) -> np.ndarray:
    h = np.cumsum(1.0 / np.arange(1, m + 1))
    h.flags.writeable = False
    return h


def _hermite_coefficient(x: float, order: int, m: int) -> float:
    # f^(order)(x) / order! for f(t) = t^m ln t; for order <= m - 1 this is
    # C(m, order) x^(m-order) (ln x + H_m - H_{m-order}), with limit 0 at x = 0.
    if x <= 0.0:
        return 0.0
    h = _float_harmonics(m)
    tail = h[m - 1] - h[m - order - 1]
    return math.comb(m, order) * math.pow(x, m - order) * (math.log(x) + tail)


def _subentropy_single(values: np.ndarray) -> float:
    z = -np.sort(-np.asarray(values, dtype=float))
    m = z.size
    if m == 1:
        return 0.0
    tol = _CONFLUENCE_REL * max(z[0], 1.0 / m)
    group = np.zeros(m, dtype=int)
    for i in range(1, m):
        group[i] = group[i - 1] + (1 if z[i - 1] - z[i] >= tol else 0)
    nodes = z.copy()
    for g in range(group[-1] + 1):
        sel = group == g
        if sel.sum() > 1:
            nodes[sel] = nodes[sel].mean()

    col = [math.pow(v, m) * math.log(v) if v > 0.0 else 0.0 for v in nodes]
    probe = [math.pow(v, m) for v in nodes]
    for width in range(1, m):
        nxt, nxt_probe = [], []
        for i in range(m - width):
            if group[i] == group[i + width]:
                nxt.append(_hermite_coefficient(nodes[i], width, m))
                nxt_probe.append(math.comb(m, width) * math.pow(nodes[i], m - width))
            else:
                span = nodes[i + width] - nodes[i]
                nxt.append((col[i + 1] - col[i]) / span)
                nxt_probe.append((probe[i + 1] - probe[i]) / span)
        col, probe = nxt, nxt_probe
    if abs(probe[0] - nodes.sum()) > _PROBE_TOL:
        return _subentropy_extended(nodes, group, m)
    return max(0.0, -col[0])


def _subentropy_extended(nodes: np.ndarray, group: np.ndarray, m: int) -> float:
    """Confluent table in adaptive extended precision for clustered nodes.

    Precision is doubled until the x^m conditioning probe certifies that
    enough digits survived the cancellation.
    """
    import mpmath as mp

    dps = 40
    while dps <= 1280:
        with mp.workdps(dps):
            zs = [mp.mpf(float(v)) for v in nodes]
            node_sum = mp.fsum(zs)
            hs = [mp.mpf(0)]
            for k in range(1, m + 1):
                hs.append(hs[-1] + mp.mpf(1) / k)
            col = [v**m * mp.log(v) if v > 0 else mp.mpf(0) for v in zs]
            probe = [v**m for v in zs]
            for width in range(1, m):
                nxt, nxt_probe = [], []
                coeff = math.comb(m, width)
                for i in range(m - width):
                    if group[i] == group[i + width]:
                        v = zs[i]
                        if v > 0:
                            tail = hs[m] - hs[m - width]
                            nxt.append(coeff * v ** (m - width) * (mp.log(v) + tail))
                        else:
                            nxt.append(mp.mpf(0))
                        nxt_probe.append(coeff * v ** (m - width))
                    else:
                        span = zs[i + width] - zs[i]
                        nxt.append((col[i + 1] - col[i]) / span)
                        nxt_probe.append((probe[i + 1] - probe[i]) / span)
                col, probe = nxt, nxt_probe
            if abs(probe[0] - node_sum) < mp.mpf(10) ** (20 - dps):
                return max(0.0, float(-col[0]))
        dps *= 2
    raise ConvergenceFailure("subentropy table lost all precision on a tight cluster")


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
