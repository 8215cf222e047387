"""Reproducible random matrices and quantum states.

Every draw reduces to one counter-based uniform stream keyed by
(seed, stream_id), with Gaussians produced by the polar Box-Muller
transform from consecutive uniform pairs. A given RngStream value
therefore always yields the same sample, and distinct stream ids give
statistically independent streams without any jump-ahead bookkeeping.
The block iterators yield `size` samples from one stream in successive
batches of at most `_BLOCK_VALUES` complex Gaussians (and at least one
sample), so memory is bounded by the block, not by the sample count. The
stream is read in order and every later step works per matrix or per row,
so the blocks equal one draw of the whole stream bit for bit. The batched
`draw_*` functions concatenate the blocks; the single-state functions wrap
the first sample of a size-1 draw in its type.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOrder, SingularSample
from .qcore import DensityMatrix, PureState, Spectrum

_UNITARY_TOL = 1e-10
# complex Gaussians per block, 256 KiB per complex array
_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class RngStream:
    """Keyed handle for one reproducible uniform stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator positioned at the start of the stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def complex_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard complex Gaussians (E|g|^2 = 1) from consecutive uniform pairs.

    Each value consumes two uniforms, so drawing a block of k values and
    then another block is identical to drawing one block of both.
    """
    u = gen.random(2 * count)
    radius = np.sqrt(-np.log1p(-u[0::2]))
    phase = (2.0 * np.pi) * u[1::2]
    out = np.empty(count, dtype=np.complex128)
    np.multiply(radius, np.cos(phase), out=out.real)
    np.multiply(radius, np.sin(phase), out=out.imag)
    return out


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


def _normal_blocks(rng: RngStream, size: int, shape: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Successive (k, *shape) batches of complex Gaussians from the one stream
    of `rng`, `size` samples in all, with k the most samples that fit in
    `_BLOCK_VALUES` values but at least one. The stream is consumed in order,
    so the batches concatenate to the one-shot draw."""
    if size < 1:
        raise ValueError("need at least one sample")
    per_sample = math.prod(shape)
    step = max(1, _BLOCK_VALUES // per_sample)
    gen = rng.generator()
    counts = (min(step, size - start) for start in range(0, size, step))
    return (complex_normals(gen, k * per_sample).reshape(k, *shape) for k in counts)


def _haar_q(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    if np.any(d == 0):
        raise SingularSample("QR met an exactly singular Ginibre draw")
    return q * (d / np.abs(d))[:, None, :]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1)[..., None]


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    rho = g @ np.conjugate(np.swapaxes(g, 1, 2))
    trace = np.einsum("sii->s", rho).real[:, None, None]
    # componentwise: complex/scalar division would round twice
    rho.real /= trace
    rho.imag /= trace
    return rho


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


def induced_blocks(m: int, n: int, rng: RngStream, size: int) -> Iterator[np.ndarray]:
    """`size` random states G G^H / tr(G G^H) from one stream, in (k, m, m)
    blocks, each from an m x n Ginibre draw G.

    This matrix model realizes exactly the distribution of the m-dimensional
    marginal of a Haar-uniform pure state on an (m n)-dimensional space.
    """
    if m < 1:
        raise ValueError("system dimension must be positive")
    if m > n:
        raise DimensionOrder(f"need m <= n, got m={m}, n={n}")
    return map(_normalized_gram, _normal_blocks(rng, size, (m, n)))


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
