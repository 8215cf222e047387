"""Reproducible induced-measure random states.

Every draw reduces to one counter-based uniform stream keyed by
(seed, stream_id), with Gaussians produced by the polar Box-Muller
transform from consecutive uniform pairs. A given RngStream value
therefore always yields the same sample, and distinct stream ids give
statistically independent streams without any jump-ahead bookkeeping.
`induced_blocks` is the one route from a stream to states: it yields
`size` samples from one stream in successive batches of at most
`_BLOCK_VALUES` complex Gaussians (and at least one sample), so memory is
bounded by the block, not by the sample count. The stream is read in order
and every later step works per matrix, so the blocks equal one draw of the
whole stream bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOrder

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


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    rho = g @ np.conjugate(np.swapaxes(g, 1, 2))
    trace = np.einsum("sii->s", rho).real[:, None, None]
    # componentwise: complex/scalar division would round twice
    rho.real /= trace
    rho.imag /= trace
    return rho


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
