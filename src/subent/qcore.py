"""Spectra and the spectral functionals evaluated on them.

`Spectrum` validates one eigenvalue vector once and freezes it. The
functionals work row-wise on (N, m) arrays of eigenvalues or diagonals,
which is how the Monte Carlo chunks call them; `von_neumann_entropy` and
`subentropy` are their one-row forms on a `Spectrum`. All entropic
quantities are in nats.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.577215664901532860606512090082
#: Largest possible subentropy, attained in the infinite-dimensional
#: maximally mixed limit: lim (ln m - H_m + 1) = 1 - EULER_GAMMA.
SUBENTROPY_MAX = 1.0 - EULER_GAMMA

_VALUE_FLOOR = -1e-12        # eigenvalues below this are rejected outright
_SUM_TOL = 1e-9
_CONFLUENCE_REL = 1e-8       # relative gap below which a row of Q takes the integral form
_PROBE_TOL = 1e-11           # x^m probe deviation that sends a row to the scalar table
_INTEGRAL_STEP = 0.3         # trapezoid step in u = ln t for the integral form of Q


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


def von_neumann_entropy(spec: Spectrum) -> float:
    """-sum(p ln p) in nats, with the 0 ln 0 = 0 convention."""
    return float(entropy_values(spec.values[None, :])[0])


def entropy_values(probs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats of an (..., m) array of probabilities."""
    p = np.asarray(probs, dtype=float)
    safe = np.where(p > 0.0, p, 1.0)
    return -(p * np.log(safe)).sum(axis=-1)


def subentropy(spec: Spectrum) -> float:
    """Subentropy Q in nats of one spectrum: row 0 of :func:`subentropy_values`."""
    return float(subentropy_values(spec.values[None, :])[0])


def subentropy_values(spectra: np.ndarray) -> np.ndarray:
    """Row-wise subentropy of an (N, m) array of spectra, each row summing to 1.

    Q is minus the m-point divided difference of x^m ln x at the eigenvalues.
    Rows with distinct eigenvalues go through a vectorized divided difference
    table. A row whose conditioning probe fails is evaluated again by the
    scalar table, in floats and then in 40, 80, ... 1280 digits, until the
    probe certifies it. Rows with ties, and rows that no precision certifies,
    take the integral form. Non-finite rows and rows whose sum is more than
    1e-9 from one are rejected: the integral form assumes a unit sum.
    """
    z = np.asarray(spectra, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected an (N, m) array of spectra")
    if not np.isfinite(z).all():
        raise ValueError("eigenvalues must be finite")
    if (np.abs(z.sum(axis=1) - 1.0) > _SUM_TOL).any():
        raise ValueError("every spectrum must sum to 1 to 1e-9")
    z = -np.sort(-z, axis=1)
    n_rows, m = z.shape
    if m == 1:
        return np.zeros(n_rows)
    tol = _CONFLUENCE_REL * np.maximum(z[:, 0], 1.0 / m)
    confluent = (z[:, :-1] - z[:, 1:] < tol[:, None]).any(axis=1)
    out = np.empty(n_rows)
    plain = np.nonzero(~confluent)[0]
    out[plain], probe_error = _divided_difference_plain(z[plain])
    for i in plain[probe_error > _PROBE_TOL]:
        out[i] = _subentropy_escalated(z[i])
    integral = confluent | np.isnan(out)
    if integral.any():
        out[integral] = _subentropy_integral(z[integral])
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


def _scalar_table(nodes: list):
    """(-[z_1,...,z_m] x^m ln x, [z_1,...,z_m] x^m) on distinct float nodes."""
    m = len(nodes)
    probe = [v**m for v in nodes]
    col = [p * math.log(v) if v > 0 else p for p, v in zip(probe, nodes)]
    for width in range(1, m):
        spans = [nodes[i + width] - nodes[i] for i in range(m - width)]
        col = [(col[i + 1] - col[i]) / span for i, span in enumerate(spans)]
        probe = [(probe[i + 1] - probe[i]) / span for i, span in enumerate(spans)]
    return -col[0], probe[0]


def _round(man: int, exp: int, prec: int, sticky: int = 0) -> tuple[int, int]:
    """man * 2**exp rounded to prec bits, to nearest with ties to even. A
    nonzero `sticky` stands for a remainder below the last bit of man that
    has the sign of man."""
    mag = -man if man < 0 else man
    shift = mag.bit_length() - prec
    if shift <= 0:
        return man, exp
    kept = mag >> shift
    half = 1 << (shift - 1)
    if mag & half and (kept & 1 or sticky or mag & (half - 1)):
        kept += 1
    return (-kept if man < 0 else kept), exp + shift


def _sub(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a - b on (mantissa, exponent) pairs, correctly rounded to prec bits."""
    (am, ae), (bm, be) = a, b
    if ae > be:
        return _round((am << (ae - be)) - bm, be, prec)
    return _round(am - (bm << (be - ae)), ae, prec)


def _sub_div(a: tuple[int, int], b: tuple[int, int], span: tuple[int, int],
             prec: int) -> tuple[int, int]:
    """(a - b) / span rounded to prec bits after the subtraction and again
    after the division, as `mpf_div(mpf_sub(a, b), span)` rounds."""
    num, exp = _sub(a, b, prec)
    if not num:
        return 0, 0
    den, den_exp = span
    # at least prec + 1 quotient bits, so the remainder lies strictly below
    # the rounding position and serves as the sticky bit
    extra = prec + den.bit_length() - num.bit_length() + 1
    quot, rem = divmod(abs(num) << extra, abs(den))
    quot, exp = _round(quot, exp - den_exp - extra, prec, rem)
    return (-quot if (num < 0) != (den < 0) else quot), exp


def _pair(value: tuple) -> tuple[int, int]:
    """A libmp number as a (signed mantissa, exponent) pair."""
    sign, man, exp, _ = value
    return (-man if sign else man), exp


def _subentropy_escalated(row: np.ndarray) -> float:
    """Subentropy of one row whose vectorized probe failed, or nan if the
    scalar table certifies it at no precision up to 1280 digits.

    The float pass is kept because numpy's vectorized `log` and `pow` may
    differ from libm's in the last bit, so a row the vectorized probe
    rejects can pass here: on an AVX-512 host, 2,038 of the 2,048 rows of
    the benchmark's `subentropy-m32` draws at seeds 0-15 failed the
    vectorized probe, and this pass certified one of them.

    The passes at 40, 80, ... 1280 digits run `_mantissa_table`; the probe's
    node sum and bound and the final float come from mpmath's `libmp`.
    """
    import mpmath as mp
    from mpmath import libmp

    nodes = row.tolist()
    value, probe = _scalar_table(nodes)
    if abs(probe - row.sum()) <= _PROBE_TOL:
        return max(0.0, value)
    exact = [libmp.from_float(v) for v in nodes]
    dps = 40
    while dps <= 1280:
        # Called as mp.workdps on each pass: perfbench/inproc.py counts the calls.
        with mp.workdps(dps):
            prec = libmp.dps_to_prec(dps)
            value, probe = _mantissa_table(exact, prec)
            residual = libmp.mpf_sub(probe, libmp.mpf_sum(exact, prec, "n"), prec, "n")
            bound = libmp.mpf_pow_int(libmp.from_int(10), 20 - dps, prec, "n")
            if libmp.mpf_lt(libmp.mpf_abs(residual, prec, "n"), bound):
                return max(0.0, libmp.to_float(value, rnd="n"))
        dps *= 2
    return math.nan


def _mantissa_table(nodes: list, prec: int):
    """`_scalar_table` at prec bits on distinct libmp nodes, as libmp numbers.

    The node terms x^m ln x and x^m come from libmp; the table runs on
    (mantissa, exponent) pairs of Python ints through `_sub` and `_sub_div`.
    libmp's `mpf_sub` and `mpf_div` round correctly to nearest, so the table
    holds exactly the values a table of `mpf` numbers holds.
    """
    from mpmath import libmp

    m = len(nodes)
    probe = [libmp.mpf_pow_int(v, m, prec, "n") for v in nodes]
    col = [libmp.mpf_mul(p, libmp.mpf_log(v, prec, "n"), prec, "n") if libmp.mpf_sign(v) > 0 else p
           for p, v in zip(probe, nodes)]
    col, probe = [_pair(t) for t in col], [_pair(p) for p in probe]
    pairs = [_pair(v) for v in nodes]
    for width in range(1, m):
        spans = [_sub(hi, lo, prec) for hi, lo in zip(pairs[width:], pairs)]
        col = [_sub_div(hi, lo, s, prec) for hi, lo, s in zip(col[1:], col, spans)]
        probe = [_sub_div(hi, lo, s, prec) for hi, lo, s in zip(probe[1:], probe, spans)]
    value = libmp.mpf_neg(libmp.from_man_exp(*col[0]), prec, "n")
    return value, libmp.from_man_exp(*probe[0])


def _subentropy_integral(z: np.ndarray) -> np.ndarray:
    """Q = int_0^inf [t/(1+t) - prod_i t/(t+z_i)] dt on rows summing to 1.

    The integrand, -exp(-A) expm1(A - B) with A = log1p(1/t) and
    B = sum_i log1p(z_i/t), is nonnegative, so ties and zeros cost no
    precision. In u = ln t it falls like t^2 at zero and like 1/t at infinity,
    and the trapezoid rule converges geometrically: step 0.3 on
    [-18, ln m + 37] (about 200 nodes) is accurate to about 1e-14 to m = 256.
    """
    m = z.shape[1]
    t = np.exp(np.arange(-18.0, math.log(m) + 37.0, _INTEGRAL_STEP))
    a = np.log1p(1.0 / t)
    b = np.zeros((z.shape[0], t.size))
    for column in z.T:
        b += np.log1p(column[:, None] / t)
    return _INTEGRAL_STEP * (-np.exp(-a) * np.expm1(a - b) * t).sum(axis=1)
