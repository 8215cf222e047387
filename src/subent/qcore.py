"""Spectra and the spectral functionals evaluated on them.

`Spectrum` validates one eigenvalue vector once and freezes it. The
functionals work row-wise on (N, m) arrays of eigenvalues or diagonals,
which is how the Monte Carlo chunks call them; `von_neumann_entropy` and
`subentropy` are their one-row forms on a `Spectrum`. All entropic
quantities are in nats.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading

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
_DIGITS = 40                 # working digits of the one extended-precision pass of the table
_LIBMP = "_subent_libmp"     # module name of mpmath's libmp, loaded without mpmath
_LIBMP_LOCK = threading.Lock()


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
    scalar table, in floats and then once in 40 digits. Rows with ties, and
    rows that neither pass certifies, take the integral form. Non-finite rows
    and rows whose sum is more than 1e-9 from one are rejected: the integral
    form assumes a unit sum.
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
    failing = plain[probe_error > _PROBE_TOL]
    if failing.size:
        out[failing] = _subentropy_escalated(z[failing])
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
    value, probe = _table(z, power * np.log(safe), power)
    return value, np.abs(probe - z.sum(axis=1))


def _table(z: np.ndarray, col: np.ndarray, probe: np.ndarray):
    """(-[z_1,...,z_m] x^m ln x, [z_1,...,z_m] x^m) row-wise from the node
    terms `col` (x^m ln x) and `probe` (x^m) at the distinct nodes z."""
    for width in range(1, z.shape[1]):
        span = z[:, width:] - z[:, :-width]
        col = (col[:, 1:] - col[:, :-1]) / span
        probe = (probe[:, 1:] - probe[:, :-1]) / span
    return -col[:, 0], probe[:, 0]


def _subentropy_escalated(rows: np.ndarray) -> np.ndarray:
    """Subentropy of the (k, m) rows whose vectorized probe failed; nan for a
    row that neither the float pass nor the 40-digit pass certifies.

    The float pass runs `_table` again on node terms from libm, because
    numpy's vectorized `log` and `pow` may differ from libm's in the last
    bit, so a row the vectorized probe rejects can pass here: on an AVX-512
    host, 2,038 of the 2,048 rows of the benchmark's `subentropy-m32` draws
    at seeds 0-15 failed the vectorized probe, and this pass certified one
    of them. Its subtractions and divisions round correctly, in numpy as in
    Python floats, so each row gets the bits of a scalar float table.

    The rows it leaves take one `_mantissa_table` pass at 40 digits, certified
    when its x^m probe matches the node sum to 1e-20; the probe's node sum and
    bound and the final float come from mpmath's `libmp`, which `_own_libmp`
    loads without the rest of mpmath. A row it does not certify (a tight
    cluster, or many induced rows from m = 80 on) is left nan for the
    integral form, which is accurate to about 1e-14 on any row.
    """
    libmp = _own_libmp()
    mp = sys.modules.get("mpmath")
    m = rows.shape[1]
    nodes = rows.ravel().tolist()
    power = [v**m for v in nodes]
    terms = [p * math.log(v) if v > 0 else p for p, v in zip(power, nodes)]
    value, probe = _table(rows, np.reshape(terms, rows.shape), np.reshape(power, rows.shape))
    certified = np.abs(probe - [row.sum() for row in rows]) <= _PROBE_TOL
    out = np.where(value > 0.0, value, 0.0)
    prec = libmp.dps_to_prec(_DIGITS)
    bound = libmp.mpf_pow_int(libmp.from_int(10), 20 - _DIGITS, prec, "n")
    for j in np.nonzero(~certified)[0]:
        exact = [libmp.from_float(v) for v in nodes[j * m:(j + 1) * m]]
        # perfbench/inproc.py counts the calls to mpmath.workdps, once per row;
        # a process that has not imported mpmath does not import it for this
        with mp.workdps(_DIGITS) if mp else contextlib.nullcontext():
            value, probe = _mantissa_table(exact, prec)
            residual = libmp.mpf_sub(probe, libmp.mpf_sum(exact, prec, "n"), prec, "n")
        certain = libmp.mpf_lt(libmp.mpf_abs(residual, prec, "n"), bound)
        out[j] = max(0.0, libmp.to_float(value, rnd="n")) if certain else math.nan
    return out


def _mantissa_table(nodes: list, prec: int):
    """The scalar table at prec bits on distinct libmp nodes: (-[z_1,...,z_m]
    x^m ln x, [z_1,...,z_m] x^m) as libmp numbers.

    The node terms come from libmp. The table runs in place on signed
    mantissas and exponents of Python ints and rounds each step to nearest
    as libmp's `mpf_sub` and `mpf_div` do, so it holds exactly the values a
    table of `mpf` numbers holds.
    """
    libmp = _own_libmp()
    m = len(nodes)
    power = [libmp.mpf_pow_int(v, m, prec, "n") for v in nodes]
    terms = [libmp.mpf_mul(p, libmp.mpf_log(v, prec, "n"), prec, "n") if libmp.mpf_sign(v) > 0 else p
             for p, v in zip(power, nodes)]
    zm, cm, pm = ([-t[1] if t[0] else t[1] for t in c] for c in (nodes, terms, power))
    ze, ce, pe = ([t[2] for t in c] for c in (nodes, terms, power))
    columns = ((cm, ce), (pm, pe))
    for width in range(1, m):
        for i in range(m - width):
            # the span z[i + width] - z[i], shared by both columns
            a, ae, b, be = zm[i + width], ze[i + width], zm[i], ze[i]
            d, e = ((a << (ae - be)) - b, be) if ae > be else (a - (b << (be - ae)), ae)
            smag = -d if d < 0 else d
            shift = smag.bit_length() - prec
            if shift > 0:
                # to nearest, ties to even
                smag = (smag + (1 << (shift - 1)) - 1 + (smag >> shift & 1)) >> shift
                e += shift
            sneg, sbits, se = d < 0, smag.bit_length(), e
            for man, exp in columns:
                a, ae, b, be = man[i + 1], exp[i + 1], man[i], exp[i]
                d, e = ((a << (ae - be)) - b, be) if ae > be else (a - (b << (be - ae)), ae)
                if not d:
                    man[i] = exp[i] = 0
                    continue
                mag = -d if d < 0 else d
                shift = mag.bit_length() - prec
                if shift > 0:
                    mag = (mag + (1 << (shift - 1)) - 1 + (mag >> shift & 1)) >> shift
                    e += shift
                # mag and smag have at most prec significant bits, so their
                # quotient is exact in prec bits or has an infinite binary
                # expansion: it never falls half-way, and rounding half-up
                # from the first dropped bit rounds to nearest
                extra = prec + sbits - mag.bit_length() + 1
                q = (mag << extra) // smag
                shift = q.bit_length() - prec
                q = ((q >> (shift - 1)) + 1) >> 1
                man[i] = -q if (d < 0) != sneg else q
                exp[i] = e - se - extra + shift
    value = libmp.mpf_neg(libmp.from_man_exp(cm[0], ce[0]), prec, "n")
    return value, libmp.from_man_exp(pm[0], pe[0])


def _own_libmp():
    """The `libmp` package of the installed mpmath, loaded once on its own.

    `libmp` imports nothing from its parent package, so it loads under the
    private name `_LIBMP` without `mpmath` and its contexts: 4-7 ms and under
    1 MB of peak RSS in a worker, against 25-28 ms and 3-4 MB for `import
    mpmath`.
    It runs the same files as `mpmath.libmp`, so it gives the same results,
    in a process that has imported mpmath too. The load runs under a lock,
    so a thread never sees the module before it has run.
    """
    with _LIBMP_LOCK:
        module = sys.modules.get(_LIBMP)
        if module is not None:
            return module
        import importlib.util
        import os

        package = importlib.util.find_spec("mpmath")
        if package is None:
            raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
        directory = os.path.join(package.submodule_search_locations[0], "libmp")
        spec = importlib.util.spec_from_file_location(
            _LIBMP, os.path.join(directory, "__init__.py"), submodule_search_locations=[directory])
        module = importlib.util.module_from_spec(spec)
        sys.modules[_LIBMP] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_LIBMP]
            raise
        return module


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
