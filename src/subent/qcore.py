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
_PREC = 136                  # its bits, libmp.dps_to_prec(_DIGITS)
_POWER_FLOOR = 2.0**-1000    # smallest nonzero float x^m the a priori probe bound counts on
_DD_POWER_FLOOR = 2.0**-900  # smallest nonzero float x^m the double-double bound counts on
_SMALLEST_NORMAL = 2.0**-1022
_VELTKAMP = 2.0**27 + 1.0    # splits a float into two 26-bit halves
_SQRT_HALF = math.sqrt(0.5)
_LN2_HIGH = float.fromhex("0x1.62e42fefa39efp-1")    # ln 2 = high + low to 2^-109
_LN2_LOW = float.fromhex("0x1.abc9e3b39803fp-56")
_LIBMP = "_subent_libmp"     # module name of mpmath's libmp, loaded without mpmath
_LIBMP_LOCK = threading.Lock()


def _reciprocal_pair(d: int) -> tuple[float, float]:
    """1/d as a double-double (high, low) off by at most 2^-106 / d: Python's
    int / int division rounds correctly."""
    high = 1.0 / d
    num, den = high.as_integer_ratio()
    return high, (den - num * d) / (den * d)


# coefficients 1/(2k+1) of the atanh series in s^2, k = 0 .. 20
_ATANH = [_reciprocal_pair(2 * k + 1) for k in range(21)]


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
    # a probe error that is not a number (the table overflowed) fails too
    failing = plain[~(probe_error <= _PROBE_TOL)]
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
    terms `col` (x^m ln x) and `probe` (x^m) at the distinct nodes z.
    A row with a tight cluster may overflow to inf or nan, which its probe
    then fails, so the overflow raises no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
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

    The rows it leaves take the 40-digit pass: one `_mantissa_table` at
    `_PREC` bits, certified when its x^m probe matches the node sum to
    1e-20; the probe's node sum and bound and the final float come from
    mpmath's `libmp`, which `_own_libmp` loads without the rest of mpmath.
    A row whose `_probe_error_bound` is below half of 1e-20 would pass that
    test whatever its rounding, so its pass needs only the value column,
    and its output is the value column rounded to a float. Such a row is
    first run through `_double_double_table`: where the double-double value
    h + l and its bound E show that the 136-bit value rounds to h, the row
    gets h without loading libmp. A row the 40-digit pass does not certify
    (a tight cluster, or many induced rows from m = 80 on) is left nan for
    the integral form, which is accurate to about 1e-14 on any row.
    """
    mp = sys.modules.get("mpmath")
    m = rows.shape[1]
    nodes = rows.ravel().tolist()
    power = [v**m for v in nodes]
    terms = [p * math.log(v) if v > 0 else p for p, v in zip(power, nodes)]
    power, terms = np.reshape(power, rows.shape), np.reshape(terms, rows.shape)
    value, probe = _table(rows, terms, power)
    certified = np.abs(probe - [row.sum() for row in rows]) <= _PROBE_TOL
    out = np.where(value > 0.0, value, 0.0)
    bounded = _probe_error_bound(rows, power, _PREC) < 0.5 * 10.0 ** (20 - _DIGITS)
    screen = np.nonzero(~certified & bounded)[0]
    settled = np.zeros(len(rows), dtype=bool)
    if screen.size:
        high, low, error = _double_double_table(rows[screen], power[screen], terms[screen])
        passed = _rounds_to_high(high, low, error)
        out[screen[passed]] = high[passed]
        settled[screen[passed]] = True
    for j in np.nonzero(~certified)[0]:
        # perfbench/inproc.py counts the calls to mpmath.workdps, once per row
        # past the float pass; a process that has not imported mpmath does not
        # import it for this
        with mp.workdps(_DIGITS) if mp else contextlib.nullcontext():
            if settled[j]:
                continue
            libmp = _own_libmp()
            exact = [libmp.from_float(v) for v in nodes[j * m:(j + 1) * m]]
            if bounded[j]:
                value, certain = _mantissa_table(exact, _PREC, probe=False)[0], True
            else:
                value, probe = _mantissa_table(exact, _PREC)
                residual = libmp.mpf_sub(probe, libmp.mpf_sum(exact, _PREC, "n"), _PREC, "n")
                bound = libmp.mpf_pow_int(libmp.from_int(10), 20 - _DIGITS, _PREC, "n")
                certain = libmp.mpf_lt(libmp.mpf_abs(residual, _PREC, "n"), bound)
        out[j] = max(0.0, libmp.to_float(value, rnd="n")) if certain else math.nan
    return out


def _probe_error_bound(z: np.ndarray, power: np.ndarray, prec: int) -> np.ndarray:
    """Row-wise bound on |probe - sum(z)| for `_mantissa_table` at prec bits
    on the nodes z, from their float x^m `power`, before the table runs; inf
    for a row with a nonzero float x^m below `_POWER_FLOOR`, which may have
    underflowed.

    Let u = 2^-prec, P_i^w the exact divided difference of x^m at the nodes
    z_i .. z_(i+w) (so P_0^(m-1) = sum(z)), p_i^w the table's entry, and
    A_i^w the same recurrence run on |z_i^m| with |spans| and sums in place
    of differences, A_i^w = (A_(i+1)^(w-1) + A_i^(w-1)) / |z_(i+w) - z_i|,
    so that |P_i^w| <= A_i^w. Each step rounds the span, the difference and
    the quotient to nearest, so p_i^w = (p_(i+1)^(w-1) - p_i^(w-1)) /
    (z_(i+w) - z_i) * (1 + t) with |t| <= g = 3u / (1 - 3u); `mpf_pow_int`
    gives p_i^0 = z_i^m (1 + e) with |e| <= eta = 2u (one rounding after a
    binary powering carried at prec + 4 bitlength(m) + 4 bits). Induction on
    the width w (running error analysis as in Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002) gives

        |p_i^w - P_i^w| <= c_w A_i^w,  1 + c_w = (1 + g)^w (1 + eta):

    the step's error is the two errors above it divided by the span, at most
    c_(w-1) A_i^w, plus t times the computed quotient, at most
    g (1 + c_(w-1)) A_i^w because |p^(w-1)| <= |P^(w-1)| + c_(w-1) A^(w-1).
    At w = m - 1, x = (m - 1) g + eta <= 3m u, and c_(m-1) <= e^x - 1 <= 2x
    <= 6m u while x <= 1/2. The bound returned, 2 (3m + 2 bitlength(m) + 4)
    u A_0^(m-1) with A evaluated in floats, is above c_(m-1) A_0^(m-1): the
    extra terms cover the float rounding of A (3 (m - 1) steps of 2^-53
    each, and libm's x^m), which holds while every nonzero float x^m is
    normal. With the node sum rounded to prec bits (error below 2u sum(z))
    and the residual rounded once more, a bound below half of 1e-20 makes
    the full table's residual test at 1e-20 pass.
    """
    normal = ((np.abs(power) >= _POWER_FLOOR) | (z == 0.0)).all(axis=1)
    m = z.shape[1]
    bound = 2 * (3 * m + 2 * m.bit_length() + 4) * 2.0**-prec * _magnitude_table(z, np.abs(power))
    return np.where(normal, bound, np.inf)


def _magnitude_table(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise top entry of the divided difference recurrence run on the
    magnitudes `a` with |spans| and sums in place of differences: a bound on
    the magnitude of every entry of a table on node terms of magnitude `a`
    at the nodes z (inf where it overflows)."""
    with np.errstate(over="ignore"):
        for width in range(1, z.shape[1]):
            a = (a[:, 1:] + a[:, :-1]) / np.abs(z[:, width:] - z[:, :-width])
    return a[:, 0]


def _double_double_table(z: np.ndarray, power: np.ndarray, terms: np.ndarray):
    """(h, l, E) row-wise for rows z of distinct nodes in [0, 1] whose 40-digit
    pass would run the value column alone: h + l, a normalized double-double,
    is -[z_1,...,z_m] x^m ln x, and E bounds its distance, and that of the
    value column of `_mantissa_table` at `_PREC` bits, from the exact
    divided difference D at the float nodes. E is inf on a row outside the
    bound's precondition: a negative node, a nonzero float x^m (`power`)
    below `_DD_POWER_FLOOR`, or a magnitude table of the float x^m ln x
    (`terms`) that is not below 2^900.

    The node terms come from `_dd_power` and `_dd_log`, and the table runs
    the recurrence of `_table` with exact spans (`_two_sum` of two nodes),
    `_dd_add` differences and `_dd_div` quotients. Let v = 2^-53. Joldes,
    Muller and Popescu (ACM TOMS 44, 2017) bound the relative errors of
    `_dd_add`, `_dd_div`, `_dd_mul` and `_dd_mul_float` by 3v^2 + O(v^3),
    15v^2 + 56v^3, 7v^2 and 3v^2/2 + 4v^3, for normalized operands and
    results clear of underflow and overflow; this proof allows 4v^2, 16v^2,
    8v^2 and 2v^2, and keeps first-order terms in v^2 (the rest are below
    2^-200 relative).

    - x^m: a value x^k of the binary powering carries at most k - 1
      product errors, so x^m is off by (1 + 8v^2)^(m-1) - 1 at most.
    - ln x: x = f 2^e with f in [1/sqrt 2, sqrt 2), so s = (f - 1)/(f + 1)
      has |s| <= 3 - 2 sqrt 2 and y = s^2 <= 0.02944. f - 1 is exact
      (Sterbenz) and f + 1 is exact as a `_two_sum`, so s is off by 16v^2,
      y by 2 * 16v^2 + 8v^2 = 40v^2 and each coefficient 1/(2k+1) of
      P(y) = sum_(k=0..20) y^k / (2k+1) by v^2. All quantities in Horner's
      scheme are positive, so the term of degree k carries its
      coefficient's error, k errors of y and k of the product and at most
      k + 1 of the addition, (52k + 5) v^2 in all; with P >= 1 and
      coefficients at most 1, P is off by at most 5v^2 + sum_(k>=1) (52k +
      5) v^2 y^k < 7v^2. The series' tail is below y^21 / 43 / (1 - y) <
      2^-112, so 2 s P is off from ln f by 16v^2 + 7v^2 + 8v^2 < 33v^2. The
      pair for ln 2 is off by 2^-109, so e ln 2 is off by 3v^2, and where
      e != 0, |ln f| <= ln sqrt 2 is at most half of |e ln 2|, so |e ln 2| +
      |ln f| <= 3 |ln x| and ln x is off by 3 * 33v^2 + 4v^2 <= 104v^2.
    - x^m ln x is then off by eta = 8(m - 1) v^2 + 104v^2 + 8v^2 at most.

    The table: a step rounds the difference and the quotient, g = 4v^2 +
    16v^2, plus at most 2^-116 for underflow (below). The induction of
    `_probe_error_bound`, on the value column and with the magnitude table
    Â of |x^m ln x| (`_magnitude_table`) for A, gives |h + l - D| <= c Â
    with c = (m - 1) g + eta <= (29m + 96) v^2. The 136-bit table has u =
    2^-136, g = 3u / (1 - 3u) and node terms off by 2u + 4u + u (libmp's
    `mpf_pow_int`, `mpf_log`, which rounds once after working with guard
    bits, and `mpf_mul`), so c_136 <= 2 ((m - 1) g + 7u) <= (6m + 16) u. E
    is (c + c_136) times the float Â, times 1 + 2^-8, which covers the
    rounding of Â (at most 3m + 5 roundings of 2^-53), of E and of |l| + E.

    Underflow: every node is at most 1 and every nonzero float x^m at least
    2^-900, so a nonzero node term is at least 2^-954 in magnitude and Â_i^w
    for w >= 1 at least 2^-954 / |z_(i+w) - z_i| unless its entry is an
    exact zero. A low-order product or quotient that underflows adds at
    most 2^-1070 / |z_(i+w) - z_i| to the entry, less than 2^-116 Â_i^w,
    and `_dd_log` and `_dd_power` work on values above 2^-960. Overflow: Â
    < 2^900 keeps every entry, and each Veltkamp split of one, finite.
    """
    m = z.shape[1]
    magnitude = _magnitude_table(z, np.abs(terms))
    eligible = ((z >= 0.0) & ((power >= _DD_POWER_FLOOR) | (z == 0.0))).all(axis=1)
    eligible &= magnitude < 2.0**900
    error = np.where(eligible, ((29 * m + 96) * 2.0**-106 + (6 * m + 16) * 2.0**-_PREC)
                     * (1 + 2.0**-8) * magnitude, np.inf)
    z = z[eligible]
    ph, pl = _dd_power(z, m)
    lh, ll = _dd_log(np.where(z > 0.0, z, 1.0))
    vh, vl = _dd_mul(ph, pl, lh, ll)
    for width in range(1, m):
        sh, sl = _two_sum(z[:, width:], -z[:, :-width])
        dh, dl = _dd_add(vh[:, 1:], vl[:, 1:], -vh[:, :-1], -vl[:, :-1])
        vh, vl = _dd_div(dh, dl, sh, sl)
    high, low = np.full(len(error), np.nan), np.full(len(error), np.nan)
    high[eligible], low[eligible] = -vh[:, 0], -vl[:, 0]
    return high, low, error


def _rounds_to_high(high: np.ndarray, low: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Rows where every real within `error` of high + low rounds to `high`, a
    float above the smallest normal one (so that no such real is subnormal):
    |low| + error is below half the gap from `high` down to the next float,
    which is no wider than the gap up."""
    gap = high - np.nextafter(high, 0.0)
    return (high > _SMALLEST_NORMAL) & (np.abs(low) + error < 0.5 * gap)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _fast_two_sum(a, b):
    """(s, e) with s + e = a + b exactly, for |a| >= |b| or a = 0 (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly, by Veltkamp's split
    (Dekker), barring underflow of e."""
    p = a * b
    c = _VELTKAMP * a
    ah = c - (c - a)
    c = _VELTKAMP * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    """x + y for double-doubles (AccurateDWPlusDW of Joldes, Muller and Popescu)."""
    sh, sl = _two_sum(xh, yh)
    th, tl = _two_sum(xl, yl)
    sh, sl = _fast_two_sum(sh, sl + th)
    return _fast_two_sum(sh, sl + tl)


def _dd_mul(xh, xl, yh, yl):
    """x y for double-doubles (DWTimesDW1 of Joldes, Muller and Popescu)."""
    ch, cl = _two_prod(xh, yh)
    return _fast_two_sum(ch, cl + (xh * yl + xl * yh))


def _dd_mul_float(xh, xl, y):
    """x y for a double-double x and a float y (DWTimesFP1)."""
    ch, cl = _two_prod(xh, y)
    th, tl = _fast_two_sum(ch, xl * y)
    return _fast_two_sum(th, tl + cl)


def _dd_div(xh, xl, yh, yl):
    """x / y for double-doubles (DWDivDW2 of Joldes, Muller and Popescu)."""
    th = xh / yh
    rh, rl = _dd_mul_float(yh, yl, th)
    return _fast_two_sum(th, ((xh - rh) + (xl - rl)) / yh)


def _dd_power(x: np.ndarray, m: int):
    """x^m as a double-double, by binary powering from the float x."""
    bh, bl = x, np.zeros_like(x)
    ph = pl = None
    while True:
        if m & 1:
            ph, pl = (bh, bl) if ph is None else _dd_mul(ph, pl, bh, bl)
        m >>= 1
        if not m:
            return ph, pl
        bh, bl = _dd_mul(bh, bl, bh, bl)


def _dd_log(x: np.ndarray):
    """ln x as a double-double for positive floats x: x = f 2^e with f in
    [1/sqrt 2, sqrt 2), and ln f = 2 s P(s^2) with s = (f - 1)/(f + 1) and P
    the atanh series to degree `len(_ATANH) - 1` in s^2, by Horner."""
    f, e = np.frexp(x)
    low = f < _SQRT_HALF
    f = np.where(low, 2.0 * f, f)
    e = (e - low).astype(float)
    sh, sl = _dd_div(f - 1.0, np.zeros_like(f), *_two_sum(f, 1.0))
    yh, yl = _dd_mul(sh, sl, sh, sl)
    ph, pl = _ATANH[-1]
    for ch, cl in reversed(_ATANH[:-1]):
        ph, pl = _dd_add(*_dd_mul(ph, pl, yh, yl), ch, cl)
    ph, pl = _dd_mul(sh, sl, ph, pl)
    return _dd_add(*_dd_mul_float(_LN2_HIGH, _LN2_LOW, e), 2.0 * ph, 2.0 * pl)


def _mantissa_table(nodes: list, prec: int, probe: bool = True):
    """The scalar table at prec bits on distinct libmp nodes: (-[z_1,...,z_m]
    x^m ln x, [z_1,...,z_m] x^m) as libmp numbers, or (-[z_1,...,z_m] x^m ln x,
    None) without the probe column.

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
    columns = ((cm, ce), (pm, pe)) if probe else ((cm, ce),)
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
    return value, libmp.from_man_exp(pm[0], pe[0]) if probe else None


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
