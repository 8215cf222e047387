"""Workload definitions and output checks for the subent benchmark.

A workload is a fixed sequence of `python -m subent` commands. Every
invocation's output is checked against oracles computed here, with
`fractions`, independently of the records' own `target` fields, and reduced
to a payload digest that must not depend on the worker count or the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

#: Monte Carlo rows may sit at most this many standard errors from the exact mean.
Z_LIMIT = 5.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments after `python -m subent`, and the
    number of records it must emit after the manifest."""

    argv: tuple[str, ...]
    rows: int


def _mc(argv: str, rows: int) -> Command:
    return Command(tuple(argv.split()), rows)


# Sizes keep each invocation near 1-2 s on two cores, so a 25 s run holds
# at least eleven invocations and the tail percentile has ten samples beyond it.
# The tails commands draw enough samples that sampling, not interpreter
# start-up, is about half of each invocation.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "mc-all-m16": (
        _mc("estimate --m 16 --n 16 --which all --samples 3072 --chunk 768", 3),
    ),
    "subentropy-m32": (
        _mc("estimate --m 32 --n 32 --which subentropy --samples 128 --chunk 32", 1),
    ),
    "exact-verify": (
        _mc("formula --m-range 1..40 --n-range 1..40", 820),
        _mc("identities --max-m 20 --max-n 20 --quadrature", 658),
    ),
    "tails-small-m": (
        _mc("entangle --m 4 --n 8 --samples 49152 --chunk 256", 4),
        _mc("concentration --m-range 2..12 --samples 4096 --chunk 256", 11),
    ),
}


class CheckError(Exception):
    """An invocation's output failed a check."""


_HARMONICS = [Fraction(0)]


def _harmonic(k: int) -> Fraction:
    while len(_HARMONICS) <= k:
        _HARMONICS.append(_HARMONICS[-1] + Fraction(1, len(_HARMONICS)))
    return _HARMONICS[k]


def exact_mean(which: str, m: int, n: int) -> Fraction:
    """Exact average of a functional over the (m, n) induced measure."""
    if which == "subentropy":
        return 1 + _harmonic(m * n) - _harmonic(m) - _harmonic(n)
    if which == "entropy":
        return _harmonic(m * n) - _harmonic(n) - Fraction(m - 1, 2 * n)
    if which == "coherence":
        return Fraction(m - 1, 2 * n)
    raise CheckError(f"unknown functional {which!r}")


def _finite(row: dict, key: str) -> float:
    value = row[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise CheckError(f"{key} is not a finite number: {value!r}")
    return float(value)


def _near(row: dict, target: Fraction) -> int:
    """Mean within Z_LIMIT standard errors of the exact target; returns the count."""
    mean, stderr = _finite(row, "mean"), _finite(row, "stderr")
    if stderr <= 0.0:
        raise CheckError(f"stderr {stderr!r} is not positive")
    z = (mean - float(target)) / stderr
    if abs(z) > Z_LIMIT:
        raise CheckError(f"{row['record']} m={row['m']} n={row['n']} is {z:.2f} stderr off {target}")
    return int(row["count"])


def _estimate(row: dict) -> int:
    if row["count"] != row["samples"]:
        raise CheckError("estimate count differs from samples")
    return _near(row, exact_mean(row["which"], row["m"], row["n"]))


def _entanglement(row: dict) -> int:
    if row["count"] != row["samples"]:
        raise CheckError("entanglement count differs from samples")
    return _near(row, exact_mean("coherence", row["m"], row["n"]))


def _concentration(row: dict) -> int:
    if row["n"] != row["m"]:
        raise CheckError("the sweep runs at n = m")
    return _near(row, exact_mean("coherence", row["m"], row["m"]))


def _tail(row: dict) -> int:
    fraction, bound = _finite(row, "empirical_fraction"), _finite(row, "levy_bound")
    if row["ok"] is not True or fraction > min(1.0, bound):
        raise CheckError(f"tail eps={row['epsilon']} exceeds its bound")
    return int(row["count"])


def _formula(row: dict) -> int:
    m, n = row["m"], row["n"]
    for which in ("subentropy", "entropy", "coherence"):
        target = exact_mean(which, m, n)
        if Fraction(row[f"avg_{which}"]) != target or row[f"avg_{which}_float"] != float(target):
            raise CheckError(f"formula avg_{which} at m={m} n={n} is not {target}")
    if row["series_residual"] != "0" or row["consistency_residual"] != "0":
        raise CheckError(f"formula residual at m={m} n={n} is not zero")
    return 1


def _identity(row: dict) -> int:
    if row["holds"] is not True or Fraction(row["lhs"]) != Fraction(row["rhs"]):
        raise CheckError(f"identity {row['name']} fails at m={row['m']} n={row['n']}")
    return 1


def _quadrature(row: dict) -> int:
    value, closed = _finite(row, "value"), _finite(row, "closed_form")
    if row["ok"] is not True or abs(value - closed) > row["tolerance"] * abs(closed):
        raise CheckError(f"quadrature {row['name']} m={row['m']} alpha={row['alpha']} is off")
    return 1


_ROW_CHECKS = {
    "estimate": _estimate,
    "entanglement": _entanglement,
    "concentration": _concentration,
    "tail": _tail,
    "formula": _formula,
    "identity": _identity,
    "quadrature": _quadrature,
}


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def _split(data: bytes) -> tuple[dict, bytes]:
    head, _, body = data.partition(b"\n")
    try:
        manifest = json.loads(head, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"manifest is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("record") != "manifest":
        raise CheckError("the first record is not a manifest")
    return manifest, body


def payload_digest(data: bytes) -> str:
    """SHA-256 of the payload: the manifest without its timestamps, then
    every line after it, byte for byte."""
    manifest, body = _split(data)
    stable = {k: v for k, v in manifest.items() if k not in ("started", "finished")}
    head = json.dumps(stable, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(head + b"\n" + body).hexdigest()


def check_output(command: Command, seed: int, data: bytes) -> int:
    """Check one invocation's output; return the work it verified.

    Work is samples times functionals for Monte Carlo records (the tail
    rows of one invocation share one functional) and one per exact record.
    """
    manifest, body = _split(data)
    if manifest.get("command") != command.argv[0] or manifest.get("seed") != seed:
        raise CheckError("the manifest names another command or seed")
    lines = body.splitlines()
    if len(lines) != command.rows:
        raise CheckError(f"{len(lines)} records after the manifest, expected {command.rows}")
    work, tail_counted = 0, False
    for number, line in enumerate(lines, 2):
        try:
            row = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise CheckError(f"line {number} is not JSON: {exc}") from None
        kind = row.get("record") if isinstance(row, dict) else None
        if kind not in _ROW_CHECKS:
            raise CheckError(f"line {number} has unknown record {kind!r}")
        try:
            amount = _ROW_CHECKS[kind](row)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CheckError(f"line {number} is a malformed {kind} record: {exc!r}") from None
        if kind == "tail":
            work += 0 if tail_counted else amount
            tail_counted = True
        else:
            work += amount
    return work
