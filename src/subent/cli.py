"""Command-line front end: closed forms, estimators, identity sweeps, reports.

Output is a record stream (JSON lines or CSV) whose first record is the run
manifest; all numeric payload below the manifest is reproduced byte for byte
by any rerun with an equal manifest, independent of the worker count.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 bound or
identity violation (some record has `ok` or `holds` false, or a
`series_residual` or `consistency_residual` other than "0").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# `montecarlo` and `entangle` (numpy, mpmath) are imported inside the commands
# that draw samples, so `formula` and `identities` start without them.
from . import DEFAULT_CHUNK, __version__, closedform, identities
from .errors import DomainError, SubentError
from .pool import run_ordered, usable_cpus

ENV_PREFIX = "SUBENT_"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

QUADRATURE_ALPHAS = (1.0, 1.5, 2.0, 3.0)
_DEFAULT_EPS = "0.05,0.1,0.2"
# formula's exact work, in units of (pairs + 1) * mn^2 for the largest mn: each
# pair reduces its fractions over L = lcm(1 .. mn), about 1.44 mn bits, by
# quadratic gcds, and the harmonic sum costs about one pair more. A unit
# took 6-15 ns on a 2-core host, so this limit is a run of at most about a minute.
_FORMULA_WORK = 4 * 10**12
# identities' exact work, in units of (pairs + 1) * (m + n) * (m + isqrt(n))^2 for
# the largest m and n: fitted to 17 sweeps from 20 x 20 to 180 x 180 and 1 x 4000,
# where a unit took 0.2-0.8 ns on a 2-core host, so this limit is also a run of
# at most about a minute.
_IDENTITIES_WORK = 8 * 10**10
# concentration's sampling work, in units of samples * sum((m + 10)^3) over the
# swept m, plus _CHUNK_WORK per chunk: G G^dagger and eigvalsh grow as m^3, the 10
# charges the fixed cost of a sample that dominates small m (samples * sum(m^3)
# alone let an m = 2..3 sweep of 10^9 samples run for about half an hour), and a
# chunk's own stream, arrays and summary took 50-120 us (without that term a
# --chunk 1 sweep could run for tens of minutes). A unit took 0.4-1.2 ns on a
# 2-core host at the default chunk, from 2..2 at 10^6 samples to 2..400 at 2, so
# this limit too is a run of at most about a minute.
_CONCENTRATION_WORK = 5 * 10**10
_CHUNK_WORK = 10**5


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


# ----------------------------------------------------------------------------
# serialization: floats always carry 17 significant digits; JSON has no
# non-finite numbers, so those are written there as null


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


_escape = json.encoder.encode_basestring_ascii  # what json.dumps makes of a str


class _JsonKeys(dict):
    """'"key":' for each key of one stream, encoded on first use."""

    def __missing__(self, key) -> str:
        text = self[key] = _escape(str(key)) + ":"
        return text


def _json_value(value, keys: _JsonKeys) -> str:
    encode = _JSON_ENCODERS.get(type(value))
    if encode is None:  # a subclass, such as a numpy float
        encode = next((f for kind, f in _JSON_ENCODERS.items() if isinstance(value, kind)), None)
        if encode is None:
            raise TypeError(f"cannot serialize {type(value)!r}")
    return encode(value, keys)


def _json_object(value: dict, keys: _JsonKeys) -> str:
    return "{" + ",".join([keys[k] + _json_value(v, keys) for k, v in value.items()]) + "}"


def _json_array(value, keys: _JsonKeys) -> str:
    return "[" + ",".join([_json_value(v, keys) for v in value]) + "]"


# by exact type; the order is the isinstance order for subclasses (bool before int)
_JSON_ENCODERS = {
    type(None): lambda value, keys: "null",
    bool: lambda value, keys: "true" if value else "false",
    float: lambda value, keys: _fmt_float(value) if math.isfinite(value) else "null",
    int: lambda value, keys: str(value),
    str: lambda value, keys: _escape(value),
    dict: _json_object,
    list: _json_array,
    tuple: _json_array,
}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(stream, manifest: dict, rows: list[dict], fmt: str) -> None:
    """Write the manifest, then one line per record; each key is encoded once."""
    keys, write = _JsonKeys(), stream.write
    if fmt == "json":
        write(_json_value(manifest, keys) + "\n")
        for row in rows:
            write(_json_value(row, keys) + "\n")
        return
    write("# manifest: " + _json_value(manifest, keys) + "\n")
    fields = list(dict.fromkeys(key for row in rows for key in row))
    write(",".join(fields) + "\n")
    for row in rows:
        write(",".join([_csv_cell(row.get(key)) for key in fields]) + "\n")


# ----------------------------------------------------------------------------
# settings: flag > environment > config file > default

_CONFIG_KEYS = ("seed", "chunk", "format", "workers")


def _load_config(path: str) -> dict:
    settings: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"malformed config line: {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"unknown config key {key!r} in {path}; "
                                     f"known keys: {', '.join(_CONFIG_KEYS)}")
                settings[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return settings


def _resolve(flag_value, env_name, config: dict, key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if env_name is not None:
        env_value = os.environ.get(ENV_PREFIX + env_name)
        if env_value is not None:
            try:
                return cast(env_value)
            except ValueError as exc:
                raise UsageError(f"bad {ENV_PREFIX}{env_name}: {env_value!r}") from exc
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise UsageError(f"bad config value for {key}: {config[key]!r}") from exc
    return default


def _parse_range(flag: str, text: str) -> range:
    """The integers of `--flag A..B`, not listed; a count past the largest
    list is a DomainError naming the flag."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"ranges look like A..B, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"ranges need integer endpoints, got {text!r}") from exc
    if lo_i > hi_i or lo_i < 1:
        raise UsageError(f"empty or invalid range {text!r}")
    if hi_i - lo_i + 1 > sys.maxsize:
        raise DomainError(f"--{flag} holds {hi_i - lo_i + 1} values, too many to list")
    return range(lo_i, hi_i + 1)


def _parse_eps(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad epsilon list {text!r}") from exc
    if not values or not all(math.isfinite(e) and e > 0 for e in values):
        raise UsageError("epsilons must be a comma list of positive finite numbers")
    return values


def _check_pair(args, command: str, min_m: int) -> None:
    if args.m is None or args.n is None:
        raise UsageError(f"{command} needs --m and --n")
    if args.m < min_m:
        raise UsageError(f"{command} needs m >= {min_m}")
    if args.m > args.n:
        raise UsageError("need m <= n")


def _z_score(mean: float, target: float, stderr: float) -> float:
    if stderr == 0.0:
        if mean == target:
            return 0.0
        return float("inf") if mean > target else float("-inf")
    return (mean - target) / stderr


def _average_row(head: dict, args, est, target) -> dict:
    """A Monte Carlo average next to its exact target; `head` leads the record."""
    return {
        **head,
        "m": args.m,
        "n": args.n,
        "samples": args.samples,
        "mean": est.mean,
        "variance": est.variance,
        "stderr": est.stderr,
        "count": est.count,
        "target": str(target),
        "target_float": float(target),
        "z": _z_score(est.mean, float(target), est.stderr),
    }


def _tail_rows(m: int, n: int, reports) -> list[dict]:
    """One record per tail report; `ok` is false where a fraction exceeds its bound."""
    return [
        {
            "record": "tail",
            "m": m,
            "n": n,
            "epsilon": report.epsilon,
            "center": report.center,
            "empirical_fraction": report.empirical_fraction,
            "levy_bound": report.levy_bound,
            "count": report.count,
            "ok": report.empirical_fraction <= min(1.0, report.levy_bound),
        }
        for report in reports
    ]


# ----------------------------------------------------------------------------
# commands


def _reject_overridden(args, range_flag: str, flags) -> None:
    """A range replaces these flags, so giving both is a usage error."""
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise UsageError(f"--{range_flag} replaces {' and '.join(given)}; give one or the other")


def _cmd_formula(args, settings) -> list[dict]:
    if args.m_range:
        _reject_overridden(args, "m-range", ("m",))
    if args.n_range:
        _reject_overridden(args, "n-range", ("n",))
    if args.m_range or args.n_range:
        if (args.m_range or args.m) is None or (args.n_range or args.n) is None:
            raise UsageError("sweeps need both --m/--m-range and --n/--n-range")
        ms = _parse_range("m-range", args.m_range) if args.m_range else _single("m", args.m)
        ns = _parse_range("n-range", args.n_range) if args.n_range else _single("n", args.n)
    else:
        _check_pair(args, "formula (without ranges)", 1)
        ms, ns = range(args.m, args.m + 1), range(args.n, args.n + 1)
    # The work is bounded from the ends of the ranges, before any pair is
    # listed. The pairs m <= n have m up to top_m; an m up to ns.start pairs
    # with all of ns, a larger one with the last_n - m + 1 values from m on.
    top_m, last_n = min(ms.stop, ns.stop) - 1, ns.stop - 1
    if top_m < ms.start:
        raise UsageError("the ranges hold no pair with m <= n")
    low = max(0, min(top_m, ns.start) - ms.start + 1)
    first = max(ms.start, ns.start + 1)
    high = max(0, top_m - first + 1)
    count = low * len(ns) + high * (last_n + 1) - (first + top_m) * high // 2
    top = top_m * last_n
    work = (count + 1) * top**2
    if work > _FORMULA_WORK:
        raise DomainError(f"{count} formula pairs up to mn = {top} are too much exact "
                          f"arithmetic: (pairs + 1) * mn^2 = {work} > {_FORMULA_WORK}")
    pairs = [(m, n) for m in range(ms.start, top_m + 1) for n in range(max(m, ns.start), ns.stop)]
    # Every average is an integer numerator over one harmonic denominator L
    # (2nL for the entropy); each printed value is reduced once.
    a, den = closedform.harmonic_numerators(
        {k for m, n in pairs for k in (m * n, m, *range(n, m + n))})
    rows = []
    for m, n in pairs:
        mn, twice_n = m * n, 2 * n
        sub = den + a[mn] - a[m] - a[n]
        ent = twice_n * (a[mn] - a[n]) - (m - 1) * den
        series = closedform.subentropy_series_numerator(m, n, a)  # over mn L
        series_residual = series - mn * sub
        # (H_m - 1) + sub - ent - coh over 2nL; coh = (m-1)/(2n) is (m-1)L there
        consistency = twice_n * (a[m] - den + sub) - ent - (m - 1) * den
        sub_text, sub_float = _reduced(sub, den)
        ent_text, ent_float = _reduced(ent, twice_n * den)
        coh_text, coh_float = _reduced(m - 1, twice_n)
        if series_residual:
            series_text, series_float = _reduced(series, mn * den)
        else:
            series_text, series_float = sub_text, sub_float
        rows.append(
            {
                "record": "formula",
                "m": m,
                "n": n,
                "avg_subentropy": sub_text,
                "avg_subentropy_float": sub_float,
                "avg_entropy": ent_text,
                "avg_entropy_float": ent_float,
                "avg_coherence": coh_text,
                "avg_coherence_float": coh_float,
                "series": series_text,
                "series_float": series_float,
                "series_residual": _reduced(series_residual, mn * den)[0],
                "consistency_residual": _reduced(consistency, twice_n * den)[0],
            }
        )
    return rows


def _single(flag: str, value: int) -> range:
    """The one value of the flag a range replaces, as a range."""
    if value < 1:
        raise UsageError(f"--{flag} must be >= 1 in a sweep")
    return range(value, value + 1)


def _reduced(numerator: int, denominator: int) -> tuple[str, float]:
    """numerator / denominator as `str(Fraction)` writes it ("0" for zero), and as a float."""
    g = math.gcd(numerator, denominator)
    p, q = numerator // g, denominator // g
    return (str(p) if q == 1 else f"{p}/{q}"), p / q


_TARGETS = {
    "entropy": closedform.average_entropy_exact,
    "subentropy": closedform.average_subentropy_exact,
    "coherence": closedform.average_coherence_exact,
}


def _cmd_estimate(args, settings) -> list[dict]:
    from . import montecarlo

    _check_pair(args, "estimate", 1)
    if args.samples < 2:
        raise UsageError("--samples must be >= 2")
    seed, chunking = settings["seed"], {"chunk": settings["chunk"], "workers": settings["workers"]}
    if args.which == "all":
        estimates, _ = montecarlo.estimate_induced(
            args.m, args.n, args.samples, seed, tuple(_TARGETS), **chunking)
    else:
        estimates = {args.which: montecarlo.estimate_functional(
            args.m, args.n, args.which, args.samples, seed, **chunking)}
    return [
        _average_row({"record": "estimate", "which": which}, args, est,
                     _TARGETS[which](args.m, args.n))
        for which, est in estimates.items()
    ]


def _cmd_concentration(args, settings) -> list[dict]:
    from . import montecarlo

    if args.samples < 2:
        raise UsageError("--samples must be >= 2")
    epsilons = _parse_eps(args.eps)
    if args.m_range:
        _reject_overridden(args, "m-range", ("m", "n"))
        ms = _parse_range("m-range", args.m_range)
        if ms.start < 2:
            raise UsageError("sweep dimensions must be >= 2")
        # bounded from the range ends, before any task is listed: the sum of
        # (m + 10)^3 is that of k^3 for low < k <= high, and sum(k^3, k <= n)
        # is (n (n + 1))^2 / 4
        low, high = ms.start + 9, ms.stop + 9
        chunks = (ms.stop - ms.start) * -(-args.samples // settings["chunk"])
        work = (args.samples * ((high * (high + 1))**2 - (low * (low + 1))**2) // 4
                + _CHUNK_WORK * chunks)
        if work > _CONCENTRATION_WORK:
            raise DomainError(f"--m-range {ms.start}..{ms.stop - 1} at {args.samples} samples in "
                              f"{chunks} chunks is too much sampling: samples * sum((m + 10)^3) + "
                              f"{_CHUNK_WORK} * chunks = {work} > {_CONCENTRATION_WORK}")
        return [
            {
                "record": "concentration",
                "m": row.m,
                "n": row.m,
                "samples": args.samples,
                "mean": row.mean,
                "stddev": row.stddev,
                "stderr": row.stderr,
                "count": row.count,
                "target_float": row.target,
            }
            for row in montecarlo.concentration_sweep(
                ms, args.samples, settings["seed"],
                chunk=settings["chunk"], workers=settings["workers"],
            )
        ]
    _check_pair(args, "concentration (without --m-range)", 3)
    return _tail_rows(args.m, args.n, montecarlo.tail_experiment(
        args.m, args.n, epsilons, args.samples, settings["seed"],
        chunk=settings["chunk"], workers=settings["workers"],
    ))


def _cmd_identities(args, settings) -> list[dict]:
    if args.max_m < 1 or args.max_n < 1:
        raise UsageError("--max-m and --max-n must be >= 1")
    if args.max_m > args.max_n:
        # every pair has m <= n, so m above --max-n would be dropped unchecked
        raise UsageError("--max-m must not exceed --max-n")
    # (m, k, alpha): k = 0 is the Selberg integral, recorded with k null, and
    # k >= 1 its Aomoto moments
    integrals = [(m, k, alpha) for m in sorted(identities.QUADRATURE_TARGETS)
                 for alpha in QUADRATURE_ALPHAS for k in range(m + 1)] if args.quadrature else []
    # rows m = 1 .. max_m of max_n - m + 1 pairs each, bounded before they are listed
    count = args.max_m * (2 * args.max_n - args.max_m + 1) // 2
    work = (count + 1) * (args.max_m + args.max_n) * (args.max_m + math.isqrt(args.max_n))**2
    if work > _IDENTITIES_WORK:
        raise DomainError(f"{count} (m, n) pairs up to m = {args.max_m}, n = {args.max_n} are "
                          f"too much exact arithmetic: (pairs + 1) * (m + n) * (m + isqrt(n))^2"
                          f" = {work} > {_IDENTITIES_WORK}")
    pairs = [(m, n) for m in range(1, args.max_m + 1) for n in range(m, args.max_n + 1)]
    tasks = integrals + pairs
    # One run over the integrals, then the exact checks: a worker takes the
    # next task when it is free, so the exact checks fill in behind the few
    # slow integrals (m = 3 at alpha = 1.5).
    results = run_ordered(_identities_task, tasks, settings["workers"])
    rows = [
        {"record": "identity", "name": name, "m": m, "n": n, "lhs": lhs, "rhs": rhs,
         "holds": holds}
        for (m, n), checks in zip(pairs, results[len(integrals):])
        for name, lhs, rhs, holds in checks
    ]
    for (m, k, alpha), value in zip(integrals, results):
        closed = math.exp(closedform.aomoto_moment_log(m, k, alpha))
        tolerance = identities.QUADRATURE_TARGETS[m]
        rel = abs(value - closed) / abs(closed)
        rows.append(
            {
                "record": "quadrature",
                "name": "aomoto_moment" if k else "selberg_simplex",
                "m": m,
                "k": k or None,
                "alpha": alpha,
                "value": value,
                "closed_form": closed,
                "rel_error": rel,
                "tolerance": tolerance,
                "ok": rel <= tolerance,
            }
        )
    return rows


def _identities_task(task):
    """An (m, k, alpha) integral, or the three exact identities at a pair (m, n)
    as (name, lhs, rhs, holds) tuples; runs in a worker when there are several."""
    if len(task) == 3:
        return identities.aomoto_quadrature_oracle(*task)
    m, n = task
    return [
        (report.name, str(report.lhs), str(report.rhs), report.holds)
        for report in (
            identities.gamma_ratio_sum_plain(m, n),
            identities.gamma_ratio_sum_harmonic(m, n),
            identities.riordan_identity_check(m, n),
        )
    ]


def average_embedded_entanglement(*args, **kwargs):
    """`entangle.average_embedded_entanglement`, imported on first call."""
    from . import entangle

    return entangle.average_embedded_entanglement(*args, **kwargs)


def _cmd_entangle(args, settings) -> list[dict]:
    _check_pair(args, "entangle", 3)
    if args.samples < 2:
        raise UsageError("--samples must be >= 2")
    est, tails = average_embedded_entanglement(
        args.m, args.n, args.samples, settings["seed"],
        chunk=settings["chunk"], workers=settings["workers"], epsilons=_parse_eps(args.eps),
    )
    target = closedform.average_coherence_exact(args.m, args.n)
    return [_average_row({"record": "entanglement"}, args, est, target)] + _tail_rows(
        args.m, args.n, tails)


_COMMANDS = {
    "formula": _cmd_formula,
    "estimate": _cmd_estimate,
    "concentration": _cmd_concentration,
    "identities": _cmd_identities,
    "entangle": _cmd_entangle,
}


# ----------------------------------------------------------------------------
# wiring


def _build_parser() -> tuple[_Parser, set[str]]:
    """The parser, and the dests every command shares: the subcommand and the
    settings flags. The rest are the command's own, recorded in its manifest."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base RNG seed")
    common.add_argument("--chunk", type=int, default=None, help="samples per RNG stream")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--out", default=None, help="write records to this file")
    common.add_argument("--workers", type=int, default=None, help="worker processes")
    common.add_argument("--config", default=None, help="key=value settings file")

    parser = _Parser(prog="subent", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("formula", parents=[common], help="closed-form averages")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m-range", dest="m_range")
    p.add_argument("--n-range", dest="n_range")

    p = sub.add_parser("estimate", parents=[common], help="Monte Carlo vs closed forms")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--which", choices=("entropy", "subentropy", "coherence", "all"), default="all")

    p = sub.add_parser("concentration", parents=[common], help="tail fractions vs bounds")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m-range", dest="m_range", help="sweep stddev over m with n = m")
    p.add_argument("--eps", default=_DEFAULT_EPS)
    p.add_argument("--samples", type=int, default=10000)

    p = sub.add_parser("identities", parents=[common], help="exact identity sweeps")
    p.add_argument("--max-m", dest="max_m", type=int, default=20)
    p.add_argument("--max-n", dest="max_n", type=int, default=20)
    p.add_argument("--quadrature", action="store_true")

    p = sub.add_parser("entangle", parents=[common], help="embedded entanglement averages")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--eps", default=_DEFAULT_EPS)

    return parser, {"command", *vars(common.parse_args([]))}


def _violates(row: dict) -> bool:
    """A failed bound or identity, or a nonzero exact residual."""
    return (row.get("ok") is False or row.get("holds") is False
            or row.get("series_residual", "0") != "0"
            or row.get("consistency_residual", "0") != "0")


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def main(argv=None) -> int:
    parser, shared = _build_parser()
    # Exact fractions grow with lcm(1..mn): from about m = n = 100 their
    # integers pass the 4300 digits CPython converts to str by default. The
    # limit is lifted for this call only, as tests and benchmarks call main
    # in-process.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (formula, estimate, "
                             "concentration, identities, entangle)")
        config = _load_config(args.config) if args.config else {}
        settings = {
            "seed": _resolve(args.seed, "SEED", config, "seed", 0, int),
            "chunk": _resolve(args.chunk, None, config, "chunk", DEFAULT_CHUNK, int),
            "format": _resolve(args.format, "FORMAT", config, "format", "json", str),
            "workers": _resolve(args.workers, "WORKERS", config, "workers", usable_cpus(), int),
        }
        if settings["format"] not in ("json", "csv"):
            raise UsageError(f"unknown format {settings['format']!r}")
        if settings["seed"] < 0 or settings["seed"] >= 2**64:
            raise UsageError("--seed must fit in an unsigned 64-bit integer")
        if settings["chunk"] < 1:
            raise UsageError("--chunk must be >= 1")
        if settings["workers"] < 1:
            raise UsageError("--workers must be >= 1")
        started = _timestamp()
        rows = _COMMANDS[args.command](args, settings)
        parameters = {key: value for key, value in vars(args).items() if key not in shared}
        manifest = {
            "record": "manifest",
            "command": args.command,
            "parameters": {**parameters, "format": settings["format"]},
            "seed": settings["seed"],
            "chunk": settings["chunk"],
            "started": started,
            "finished": _timestamp(),
            "tool_version": __version__,
        }
        # the file is opened only now, so a failed run leaves it untouched
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as stream:
                    _emit(stream, manifest, rows, settings["format"])
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc}") from exc
        else:
            try:
                _emit(sys.stdout, manifest, rows, settings["format"])
                sys.stdout.flush()
            except BrokenPipeError:
                pass  # the reader stopped early; the records still decide the exit code
            except OSError as exc:  # a full disk, say
                raise UsageError(f"cannot write the records to standard output: {exc}") from exc
        return EXIT_VIOLATION if any(map(_violates, rows)) else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SubentError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def run() -> None:
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # a closed pipe (the records still decide the exit code), or a
            # failed write that main has reported; the buffer still holds it
            pass
    # Nothing is left to release once the records are flushed, so the process
    # skips interpreter teardown (module and numpy/OpenBLAS finalization).
    os._exit(code)


if __name__ == "__main__":
    run()
