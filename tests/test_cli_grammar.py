"""A grammar fuzz of `cli.main`: every argv ends in a documented exit.

Hypothesis draws argv over the five commands and every flag, with edge
integers, floats and strings, `SUBENT_*` variables and config files, and
runs each in-process. The work of one example is bounded: `--workers` and
the default worker count are at most 2, m·n·samples is capped, and so is
the chunk count. Sizes past 2**63 stay in, because every command rejects
them before it draws or sums anything, and so do `formula` sizes past its
exact-work limit and sample counts past the drawing commands' work limit.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from subent import DEFAULT_CHUNK, cli, montecarlo
from subent.cli import _violates, main

_HUGE = (10**20, 2**64, 2**63)
# the huge sizes of formula's --m and --n: below 2**63 but past its exact-work
# limit even at m = 1, the first n with (1 + 1) * n^2 over it and 10**18
_FORMULA_HUGE = (math.isqrt(cli._FORMULA_WORK // 2) + 1, 10**18)
# the huge --samples of the drawing commands: below 2**63 but past their
# sampling-work limit even at m = n = 1 in one chunk, the first such count and
# 10**18
_SAMPLES_HUGE = ((cli._SAMPLING_WORK - montecarlo.CHUNK_WORK) // montecarlo.sample_work(1, 1)
                 + 1, 10**18)
_EDGE_STRINGS = ["", "nan", "inf", "1e3", "1.5", "-0", "0x10", "abc", " 4 ", "+3", "1_0",
                 "٣", "２"]  # an Arabic-Indic 3 and a fullwidth 2, which int() reads


def _ints(*values):
    return st.sampled_from([str(v) for v in values])


def _kind(valid, *edges):
    """(valid values, edge values); every kind's edges include the edge strings."""
    return valid, st.one_of(*edges, st.sampled_from(_EDGE_STRINGS))


_DIM = _kind(_ints(1, 2, 3, 4, 5, 6), _ints(0, -1, *_HUGE))
_SAMPLES = _kind(_ints(2, 3, 5, 16, 64, 300), _ints(0, 1, -1, *_HUGE))
_CHUNK = _kind(_ints(1, 2, 7, 64, 1024, 10**20), _ints(0, -1))
_SEED = _kind(_ints(0, 1, 7, 2**64 - 1), _ints(-1, 2**64, 10**20))
_WORKERS = _kind(st.sampled_from(["1", "2", "٢"]), st.sampled_from(["0", "-1", "x", "1.0"]))
_FORMAT = _kind(st.sampled_from(["json", "csv"]), st.just("xml"))
_RANGE = _kind(
    st.one_of(st.integers(1, 7).flatmap(lambda a: st.integers(a, 7).map(f"{a}..{{}}".format)),
              st.just("2..10")),
    st.builds("{}..{}".format, st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from(["1..", "..4", "a..b", "1-3", f"1..{10**20}", f"{10**20}..{10**20}"]),
)
_EPS = _kind(st.sampled_from(["0.1", "0.05,0.2", "0.2,0.1,0.05", "0.1,,0.2", "1e3", "1e-300"]),
             st.sampled_from(["-1", "0", "0.1,-0.2", "x,0.1"]))
_WHICH = _kind(st.sampled_from(["entropy", "subentropy", "coherence", "all"]), st.just("bogus"))

_SHARED = {"--seed": _SEED, "--chunk": _CHUNK, "--format": _FORMAT, "--workers": _WORKERS}
_OWN = {
    "formula": {"--m": _DIM, "--n": _DIM, "--m-range": _RANGE, "--n-range": _RANGE},
    "estimate": {"--m": _DIM, "--n": _DIM, "--samples": _SAMPLES, "--which": _WHICH},
    "concentration": {"--m": _DIM, "--n": _DIM, "--m-range": _RANGE, "--eps": _EPS,
                      "--samples": _SAMPLES},
    "identities": {"--max-m": _DIM, "--max-n": _DIM},
    "entangle": {"--m": _DIM, "--n": _DIM, "--samples": _SAMPLES, "--eps": _EPS},
}
# the size flags, each with the flag a huge value of it also fills
_SIZE_FLAGS = {"--m": "--n", "--n": None, "--max-m": "--max-n", "--max-n": None,
               "--samples": None, "--m-range": None, "--n-range": None}
_SETTINGS = {"seed": _SEED, "chunk": _CHUNK, "format": _FORMAT, "workers": _WORKERS}
_ENV = {"SEED": _SEED, "FORMAT": _FORMAT, "WORKERS": _WORKERS}


@st.composite
def _runs(draw):
    """(command, [(flag, value)], extra argv, environment, config, out choice);
    config is None, a list of lines, undecodable bytes or "missing".

    Half the runs are clean: a command, valid values, --m and --n given and
    in order, and no stray argument, so that most of them reach the records.
    A quarter are clean but for one size past 2**63 (in `formula`'s --m or
    --n, one below it but past the exact-work limit); in half of those of the
    drawing commands the size is instead a --samples below 2**63 but past the
    sampling-work limit, at --chunk 1 one time in two, and the rest of the run
    valid. In the rest a value is an edge value one time in five.
    """
    mode = draw(st.sampled_from(["clean", "clean", "huge", "noisy"]))
    clean = mode != "noisy"

    def value(kind):
        valid, edge = kind
        return draw(valid if clean or draw(st.integers(0, 4)) else edge)

    command = draw(st.sampled_from([*_OWN] if clean else [*_OWN, *_OWN, "bogus", None]))
    flags = {**_SHARED, **_OWN.get(command, {})}
    # each flag is given two times in three, in a drawn order
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=len(flags)))
    present = [f for f in chosen if draw(st.integers(0, 2))] or chosen
    if clean and "--m" in flags and "--m-range" not in present:
        present += [f for f in ("--m", "--n") if f not in present]
    pairs = [(flag, value(flags[flag])) for flag in present]
    for m, n in (("--m", "--n"), ("--max-m", "--max-n")):
        if clean and m in present and n in present:
            given = dict(pairs)
            low, high = sorted((int(given[m]), int(given[n])))
            if command in ("concentration", "entangle"):  # they need m >= 3
                low, high = max(low, 3), max(high, 3)
            pairs = [(f, str({m: low, n: high}.get(f, v))) for f, v in pairs]
    sizes = [i for i, (f, _) in enumerate(pairs) if f in _SIZE_FLAGS]
    if mode == "huge" and "--samples" in flags and draw(st.booleans()):
        # every other value valid, so the work limit is what ends the run
        pairs = [p for p in _valid_sweep(pairs) if p[0] != "--samples"]
        pairs.append(("--samples", str(draw(st.sampled_from(_SAMPLES_HUGE)))))
        if draw(st.booleans()):
            pairs = [p for p in pairs if p[0] != "--chunk"] + [("--chunk", "1")]
    elif mode == "huge" and sizes:
        flag = pairs[draw(st.sampled_from(sizes))][0]
        plain_formula = command == "formula" and not flag.endswith("range")
        huge = draw(st.sampled_from(_FORMULA_HUGE if plain_formula else _HUGE))
        for i, (f, v) in enumerate(pairs):  # a huge m comes with a huge n, so m <= n holds
            if f == flag or _SIZE_FLAGS[flag] == f:
                pairs[i] = (f, f"1..{huge}" if f.endswith("range") else str(huge))
    extra = []
    if command == "identities" and draw(st.integers(0, 5)) == 0:
        extra.append("--quadrature")
    if not clean and draw(st.integers(0, 7)) == 0:
        extra.append(draw(st.sampled_from(["--bogus", "stray", "--quadrature", "--m"])))
    env = {name: value(kind) for name, kind in _ENV.items() if draw(st.integers(0, 3)) == 0}
    config = draw(st.sampled_from(["none", "lines"] if clean else ["none", "lines", "edge"]))
    if config == "none":
        config = None
    elif config == "lines":
        keys = draw(st.lists(st.sampled_from([*sorted(_SETTINGS), "#"]), max_size=3))
        config = [f"{key} = {value(_SETTINGS[key])}" if key != "#" else "# a comment"
                  for key in keys]
    else:
        config = draw(st.one_of(
            st.lists(st.sampled_from(["bogus=1", "no equals sign", "seed", ""]), min_size=1,
                     max_size=2),
            st.just(b"seed=\xff\xfe\n"), st.just("missing")))
    out = draw(st.sampled_from(["stdout", "file"] if clean else ["stdout", "file", "unwritable"]))
    return command, pairs, extra, env, config, out


def _valid_sweep(pairs):
    """A --m-range that starts at 2 or above, and without --m or --n."""
    if "--m-range" not in dict(pairs):
        return pairs
    return [(f, f"{max(2, int(v.partition('..')[0]))}..{max(2, int(v.partition('..')[2]))}"
             if f == "--m-range" else v) for f, v in pairs if f not in ("--m", "--n")]


def _past_sampling_limit(pairs) -> bool:
    return dict(pairs).get("--samples") in {str(v) for v in _SAMPLES_HUGE}


def _int(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def _cost(command, pairs, extra=(), config=None) -> float:
    """An upper bound, in samples times m·n, on the work of one run; 0 where
    a size past 2**63 ends the run before any work."""
    given = dict(pairs)
    value = {flag: _int(given.get(flag)) for flag in given}
    sizes = [v for flag, v in value.items() if flag not in ("--seed", "--chunk") and v is not None]
    ranges = [given[flag].partition("..") for flag in ("--m-range", "--n-range") if flag in given]
    range_ends = [_int(part) for lo, _, hi in ranges for part in (lo, hi)]
    if any(v is not None and v >= 2**63 for v in sizes + range_ends) or _past_sampling_limit(pairs):
        return 0.0
    def dim(flag):
        return max(1, value.get(flag) or 1)

    ends = [max(1, v or 1) for v in range_ends] or [1]
    samples = max(2, value.get("--samples") or 10000)
    chunk = value.get("--chunk")
    if chunk is None and isinstance(config, list):
        chunk = next((_int(line.partition("=")[2]) for line in reversed(config)
                      if line.partition("=")[0].strip() == "chunk"), None)
    chunks = math.ceil(samples / max(1, chunk if chunk is not None else DEFAULT_CHUNK))
    if command == "formula":
        return 1.0
    if command == "identities":
        return dim("--max-m") * dim("--max-n") + ("--quadrature" in extra) * 20_000
    if command == "estimate":
        work = dim("--m") * dim("--n") * samples * (3 if given.get("--which", "all") == "all" else 1)
    elif command == "concentration" and "--m-range" in given:
        work = sum(m * m for m in range(1, max(ends) + 1)) * samples
    elif command in ("concentration", "entangle"):
        work = 2 * dim("--m") * dim("--n") * samples
    else:
        return 0.0
    return work if chunks <= 64 else math.inf


def _lines_hold_records(text: str) -> list[dict]:
    """The records of a JSON-lines or CSV stream; fails on any other line."""
    lines = text.splitlines()
    assert lines and text.endswith("\n")
    if lines[0].startswith("# manifest: "):
        manifest = json.loads(lines[0][len("# manifest: "):], parse_constant=_reject)
        assert manifest["parameters"]["format"] == "csv"
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]) + "\n")))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
        cells = {"true": True, "false": False}
        return [{k: cells.get(v, v) for k, v in zip(rows[0], row)} for row in rows[1:]]
    records = [json.loads(line, parse_constant=_reject) for line in lines]
    assert records[0]["record"] == "manifest"
    assert records[0]["parameters"]["format"] == "json"
    return records[1:]


def _no_tasks(*args):
    raise AssertionError("listed the tasks of a run past the sampling-work limit")


def _reject(constant):
    raise AssertionError(f"{constant} is not JSON")


@given(run=_runs())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_every_argv_ends_in_a_documented_exit(run):
    command, pairs, extra, env, config, out = run
    assume(_cost(command, pairs, extra, config) <= 40_000)
    argv = ([] if command is None else [command]) + [t for pair in pairs for t in pair] + extra
    with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as patch:
        workdir = Path(workdir)
        for name in _ENV:
            patch.delenv(cli.ENV_PREFIX + name, raising=False)
        for name, value in env.items():
            patch.setenv(cli.ENV_PREFIX + name, value)
        patch.setattr(cli, "usable_cpus", lambda: 2)  # the default worker count
        if _past_sampling_limit(pairs):
            patch.setattr(montecarlo, "_tasks", _no_tasks)
        if config is not None:
            path = workdir / "subent.cfg"
            if isinstance(config, bytes):
                path.write_bytes(config)
            elif isinstance(config, list):
                path.write_text("\n".join(config) + "\n", encoding="utf-8")
            argv = argv + ["--config", str(path)]
        target = {"file": workdir / "out.txt", "unwritable": workdir / "missing" / "out.txt"}.get(out)
        if target is not None:
            argv = argv + ["--out", str(target)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = target.read_text(encoding="utf-8") if target is not None and target.exists() else None

    assert code in (0, 1, 2, 3), argv
    if _past_sampling_limit(pairs):
        chunk = dict(pairs).get("--chunk", "unset")
        event(f"{command} past the sampling-work limit at --chunk {chunk}")
        assert code == 2 and " is too much sampling: " in stderr.getvalue(), argv
    event(f"{command} exits {code}")
    if code in (1, 2):
        err = stderr.getvalue()
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert err.startswith("usage error: " if code == 1 else "numerical failure: "), (argv, err)
        assert stdout.getvalue() == "" and written is None, argv
        return
    if target is None:
        text = stdout.getvalue()
    else:
        assert stdout.getvalue() == "", argv
        text = written
    records = _lines_hold_records(text)
    assert (code == 3) == any(map(_violates, records)), (argv, records)

