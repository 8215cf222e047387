import argparse
import hashlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import oracles
from conftest import ROOT, source_env
from subent import DEFAULT_CHUNK, cli, closedform, estimate_functional, montecarlo, pool
from subent.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _emit,
    _violates,
    _z_score,
    main,
)
from subent.errors import DomainError


# The pooled-quadrature tests need two CPUs this process may use; below that
# the CLI runs every task in one process.
_CPUS = pool.usable_cpus()

# A range end past the largest list, and the chunks and sampling work of
# `concentration --m-range 2.._LONG` at the default samples and chunk: the sum
# of k^3 for k <= n is C(n + 1, 2)^2, here for 12 <= k <= _LONG + 10.
_LONG = 10**20 - 1
_LONG_CHUNKS = (_LONG - 1) * -(-10000 // DEFAULT_CHUNK)
_LONG_SWEEP_WORK = 10000 * (math.comb(_LONG + 11, 2)**2 - math.comb(12, 2)**2) + 10**5 * _LONG_CHUNKS


@pytest.fixture
def past_the_work_limit(monkeypatch):
    # The drawing commands refuse these runs by their sampling work before a
    # task is listed; without that limit they reach the guards that a library
    # caller of `montecarlo` meets.
    monkeypatch.setattr(cli, "_SAMPLING_WORK", math.inf)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def payload_lines(text: str) -> list[str]:
    # everything below the manifest record (JSON first line / CSV comment)
    lines = text.splitlines()
    return [ln for ln in lines if not (ln.startswith('{"record":"manifest"') or ln.startswith("# manifest:"))]


def records(text: str) -> list[dict]:
    return [json.loads(ln) for ln in payload_lines(text)]


class TestFormula:
    def test_two_by_two_values(self, tmp_path):
        code, text = run_to_file(tmp_path, "f.json", ["formula", "--m", "2", "--n", "2"])
        assert code == EXIT_OK
        (row,) = records(text)
        assert row["avg_subentropy"] == "1/12"
        assert row["avg_entropy"] == "1/3"
        assert row["avg_coherence"] == "1/4"
        assert row["series"] == "1/12"
        assert row["series_residual"] == "0"
        assert row["consistency_residual"] == "0"

    def test_one_dimensional_coherence_zero(self, tmp_path):
        code, text = run_to_file(tmp_path, "f.json", ["formula", "--m", "1", "--n", "5"])
        assert code == EXIT_OK
        (row,) = records(text)
        assert row["avg_coherence"] == "0"
        assert row["avg_subentropy"] == "0"

    def test_sweep_row_count(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "f.json",
            ["formula", "--m-range", "2..4", "--n-range", "2..6"],
        )
        assert code == EXIT_OK
        rows = records(text)
        assert len(rows) == 12  # 15 pairs filtered to m <= n
        assert all(row["m"] <= row["n"] for row in rows)

    def test_usage_error_on_bad_order(self, tmp_path):
        code = main(["formula", "--m", "3", "--n", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_sweep_without_pairs_is_usage_error(self, tmp_path):
        # no m in 5..6 is <= an n in 1..2; the sweep used to print only the
        # manifest and exit 0
        argv = ["formula", "--m-range", "5..6", "--n-range", "1..2", "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_USAGE

    def test_range_past_largest_list_beside_short_range(self, tmp_path):
        # only m <= 3 pairs with an n in 1..3, so the long --m-range is never listed
        code, long = run_to_file(tmp_path, "long.json",
                                 ["formula", "--m-range", f"1..{10**20}", "--n-range", "1..3"])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in payload_lines(long)]
        assert [(row["m"], row["n"]) for row in rows] == [
            (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        _, short = run_to_file(tmp_path, "short.json",
                               ["formula", "--m-range", "1..3", "--n-range", "1..3"])
        assert payload_lines(long) == payload_lines(short)

    @pytest.mark.parametrize("argv, flag", [
        (["--m", "0", "--n-range", "1..3"], "m"),
        (["--m", "-2", "--n-range", "1..3"], "m"),
        (["--m-range", "1..3", "--n", "0"], "n"),
    ])
    def test_sweep_value_below_one_is_usage_error(self, tmp_path, capsys, argv, flag):
        # --m 0 beside a range used to end in a KeyError traceback
        out = tmp_path / "x"
        assert main(["formula", *argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --{flag} must be >= 1 in a sweep\n"
        assert not out.exists()

    @pytest.mark.parametrize("m_range", ["1..1", "1..4", "2..5", "3..9", "6..7", "8..9"])
    @pytest.mark.parametrize("n_range", ["1..1", "1..6", "2..8", "4..5", "7..9"])
    def test_sweep_work_counted_from_range_ends(self, tmp_path, monkeypatch, capsys, m_range,
                                                n_range):
        # the pair count and the largest m n, computed from the ends before any
        # pair is listed, equal those of the listed pairs
        (m_lo, m_hi), (n_lo, n_hi) = (map(int, r.split("..")) for r in (m_range, n_range))
        pairs = [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1) if m <= n]
        monkeypatch.setattr(cli, "_FORMULA_WORK", -1)
        code = main(["formula", "--m-range", m_range, "--n-range", n_range,
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        if not pairs:
            assert code == EXIT_USAGE
            return
        assert code == EXIT_NUMERICAL
        top = max(m * n for m, n in pairs)
        assert err.startswith(f"numerical failure: {len(pairs)} formula pairs up to mn = {top} ")

    def test_sweep_equals_fraction_oracle(self, tmp_path):
        # every value and both residuals against reduced-fraction arithmetic
        # on the m <= n <= 60 grid
        code, text = run_to_file(tmp_path, "f.json",
                                 ["formula", "--m-range", "1..60", "--n-range", "1..60"])
        assert code == EXIT_OK
        rows = records(text)
        assert len(rows) == 60 * 61 // 2
        h = oracles.harmonic_numbers(60 * 60)
        for row in rows:
            m, n = row["m"], row["n"]
            for key, value in oracles.formula_sides(m, n, h).items():
                assert row[key] == str(value), (m, n, key)
            for key in ("avg_subentropy", "avg_entropy", "avg_coherence", "series"):
                assert row[f"{key}_float"] == float(Fraction(row[key])), (m, n, key)

    def test_exact_fractions_of_any_size(self, tmp_path):
        # the integers of H_40000 run past CPython's default 4300-digit
        # int-to-str limit; the command used to die there, writing nothing
        limit = sys.get_int_max_str_digits()
        code, text = run_to_file(tmp_path, "f.json", ["formula", "--m", "200", "--n", "200"])
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit  # main restores the limit
        (row,) = records(text)
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(row["avg_subentropy"]) == closedform.average_subentropy_exact(200, 200)
        finally:
            sys.set_int_max_str_digits(limit)


class TestEstimate:
    def test_z_score_within_window(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "e.json",
            ["estimate", "--m", "2", "--n", "2", "--which", "coherence",
             "--samples", "20000", "--seed", "7", "--workers", "1"],
        )
        assert code == EXIT_OK
        (row,) = records(text)
        assert row["target"] == "1/4"
        assert abs(row["z"]) <= 5

    def test_all_emits_three_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "e.json",
            ["estimate", "--m", "2", "--n", "3", "--which", "all",
             "--samples", "2000", "--seed", "3", "--workers", "1"],
        )
        assert code == EXIT_OK
        assert [r["which"] for r in records(text)] == ["entropy", "subentropy", "coherence"]

    def test_single_sample_is_usage_error(self, tmp_path):
        code = main(["estimate", "--m", "2", "--n", "2", "--samples", "1",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_reruns_identical_apart_from_manifest(self, tmp_path, every_worker_pays):
        argv = ["estimate", "--m", "2", "--n", "2", "--which", "coherence",
                "--samples", "3000", "--seed", "11"]
        _, first = run_to_file(tmp_path, "a.json", argv + ["--workers", "1"])
        _, second = run_to_file(tmp_path, "b.json", argv + ["--workers", "2"])
        assert payload_lines(first) == payload_lines(second)

    def test_subentropy_at_large_dimension(self, tmp_path):
        # every m = 128 row defeats the float and 40-digit tables and takes the
        # integral form
        code, text = run_to_file(
            tmp_path, "e.json",
            ["estimate", "--m", "128", "--n", "128", "--which", "subentropy",
             "--samples", "8", "--chunk", "4", "--workers", "1"],
        )
        assert code == EXIT_OK
        (row,) = records(text)
        assert abs(row["z"]) <= 5

    def test_seventeen_digit_floats(self, tmp_path):
        _, text = run_to_file(
            tmp_path, "e.json",
            ["estimate", "--m", "2", "--n", "2", "--which", "coherence",
             "--samples", "2000", "--seed", "1", "--workers", "1"],
        )
        raw = payload_lines(text)[0]
        mean_token = raw.split('"mean":')[1].split(",")[0]
        assert len(mean_token.replace("-", "").replace(".", "").lstrip("0")) >= 16


class TestConcentration:
    def test_tail_mode_passes_vacuous_bounds(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "c.json",
            ["concentration", "--m", "3", "--n", "3", "--eps", "0.1,0.4",
             "--samples", "2000", "--seed", "5", "--workers", "1"],
        )
        assert code == EXIT_OK
        rows = records(text)
        assert len(rows) == 2
        assert all(r["ok"] for r in rows)
        assert rows[0]["empirical_fraction"] >= rows[1]["empirical_fraction"]

    @pytest.mark.parametrize("argv", [
        ["concentration", "--m", "3", "--n", "3", "--samples", "4", "--eps", "1.4e154"],
        ["entangle", "--m", "3", "--n", "3", "--samples", "4", "--eps", "0.1,1e300"],
    ], ids=["concentration", "entangle"])
    def test_eps_past_a_squared_float_bounds_by_zero(self, tmp_path, argv):
        # eps^2 overflows, so the bound is 2 exp(-inf) = 0, and no sample is that far out
        code, text = run_to_file(tmp_path, "c.json", argv + ["--workers", "1"])
        assert code == EXIT_OK
        tail = records(text)[-1]
        assert tail["record"] == "tail"
        assert (tail["levy_bound"], tail["empirical_fraction"], tail["ok"]) == (0.0, 0.0, True)

    def test_sweep_mode_stddev_decreases(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "c.json",
            ["concentration", "--m-range", "2..5", "--samples", "3000",
             "--seed", "6", "--workers", "1"],
        )
        assert code == EXIT_OK
        spreads = [r["stddev"] for r in records(text)]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_small_m_usage_error(self, tmp_path):
        code = main(["concentration", "--m", "2", "--n", "2", "--samples", "100",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["concentration", "entangle"])
    @pytest.mark.parametrize("eps", ["nan,0.1", "inf"])
    def test_non_finite_eps_usage_error(self, tmp_path, command, eps):
        out = tmp_path / "x"
        code = main([command, "--m", "3", "--n", "3", "--eps", eps, "--samples", "200",
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_sweep_mode_checks_eps(self, tmp_path):
        # the manifest records --eps in both modes, so both modes check it
        out = tmp_path / "x"
        code = main(["concentration", "--m-range", "2..3", "--samples", "4", "--eps", "nonsense",
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["concentration", "--m-range", "2..3", "--m", "5", "--samples", "4"],
    ["concentration", "--m-range", "2..3", "--n", "9", "--samples", "4"],
    ["concentration", "--m-range", "2..3", "--m", "5", "--n", "9", "--samples", "4"],
    ["formula", "--m-range", "2..3", "--m", "2", "--n", "4"],
    ["formula", "--m", "2", "--n-range", "2..3", "--n", "4"],
])
def test_flag_a_range_replaces_is_usage_error(tmp_path, argv):
    # the range decides every record, so a manifest holding the flag would misstate the run
    out = tmp_path / "x"
    assert main(argv + ["--workers", "1", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


class TestOnePass:
    """One draw per chunk serves every reduction a command asks for, with the
    bytes that separate passes over the same streams produce."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_matches_separate_passes(self, tmp_path, workers):
        common = ["--m", "3", "--n", "4", "--samples", "700", "--chunk", "128",
                  "--seed", "13", "--workers", workers]

        def payload(name, argv):
            code, text = run_to_file(tmp_path, name, argv + common)
            assert code == EXIT_OK
            return payload_lines(text)

        together = payload("all.json", ["estimate", "--which", "all"])
        separate = [payload(f"{which}.json", ["estimate", "--which", which])
                    for which in ("entropy", "subentropy", "coherence")]
        assert together == [line for lines in separate for line in lines]

        eps = ["--eps", "0.02,0.1,0.3"]
        entangled = payload("n.json", ["entangle"] + eps)
        average, coherence = json.loads(entangled[0]), json.loads(separate[2][0])
        for key in ("mean", "variance", "stderr", "count"):
            assert average[key] == coherence[key]
        assert entangled[1:] == payload("c.json", ["concentration"] + eps)

        code, text = run_to_file(
            tmp_path, "s.json",
            ["concentration", "--m-range", "2..4", "--samples", "700", "--chunk", "128",
             "--seed", "13", "--workers", workers],
        )
        assert code == EXIT_OK
        for row in records(text):
            est = estimate_functional(row["m"], row["m"], "coherence", 700, 13, chunk=128)
            assert (row["mean"], row["stddev"], row["count"]) == (est.mean, est.stddev, est.count)


class TestIdentities:
    def test_default_small_sweep(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "i.json", ["identities", "--max-m", "6", "--max-n", "6"]
        )
        assert code == EXIT_OK
        rows = records(text)
        assert len(rows) == 3 * 21  # three identities per (m, n) pair
        assert all(r["holds"] for r in rows)

    def test_non_positive_bounds_are_usage_errors(self, tmp_path):
        # such a sweep checks no identity: it used to print only the manifest
        # and exit 0, or with --quadrature check the quadrature alone
        for argv in (["--max-m", "0"], ["--max-n", "0"], ["--max-m", "-3", "--quadrature"]):
            assert main(["identities", *argv, "--out", str(tmp_path / "i.json")]) == EXIT_USAGE

    def test_max_m_above_max_n_is_usage_error(self, tmp_path):
        # pairs need m <= n: this sweep used to check m <= 3 only and exit 0
        # with a manifest saying max_m 20
        out = tmp_path / "i.json"
        assert main(["identities", "--max-m", "20", "--max-n", "3", "--out", str(out)]) == EXIT_USAGE

    def test_quadrature_rows(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "i.json",
            ["identities", "--max-m", "2", "--max-n", "2", "--quadrature"],
        )
        assert code == EXIT_OK
        quad = [r for r in records(text) if r["record"] == "quadrature"]
        assert len(quad) == 4 * (1 + 2) + 4 * (1 + 3)  # per-alpha selberg + moments
        assert all(r["ok"] for r in quad)
        assert all(r["rel_error"] <= r["tolerance"] for r in quad)

    def test_quadrature_bytes_do_not_depend_on_workers(self, tmp_path):
        argv = ["identities", "--max-m", "3", "--max-n", "3", "--quadrature"]
        texts = [run_to_file(tmp_path, f"w{w}.json", argv + ["--workers", w])[1] for w in "12"]
        masked = [re.sub(r'"(started|finished)":"[^"]*"', r'"\1":""', text) for text in texts]
        assert masked[0] == masked[1]
        order = [(r["name"], r["m"], r["k"], r["alpha"])
                 for r in records(texts[1]) if r["record"] == "quadrature"]
        # per m, per alpha: the Selberg normalization, then the moments k = 1..m
        assert order == [
            ("selberg_simplex" if k is None else "aomoto_moment", m, k, alpha)
            for m in (2, 3) for alpha in (1.0, 1.5, 2.0, 3.0) for k in (None, *range(1, m + 1))
        ]


class TestEntangleCommand:
    def test_average_and_tails(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "n.json",
            ["entangle", "--m", "3", "--n", "3", "--samples", "4000",
             "--seed", "9", "--workers", "1"],
        )
        assert code == EXIT_OK
        rows = records(text)
        assert rows[0]["record"] == "entanglement"
        assert rows[0]["target"] == "1/3"
        assert abs(rows[0]["z"]) <= 5
        assert all(r["ok"] for r in rows[1:])

    def test_small_m_usage_error(self, tmp_path):
        code = main(["entangle", "--m", "2", "--n", "2", "--samples", "100",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestSettingsPrecedence:
    def test_env_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBENT_FORMAT", "csv")
        _, text = run_to_file(tmp_path, "f.csv", ["formula", "--m", "2", "--n", "2"])
        lines = text.splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1].split(",")[0] == "record"
        assert lines[2].startswith("formula,")

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBENT_FORMAT", "csv")
        _, text = run_to_file(
            tmp_path, "f.json", ["formula", "--m", "2", "--n", "2", "--format", "json"]
        )
        assert text.splitlines()[0].startswith('{"record":"manifest"')

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBENT_SEED", "31")
        _, text = run_to_file(
            tmp_path, "e.json",
            ["estimate", "--m", "2", "--n", "2", "--samples", "2000", "--workers", "1"],
        )
        manifest = json.loads(text.splitlines()[0])
        assert manifest["seed"] == 31

    def test_config_file_and_env_beats_it(self, tmp_path, monkeypatch):
        config = tmp_path / "subent.cfg"
        config.write_text("seed=5\nworkers=1\n# comment\n", encoding="utf-8")
        _, text = run_to_file(
            tmp_path, "a.json",
            ["estimate", "--m", "2", "--n", "2", "--samples", "2000",
             "--config", str(config)],
        )
        assert json.loads(text.splitlines()[0])["seed"] == 5
        monkeypatch.setenv("SUBENT_SEED", "6")
        _, text = run_to_file(
            tmp_path, "b.json",
            ["estimate", "--m", "2", "--n", "2", "--samples", "2000",
             "--config", str(config)],
        )
        assert json.loads(text.splitlines()[0])["seed"] == 6

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a misspelt key must not fall back to the default silently
        config = tmp_path / "subent.cfg"
        config.write_text("sed=5\nworkers=1\n", encoding="utf-8")
        out = tmp_path / "a.json"
        code = main(["estimate", "--m", "2", "--n", "2", "--samples", "100",
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'sed'" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "subent.cfg"
        config.write_bytes(b"seed=\xff\xfe\n")
        code = main(["formula", "--m", "2", "--n", "2", "--config", str(config)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"usage error: cannot read config file {config}: ")

    def test_unknown_command_usage(self):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    def test_workers_default_to_usable_cpus(self, tmp_path, monkeypatch):
        seen = []

        def recording_run_ordered(fn, tasks, workers):
            seen.append(workers)
            return [fn(task) for task in tasks]

        monkeypatch.delenv("SUBENT_WORKERS", raising=False)
        monkeypatch.setattr("subent.cli.usable_cpus", lambda: 3)
        monkeypatch.setattr("subent.cli.run_ordered", recording_run_ordered)
        argv = ["identities", "--max-m", "2", "--max-n", "2", "--quadrature"]
        assert main(argv + ["--out", str(tmp_path / "i.json")]) == EXIT_OK
        assert seen == [3]

    def test_bad_env_worker_count_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUBENT_WORKERS", "many")
        code = main(["formula", "--m", "2", "--n", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestViolationExit:
    def test_tail_violation_exits_three(self, tmp_path, monkeypatch):
        # fabricate a bound breach; the command must still emit its rows
        # and then signal the violation through the exit code
        from subent.montecarlo import TailReport

        def fake_tails(m, n, eps, samples, seed, chunk=1024, workers=1):
            return [TailReport(0.1, (m - 1) / (2 * n), 0.9, 0.5, samples)]

        monkeypatch.setattr("subent.montecarlo.tail_experiment", fake_tails)
        out = tmp_path / "v.json"
        code = main(["concentration", "--m", "3", "--n", "3", "--samples", "100",
                     "--out", str(out)])
        assert code == EXIT_VIOLATION
        assert '"ok":false' in out.read_text()


class TestRecordsDecideExit:
    @pytest.mark.parametrize("row, expected", [
        ({"record": "formula", "series_residual": "0", "consistency_residual": "0"}, False),
        ({"record": "formula", "series_residual": "1/7", "consistency_residual": "0"}, True),
        ({"record": "formula", "series_residual": "0", "consistency_residual": "-1/7"}, True),
        ({"record": "identity", "holds": True}, False),
        ({"record": "identity", "holds": False}, True),
        ({"record": "tail", "ok": False}, True),
    ])
    def test_which_records_violate(self, row, expected):
        assert _violates(row) is expected

    def test_identity_violation_exits_three(self, tmp_path, monkeypatch):
        from subent.identities import IdentityReport

        def broken(m, n):
            return IdentityReport("gamma_ratio_sum_plain", (m, n),
                                  Fraction(m * n + 1), Fraction(m * n), False)

        monkeypatch.setattr("subent.identities.gamma_ratio_sum_plain", broken)
        code, text = run_to_file(tmp_path, "i.json", ["identities", "--max-m", "2", "--max-n", "2"])
        assert code == EXIT_VIOLATION
        assert sum('"holds":false' in line for line in text.splitlines()) == 3

    def test_quadrature_violation_exits_three(self, tmp_path, monkeypatch):
        log = closedform.aomoto_moment_log
        monkeypatch.setattr(closedform, "aomoto_moment_log",
                            lambda m, k, alpha: log(m, k, alpha) + math.log(1.01) * (k > 0))
        code, text = run_to_file(tmp_path, "q.json",
                                 ["identities", "--max-m", "1", "--max-n", "1", "--quadrature"])
        assert code == EXIT_VIOLATION
        rows = records(text)
        assert all(row["ok"] is (row["name"] == "selberg_simplex")
                   for row in rows if row["record"] == "quadrature")
        assert all(row["holds"] for row in rows if row["record"] == "identity")

    def test_quadrature_violation_exits_three_on_two_workers(self, tmp_path, monkeypatch, capfd):
        # the closed forms are computed in the parent, the integrals in the workers
        log = closedform.aomoto_moment_log
        monkeypatch.setattr(closedform, "aomoto_moment_log",
                            lambda m, k, alpha: log(m, k, alpha) + math.log(1.01) * (k > 0))
        code, text = run_to_file(tmp_path, "q.json", ["identities", "--max-m", "1", "--max-n", "1",
                                                      "--quadrature", "--workers", "2"])
        assert code == EXIT_VIOLATION
        rows = records(text)
        assert all(row["ok"] is (row["name"] == "selberg_simplex")
                   for row in rows if row["record"] == "quadrature")
        assert capfd.readouterr().err == ""
        assert_no_child_left()

    @pytest.mark.skipif(_CPUS < 2 or not pool._FORKS, reason="needs two usable CPUs and forked workers")
    def test_quadrature_failure_in_worker_exits_two(self, tmp_path, monkeypatch, capfd):
        from subent import identities

        parent = os.getpid()

        def uncertified(m, alpha, moment):
            if os.getpid() == parent:
                pytest.fail("integrated in the parent process")
            return 1.0, 1.0  # an error estimate as large as the value

        # the workers are forked, so they inherit the patch
        monkeypatch.setattr(identities, "_simplex_integral", uncertified)
        out = tmp_path / "q.json"
        code = main(["identities", "--max-m", "1", "--max-n", "1", "--quadrature",
                     "--workers", "2", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert capfd.readouterr().err == "numerical failure: 1-D error estimate 1 above target\n"
        assert not out.exists()
        assert_no_child_left()


class TestFailurePaths:
    @pytest.mark.parametrize("missing", [True, False])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, missing):
        target = tmp_path / "missing" / "x.json" if missing else tmp_path
        code = main(["formula", "--m", "2", "--n", "2", "--out", str(target)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: cannot write {target}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["formula", "--m", "2", "--n", "3"],  # fits the buffer: fails at the flush
        ["formula", "--m-range", "1..40", "--n-range", "1..40"],  # fails while writing
        ["identities", "--max-m", "2", "--max-n", "2", "--quadrature"],
    ], ids=["formula-pair", "formula-sweep", "identities"])
    def test_full_standard_output_is_one_line(self, argv, workers, unbuffered):
        env = {k: v for k, v in source_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "subent", *argv, "--workers", workers],
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                                  env=env)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            "usage error: cannot write the records to standard output: [Errno 28] ")

    def test_eigensolver_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        out = tmp_path / "e.json"
        out.write_text("kept\n", encoding="utf-8")
        code = main(["estimate", "--m", "2", "--n", "2", "--samples", "8", "--workers", "1",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "kept\n"  # a failed run writes nothing

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("samples, chunk", [(10**17, 10**16), (10**20, 10**18)])
    def test_chunk_too_large_to_allocate_exits_two(self, tmp_path, capsys, past_the_work_limit,
                                                   samples, chunk, workers):
        # (10**16, 3) floats exceed a 47-bit address space and (10**18, 3) floats
        # numpy's largest array, so neither allocation touches memory
        out = tmp_path / "c.json"
        code = main(["estimate", "--m", "3", "--n", "3", "--samples", str(samples),
                     "--chunk", str(chunk), "--workers", workers, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"numerical failure: a chunk of {chunk} samples ")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("n", [10**20 - 1, 2**40])
    def test_sample_too_large_to_draw_exits_two(self, tmp_path, capsys, past_the_work_limit, n,
                                                workers):
        # one 2 x n sample's uniforms are past numpy's largest array (n near 10**20)
        # or 32 TiB (n = 2**40), so neither draw touches memory
        out = tmp_path / "d.json"
        code = main(["estimate", "--m", "2", "--n", str(n), "--samples", "2", "--chunk", "1",
                     "--workers", workers, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"numerical failure: one sample's 2x{n} = {2 * n} ")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("samples, chunk, chunks", [
        (10**20 - 1, [], 97656250000000000),  # the default chunk of 1024
        (2**62, ["--chunk", "1"], 2**62),
    ], ids=["default-chunk", "chunk-1"])
    def test_chunk_list_too_large_to_build_exits_two(self, tmp_path, capsys, past_the_work_limit,
                                                     samples, chunk, chunks):
        # lists this long are past any address space, so Python refuses them at once
        out = tmp_path / "l.json"
        code = main(["estimate", "--m", "2", "--n", "3", "--samples", str(samples), *chunk,
                     "--workers", "1", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {chunks} chunks are too many to list\n"
        assert not out.exists()

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, message", [
        # the work bound's chunk term turns both runs away before their tasks are listed
        (["estimate", "--m", "2", "--n", "2", "--which", "coherence"],
         "m = 2, n = 2 at 5000000 samples in 5000000 chunks is too much sampling: "),
        (["concentration", "--m-range", "2..2"],
         "--m-range 2..2 at 5000000 samples in 5000000 chunks is too much sampling: "),
    ], ids=["estimate", "concentration"])
    def test_chunk_tasks_past_memory_exit_two(self, tmp_path, argv, message, workers):
        # 5 * 10^6 chunk sizes would fit in memory here, but their task tuples do not
        out = tmp_path / "t.json"
        proc = _run_capped([*argv, "--samples", "5000000", "--chunk", "1", "--workers", workers,
                            "--out", str(out)])
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"numerical failure: {message}")
        assert not out.exists()

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("top, count", [
        (10**20 - 1, (10**20 - 1) * 10**20 // 2),  # more pairs than any list holds
        (3 * 10**6, 4500001500000),  # fewer, but a list past any memory here
    ], ids=["past-largest-list", "below-maxsize"])
    def test_identities_past_exact_work_limit_exits_two(self, tmp_path, top, count):
        out = tmp_path / "p.json"
        proc = _run_capped(["identities", "--max-m", str(top), "--max-n", str(top),
                            "--workers", "2", "--out", str(out)])
        work = (count + 1) * 2 * top * (top + math.isqrt(top))**2
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr == (
            f"numerical failure: {count} (m, n) pairs up to m = {top}, n = {top} are too much "
            f"exact arithmetic: (pairs + 1) * (m + n) * (m + isqrt(n))^2 = {work} > "
            f"{cli._IDENTITIES_WORK}\n")
        assert not out.exists()

    @pytest.mark.parametrize("limit, code", [(270, EXIT_OK), (269, EXIT_NUMERICAL)])
    def test_identities_work_limit_is_inclusive(self, tmp_path, monkeypatch, capsys, limit,
                                                code):
        # five pairs up to m = 2, n = 3 are (5 + 1) * 5 * (2 + 1)^2 = 270 units of work
        monkeypatch.setattr(cli, "_IDENTITIES_WORK", limit)
        out = tmp_path / "i.json"
        assert main(["identities", "--max-m", "2", "--max-n", "3", "--workers", "1",
                     "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
        assert capsys.readouterr().err == ("" if code == EXIT_OK else (
            "numerical failure: 5 (m, n) pairs up to m = 2, n = 3 are too much exact "
            "arithmetic: (pairs + 1) * (m + n) * (m + isqrt(n))^2 = 270 > 269\n"))

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("argv, refusal", [
        # 2 _LONG - 1 pairs up to mn = 2 _LONG
        (["formula", "--m-range", "1..2", "--n-range", f"1..{_LONG}"],
         f"{2 * _LONG - 1} formula pairs up to mn = {2 * _LONG} are too much exact arithmetic: "
         f"(pairs + 1) * mn^2 = {2 * _LONG * (2 * _LONG)**2} > {cli._FORMULA_WORK}"),
        (["concentration", "--m-range", f"2..{_LONG}"],
         f"--m-range 2..{_LONG} at 10000 samples in {_LONG_CHUNKS} chunks is too much sampling: "
         f"samples * sum((m + 10)^3) + 100000 * chunks = {_LONG_SWEEP_WORK} > {cli._SAMPLING_WORK}"),
    ], ids=["formula-past-largest-list", "concentration-past-largest-list"])
    def test_range_too_long_to_list_exits_two(self, tmp_path, argv, refusal):
        # a range longer than any list is refused by the work of its run
        out = tmp_path / "r.json"
        proc = _run_capped([*argv, "--workers", "2", "--out", str(out)])
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr == f"numerical failure: {refusal}\n"
        assert not out.exists()

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("argv, count, top", [
        (["--m", "1", "--n", str(10**20)], 1, 10**20),
        (["--m", "1", "--n", str(10**18)], 1, 10**18),  # below sys.maxsize
        (["--m", "1", "--n", "1414214"], 1, 1414214),  # the first n past the limit at m = 1
        (["--m-range", "1..3", "--n", str(10**20)], 3, 3 * 10**20),
        (["--m-range", "1..200", "--n-range", "1..200"], 20100, 40000),  # many small pairs
        # a range below sys.maxsize whose pair list would not fit in memory here
        (["--m-range", "1..2", "--n-range", f"1..{10**15}"], 2 * 10**15 - 1, 2 * 10**15),
    ], ids=["pair", "pair-below-maxsize", "pair-past-limit", "sweep", "many-pairs",
            "range-below-maxsize"])
    def test_formula_past_exact_work_limit_exits_two(self, tmp_path, argv, count, top):
        # past the limit the exact sums run for minutes to ever, with L growing
        # to 1.44 mn bits
        out = tmp_path / "f.json"
        proc = _run_capped(["formula", *argv, "--out", str(out)])
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr == (
            f"numerical failure: {count} formula pairs up to mn = {top} are too much exact "
            f"arithmetic: (pairs + 1) * mn^2 = {(count + 1) * top**2} > {cli._FORMULA_WORK}\n")
        assert not out.exists()

    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("m_range, samples, chunk", [
        ("2..3000", 2, 1024),  # ran past a minute, listing every task first
        (f"2..{10**15}", 2, 1024),  # below sys.maxsize, but a task list past any memory here
        ("2..3", 10**9, 1024),  # small matrices, each sample a fixed cost
        ("2..2", 10**6, 1),  # 10^6 chunks of one sample: about 85 s, under the sample term
    ], ids=["many-dimensions", "below-maxsize", "many-samples", "many-chunks"])
    def test_concentration_past_work_limit_exits_two(self, tmp_path, m_range, samples, chunk):
        low, high = (int(end) for end in m_range.split(".."))
        chunks = (high - low + 1) * -(-samples // chunk)
        # the sum of k^3 for k <= n is C(n + 1, 2)^2, here for low + 10 <= k <= high + 10
        work = samples * (math.comb(high + 11, 2)**2 - math.comb(low + 10, 2)**2) + 10**5 * chunks
        out = tmp_path / "c.json"
        proc = _run_capped(["concentration", "--m-range", m_range, "--samples", str(samples),
                            "--chunk", str(chunk), "--workers", "2", "--out", str(out)])
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        assert proc.stderr == (
            f"numerical failure: --m-range {m_range} at {samples} samples in {chunks} chunks is "
            f"too much sampling: samples * sum((m + 10)^3) + 100000 * chunks = {work} > "
            f"{cli._SAMPLING_WORK}\n")
        assert not out.exists()

    @pytest.mark.parametrize("limit, code", [(215700, EXIT_OK), (215699, EXIT_NUMERICAL)])
    def test_concentration_work_limit_is_inclusive(self, tmp_path, monkeypatch, capsys, limit,
                                                   code):
        # four samples at m = 2 and 3 in one chunk each are
        # 4 * (12^3 + 13^3) + 10^5 * 2 = 215700 units of work
        monkeypatch.setattr(cli, "_SAMPLING_WORK", limit)
        out = tmp_path / "c.json"
        assert main(["concentration", "--m-range", "2..3", "--samples", "4", "--workers", "1",
                     "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
        assert capsys.readouterr().err == ("" if code == EXIT_OK else (
            "numerical failure: --m-range 2..3 at 4 samples in 2 chunks is too much sampling: "
            "samples * sum((m + 10)^3) + 100000 * chunks = 215700 > 215699\n"))

    @pytest.mark.parametrize("argv, m, n, samples, chunks", [
        (["estimate", "--m", "2", "--n", "2", "--which", "coherence", "--samples", "10000000",
          "--chunk", "1"], 2, 2, 10**7, 10**7),
        (["estimate", "--m", "3", "--n", "3", "--samples", str(10**17), "--chunk", str(10**16)],
         3, 3, 10**17, 10),
        (["estimate", "--m", "2", "--n", str(2**40), "--samples", "2", "--chunk", "1"],
         2, 2**40, 2, 2),
        (["entangle", "--m", "4", "--n", "8", "--samples", str(10**8)], 4, 8, 10**8, 97657),
        (["concentration", "--m", "3", "--n", str(10**9), "--samples", "4", "--chunk", "2"],
         3, 10**9, 4, 2),
    ], ids=["many-chunks", "many-samples", "large-n", "entangle", "concentration-pair"])
    def test_sampling_past_work_limit_exits_two(self, tmp_path, monkeypatch, capsys, argv, m, n,
                                                samples, chunks):
        def listed(*args):
            pytest.fail("listed the tasks of a run past the work limit")

        monkeypatch.setattr(montecarlo, "_tasks", listed)
        work = samples * max((m + 10)**3, 64 * m * n) + 10**5 * chunks
        out = tmp_path / "w.json"
        assert main([*argv, "--workers", "2", "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: m = {m}, n = {n} at {samples} samples in {chunks} chunks is too "
            f"much sampling: samples * max((m + 10)^3, 64 m n) + 100000 * chunks = {work} > "
            f"{cli._SAMPLING_WORK}\n")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command, m, n, work", [
        # 4 samples in two chunks: 4 * 13^3 + 10^5 * 2 at m = n = 3, and the
        # Gaussians' 4 * 64 * 3 * 100 at n = 100
        ("estimate", 3, 3, 208788), ("estimate", 3, 100, 276800),
        ("entangle", 3, 3, 208788), ("concentration", 3, 100, 276800),
    ])
    @pytest.mark.parametrize("over", [0, 1])
    def test_sampling_work_limit_is_inclusive(self, tmp_path, monkeypatch, capsys, command, m, n,
                                              work, over):
        monkeypatch.setattr(cli, "_SAMPLING_WORK", work - over)
        out = tmp_path / "w.json"
        code = main([command, "--m", str(m), "--n", str(n), "--samples", "4", "--chunk", "2",
                     "--workers", "1", "--out", str(out)])
        assert code == (EXIT_NUMERICAL if over else EXIT_OK)
        assert out.exists() == (not over)
        assert capsys.readouterr().err == ("" if not over else (
            f"numerical failure: m = {m}, n = {n} at 4 samples in 2 chunks is too much sampling: "
            f"samples * max((m + 10)^3, 64 m n) + 100000 * chunks = {work} > {work - 1}\n"))

    def test_benchmark_sweep_far_below_concentration_limit(self, tmp_path, monkeypatch):
        # the sweep of the benchmark's `tails-small-m` passes a limit 100 times lower
        monkeypatch.setattr(cli, "_SAMPLING_WORK", cli._SAMPLING_WORK // 100)
        assert main(["concentration", "--m-range", "2..12", "--samples", "4096", "--chunk", "256",
                     "--workers", "1", "--out", str(tmp_path / "c.json")]) == EXIT_OK

    @pytest.mark.parametrize("limit, code", [(72, EXIT_OK), (71, EXIT_NUMERICAL)])
    def test_formula_work_limit_is_inclusive(self, tmp_path, monkeypatch, capsys, limit, code):
        # one pair at mn = 6 is (1 + 1) * 6^2 = 72 units of work
        monkeypatch.setattr(cli, "_FORMULA_WORK", limit)
        out = tmp_path / "f.json"
        assert main(["formula", "--m", "2", "--n", "3", "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
        assert capsys.readouterr().err == ("" if code == EXIT_OK else (
            "numerical failure: 1 formula pairs up to mn = 6 are too much exact "
            "arithmetic: (pairs + 1) * mn^2 = 72 > 71\n"))


def _benchmark_argv(workload: str) -> list[str]:
    """The one command of a workload of the benchmark in perfbench/."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    (command,) = workloads[workload]
    return list(command.argv)


@pytest.mark.skipif(not pool._FORKS, reason="the tasks run in one process here")
class TestPoolSizing:
    """A drawing run forks one worker per pool._WORKER_WORK units of its
    sampling work, and at least one, up to --workers."""

    @pytest.mark.parametrize("workload, expected", [("subentropy-m32", 1), ("mc-all-m16", 2)])
    def test_benchmark_runs(self, tmp_path, forks, workload, expected):
        argv = _benchmark_argv(workload)
        _, two = run_to_file(tmp_path, "two.json", argv + ["--workers", "2"])
        assert len(forks) == expected
        _, one = run_to_file(tmp_path, "one.json", argv + ["--workers", "1"])
        assert len(forks) == expected  # --workers 1 runs here
        assert payload_lines(two) == payload_lines(one)

    @pytest.mark.parametrize("samples, chunk", [(2, 1), (4096, 256), (10**6, 1024), (7, 3)])
    def test_sweep_closed_form_is_the_summed_measure(self, monkeypatch, samples, chunk):
        # the work that the sweep's refusal line reports, under a limit below any work
        monkeypatch.setattr(cli, "_SAMPLING_WORK", -1)
        args = argparse.Namespace(samples=samples)
        for low in range(2, 41):
            for high in range(low, 41):
                ms = range(low, high + 1)
                with pytest.raises(DomainError) as refusal:
                    cli._bound_sampling(args, {"chunk": chunk}, ms)
                work = re.fullmatch(r".* chunks = (\d+) > -1", str(refusal.value))
                assert int(work[1]) == montecarlo.sampling_work(
                    [(m, m) for m in ms], samples, chunk), (ms, samples, chunk)


class TestJsonRecords:
    def test_non_finite_fields_written_as_null(self):
        stream = io.StringIO()
        manifest = {"record": "manifest", "command": "estimate", "parameters": {}, "seed": 0,
                    "chunk": 1, "started": "", "finished": "", "tool_version": "0"}
        rows = [{"z": _z_score(1.0, 0.0, 0.0), "mean": math.nan, "target": 0.1}]
        _emit(stream, manifest, rows, "json")
        line = stream.getvalue().splitlines()[1]
        assert json.loads(line) == {"z": None, "mean": None, "target": 0.1}
        assert line.endswith('"target":0.10000000000000001}')


class TestGoldenExactPayloads:
    """SHA-256 of every line after the manifest, recorded with kernels that
    reduced one `Fraction` per term. The records are exact rationals and
    correctly rounded floats, so the digests do not depend on the machine."""

    @pytest.mark.parametrize(
        "argv, rows, digest",
        [
            (["formula", "--m-range", "1..40", "--n-range", "1..40"], 820,
             "12a0f0629de0feaf0f5be7e58b8a37725d8c735febf7ba4c56119cd9c8e90678"),
            (["identities", "--max-m", "20", "--max-n", "20"], 630,
             "e60ae92c18e2e131464d6841150373a50767f75dd70538aa5329400af9b5ae7d"),
            # the CSV header and 820 rows; and one pair whose residuals are
            # formed over denominators of about 2,800 bits
            (["formula", "--m-range", "1..40", "--n-range", "1..40", "--format", "csv"], 821,
             "447b7e5b5adde8e4d4fd09963557049787705b04fc5a37b72e2006b2d965d378"),
            (["formula", "--m", "37", "--n", "53"], 1,
             "9b4d617740381972de54fe88ff9023032b4f87ba36395938990980ad59cc3478"),
        ],
    )
    def test_payload_digest(self, tmp_path, argv, rows, digest):
        code, text = run_to_file(tmp_path, "g.json", argv)
        assert code == EXIT_OK
        body = text.split("\n", 1)[1]
        assert len(body.splitlines()) == rows
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


class TestGoldenManifests:
    """The manifest record, timestamps aside, byte for byte: key order
    included, since the stream writes keys in dict order."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["formula", "--m", "2", "--n", "3"],
             {"command": "formula",
              "parameters": {"m": 2, "n": 3, "m_range": None, "n_range": None, "format": "json"},
              "seed": 0, "chunk": 1024}),
            (["formula", "--m-range", "1..3", "--n-range", "2..4", "--format", "csv"],
             {"command": "formula",
              "parameters": {"m": None, "n": None, "m_range": "1..3", "n_range": "2..4",
                             "format": "csv"},
              "seed": 0, "chunk": 1024}),
            (["estimate", "--m", "3", "--n", "4", "--samples", "20", "--which", "entropy",
              "--seed", "5", "--chunk", "8", "--workers", "1"],
             {"command": "estimate",
              "parameters": {"m": 3, "n": 4, "samples": 20, "which": "entropy", "format": "json"},
              "seed": 5, "chunk": 8}),
            (["concentration", "--m", "3", "--n", "4", "--samples", "20", "--eps", "0.1,0.3",
              "--workers", "1"],
             {"command": "concentration",
              "parameters": {"m": 3, "n": 4, "m_range": None, "eps": "0.1,0.3", "samples": 20,
                             "format": "json"},
              "seed": 0, "chunk": 1024}),
            (["concentration", "--m-range", "2..3", "--samples", "20", "--chunk", "7",
              "--workers", "1"],
             {"command": "concentration",
              "parameters": {"m": None, "n": None, "m_range": "2..3", "eps": "0.05,0.1,0.2",
                             "samples": 20, "format": "json"},
              "seed": 0, "chunk": 7}),
            (["identities", "--max-m", "2", "--max-n", "3", "--quadrature"],
             {"command": "identities",
              "parameters": {"max_m": 2, "max_n": 3, "quadrature": True, "format": "json"},
              "seed": 0, "chunk": 1024}),
            (["entangle", "--m", "3", "--n", "3", "--samples", "20", "--seed", "9",
              "--workers", "1"],
             {"command": "entangle",
              "parameters": {"m": 3, "n": 3, "samples": 20, "eps": "0.05,0.1,0.2",
                             "format": "json"},
              "seed": 9, "chunk": 1024}),
        ],
    )
    def test_manifest_record(self, tmp_path, monkeypatch, argv, expected):
        for name in ("SEED", "FORMAT", "WORKERS"):
            monkeypatch.delenv("SUBENT_" + name, raising=False)
        code, text = run_to_file(tmp_path, "m.out", argv)
        assert code == EXIT_OK
        line = text.splitlines()[0].removeprefix("# manifest: ")
        manifest = json.loads(line)
        del manifest["started"], manifest["finished"]
        expected = {"record": "manifest", **expected, "tool_version": "0.1.0"}
        assert json.dumps(manifest) == json.dumps(expected)


class TestCsvFormat:
    def test_mixed_rows_share_header(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "n.csv",
            ["entangle", "--m", "3", "--n", "3", "--samples", "500",
             "--seed", "2", "--workers", "1", "--format", "csv"],
        )
        assert code == EXIT_OK
        lines = text.splitlines()
        header = lines[1].split(",")
        assert "record" in header and "epsilon" in header and "mean" in header
        assert len(lines) == 2 + 1 + 3  # manifest, header, estimate row, three tails


def _run_capped(argv):
    """`python -m subent argv` in a child under a 60 s timeout whose address
    space is capped at 256 MB, so that no version of a command that grows
    without bound can fill the machine's memory."""
    limit = 256 * 2**20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return subprocess.run(
        [sys.executable, "-m", "subent", *argv], capture_output=True, text=True, timeout=60,
        env=source_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "subent", "formula", "--m", "2", "--n", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env=source_env(),
    )
    assert proc.returncode == 0
    assert '"avg_coherence":"1/4"' in out.read_text(encoding="utf-8")


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, subent.cli\n"
         "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quadrature_sweep_does_not_load_scipy(tmp_path):
    out = tmp_path / "q.json"
    argv = ["identities", "--max-m", "2", "--max-n", "2", "--quadrature", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom subent.cli import main\n"
         f"code = main({argv!r})\n"
         "print(code, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert sum('"record":"quadrature"' in line for line in out.read_text(encoding="utf-8").splitlines()) == 28


def _loaded(code: str, packages=("numpy", "mpmath")) -> list[str]:
    """The modules of `packages` a fresh interpreter holds after `code`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\n"
         f"print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] in {packages!r})))"],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["subent", "subent.cli", "subent.closedform"])
def test_import_does_not_load_numpy_or_mpmath(module):
    assert _loaded(f"import {module}") == []


def test_import_does_not_load_the_pool():
    assert _loaded("import subent.cli", ("concurrent", "multiprocessing")) == []


_COUNT_FORKS = """
import os
from subent import cli, identities
parent, forks, fork, oracle = os.getpid(), [], os.fork, identities.aomoto_quadrature_oracle

def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

def in_child(m, k, alpha):
    assert os.getpid() != parent, "integrated in the parent process"
    return oracle(m, k, alpha)

os.fork, identities.aomoto_quadrature_oracle = counted_fork, in_child
"""


@pytest.mark.skipif(_CPUS < 2 or not pool._FORKS, reason="needs two usable CPUs and forked workers")
def test_pooled_quadrature_does_not_load_numpy_or_mpmath(tmp_path):
    argv = ["identities", "--max-m", "3", "--max-n", "3", "--quadrature", "--workers", "2",
            "--out", str(tmp_path / "q.json")]
    # every integral ran in one of the two forked children, and no pool machinery was loaded
    loaded = _loaded(_COUNT_FORKS + f"assert cli.main({argv!r}) == 0\nassert len(forks) == 2",
                     ("numpy", "mpmath", "concurrent", "multiprocessing"))
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["formula", "--m", "2", "--n", "2"],
    ["identities", "--max-m", "3", "--max-n", "3", "--quadrature"],
])
def test_exact_commands_do_not_load_numpy_or_mpmath(tmp_path, argv):
    argv = argv + ["--out", str(tmp_path / "x.json")]
    assert _loaded(f"from subent.cli import main\nassert main({argv!r}) == 0") == []


def test_drawing_without_escalation_does_not_load_mpmath(tmp_path):
    # qcore imports mpmath only for rows the float pass cannot certify, and
    # none of these m = 4 rows reaches the digit passes
    assert _loaded("import subent.montecarlo", ("mpmath",)) == []
    argv = ["estimate", "--m", "4", "--n", "4", "--which", "subentropy", "--samples", "64",
            "--workers", "1", "--out", str(tmp_path / "e.json")]
    assert _loaded(f"from subent.cli import main\nassert main({argv!r}) == 0", ("mpmath",)) == []


def test_escalating_draw_loads_only_libmp(tmp_path):
    # the m = 96 rows reach the 40-digit table, which loads mpmath's libmp on
    # its own, under qcore's private name, and not the mpmath package
    argv = ["estimate", "--m", "96", "--n", "96", "--which", "subentropy", "--samples", "4",
            "--chunk", "2", "--workers", "1", "--out", str(tmp_path / "e.json")]
    loaded = _loaded(f"from subent.cli import main\nassert main({argv!r}) == 0",
                     ("mpmath", "_subent_libmp"))
    assert "_subent_libmp" in loaded
    assert [name for name in loaded if name.split(".")[0] == "mpmath"] == []


def test_screened_draw_loads_no_libmp(tmp_path):
    # the m = 32 rows pass the float pass uncertified, and the double-double
    # screen settles every one of them without the 40-digit table
    argv = ["estimate", "--m", "32", "--n", "32", "--which", "subentropy", "--samples", "8",
            "--chunk", "4", "--workers", "1", "--out", str(tmp_path / "e.json")]
    assert _loaded(f"from subent.cli import main\nassert main({argv!r}) == 0",
                   ("mpmath", "_subent_libmp")) == []


_BREAK_IDENTITY = """
from fractions import Fraction
from subent import identities
identities.gamma_ratio_sum_plain = lambda m, n: identities.IdentityReport(
    "gamma_ratio_sum_plain", (m, n), Fraction(m * n + 1), Fraction(m * n), False)
"""


# Both outputs are several times a pipe's 64 KiB, so the reader's close
# breaks the pipe while the records are still being written.
@pytest.mark.parametrize("setup, argv, expected", [
    ("", ["formula", "--m-range", "1..40", "--n-range", "1..40"], EXIT_OK),
    (_BREAK_IDENTITY, ["identities", "--max-m", "8", "--max-n", "120"], EXIT_VIOLATION),
], ids=["formula", "identity-violation"])
def test_closed_pipe_keeps_exit_code(setup, argv, expected):
    proc = subprocess.Popen(
        [sys.executable, "-c",
         setup + f"\nimport sys\nfrom subent.cli import run\nsys.argv = ['subent'] + {argv!r}\nrun()"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(),
    )
    assert proc.stdout.readline().startswith(b'{"record":"manifest"')
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == expected
    assert err == b""


def _mask_timestamps(text: str) -> str:
    return re.sub(r'"(started|finished)":"[^"]*"', r'"\1":""', text)


# The formula sweep writes 1.15 MB, more than any pipe buffer holds, so the
# process exits only after its reader has taken every byte.
@pytest.mark.parametrize("argv", [
    ["estimate", "--m", "4", "--n", "4", "--samples", "64", "--chunk", "8", "--workers", "2"],
    ["formula", "--m-range", "1..40", "--n-range", "1..40"],
], ids=["estimate", "formula"])
def test_module_run_writes_what_main_writes(argv, capsys):
    proc = subprocess.run([sys.executable, "-m", "subent"] + argv, capture_output=True,
                          timeout=120, env=source_env())
    assert main(argv) == proc.returncode == EXIT_OK
    assert proc.stderr == b""
    assert _mask_timestamps(proc.stdout.decode("utf-8")) == _mask_timestamps(capsys.readouterr().out)


def test_run_exit_code_is_the_records():
    proc = subprocess.run(
        [sys.executable, "-c",
         _BREAK_IDENTITY + "\nimport sys\nfrom subent.cli import run\n"
         "sys.argv = ['subent', 'identities', '--max-m', '2', '--max-n', '2']\nrun()"],
        capture_output=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == EXIT_VIOLATION
    assert proc.stderr == b""
    assert proc.stdout.count(b'"holds":false') == 3


def test_main_returns_records_exit_code_on_broken_pipe(monkeypatch):
    # a StringIO has no descriptor, so any redirect of one in main would raise
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["formula", "--m", "2", "--n", "2"]) == EXIT_OK


def test_violation_exit_code_is_distinct():
    assert EXIT_VIOLATION == 3 and EXIT_USAGE == 1 and EXIT_OK == 0
