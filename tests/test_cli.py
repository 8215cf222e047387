import io
import json
import math
import os
import subprocess
import sys

import pytest

from subent import estimate_functional
from subent.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, RunManifest, _emit, _z_score, main


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

    def test_reruns_identical_apart_from_manifest(self, tmp_path):
        argv = ["estimate", "--m", "2", "--n", "2", "--which", "coherence",
                "--samples", "3000", "--seed", "11"]
        _, first = run_to_file(tmp_path, "a.json", argv + ["--workers", "1"])
        _, second = run_to_file(tmp_path, "b.json", argv + ["--workers", "2"])
        assert payload_lines(first) == payload_lines(second)

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

    def test_empty_range(self, tmp_path):
        code, text = run_to_file(tmp_path, "i.json", ["identities", "--max-m", "0"])
        assert code == EXIT_OK
        assert records(text) == []

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

    def test_unknown_command_usage(self):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

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

        monkeypatch.setattr("subent.cli.montecarlo.tail_experiment", fake_tails)
        out = tmp_path / "v.json"
        code = main(["concentration", "--m", "3", "--n", "3", "--samples", "100",
                     "--out", str(out)])
        assert code == EXIT_VIOLATION
        assert '"ok":false' in out.read_text()


class TestJsonRecords:
    def test_non_finite_fields_written_as_null(self):
        stream = io.StringIO()
        manifest = RunManifest("estimate", {}, 0, 1, "", "", "0")
        rows = [{"z": _z_score(1.0, 0.0, 0.0), "mean": math.nan, "target": 0.1}]
        _emit(stream, manifest, rows, "json")
        line = stream.getvalue().splitlines()[1]
        assert json.loads(line) == {"z": None, "mean": None, "target": 0.1}
        assert line.endswith('"target":0.10000000000000001}')


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


def _source_env() -> dict:
    """The environment with this checkout's `src` leading PYTHONPATH, so a
    child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "subent", "formula", "--m", "2", "--n", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env=_source_env(),
    )
    assert proc.returncode == 0
    assert '"avg_coherence":"1/4"' in out.read_text(encoding="utf-8")


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, subent.cli\n"
         "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=_source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_violation_exit_code_is_distinct():
    assert EXIT_VIOLATION == 3 and EXIT_USAGE == 1 and EXIT_OK == 0
