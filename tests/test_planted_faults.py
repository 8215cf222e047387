"""Planted faults: each case breaks one name in-process and checks that the
command's exit code and one record or stderr line catch it.

`monkeypatch` restores every name after its case; no file of the package
changes. Every command runs at `--workers 1`, so the patched name is the one
the tasks see.
"""

import json

import pytest

from subent import closedform, quadpack
from subent.cli import EXIT_NUMERICAL, EXIT_VIOLATION, main


def run(tmp_path, argv):
    out = tmp_path / "records.json"
    code = main(argv + ["--workers", "1", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines() if out.exists() else []
    return code, [json.loads(line) for line in lines[1:]]


@pytest.fixture
def h7_off_by_one(monkeypatch):
    """H_7's numerator raised by one wherever 7 is requested; every other H_k
    and the denominator stay right, so the residuals cannot cancel."""
    numerators = closedform.harmonic_numerators

    def faulty(indices):
        a, denominator = numerators(indices)
        if 7 in a:
            a[7] += 1
        return a, denominator

    monkeypatch.setattr(closedform, "harmonic_numerators", faulty)


def test_series_numerator_fault_fails_formula(tmp_path, monkeypatch):
    # the residual is 1 / (m n L) with L = lcm(1..m n)
    numerator = closedform.subentropy_series_numerator
    monkeypatch.setattr(closedform, "subentropy_series_numerator",
                        lambda m, n, a: numerator(m, n, a) + 1)
    code, (row,) = run(tmp_path, ["formula", "--m", "3", "--n", "4"])
    assert code == EXIT_VIOLATION
    assert row["series_residual"] == "1/332640"


def test_gamma_ratio_term_fault_fails_formula(tmp_path, monkeypatch):
    terms = closedform.gamma_ratio_terms
    monkeypatch.setattr(closedform, "gamma_ratio_terms",
                        lambda m, n: terms(m, n)[:-1] + [terms(m, n)[-1] + 1])
    code, (row,) = run(tmp_path, ["formula", "--m", "3", "--n", "4"])
    assert code == EXIT_VIOLATION
    assert row["series_residual"] == "28271/332640"


def test_harmonic_table_fault_fails_formula(tmp_path, h7_off_by_one):
    code, (row,) = run(tmp_path, ["formula", "--m", "2", "--n", "7"])
    assert code == EXIT_VIOLATION
    assert row["series_residual"] == "1/90090"


def test_harmonic_table_fault_fails_identities(tmp_path, h7_off_by_one):
    code, rows = run(tmp_path, ["identities", "--max-m", "8", "--max-n", "8"])
    assert code == EXIT_VIOLATION
    failed = [row for row in rows if not row["holds"]]
    assert failed
    assert {row["name"] for row in failed} == {"gamma_ratio_sum_harmonic"}


def test_aomoto_closed_form_fault_fails_quadrature(tmp_path, monkeypatch):
    log = closedform.aomoto_moment_log
    monkeypatch.setattr(closedform, "aomoto_moment_log",
                        lambda m, k, alpha: log(m, k, alpha) + 1e-3 * (k > 0))
    code, rows = run(tmp_path, ["identities", "--max-m", "3", "--max-n", "3", "--quadrature"])
    assert code == EXIT_VIOLATION
    failed = [row for row in rows if row.get("ok") is False]
    assert len(failed) == 20
    assert {row["name"] for row in failed} == {"aomoto_moment"}


def test_normalization_fault_fails_quadrature(tmp_path, monkeypatch):
    log = closedform.aomoto_moment_log
    monkeypatch.setattr(closedform, "aomoto_moment_log",
                        lambda m, k, alpha: log(m, k, alpha) + 1e-3 * (m == 3 and k == 0))
    code, rows = run(tmp_path, ["identities", "--max-m", "3", "--max-n", "3", "--quadrature"])
    assert code == EXIT_VIOLATION
    failed = [row for row in rows if row.get("ok") is False]
    assert [(row["name"], row["m"]) for row in failed] == [("selberg_simplex", 3)] * 4


def test_kronrod_weight_fault_fails_quadrature(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(quadpack, "_WGK11", quadpack._WGK11 * 1.001)
    code, rows = run(tmp_path, ["identities", "--max-m", "3", "--max-n", "3", "--quadrature"])
    assert code == EXIT_NUMERICAL
    assert rows == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: 1-D error estimate ")
    assert line.endswith(" above target")
