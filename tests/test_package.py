"""The package's public names, loaded on first access."""

import ast
import importlib
import json
import subprocess
import sys

import pytest

import subent
from conftest import ROOT, source_env

# Every name `subent` exports, by the submodule that defines it.
PUBLIC = {
    "closedform": [
        "average_coherence_exact", "average_entropy_exact", "average_subentropy_exact",
        "harmonic", "levy_coherence_bound", "normalization_integral",
    ],
    "entangle": ["average_embedded_entanglement"],
    "errors": ["ConvergenceFailure", "DimensionOrder", "DomainError", "QuadratureFailure",
               "SubentError"],
    "identities": [
        "IdentityReport", "aomoto_quadrature_oracle", "gamma_ratio_sum_harmonic",
        "gamma_ratio_sum_plain", "riordan_identity_check",
    ],
    "montecarlo": [
        "ConcentrationRow", "MonteCarloEstimate", "TailReport", "concentration_sweep",
        "estimate_functional", "estimate_induced", "tail_experiment",
    ],
    "qcore": ["EULER_GAMMA", "SUBENTROPY_MAX", "Spectrum", "subentropy", "von_neumann_entropy"],
    "sampling": ["RngStream"],
}

# Names only the tests use, now in tests/reference.py, by the submodule that
# exported them.
TEST_ONLY = {
    "closedform": [
        "ExactValue", "average_subentropy_series", "digamma_integer_diff",
        "isospectral_average_coherence", "levy_coherence_bound_half", "selberg_integral",
    ],
    "errors": ["DimensionMismatch", "SingularSample"],
    "montecarlo": ["LipschitzReport", "estimate_isospectral_coherence", "lipschitz_check"],
    "qcore": [
        "DensityMatrix", "Functionals", "PureState", "dephase", "functionals", "partial_trace",
        "relative_entropy_coherence", "spectrum_of",
    ],
    "sampling": [
        "UnitaryMatrix", "ginibre", "haar_pure_state", "haar_unitary", "induced_mixed_state",
        "isospectral_state",
    ],
}


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in PUBLIC.items() for name in names])
def test_public_name_is_the_submodule_object(module, name):
    assert getattr(subent, name) is getattr(importlib.import_module(f"subent.{module}"), name)
    assert name in dir(subent)
    assert name in subent.__all__


def test_all_is_the_public_table():
    assert sorted(subent.__all__) == sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in TEST_ONLY.items() for name in names])
def test_test_only_name_is_not_in_the_package(module, name):
    assert not hasattr(subent, name)
    assert name not in subent.__all__
    assert name not in dir(subent)
    assert not hasattr(importlib.import_module(f"subent.{module}"), name)


def test_montecarlo_binds_no_other_sampler():
    code = (
        "import sys, subent.montecarlo as mc\n"
        "print(hasattr(mc, 'haar_blocks'), hasattr(mc, 'pure_blocks'),\n"
        "      sorted(k for k in sys.modules if k.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "[]"]


def test_cli_starts_without_the_quadrature_modules(tmp_path):
    # `subent.cli` binds `identities`, whose quadrature oracles alone need
    # `quadpack`; a frozen dataclass would bring `dataclasses` and `inspect`
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import subent.cli\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(loaded & {'dataclasses', 'inspect', 'subent.quadpack'}))\n"
        "subent.cli.main(['formula', '--m-range', '1..3', '--n-range', '1..4', '--out', sys.argv[1]])\n"
        "print('subent.quadpack' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "f.json")],
                          capture_output=True, text=True, timeout=120, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


def test_closedform_loads_no_numeric_module():
    # the exact layer runs on the standard library; numpy and mpmath come
    # only with the commands that draw samples
    code = (
        "import sys\n"
        "import subent.closedform\n"
        "print(sorted(set(sys.modules) & {'subent.qcore', 'numpy', 'mpmath'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


# Imported names a module binds for others to read: perfbench/inproc.py reads
# `complex_normals` from `montecarlo` (ROADMAP, standing constraints).
READ_FROM_OUTSIDE = {"montecarlo": {"complex_normals"}}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "subent").glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    # a deleted function can leave its imports behind; `a.b` binds `a`
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - READ_FROM_OUTSIDE.get(path.stem, set())) == []


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        subent.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from subent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(subent.__all__)


def test_default_chunk_is_shared_with_montecarlo():
    from subent import montecarlo

    assert montecarlo.DEFAULT_CHUNK == subent.DEFAULT_CHUNK == 1024


def test_benchmark_tracer_finds_the_names_it_rebinds(tmp_path):
    # perfbench/inproc.py rebinds subent names from outside the package; a
    # renamed or deleted one fails the traced commands, not the package's tests
    commands = [
        ["entangle", "--m", "3", "--n", "3", "--samples", "4", "--workers", "1"],
        ["estimate", "--m", "3", "--n", "3", "--samples", "4", "--workers", "1"],
        ["identities", "--max-m", "2", "--max-n", "2", "--workers", "1"],
    ]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "--trace", "1",
         "--out-dir", str(tmp_path), "--commands", json.dumps(commands)],
        capture_output=True, text=True, timeout=120, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["returncodes"] == [0, 0, 0], proc.stderr
    assert report["layers"]["entangle.calls"] == 1


def test_benchmark_selftest_accepts_no_broken_output():
    # perfbench/selftest.py feeds broken command outputs to the benchmark's
    # output checks; a record change that lets one through fails here
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300, env=source_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 0 problems" in proc.stdout.splitlines()
