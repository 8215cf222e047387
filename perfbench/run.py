#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the subent command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-all-m16 --seed 1 --seconds 25 --trace 0

With `--trace 0`, one client runs the workload's `python -m subent`
commands in fresh interpreters, each starting after the previous one exits,
for `--seconds` seconds (and at least eleven invocations), checks every
output and reports end-to-end metrics. With `--trace 1`, the commands run
in-process through `subent.cli.main` with `--workers 1`, twice traced and
once untraced, and the per-layer metrics come from the traced runs.
The last line of standard output is the JSON result; the lines before it
record the environment, the sample counts and the payload digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, CheckError, check_output, payload_digest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_INVOCATIONS = TAIL_BEYOND + 1  # the tail percentile needs ten samples beyond it
CHILD_TIMEOUT_S = 150
# Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = ("sampling.values", "montecarlo.samples_drawn", "montecarlo.eigvalsh_rows",
                "qcore.subentropy_escalated_rows", "montecarlo.pool_starts", "cli.records")
IMPORTTIME_MODULES = {"subent.cli": "setup.import_subent_s",
                      "subent.identities": "setup.identities_import_s",
                      "subent.montecarlo": "setup.montecarlo_import_s",
                      "numpy": "setup.numpy_import_s"}
_ENV_SNIPPET = """
import json, platform, subent.cli, numpy, scipy, mpmath
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    features = {}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "mpmath": mpmath.__version__,
    "blas": blas.get("name"), "blas_config": blas.get("openblas configuration"),
    "numpy_cpu_features": sorted(k for k, v in features.items() if v),
    "subent_file": subent.cli.__file__}))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Child:
    """Runs one child process to completion and measures it.

    Wall time, user plus system CPU and peak RSS come from wait4, so they
    cover the child and every worker process it waited for. A watchdog
    kills the child's whole process group if it outlives the timeout.
    """

    def __init__(self, env: dict, cwd: Path) -> None:
        self.env, self.cwd = env, cwd

    def run(self, argv: list[str], stdout, stderr=subprocess.DEVNULL):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env,
                                cwd=self.cwd, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}

    def output(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.cwd, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr


def child_env(root: Path, threads: dict[str, str]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUBENT_")}
    env.update(threads)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def environment(child: Child, root: Path, threads: dict[str, str]) -> dict:
    """Versions, BLAS, thread settings, CPU and caches; also warms the bytecode cache."""
    code, out, err = child.output([sys.executable, "-c", _ENV_SNIPPET])
    if code != 0:
        fail(f"cannot import subent from {root / 'src'}:\n{err}")
    record = json.loads(out)
    if not Path(record.pop("subent_file")).resolve().is_relative_to(root):
        fail("subent was imported from outside the checkout")
    cpuinfo = {}
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        cpuinfo.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    record.update({
        "threads": threads,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo.get("model name", "unknown"),
        "cpu_family_model": f"{cpuinfo.get('cpu family', '?')}/{cpuinfo.get('model', '?')}",
        "caches": {k: caches[k] for k in ("L2", "L3") if k in caches},
        "note": "measured without system-wide tracing or cache dropping",
    })
    return record


def fingerprint(env: dict) -> dict:
    """What decides the payload's floating-point bits on a machine."""
    keys = ("python", "numpy", "scipy", "mpmath", "blas_config", "numpy_cpu_features",
            "cpu_family_model")
    return {k: env[k] for k in keys}


def reference_digest(workload: str, seed: int, env: dict) -> str | None:
    """Digest recorded for this workload and seed on a machine like this one."""
    recorded = json.loads((HERE / "digests.json").read_text())
    if recorded["fingerprint"] != fingerprint(env):
        return None
    return recorded["digests"].get(workload, {}).get(str(seed))


def median(values):
    return statistics.median(values) if values else 0.0


def commands(workload: str, seed: int, workers: int) -> list[list[str]]:
    flags = ["--seed", str(seed), "--workers", str(workers)]
    return [list(cmd.argv) + flags for cmd in WORKLOADS[workload]]


def verdict(workload: str, index: int, seed: int, data: bytes, cache: dict):
    """(digest, work) of a checked output, or raise CheckError.

    Identical payload bytes get the verdict of their first check.
    """
    digest = payload_digest(data)
    if digest not in cache:
        try:
            cache[digest] = check_output(WORKLOADS[workload][index], seed, data)
        except CheckError as exc:
            cache[digest] = exc
    if isinstance(cache[digest], CheckError):
        raise cache[digest]
    return digest, cache[digest]


def measure_setup(child: Child) -> list[float]:
    argv = [sys.executable, "-c", "import subent.cli"]
    walls = []
    for _ in range(SETUP_REPEATS):
        sample = child.run(argv, subprocess.DEVNULL)
        if sample["returncode"] != 0:
            fail("import subent.cli failed")
        walls.append(sample["wall_s"])
    return walls


def closed_loop(workload, seed, seconds, workers, child, workdir, env_record):
    """One client, next invocation after the previous one exits."""
    argvs = commands(workload, seed, workers)
    per_command = [[] for _ in argvs]
    digests: list[set] = [set() for _ in argvs]
    cache: dict = {}
    failed = attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_INVOCATIONS:
        for index, argv in enumerate(argvs):
            out_path = workdir / f"cmd{index}.out"
            with open(out_path, "wb") as handle:
                sample = child.run([sys.executable, "-m", "subent"] + argv, handle)
            attempted += 1
            try:
                if sample["returncode"] != 0:
                    raise CheckError(f"exit code {sample['returncode']}")
                digest, sample["work"] = verdict(workload, index, seed,
                                                 out_path.read_bytes(), cache)
                digests[index].add(digest)
                if len(digests[index]) > 1:
                    raise CheckError("payload differs from an earlier run of the same command")
            except CheckError as exc:
                failed += 1
                print(f"check failed: {' '.join(argv)}: {exc}")
                continue
            per_command[index].append(sample)
    # A workload of two commands reports the mean of the per-command
    # medians, so the figure does not jump between the two clusters.
    def mean_of_medians(key):
        return statistics.fmean(median([s[key] for s in samples]) for samples in per_command)

    walls = sorted(s["wall_s"] for samples in per_command for s in samples)
    wall_s = mean_of_medians("wall_s")
    work = sum(median([s["work"] for s in samples]) for samples in per_command)
    rank = max(len(walls) - TAIL_BEYOND, 1)
    print(f"invocations: {len(walls)} checked, {failed} failed of {attempted}; "
          f"wall_s_tail is order statistic {rank} of {len(walls)} "
          f"(p{100.0 * rank / max(len(walls), 1):.0f}, ten samples beyond it)")
    for argv, samples in zip(argvs, per_command):
        print(f"wall_s samples of {argv[0]}: " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    per_digest = [next(iter(d), "missing") if len(d) <= 1 else "inconsistent" for d in digests]
    if not report_digest(workload, seed, per_digest, env_record):
        failed = attempted
    metrics = {
        "wall_s": wall_s,
        "wall_s_tail": walls[rank - 1] if walls else 0.0,
        "cpu_s": mean_of_medians("cpu_s"),
        "peak_rss_mb": mean_of_medians("rss_mb"),
        "work_per_s": work / (wall_s * len(argvs)) if wall_s else 0.0,
    }
    return metrics, attempted, failed


def report_digest(workload, seed, per_command, env_record) -> bool:
    """Print the workload's payload digest; False if it contradicts the record."""
    digest = hashlib.sha256("\n".join(per_command).encode()).hexdigest()
    expected = reference_digest(workload, seed, env_record)
    status = ("no reference for this seed and machine" if expected is None
              else "matches the reference" if expected == digest else "DIFFERS from the reference")
    print(f"payload digest {workload} seed {seed}: {digest} ({status})")
    return expected is None or expected == digest


def importtime(child: Child) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime`."""
    code, _, err = child.output([sys.executable, "-X", "importtime", "-c", "import subent.cli"])
    if code != 0:
        fail("import subent.cli failed")
    found = {}
    for line in err.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match and match.group(2) in IMPORTTIME_MODULES:
            found[IMPORTTIME_MODULES[match.group(2)]] = int(match.group(1)) * 1e-6
    return found


def in_process(child: Child, workload, seed, trace: int, workdir: Path) -> dict:
    run_dir = workdir / f"inproc-{trace}-{time.monotonic_ns()}"
    run_dir.mkdir()
    argvs = commands(workload, seed, 1)
    code, out, err = child.output([sys.executable, str(HERE / "inproc.py"), "--trace", str(trace),
                                   "--out-dir", str(run_dir), "--commands", json.dumps(argvs)])
    if code != 0:
        fail(f"in-process run failed:\n{err}")
    report = json.loads(out.splitlines()[-1])
    report["outputs"] = [(run_dir / f"cmd{i}.out").read_bytes() for i in range(len(argvs))]
    return report


def traced(workload, seed, workers, child, workdir, env_record):
    """Per-layer metrics from two traced in-process runs, checked against
    an untraced in-process run and against one CLI pass at `workers`."""
    cache: dict = {}

    def digest_of(index, code, data) -> str | None:
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            return verdict(workload, index, seed, data, cache)[0]
        except CheckError as exc:
            print(f"check failed: {workload} command {index}: {exc}")
            return None

    cli_digests = []
    for index, argv in enumerate(commands(workload, seed, workers)):
        out_path = workdir / f"cmd{index}.out"
        with open(out_path, "wb") as handle:
            sample = child.run([sys.executable, "-m", "subent"] + argv, handle)
        cli_digests.append(digest_of(index, sample["returncode"], out_path.read_bytes()))
    imports = [importtime(child) for _ in range(3)]
    plain = in_process(child, workload, seed, 0, workdir)
    runs = [in_process(child, workload, seed, 1, workdir) for _ in range(2)]
    attempted, failed = len(cli_digests), cli_digests.count(None)
    for run in [plain] + runs:
        digests = [digest_of(i, code, data)
                   for i, (code, data) in enumerate(zip(run["returncodes"], run["outputs"]))]
        mismatched = sum(d is None or d != c for d, c in zip(digests, cli_digests))
        if mismatched:
            print(f"in-process payload differs from the --workers {workers} CLI payload")
        attempted += len(digests)
        failed += mismatched
        run.setdefault("layers", {}).update({
            "cli.records": sum(data.count(b"\n") - 1 for data in run["outputs"]),
            "cli.bytes_out": sum(len(data) for data in run["outputs"]),
        })
    if None not in cli_digests and not report_digest(workload, seed, cli_digests, env_record):
        failed = attempted
    for name in EXACT_COUNTS:
        if runs[0]["layers"][name] != runs[1]["layers"][name]:
            failed = attempted
            print(f"self-test: {name} differs between two traced runs: "
                  f"{runs[0]['layers'][name]} != {runs[1]['layers'][name]}")
    layers = {name: statistics.fmean(run["layers"][name] for run in runs)
              for name in runs[0]["layers"]}
    for name in IMPORTTIME_MODULES.values():
        layers[name] = median([found.get(name, 0.0) for found in imports])
    layers["trace.overhead_s"] = (statistics.fmean(sum(run["main_s"]) for run in runs)
                                  - sum(plain["main_s"]))
    return layers, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="subent CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in an unsigned 64-bit integer")

    root = Path.cwd().resolve()
    if not (root / "src" / "subent" / "cli.py").is_file():
        fail(f"no subent sources under {root / 'src'}; run from the root of a checkout")
    # The metric names and units are those BENCHMARK.json declares.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    child = Child(child_env(root, threads), root)
    workers = min(2, len(os.sched_getaffinity(0)))

    try:
        env_record = environment(child, root, threads)
        env_record["loadavg_before"] = _read("/proc/loadavg")
        env_record["workers"] = workers
        print("environment: " + json.dumps(env_record))
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, workers, child,
                                                workdir, env_record)
        else:
            setup = measure_setup(child)
            print(f"setup_s: median of {len(setup)} fresh imports: "
                  + ", ".join(f"{s:.4f}" for s in setup))
            metrics, attempted, failed = closed_loop(args.workload, args.seed, args.seconds,
                                                     workers, child, workdir, env_record)
            metrics["setup_s"] = median(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
