#!/usr/bin/env python3
"""Feed broken outputs to the benchmark's checks; exit 1 if one is accepted.

Run from the root of a source checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from workloads import CheckError, Command, check_output, payload_digest

SEED = 3
CASES = (
    Command(("estimate", "--m", "3", "--n", "4", "--which", "all", "--samples", "2000"), 3),
    Command(("entangle", "--m", "3", "--n", "3", "--samples", "2000"), 4),
    Command(("formula", "--m-range", "1..3", "--n-range", "1..3"), 6),
    Command(("identities", "--max-m", "2", "--max-n", "2", "--quadrature"), 37),
)
# (command index, text to find, replacement): each must be rejected.
BREAKAGES = (
    (0, '"mean":0.', '"mean":nan,"x":0.'),
    (0, '"mean":0.', '"mean":1.'),
    (0, '"count":2000', '"count":1999'),
    (1, '"ok":true', '"ok":false'),
    (1, '"empirical_fraction":', '"empirical_fraction":2,"x":'),
    (2, '"avg_coherence":"1/4"', '"avg_coherence":"1/5"'),
    (2, '"series_residual":"0"', '"series_residual":"1/7"'),
    (3, '"holds":true', '"holds":false'),
    (3, '"ok":true', '"ok":false'),
    (3, '"seed":3', '"seed":4'),
)


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    outputs = []
    for case in CASES:
        argv = [sys.executable, "-m", "subent", *case.argv, "--seed", str(SEED), "--workers", "1"]
        outputs.append(subprocess.run(argv, capture_output=True, env=env, cwd=root,
                                      check=True, timeout=120).stdout)
    problems = []
    for case, data in zip(CASES, outputs):
        try:
            check_output(case, SEED, data)
        except CheckError as exc:
            problems.append(f"a correct {case.argv[0]} output was rejected: {exc}")
        manifest, _, body = data.partition(b"\n")
        restamped = manifest.replace(b'"started":"', b'"started":"1') + b"\n" + body
        if payload_digest(restamped) != payload_digest(data):
            problems.append("the digest depends on the manifest timestamps")
        if payload_digest(data + b"\n") == payload_digest(data):
            problems.append("the digest ignores a changed payload byte")
        truncated = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
        try:
            check_output(case, SEED, truncated)
            problems.append(f"a truncated {case.argv[0]} output was accepted")
        except CheckError:
            pass
    for index, old, new in BREAKAGES:
        data = outputs[index]
        if old.encode() not in data:
            problems.append(f"breakage {old!r} found nothing to break")
            continue
        try:
            check_output(CASES[index], SEED, data.replace(old.encode(), new.encode(), 1))
            problems.append(f"{CASES[index].argv[0]} output with {old!r} -> {new!r} was accepted")
        except CheckError:
            pass
    for problem in problems:
        print(problem)
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
