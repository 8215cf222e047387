"""Helpers the test modules share."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_env() -> dict:
    """The environment with this checkout's `src` leading PYTHONPATH, so a
    child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
