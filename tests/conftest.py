"""Helpers and fixtures the test modules share."""

import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def source_env() -> dict:
    """The environment with this checkout's `src` leading PYTHONPATH, so a
    child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def every_worker_pays(monkeypatch):
    """Size the pool as if one unit of work paid for a worker, so that a run
    far below the real threshold still forks every worker it asks for."""
    from subent import pool

    monkeypatch.setattr(pool, "_WORKER_WORK", 1)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers the pool forks from here on; this process is
    given two usable CPUs unless a test sets its own."""
    from subent import pool

    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(pool.os, "fork", counted_fork)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids
