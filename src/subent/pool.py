"""Ordered map over a process pool, for the commands that fan work out.

`concurrent.futures` is imported only when a pool starts, so a command that
runs in one process never loads it.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ordered(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], on up to `workers` processes.

    The pool never exceeds the tasks or the CPUs this process may use; with
    one worker the tasks run here. Results come back in task order, and the
    first exception a task raises, here or in a worker, propagates.
    """
    workers = min(workers, len(tasks), usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
