"""Ordered map over forked worker processes, for the commands that fan work out.

On Linux `run_ordered` forks its workers directly: each child inherits the
function and the tasks, runs its share and sends back one pickled list over
a pipe, so no executor, task queue or result thread starts, and no
`concurrent` or `multiprocessing` module is loaded. Where `os.fork` is
missing, or the platform is not Linux (macOS forks unsafely once system
frameworks have started threads), the tasks run in this process; no result
depends on which way they ran.
"""

from __future__ import annotations

import os

_FORKS = hasattr(os, "fork") and os.uname().sysname == "Linux"


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ordered(fn, tasks, workers: int) -> list:
    """[fn(task) for task in tasks], on up to `workers` forked processes.

    The workers never exceed the tasks or the CPUs this process may use; with
    one worker, or where this platform does not fork, the tasks run here.
    Worker j runs tasks j, j + w, j + 2w, ... in order and stops at its first
    failure. Results come back in task order; the exception of the lowest
    failing task propagates, and a worker that ends without sending its
    results raises RuntimeError naming its exit status. Every worker is
    reaped before this returns or raises, and killed first if this process
    raises while they run.
    """
    workers = min(workers, len(tasks), usable_cpus())
    if workers < 2 or not _FORKS:
        return [fn(task) for task in tasks]

    import pickle
    import sys

    # a child must not inherit buffered output it could write a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> reading end of its pipe, until the child is reaped
    try:
        for j in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [read, *(stream.fileno() for stream in children.values())]
                _child(fn, tasks, j, workers, write, inherited)
            os.close(write)
            children[pid] = open(read, "rb")
        shares, failures = [], []
        for j, (pid, stream) in enumerate(list(children.items())):
            with stream:
                data = stream.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                code = os.waitstatus_to_exitcode(status)
                failures.append((j, RuntimeError(
                    f"worker process {pid} exited with status {code} without a result")))
                continue
            share, failure = pickle.loads(data)
            shares.append(share)
            if failure is not None:
                failures.append(failure)
    except BaseException:
        import signal

        for pid, stream in children.items():
            stream.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[index % workers][index // workers] for index in range(len(tasks))]


def _child(fn, tasks, j, workers, write, inherited) -> None:
    """Worker j: run its share, send (results, first failure or None), exit."""
    code = 1
    try:
        import pickle

        for fd in inherited:
            os.close(fd)
        share, failure = [], None
        for index in range(j, len(tasks), workers):
            try:
                share.append(fn(tasks[index]))
            except Exception as exc:
                failure = (index, exc)
                break
        data = pickle.dumps((share, failure), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as stream:
            stream.write(data)
        code = 0
    finally:
        # never return into the parent's stack, and skip its interpreter teardown
        os._exit(code)
