"""Ordered map over forked worker processes, for the commands that fan work out.

On Linux `run_ordered` forks its workers directly: each child inherits the
function and the tasks, takes task indices from one shared pipe until it is
empty, and sends back one pickled list over a pipe of its own, so no
executor, result thread or lock starts, and no `concurrent` or
`multiprocessing` module is loaded. Where `os.fork` is
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
    Each worker takes the lowest task index no worker has taken yet, so a
    worker that finishes early takes more, and stops at its first failure.
    Results come back in task order; the exception of the lowest failing task
    propagates (every lower task was taken, and so run, before it), and a
    worker that ends without sending its results raises RuntimeError naming
    its exit status. Every worker is reaped before this returns or raises,
    and killed first if this process raises while they run.
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
    take, give = os.pipe()  # the task indices, _TICKET bytes each
    with open(give, "wb", buffering=0) as hand:
        try:
            try:
                for j in range(workers):
                    read, write = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        inherited = [read, give, *(stream.fileno() for stream in children.values())]
                        _child(fn, tasks, take, write, inherited)
                    os.close(write)
                    children[pid] = open(read, "rb")
            finally:
                os.close(take)
            _hand_out(hand, len(tasks))
            results, failures = [None] * len(tasks), []
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
                for index, result in share:
                    results[index] = result
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
    return results


# A write of at most PIPE_BUF bytes to a pipe is atomic, and Linux reads a
# pipe under its lock, so while every write holds whole tickets, each read
# of _TICKET bytes takes exactly one index.
_TICKET = 8
_BATCH = 512  # tickets per write: 4096 bytes, Linux's PIPE_BUF


def _hand_out(hand, count: int) -> None:
    """Write the indices 0..count-1 to the ticket pipe, then close it.

    A write blocks while the pipe is full and every worker is busy; the
    writing stops early once no worker reads any more."""
    try:
        for start in range(0, count, _BATCH):
            hand.write(b"".join(index.to_bytes(_TICKET, "little")
                                for index in range(start, min(start + _BATCH, count))))
    except BrokenPipeError:
        pass  # every worker has stopped; their results say why
    hand.close()


def _child(fn, tasks, take, write, inherited) -> None:
    """A worker: run the tasks it takes, send ([(index, result)], first
    failure or None), exit."""
    code = 1
    try:
        import pickle

        for fd in inherited:
            os.close(fd)
        share, failure = [], None
        while ticket := os.read(take, _TICKET):
            index = int.from_bytes(ticket, "little")
            try:
                share.append((index, fn(tasks[index])))
            except Exception as exc:
                failure = (index, exc)
                break
        # a worker that stops early must not keep the parent waiting to hand out
        os.close(take)
        data = pickle.dumps((share, failure), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as stream:
            stream.write(data)
        code = 0
    finally:
        # never return into the parent's stack, and skip its interpreter teardown
        os._exit(code)
