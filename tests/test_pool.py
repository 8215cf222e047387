"""The forked ordered map: task order, failures, and no child left behind."""

import os
import signal
import time

import pytest

from subent import pool

pytestmark = pytest.mark.skipif(not pool._FORKS, reason="the tasks run in one process here")


@pytest.fixture
def four_cpus(monkeypatch):
    # the runner forks min(workers, tasks, usable CPUs) children
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(task):
    return task * task


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_results_in_task_order(four_cpus, workers):
    for count in range(10):
        tasks = list(range(count))
        assert pool.run_ordered(square, tasks, workers) == [square(task) for task in tasks]
    assert_no_child_left()


@pytest.mark.parametrize("workers, work, expected", [
    (3, 0, 1), (3, 2 * pool._WORKER_WORK - 1, 1), (3, 2 * pool._WORKER_WORK, 2), (3, 10**30, 3),
    (1, 10**30, 0),
])
def test_work_sizes_the_workers(forks, four_cpus, workers, work, expected):
    # one worker per _WORKER_WORK units, and at least one, up to the number
    # asked for; one asked for runs here
    tasks = list(range(8))
    assert pool.run_ordered(square, tasks, workers, work) == [square(task) for task in tasks]
    assert len(forks) == expected
    assert_no_child_left()


def test_lowest_failing_task_wins(four_cpus):
    def fail_at_three_and_six(task):
        if task in (3, 6):
            raise ValueError(f"task {task}")
        return task

    # tasks 3 and 6 can fail on different workers, and either worker may be read first
    with pytest.raises(ValueError, match="task 3"):
        pool.run_ordered(fail_at_three_and_six, list(range(8)), 2)
    assert_no_child_left()


def test_more_tasks_than_the_ticket_pipe_holds(four_cpus):
    # 20,000 eight-byte task indices are more than a 64 KiB pipe holds, so
    # handing them out blocks until the workers have taken some
    tasks = list(range(20_000))
    assert pool.run_ordered(square, tasks, 2) == [square(task) for task in tasks]
    assert_no_child_left()


def test_workers_that_all_stop_early_do_not_block_the_hand_out(four_cpus):
    # each worker's results outgrow its pipe before it fails, so it blocks
    # sending them while most task indices are still to be handed out
    def large_then_fail(task):
        if task < 4:
            return bytes(100_000)
        raise ValueError(f"task {task}")

    with pytest.raises(ValueError, match="task 4$"):
        pool.run_ordered(large_then_fail, list(range(20_000)), 2)
    assert_no_child_left()


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(7), 7),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "killed"])
def test_child_ending_without_result_names_status(four_cpus, end, status):
    def end_at_one(task):
        if task == 1:
            end()
        return task

    with pytest.raises(RuntimeError, match=f"exited with status {status} without a result"):
        pool.run_ordered(end_at_one, list(range(4)), 2)
    assert_no_child_left()


def test_interrupt_while_reading_kills_every_child(four_cpus):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # the children sleep far past the timer; the parent is blocked reading
    # their pipes when the interrupt arrives
    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            pool.run_ordered(time.sleep, [60.0] * 3, 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert_no_child_left()
