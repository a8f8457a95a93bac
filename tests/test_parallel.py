"""The shared thread pool: order, errors, and worker reuse."""

import threading
import time

import pytest

from bellbench import DomainError
from bellbench.parallel import parallel_map


def test_keeps_item_order():
    def late_for_early_items(x):
        time.sleep(0.002 * (10 - x))
        return x * x

    assert parallel_map(3, late_for_early_items, range(10)) == [x * x for x in range(10)]


def test_one_thread_runs_on_the_caller():
    seen = parallel_map(1, lambda _: threading.current_thread(), range(3))
    assert seen == [threading.current_thread()] * 3


def test_worker_exception_propagates():
    def fail_on_three(x):
        if x == 3:
            raise DomainError("three")
        return x

    with pytest.raises(DomainError, match="three"):
        parallel_map(2, fail_on_three, range(6))


def test_workers_persist_across_calls():
    threads = 3

    def workers():
        # the barrier holds every item until all `threads` workers run one
        barrier = threading.Barrier(threads, timeout=10)

        def where(_):
            barrier.wait()
            return threading.current_thread()

        return set(parallel_map(threads, where, range(threads)))

    first, second = workers(), workers()
    assert len(first) == threads
    assert threading.current_thread() not in first
    assert first == second
