"""``_util.map_units``: the loop's results and errors, with one forked child.

The worker count is the helper's one seam: a test that needs the forked path
swaps in a fake ``_workers``.  Such a test may fork while unpinned BLAS runs
its threads, which the helper itself never does; Python 3.12 warns about it.
"""

import os
import threading
import time

import pytest

import netlsm._util
from netlsm._util import _workers, map_units

pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count ``map_units`` sees; assert no child is left after the test."""
    def use(n):
        monkeypatch.setattr(netlsm._util, "_workers", lambda: n)

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_in(failing):
    """A unit that returns its item, or raises a per-item error for items in ``failing``."""
    def unit(k):
        if k in failing:
            raise (ValueError if k % 2 else LookupError)(f"item {k} failed")
        return k
    return unit


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_results_in_item_order_item_0_here_the_rest_in_one_child(workers, n):
    workers(n)
    parent = os.getpid()
    out = map_units(lambda k: (k * 0.1, os.getpid()), range(7))
    assert [v for v, _ in out] == [k * 0.1 for k in range(7)]
    # at 1 worker every item runs here; else item 0 here and the rest in one
    # child, however many workers there are
    assert [pid == parent for _, pid in out] == [n == 1 or k == 0 for k in range(7)]
    assert len({pid for _, pid in out}) == min(n, 2)
    assert map_units(lambda k: k, []) == []
    assert map_units(lambda k: os.getpid(), [0]) == [parent]


@pytest.mark.parametrize("failing, first", [
    ({1, 2}, 1),  # the child's first item
    ({2, 3}, 2),  # a later item of the child's
    ({3, 5}, 3),  # the child's, with an item before it done
    ({0, 1}, 0),  # this process's item, before the child's
], ids=["child-first", "inline-first", "child-only", "item-0"])
def test_first_failing_item_raises(workers, failing, first):
    workers(2)
    with pytest.raises(Exception) as loop:
        [raise_in(failing)(k) for k in range(6)]
    assert str(loop.value) == f"item {first} failed"
    with pytest.raises(type(loop.value), match=f"^item {first} failed$"):
        map_units(raise_in(failing), range(6))


def test_the_earliest_failure_wins_over_the_order_children_are_read(workers):
    # items 1 to 5 run in the one child, however many workers there are; it
    # stops at item 2, so item 4's error is never raised
    workers(3)
    with pytest.raises(LookupError, match="^item 2 failed$"):
        map_units(raise_in({4, 2}), range(6))


def test_worker_that_exits_early_raises_runtime_error(workers):
    workers(2)
    parent = os.getpid()

    def unit(k):
        if os.getpid() != parent:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match="status 3 without a result"):
        map_units(unit, range(4))


def test_unpicklable_error_reports_the_exit_status(workers):
    workers(2)

    def unit(k):
        if k == 1:
            raise ValueError(lambda: None)  # a lambda cannot be pickled
        return k

    with pytest.raises(RuntimeError, match="status 1 without a result"):
        map_units(unit, range(2))


def test_interrupt_kills_a_running_child(workers):
    workers(2)

    def unit(k):
        if k == 1:
            time.sleep(60)  # the child, killed when this process is interrupted
        raise KeyboardInterrupt

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        map_units(unit, range(2))
    assert time.perf_counter() - t0 < 30


def test_an_error_in_item_0_does_not_wait_for_the_children(workers):
    workers(2)

    def unit(k):
        if k == 1:
            time.sleep(60)
        raise ValueError("item 0 failed")

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="item 0 failed"):
        map_units(unit, range(2))
    assert time.perf_counter() - t0 < 30


def no_fork():
    raise AssertionError("os.fork called")


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert _workers() == 1
    assert map_units(lambda k: k + 1, range(5)) == [1, 2, 3, 4, 5]


def test_a_second_thread_means_no_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _workers() == 1
        assert map_units(lambda k: k + 1, range(5)) == [1, 2, 3, 4, 5]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
