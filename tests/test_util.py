"""``_util``: ``read_csv``'s two paths, ``map_units``' results and errors
with one forked child, and ``scipy_extension``'s one instance per module.

``read_csv`` must give, on any bytes, the result or the error of its ``csv``
loop, ``_csv_rows``, which stays callable as the reference.

The worker count is ``map_units``' one seam: a test that needs the forked
path swaps in a fake ``_workers``.  Such a test may fork while unpinned BLAS
runs its threads, which the helper itself never does; Python 3.12 warns
about it.
"""

import csv
import dataclasses
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netlsm._util
from netlsm import save_network
from netlsm._util import _csv_rows, _decoded, _workers, map_units, read_csv, scipy_extension
from netlsm.network import load_network_dir
from netlsm.simulate import SimConfig, simulate
from netlsm.survival import SurvivalGenConfig, TransplantDataset, simulate_transplants

from helpers import networks_equal

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


def test_a_scipy_extension_is_loaded_once_under_its_own_name(monkeypatch):
    from scipy.optimize import _zeros

    assert scipy_extension("optimize._zeros") is _zeros
    monkeypatch.delitem(sys.modules, "scipy.optimize._zeros")
    fresh = scipy_extension("optimize._zeros")
    assert fresh.__name__ == "scipy.optimize._zeros" and fresh.__file__ == _zeros.__file__
    assert sys.modules["scipy.optimize._zeros"] is fresh
    assert scipy_extension("optimize._zeros") is fresh
    with pytest.raises(ImportError, match=r"no compiled module scipy\.optimize\._nothing in "):
        scipy_extension("optimize._nothing")
    # the module's package directory comes from its dotted name
    from scipy.linalg import _flapack

    assert scipy_extension("linalg._flapack") is _flapack
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    fresh = scipy_extension("linalg._flapack")
    assert fresh.__name__ == "scipy.linalg._flapack" and fresh.__file__ == _flapack.__file__
    assert sys.modules["scipy.linalg._flapack"] is fresh
    with pytest.raises(ImportError, match=r"no compiled module scipy\.linalg\._zeros in "):
        scipy_extension("linalg._zeros")


class Fault(ValueError):
    pass


def outcome(read, path):
    """``read(path)``'s result, or its exception's type and message."""
    try:
        return read(path)
    except Fault as exc:
        return type(exc), str(exc)


def csv_loop(path):
    return _csv_rows(path, _decoded(path, Fault)[1], Fault)


PLAIN = "ab Z\x1c\t\u00e9\u00a0\u2028"  # characters the unquoted split takes
NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v)


@st.composite
def tables(draw):
    """A CSV table as bytes: random labels and numbers, blank, short and
    long rows, an optional byte-order mark and a final line feed or not."""
    # half the tables hold only characters the unquoted split takes
    label = st.text(st.sampled_from(PLAIN + draw(st.sampled_from(["", ',"\r\x00']))),
                    max_size=6)
    n = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(label, min_size=n, max_size=n)))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append("".join(draw(st.lists(st.sampled_from(" ,\t\u00a0"), max_size=4))))
        else:
            k = n if kind == "row" else draw(st.integers(1, n + 2))
            lines.append(",".join(draw(st.lists(st.one_of(label, NUMBER), min_size=k,
                                                max_size=k))))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(tables(), st.sampled_from([8, 30, 131072]))
@example(b"a,b\nc\nd,e,f\n", 131072)  # a short and a long row: the comma count is right
@example(b"a,b\n\x00,1\n", 131072)  # Python 3.10's csv refuses a NUL
@example(b"a,b\n,\n1,2\n", 131072)  # a blank row of commas, nothing to strip
@example(b"a,b\n \t, \n1,2\n", 131072)  # a blank row that strips to nothing
@example(b" a , b \n1,2", 131072)  # a padded header
@example(b"a,b\nx\xc2\xa0,1\n", 131072)  # a cell padded with U+00A0
@example(b"a,b\nc d,1\n", 131072)  # an inner space, which stripping keeps
def test_read_csv_is_its_csv_loop(tmp_path_factory, data, limit):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    old = csv.field_size_limit(limit)  # a small limit puts some fields over it
    try:
        assert outcome(lambda p: read_csv(p, Fault), path) == outcome(csv_loop, path)
    finally:
        csv.field_size_limit(old)


def test_files_netlsm_writes_are_split_without_csv(tmp_path, monkeypatch):
    net = simulate(SimConfig(n_d=6, n_r=5, seed=1)).observed
    net = dataclasses.replace(net, donor_labels=[f"\u00e9 {lab}" for lab in net.donor_labels],
                              recipient_labels=[f"{lab} x" for lab in net.recipient_labels])
    save_network(net, tmp_path / "net")
    train = simulate_transplants(SurvivalGenConfig(n_per_split=200, seed=1))[0]
    train.to_csv(tmp_path / "train.csv")

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    assert networks_equal(net, load_network_dir(tmp_path / "net"))
    data = TransplantDataset.from_csv(tmp_path / "train.csv")
    for f in dataclasses.fields(TransplantDataset):
        assert np.array_equal(getattr(data, f.name), getattr(train, f.name))
