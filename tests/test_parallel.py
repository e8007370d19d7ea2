"""forked_map: results in item order from forked workers, failures raised in
item order, and every worker reaped however the map ends; and the OpenBLAS
thread-count lookup the position sweep pins BLAS with."""

import os
import signal

import pytest

from emgrid import parallel
from emgrid.errors import ConfigError, raised_at
from emgrid.parallel import forked_map, one_blas_thread, openblas_threads


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_results_come_in_item_order(workers, count):
    """Item i is computed by process i % W, whatever W."""
    got = list(forked_map(lambda i: (i, i * i, os.getpid()), range(count),
                          workers))
    assert [(i, sq) for i, sq, _ in got] == [(i, i * i) for i in range(count)]
    pids = [pid for _, _, pid in got]
    for i, pid in enumerate(pids):
        assert pid == pids[i % workers]
        assert (pid == os.getpid()) == (i % workers == 0)
    assert no_child_left()


@pytest.mark.parametrize("first, second", [(2, 5), (5, 2), (1, 4), (4, 3)])
def test_first_failing_item_is_raised_after_those_before_it(first, second):
    """Two items fail; whichever process fails first in time, the map
    yields every item before the first failing one and then raises its
    exception, as a loop in one process does."""
    def fn(i):
        if i in (first, second):
            raise ConfigError(f"item {i}")
        return i

    low = min(first, second)
    got = []
    with pytest.raises(ConfigError, match=f"^item {low}$") as caught:
        for value in forked_map(fn, range(8), 3):
            got.append(value)
    assert got == list(range(low))
    line = fn.__code__.co_firstlineno + 2
    assert raised_at(caught.value) == f"test_parallel.py:{line} in fn"
    assert no_child_left()


def test_worker_killed_without_a_word_fails_its_next_item():
    parent = os.getpid()

    def fn(i):
        if i == 4 and os.getpid() != parent:  # worker 1's second item
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    got = []
    with pytest.raises(ChildProcessError, match=f"by signal {signal.SIGKILL}"):
        for value in forked_map(fn, range(6), 3):
            got.append(value)
    assert got == [0, 1, 2, 3]
    assert no_child_left()


def test_closing_early_ends_every_worker():
    results = forked_map(lambda i: i, range(40), 2)
    assert next(results) == 0
    results.close()
    assert no_child_left()


def test_blas_thread_count_restored():
    blas = openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread count to set")
    get, set_count = blas
    before = get()
    try:
        set_count(2)
        with pytest.raises(ConfigError):
            with one_blas_thread(blas):
                assert get() == 1
                assert list(forked_map(lambda i: get(), range(4), 2)) == [1] * 4
                raise ConfigError("inside")
        assert get() == 2
    finally:
        set_count(before)


def test_openblas_lookup_needs_an_exported_name_pair(monkeypatch):
    monkeypatch.setattr(parallel, "_OPENBLAS_NAMES",
                        (("scipy_openblas_get_num_threads64_",
                          "no_such_set_num_threads"),))
    assert openblas_threads() is None
