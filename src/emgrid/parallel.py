"""Forked processes for the commands that take --threads, and OpenBLAS's
thread count.

forked_map(fn, items, workers) yields fn(item) for every item, in item
order, computed in W = workers processes: the caller (process 0) computes
items 0, W, 2W, ... and each of W - 1 forked multiprocessing workers,
worker w, items w, w + W, ..., each sending its results to the caller over
its own one-way Pipe. The caller computes its own items while it waits, so
that its memory allocator stays warm for the work that follows, and takes
whichever results have arrived before each of them. A worker ends through
os._exit only, which runs no handler and flushes no buffer the caller also
holds.

An item that fails, in the caller or in a worker, fails the map once every
earlier item has been yielded, so results and the exception are those of
the one-process loop. A worker sends its exception with the frame that
raised it (as worker_frame, which errors.raised_at reports; the traceback
stays behind), or a RuntimeError with the same text where the exception
does not survive pickling; a worker that ends before it has sent all its
results, as one the kernel's out-of-memory killer ends, fails its next
item with ChildProcessError. However the map ends, every worker is killed
and reaped and every pipe closed. With W = 1 the caller computes every
item itself, forks nothing and never imports multiprocessing.

A forked worker inherits OpenBLAS's thread count, and two processes each
running a multi-threaded product on the same cores slow each other down
several times over. The position sweep (evaluation) therefore forks only
when openblas_threads() finds the loaded OpenBLAS's thread-count functions,
through ctypes, and holds every process at one BLAS thread while it runs
(one_blas_thread); OpenBLAS stops its own threads before a fork.
"""

import contextlib
import os
import pickle
import warnings

from .errors import raised_at

# (getter, setter) names: numpy's vendored OpenBLAS, then a plain build
_OPENBLAS_NAMES = (("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_set_num_threads64_"),
                   ("openblas_get_num_threads", "openblas_set_num_threads"))


def worker_count(threads: int, cpus: int, jobs: int) -> int:
    """W: one worker process per thread asked for, but no more than the
    usable CPUs or the jobs to share out, and at least one."""
    return max(1, min(threads, cpus, jobs))


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_map(fn, items, workers: int):
    """Yield fn(item) for each item of the sliceable sequence items, in
    order, computed in `workers` processes as the module docstring says.
    Close the generator if it is left before its end: that ends the
    workers."""
    if workers == 1:
        for item in items:
            yield fn(item)
        return
    import multiprocessing  # here, so that W = 1 never pays its import
    from multiprocessing.connection import wait
    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for w in range(1, workers):
            receiving, sending = context.Pipe(duplex=False)
            pipes.append(receiving)
            proc = context.Process(target=_worker,
                                   args=(fn, items[w::workers], sending))
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of numpy's idle BLAS threads, which
                    # OpenBLAS stops before a fork
                    warnings.simplefilter("ignore", DeprecationWarning)
                    proc.start()
            finally:
                sending.close()
            procs.append(proc)
        count = len(items)
        own_items = iter(items[::workers])
        next_own = 0  # the caller's next item
        listening = dict(zip(pipes, range(1, workers)))
        received = [0] * workers  # results received from each worker
        results = {}  # index -> (True, result) or (False, exception)
        failed = count  # the first index known to fail
        for index in range(count):
            while index not in results:
                busy = next_own < failed
                ready = wait(list(listening), 0 if busy else None) \
                    if listening else ()
                for pipe in ready:
                    w = listening[pipe]
                    at = w + received[w] * workers
                    try:
                        results[at] = pipe.recv()
                        received[w] += 1
                    except EOFError:  # the worker has ended
                        del listening[pipe]
                        if at >= count:
                            continue
                        procs[w - 1].join()
                        code = procs[w - 1].exitcode
                        ended = (f"by signal {-code}" if code < 0
                                 else f"with status {code}")
                        results[at] = (False, ChildProcessError(
                            f"worker {w} ended {ended}"))
                    if not results[at][0]:
                        failed = min(failed, at)
                if busy and next_own < failed:
                    try:
                        results[next_own] = (True, fn(next(own_items)))
                    except Exception as e:
                        results[next_own] = (False, e)
                        failed = next_own
                    next_own += workers
            ok, result = results.pop(index)
            if not ok:
                raise result
            yield result
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a worker already reaped
            proc.join()
            proc.close()
        for pipe in pipes:
            pipe.close()


def _worker(fn, items, pipe) -> None:
    """A forked worker's whole life: send (True, fn(item)) for each item,
    or (False, the exception) for the first that fails, and end the
    process with os._exit."""
    code = 1
    try:
        for item in items:
            pipe.send((True, fn(item)))
        code = 0
    except BaseException as e:  # re-raised by the caller, which ends this worker
        frame = raised_at(e)
        try:
            pickle.loads(pickle.dumps(e))
        except Exception:
            e = RuntimeError(f"{type(e).__name__}: {e}")
        e.worker_frame = frame
        pipe.send((False, e))
    finally:
        os._exit(code)


def openblas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, found by its file name in /proc/self/maps; None where there is
    no such library or it exports neither name pair of _OPENBLAS_NAMES."""
    import ctypes  # here, so that a sweep in one process never pays its import
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({fields[5].rstrip("\n") for fields in
                            (line.split(maxsplit=5) for line in f)
                            if len(fields) == 6 and "openblas" in
                            os.path.basename(fields[5]).lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_NAMES:
            try:
                get, set_count = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_count.argtypes, set_count.restype = [ctypes.c_int], None
            return get, set_count
    return None


@contextlib.contextmanager
def one_blas_thread(blas):
    """Hold the OpenBLAS of blas = openblas_threads() at one thread inside
    the block, in this process and in those it forks there, and restore
    its thread count after."""
    get, set_count = blas
    old = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(old)
