"""How a scan's cells run at once: the scan's thread pool and, under the
pure-Python fallback, the kernel worker processes behind it.

Compiled kernels drop the GIL, so under numba the threads of ``scan_pool``
compute side by side.  The fallback holds the GIL, so there a scan first
forks one kernel worker process per thread, up to the usable CPUs, and each
thread of the pool takes its own worker's pipe in the pool's initializer.
The six run kernels are wrapped by ``in_worker``: a call made on a scan
thread is sent down the thread's pipe, the worker runs the plain kernel and
sends back the result and the ndarray arguments (the run's output buffers),
and the thread waits on the pipe without the GIL.  Calls from any other
thread run in place.  An exception raised in the worker is raised again in
the caller, so ``model.run_kernel``'s float64 rerun still happens, itself in
the worker.  The dispatch sits under the ``_kernels`` module attributes,
which callers look up and ``bench/tracer.py`` wraps, so every traced call,
its time and its counts stay on the scan's threads in the parent process.
"""

import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ChaoskitError

# The plain run kernels by name, as a kernel worker process runs them.
_PLAIN = {}
# Holds ``conn``, the pipe to this thread's worker, on a scan's threads.
_scan_thread = threading.local()


def in_worker(fn):
    """fn, called in place or, on a thread holding a worker's pipe, in that
    worker, whose ndarray arguments are copied back into the caller's own.
    It carries fn's names, docstring and module, and no ``__wrapped__``."""
    name = fn.__name__
    _PLAIN[name] = fn

    def kernel(P, *args):
        conn = getattr(_scan_thread, "conn", None)
        if conn is None:
            return fn(P, *args)
        try:
            conn.send((name, P, args))
            ok, result, arrays = conn.recv()
        except (EOFError, OSError):
            ok, result = False, ChaoskitError(f"a kernel worker process exited during {name}")
        if not ok:
            raise result
        for mine, theirs in zip(_arrays(args), arrays):
            mine[...] = theirs
        return result

    for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
        setattr(kernel, attr, getattr(fn, attr))
    return kernel


def _arrays(args):
    return [a for a in args if isinstance(a, np.ndarray)]


def serve(conn, inherited):
    """The loop of a kernel worker process: run each (name, P, args) that
    arrives on ``conn`` and send back (True, result, the ndarray arguments)
    or (False, the exception, None), until the scan closes its end.  The
    worker first closes the ``inherited`` copies of the scan's pipe ends,
    its own among them, so that the scan closing them reads as EOF here,
    and it leaves Ctrl-C to the scan, which then closes the pipes."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    np.seterr(all="ignore")
    while True:
        try:
            name, P, args = conn.recv()
        except EOFError:
            return
        try:
            reply = True, _PLAIN[name](P, *args), _arrays(args)
        except Exception as exc:
            reply = False, exc, None
        try:
            conn.send(reply)
        except OSError:  # the scan has gone
            return


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def kernel_processes(width: int) -> int:
    """How many kernel worker processes a scan on ``width`` threads forks:
    one per thread up to the usable CPUs, and none where that is fewer than
    two, under numba (whose kernels drop the GIL) or without os.fork."""
    from . import _kernels  # read at call time: _kernels imports this module

    count = min(width, _usable_cpus())
    if count < 2 or _kernels.NUMBA_ENABLED or not hasattr(os, "fork"):
        return 0
    return count


def _take_pipe(pipes):
    _scan_thread.conn = next(pipes, None)


@contextmanager
def scan_pool(width):
    """Yield the thread pool of a scan ``width`` wide.  The kernel workers
    that ``kernel_processes`` asks for are forked before any thread starts,
    and the pool then has one thread per worker.  On exit the pool is shut
    down and the pipes are closed, which ends the workers, and they are
    reaped."""
    from concurrent.futures import ThreadPoolExecutor  # only a scan pays for the import

    conns, procs = [], []
    try:
        count = kernel_processes(width)
        if count:
            import multiprocessing  # only a scan that forks pays for the import

            fork = multiprocessing.get_context("fork")
            for _ in range(count):
                mine, theirs = fork.Pipe()
                proc = fork.Process(target=serve, args=(theirs, [*conns, mine]), daemon=True)
                proc.start()
                theirs.close()  # so that the worker's death reads as EOF here
                conns.append(mine)
                procs.append(proc)
        pipes = iter(conns)
        with ThreadPoolExecutor(count or width, initializer=_take_pipe, initargs=(pipes,)) as pool:
            yield pool
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
