"""How a scan's cells run at once.

``_run_indexed`` runs a scan's cells on a thread pool ``max_workers()``
wide (``CHAOS_THREADS`` or the usable CPUs, at most one thread per cell).
Compiled kernels drop the GIL, so under numba the threads compute side by
side.  The fallback holds the GIL, so there the scan first forks one kernel
worker per thread, up to the usable CPUs, and each pool thread takes its
own worker's pipe in the pool's initializer.  The six run kernels are
wrapped by ``in_worker``: a call on a scan thread is sent down the thread's
pipe, the worker runs the plain kernel and sends back the result and the
ndarray arguments (the run's output buffers), and the thread waits without
the GIL.  Calls from other threads run in place.  An exception raised in
the worker is raised again in the caller, so ``model.run_kernel``'s float64
rerun still happens, itself in the worker.  The dispatch sits under the
``_kernels`` module attributes, which callers look up and
``bench/tracer.py`` wraps, so every traced call, its time and its counts
stay on the scan's threads in the parent process.  Once the pool has shut
down every worker is idle, and the scan kills and reaps them.
"""

import os
import threading

import numpy as np

from .errors import ChaoskitError, ValidationError

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
    or (False, the exception, None), until the scan's end closes.  The
    worker first closes the ``inherited`` copies of the scan's pipe ends,
    its own among them, so that the scan closing them reads as EOF here,
    and it leaves Ctrl-C to the scan, which then kills it."""
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


def max_workers() -> int:
    """Scan width: CHAOS_THREADS if set, else the usable CPUs.  A value
    that is not a whole number >= 1 is refused."""
    raw = os.environ.get("CHAOS_THREADS", "").strip()
    if not raw:
        return _usable_cpus()
    if not raw.isdecimal() or int(raw) < 1:
        raise ValidationError([f"CHAOS_THREADS must be a whole number >= 1, got {raw!r}"])
    return int(raw)


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


def _run_indexed(tasks, order=None):
    """Run the callables side by side, submitted in ``order`` (a permutation
    of the task indices), and return their results by task index.  If
    several tasks raise, the lowest-index one's exception propagates.  The
    kernel workers that ``kernel_processes`` asks for are forked before any
    pool thread starts, and none outlives the call."""
    from concurrent.futures import ThreadPoolExecutor  # only a scan pays for the import

    order = range(len(tasks)) if order is None else order
    width = min(max_workers(), len(tasks))
    count = kernel_processes(width)
    if count:  # only a scan that forks pays for these imports
        import signal
        from multiprocessing.connection import Pipe
    conns, pids = [], []
    try:
        for _ in range(count):
            mine, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    serve(theirs, [*conns, mine])
                finally:
                    os._exit(0)
            pids.append(pid)
            theirs.close()  # so that the worker's death reads as EOF here
            conns.append(mine)
        pipes = iter(conns)
        with ThreadPoolExecutor(count or width, initializer=_take_pipe, initargs=(pipes,)) as pool:
            futures = {i: pool.submit(tasks[i]) for i in order}
    finally:
        for conn in conns:
            conn.close()
        for pid in pids:  # idle once the pool has shut down; killed, so reaping never waits
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [futures[i].result() for i in range(len(tasks))]
