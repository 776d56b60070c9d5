"""How a scan's cells run at once.

``_run_indexed`` runs a scan's cells on plain threads, as many as the CPUs in
the process's affinity mask and at most one per cell; narrow the mask
(``taskset``, a container cpuset) to run a scan on fewer cores.  Compiled
kernels drop the GIL, so under numba the threads compute side by side.  The
fallback holds the GIL, so there a scan on two or more threads first forks
one kernel worker per thread, joined to it by two ``os.pipe`` streams of
pickles.  The six run kernels are wrapped by ``in_worker``: a call on a scan
thread is sent down the thread's pipe, the worker runs the plain kernel and
sends back the result and the ndarray arguments (the run's output buffers),
and the thread waits without the GIL.  Calls from other threads run in
place.  An exception raised in the worker is raised again in the caller, so
``model.run_kernel``'s float64 rerun still happens, itself in the worker.  The
dispatch sits under the ``_kernels`` module attributes, which callers look up
and ``bench/tracer.py`` wraps, so every traced call, its time and its counts
stay on the scan's threads in the parent process.  Once every thread has ended
every worker is idle, and the scan kills them all, then reaps them.
"""

import os
import pickle
import threading

import numpy as np

from .errors import ChaoskitError

# The plain run kernels by name, as a kernel worker process runs them;
# empty under numba, whose run kernels are compiled and never wrapped.
_PLAIN = {}
# Holds ``conn``, the (reader, writer) pipe files of a scan thread's worker.
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
            _send(conn, (name, P, args))
            ok, result, arrays = pickle.load(conn[0])
        except (EOFError, OSError, pickle.UnpicklingError):  # a reply cut short
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


def _send(conn, obj):
    """Write obj down conn, a (reader, writer) pair of a worker's pipe files."""
    pickle.dump(obj, conn[1], pickle.HIGHEST_PROTOCOL)
    conn[1].flush()


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
            name, P, args = pickle.load(conn[0])
        except EOFError:
            return
        try:
            reply = True, _PLAIN[name](P, *args), _arrays(args)
        except Exception as exc:
            reply = False, exc, None
        try:
            _send(conn, reply)
        except OSError:  # the scan has gone
            return


def max_workers() -> int:
    """Scan width: the CPUs in the process's affinity mask, or the CPU
    count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_indexed(tasks, order=None):
    """Run the callables side by side, taken in ``order`` (a permutation
    of the task indices), and return their results by task index.  If
    several tasks raise, the lowest-index one's exception propagates.  On
    the fallback, a call on two or more threads forks one kernel worker per
    thread before any thread starts, and none outlives the call."""
    todo = iter(range(len(tasks)) if order is None else order)
    width = min(max_workers(), len(tasks))
    forking = width > 1 and _PLAIN and hasattr(os, "fork")
    if forking:  # only a scan that forks pays for the import
        import signal
    results, errors = [None] * len(tasks), {}

    def run(conn):
        _scan_thread.conn = conn
        for i in todo:  # one shared iterator: each task runs once
            try:
                results[i] = tasks[i]()
            except BaseException as exc:
                errors[i] = exc

    conns, pids = [], []
    try:
        for _ in range(width if forking else 0):
            (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
            mine = os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb")
            pid = os.fork()
            if pid == 0:
                try:
                    theirs = os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb")
                    serve(theirs, [end for conn in [*conns, mine] for end in conn])
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(down_r)  # so that the worker's death reads as EOF here
            os.close(up_w)
            conns.append(mine)
        threads = [threading.Thread(target=run, args=(c,)) for c in conns or [None] * width]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for _ in todo:  # after an interrupt, no thread takes another task
            pass
        # every worker is idle once every thread has ended
        for pid in pids:  # killed first, so a thread still waiting reads EOF
            os.kill(pid, signal.SIGKILL)
        for r, w in conns:
            r.close()
            try:
                w.close()
            except OSError:  # bytes left unsent to a worker that has gone
                pass
        for pid in pids:  # after every kill, so that the workers' teardowns overlap
            os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors)]
    return results
