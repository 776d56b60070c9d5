"""In-memory spans around chaoskit's public entry points, and the per-layer
metrics computed from them.

The package carries no tracing code: ``install`` swaps each traced callable
for a wrapper at the place where it is looked up, and ``uninstall`` puts the
originals back.  That place matters.  ``_kernels.<k>`` is read as a module
attribute on every call, so it is patched on ``chaoskit._kernels``; names
bound by ``from .x import y`` are patched in the importing module; the
``chaoscan._ESTIMATORS`` table is patched entry by entry.  Cell tasks handed
to ``_run_indexed`` are wrapped so that spans opened on worker threads name
the scan span as their parent.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

KERNELS = (
    "rk4_trajectory",
    "rkf45_trajectory",
    "rk4_events_strobo",
    "rk4_events_vzero",
    "benettin",
    "variational",
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "thread", "attrs")

    def __init__(self, id, name, parent, start, thread):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        """Open a span; its parent is ``parent`` (an id) or this thread's innermost span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            sp = Span(next(self._ids), name, parent, 0.0, threading.get_ident())
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp):
        sp.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order (innermost is {popped.name})")

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span; count(args, result) -> attrs runs after the span closes."""

        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if count is not None:
                sp.attrs.update(count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------- counters


def _kernel_steps(name):
    # planned steps come from the call's n argument; rkf45 has none, so its
    # accepted samples stand in
    if name == "rkf45_trajectory":
        return lambda args, res: {"steps": len(res[1]) - 1, **_rkf45_rows(res)}
    n_index = 7 if name == "variational" else 5
    # the output buffers are the trailing arguments: (out_t, out_x, out_v)
    # and, for event kernels, (ev_t, ev_x, ev_v) after them
    if name == "rk4_trajectory":
        return lambda args, res: {
            "steps": int(args[n_index]),
            "rows_alloc": args[-3].size,
            "rows_used": int(res[1]),
        }
    if name.startswith("rk4_events"):
        return lambda args, res: {
            "steps": int(args[n_index]),
            "rows_alloc": args[-6].size + args[-3].size,
            "rows_used": int(res[1]) + int(res[2]),
        }
    return lambda args, res: {"steps": int(args[n_index])}


def _rkf45_rows(res):
    t = res[1]
    base = t.base if t.base is not None else t
    return {"rows_alloc": base.size, "rows_used": t.size}


_WRITER_ROWS = {
    "write_trajectory_csv": lambda traj: len(traj.t),
    "write_energy_csv": lambda trace: len(trace.t),
    "write_poincare_csv": lambda section: len(section.points),
    # cells without points still write one marker row
    "write_bifurcation_csv": lambda diagram: sum(max(len(c), 1) for c in diagram.cells),
    "write_lambda_map_csv": lambda lmap: lmap.lam.size,
    "write_json": lambda payload: 1,
}


def _writer_rows(name):
    rows = _WRITER_ROWS[name]
    return lambda args, res: {"rows": rows(args[1]), "bytes": os.path.getsize(args[0])}


def _points(args, res):
    return {"points": len(args[0])}


# ---------------------------------------------------------------- patching


class Installation:
    """The patches one ``install`` made, undone by ``uninstall``."""

    def __init__(self):
        self._undo = []

    def attr(self, obj, name, wrapper):
        orig = getattr(obj, name)
        self._undo.append(lambda: setattr(obj, name, orig))
        setattr(obj, name, wrapper(orig))

    def item(self, table, key, wrapper):
        orig = table[key]
        self._undo.append(lambda: table.__setitem__(key, orig))
        table[key] = wrapper(orig)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installation:
    from chaoskit import _kernels, chaoscan, cli
    from chaoskit import io as cio

    inst = Installation()

    def span(name, count=None):
        return lambda fn: tracer.wrap(name, fn, count)

    for k in KERNELS:
        inst.attr(_kernels, k, span(f"kernels.{k}", _kernel_steps(k)))
    inst.attr(cli, "integrate", span("integrate.integrate"))
    inst.attr(chaoscan, "integrate_with_events", span("integrate.integrate_with_events"))
    inst.attr(cli, "energy_trace", span("analysis.energy_trace", lambda a, r: {"points": len(r.t)}))
    for key, fn in list(chaoscan._ESTIMATORS.items()):
        inst.item(chaoscan._ESTIMATORS, key, span(f"analysis.{fn.__name__}"))
    for name in ("lambda_map", "bifurcation_sweep", "critical_bisect", "poincare"):
        inst.attr(cli, name, span(f"chaoscan.{name}"))
    inst.attr(chaoscan, "poincare", span("chaoscan.poincare"))
    inst.attr(chaoscan, "cluster_count", span("chaoscan.cluster_count", _points))
    inst.attr(chaoscan, "_run_indexed", lambda fn: _traced_run_indexed(tracer, fn))
    for w in _WRITER_ROWS:
        inst.attr(cio, w, span(f"io.{w}", _writer_rows(w)))
    inst.attr(cli, "main", span("cli.main"))
    return inst


def _traced_run_indexed(tracer, run_indexed):
    def traced(tasks, order=None):
        sp = tracer.open("chaoscan.scan")

        def cell(task):
            def run():
                csp = tracer.open("chaoscan.cell", parent=sp.id)
                try:
                    result = task()
                finally:
                    tracer.close(csp)
                csp.attrs["status"] = result[1]
                return result

            return run

        try:
            return run_indexed([cell(t) for t in tasks], order)
        finally:
            tracer.close(sp)

    traced.__wrapped__ = run_indexed
    return traced


# ---------------------------------------------------------------- metrics


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; their union counts once.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(kids[s.id], s.start, s.end) for s in spans}


def _ancestor(span, by_id, name):
    p = by_id.get(span.parent)
    while p is not None:
        if p.name == name:
            return p
        p = by_id.get(p.parent)
    return None


def layer_metrics(spans, wall):
    """Per-layer metrics of one iteration from its spans and its wall time."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum((selfs[s.id] for s in by_name[name]), 0.0)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    m = {}
    k_self = k_steps = k_calls = 0
    for k in KERNELS:
        name = f"kernels.{k}"
        calls, steps, own = len(by_name[name]), attr_sum(name, "steps"), self_s(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.steps"] = steps
        m[f"{name}.self_s"] = own
        m[f"{name}.us_per_step"] = 1e6 * own / steps if steps else 0.0
        k_self, k_steps, k_calls = k_self + own, k_steps + steps, k_calls + calls
    m["kernels.calls"] = k_calls
    m["kernels.steps"] = k_steps
    m["kernels.self_s"] = k_self
    m["kernels.us_per_step"] = 1e6 * k_self / k_steps if k_steps else 0.0

    rows_alloc = rows_used = 0
    for k in KERNELS:
        for s in by_name[f"kernels.{k}"]:
            parent = by_id.get(s.parent)
            if parent is not None and parent.name.startswith("integrate."):
                rows_alloc += s.attrs.get("rows_alloc", 0)
                rows_used += s.attrs.get("rows_used", 0)
    m["integrate.integrate.self_s"] = self_s("integrate.integrate")
    m["integrate.integrate_with_events.self_s"] = self_s("integrate.integrate_with_events")
    # three float64 columns, allocated for the kernel and then copied trimmed
    m["integrate.alloc_bytes"] = 24 * (rows_alloc + rows_used)
    m["integrate.filled_fraction"] = rows_used / rows_alloc if rows_alloc else 0.0

    for fn in ("lyapunov_variational", "lyapunov_two_trajectory", "energy_trace"):
        m[f"analysis.{fn}.self_s"] = self_s(f"analysis.{fn}")
    m["analysis.energy_trace.points"] = attr_sum("analysis.energy_trace", "points")

    scans = by_name["chaoscan.scan"]
    cells = by_name["chaoscan.cell"]
    # each _run_indexed call has its own pool, so threads are counted per scan
    workers = idle = 0
    for scan in scans:
        mine = [c for c in cells if c.parent == scan.id]
        width = len({c.thread for c in mine})
        workers = max(workers, width)
        idle += width * scan.duration - sum(c.duration for c in mine)
    m["chaoscan.scan.wall_s"] = sum(s.duration for s in scans)
    m["chaoscan.scan.cells"] = len(cells)
    m["chaoscan.scan.workers"] = workers
    m["chaoscan.scan.idle_s"] = idle
    durs = [c.duration for c in cells]
    m["chaoscan.cell_s.p50"] = statistics.median(durs) if durs else 0.0
    m["chaoscan.cell_s.max"] = max(durs, default=0.0)
    statuses = [c.attrs.get("status") for c in cells]
    for st in ("ok", "diverged", "empty"):
        m[f"chaoscan.cells.{st}"] = statuses.count(st)
    probes = [
        s
        for s in spans
        if s.name.startswith("analysis.lyapunov") and _ancestor(s, by_id, "chaoscan.critical_bisect")
    ]
    rounds = [
        s
        for s in spans
        if s.name.startswith("kernels.") and _ancestor(s, by_id, "chaoscan.critical_bisect")
    ]
    m["chaoscan.critical.probes"] = len(probes)
    m["chaoscan.critical.rounds"] = len(rounds)
    m["chaoscan.probe_s.p50"] = statistics.median(p.duration for p in probes) if probes else 0.0
    m["chaoscan.cluster_count.self_s"] = self_s("chaoscan.cluster_count")
    m["chaoscan.cluster_count.points"] = attr_sum("chaoscan.cluster_count", "points")

    io_rows = io_bytes = 0
    for w in _WRITER_ROWS:
        name = f"io.{w}"
        rows, own = attr_sum(name, "rows"), self_s(name)
        m[f"{name}.rows"] = rows
        m[f"{name}.bytes"] = attr_sum(name, "bytes")
        m[f"{name}.self_s"] = own
        m[f"{name}.us_per_row"] = 1e6 * own / rows if rows else 0.0
        io_rows += rows
        io_bytes += m[f"{name}.bytes"]
    m["io.rows"] = io_rows
    m["io.bytes"] = io_bytes

    m["cli.main.self_s"] = self_s("cli.main")
    for layer in ("integrate", "analysis", "chaoscan", "io"):
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.name.startswith(layer + "."))
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.unattributed_s"] = wall - covered(roots, float("-inf"), float("inf"))
    return m
