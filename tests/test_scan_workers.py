"""Scan cells in parallel on the fallback: the pool width, the kernel worker
processes a scan forks, and what a scan does when a worker fails."""

import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from chaoskit import _kernels as _k
from chaoskit import _workers, chaoscan
from chaoskit.cli import main
from chaoskit.errors import ChaoskitError, DivergedTrajectory, ValidationError

fallback_only = pytest.mark.skipif(
    _k.NUMBA_ENABLED, reason="compiled kernels drop the GIL, so no scan forks under numba"
)

# x0**100 overflows a Python float at the start state, so every worker call
# raises OverflowError and reruns on float64, where each cell diverges
START_OVERFLOWING_MAP = [
    "map", "--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "1", "--delta", "1",
    "--omega", "2", "--n", "100", "--x0", "1e4", "--t-end", "1", "--dt", "1e-2",
    "--axis1", "delta", "--lo1", "0.5", "--hi1", "1", "--steps1", "2",
    "--axis2", "omega", "--lo2", "1", "--hi2", "2", "--steps2", "2",
]
SMALL_MAP = [
    "map", "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "2", "--dt", "1e-2",
    "--axis1", "alpha", "--lo1", "0.3", "--hi1", "0.7", "--steps1", "2",
    "--axis2", "beta", "--lo2", "0.8", "--hi2", "1.2", "--steps2", "2",
]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked from here on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _width(monkeypatch, threads):
    """Scans from here on run on this many threads, at most one per cell."""
    monkeypatch.setattr(_workers, "max_workers", lambda: threads)


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _within(seconds, fn):
    """fn(), run on a thread that must end within the given time."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_the_default_width_is_the_usable_cpus(monkeypatch):
    # the usable CPUs are those of the process's affinity mask
    for cpus in (1, 3, 64):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        assert chaoscan.max_workers() == cpus
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, cpus in ((5, 5), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        assert chaoscan.max_workers() == cpus


def test_a_scan_is_as_wide_as_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(_workers, "_PLAIN", {})  # no kernel workers: this counts threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    barrier = threading.Barrier(3, timeout=10)

    def task():
        barrier.wait()  # three tasks at a time hold three threads
        return threading.get_ident()

    assert len(set(_within(60, lambda: chaoscan._run_indexed([task] * 6)))) == 3


@fallback_only
def test_a_scan_forks_one_worker_per_thread_on_the_fallback_only(monkeypatch, forks):
    tasks = [lambda i=i: i for i in range(3)]

    def forked(threads):
        _width(monkeypatch, threads)
        forks.clear()
        assert _within(60, lambda: chaoscan._run_indexed(tasks)) == [0, 1, 2]
        _assert_reaped(forks)
        return len(forks)

    assert [forked(threads) for threads in (1, 2, 3, 8)] == [0, 2, 3, 3]
    with monkeypatch.context() as m:
        m.setattr(_workers, "_PLAIN", {})  # as under numba, whose kernels drop the GIL
        assert forked(2) == 0
    monkeypatch.delattr(os, "fork")
    assert forked(2) == 0


def _bytes_at_widths(tmp_path, monkeypatch, forks, argv, cells):
    """The artifact and plot bytes of argv, a scan of the given number of
    cells, on 1, 2 and 4 threads, which fork no worker, two, and one per
    thread the cells fill."""
    written = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the scan threads switch often
    try:
        for threads in (1, 2, 4):
            _width(monkeypatch, threads)
            forks.clear()
            out, plot = tmp_path / f"{threads}.out", tmp_path / f"{threads}.dat"
            assert _within(60, lambda: main(argv + ["--out", str(out), "--plot-out", str(plot)])) == 0
            assert len(forks) == (0 if threads == 1 else min(threads, cells))
            _assert_reaped(forks)
            written.append((out.read_bytes(), plot.read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    return written


@fallback_only
def test_worker_processes_keep_the_bytes_of_the_float64_rerun(tmp_path, monkeypatch, forks):
    one, two, four = _bytes_at_widths(tmp_path, monkeypatch, forks, START_OVERFLOWING_MAP, 4)
    assert one == two == four
    rows = two[0].decode().splitlines()[2:]
    assert [row.split(",")[3] for row in rows] == ["diverged"] * 4


@fallback_only
def test_worker_processes_fill_the_callers_buffers(tmp_path, monkeypatch, forks):
    # the section hits reach the artifact only through the event buffers
    argv = ["bifurcation", "--form", "B", "--alpha", "0.1", "--beta", "1", "--gamma", "0.3",
            "--delta", "0.5", "--omega", "2", "--section", "strobo", "--t-end", "30",
            "--dt", "1e-2", "--axis", "gamma", "--lo", "0", "--hi", "1", "--steps", "2"]
    one, two, four = _bytes_at_widths(tmp_path, monkeypatch, forks, argv, 2)
    assert one == two == four
    assert len(two[0].decode().splitlines()) > 10


@fallback_only
def test_each_scan_thread_has_a_worker_of_its_own(monkeypatch, forks):
    # the stand-in kernel reports the process it ran in
    monkeypatch.setitem(_workers._PLAIN, "benettin", lambda P: os.getpid())
    _width(monkeypatch, 4)
    barrier = threading.Barrier(4, timeout=10)

    def task():
        barrier.wait()  # four tasks at a time hold four threads
        return threading.get_ident(), _k.benettin(None)

    seen = _within(60, lambda: chaoscan._run_indexed([task] * 8))
    assert len(forks) == 4
    assert len({ident for ident, _ in seen}) == 4
    assert len(set(seen)) == 4 and os.getpid() not in {pid for _, pid in seen}
    assert {pid for _, pid in seen} == set(forks)
    _assert_reaped(forks)


@fallback_only
def test_a_worker_that_exits_mid_call_is_one_error_line(tmp_path, monkeypatch, capsys, forks):
    # the workers are forked after the patch, so each one exits on its first call
    monkeypatch.setitem(_workers._PLAIN, "variational", lambda *args: os._exit(3))
    _width(monkeypatch, 2)
    out = tmp_path / "map.csv"
    assert _within(60, lambda: main(SMALL_MAP + ["--out", str(out)])) == 2
    assert len(forks) == 2
    assert capsys.readouterr().err == "error: a kernel worker process exited during variational\n"
    assert not out.exists()
    _assert_reaped(forks)


@fallback_only
def test_a_worker_raises_the_kernels_error_in_the_caller(monkeypatch, forks):
    def raising(P, *args):
        raise ZeroDivisionError(f"in the worker, {args}")

    monkeypatch.setitem(_workers._PLAIN, "benettin", raising)
    _width(monkeypatch, 2)
    tasks = [lambda i=i: (_k.benettin(None, i), "ok") for i in range(2)]
    with pytest.raises(ZeroDivisionError, match=r"in the worker, \(0,\)"):
        _within(60, lambda: chaoscan._run_indexed(tasks))
    assert len(forks) == 2
    _assert_reaped(forks)


@fallback_only
def test_a_worker_that_never_exits_ends_with_its_scan(monkeypatch, forks):
    # the workers are forked after the patch, so each one sleeps instead of serving
    monkeypatch.setattr(_workers, "serve", lambda conn, inherited: time.sleep(600))
    _width(monkeypatch, 2)
    tasks = [lambda i=i: (i, "ok") for i in range(2)]
    assert _within(30, lambda: chaoscan._run_indexed(tasks)) == [(0, "ok"), (1, "ok")]
    assert len(forks) == 2
    _assert_reaped(forks)


@fallback_only
@pytest.mark.parametrize("command", [
    ["simulate", "--form", "B", "--alpha", "0.5", "--beta", "1", "--t-end", "1", "--dt", "1e-2"],
    ["critical", "--form", "B", "--alpha", "0.2", "--beta", "1", "--delta", "1", "--omega", "2",
     "--n", "1", "--axis", "gamma", "--lo", "0", "--hi", "2", "--tol", "0.5", "--t-end", "20",
     "--dt", "1e-2"],
], ids=["simulate", "critical"])
def test_commands_without_a_scan_fork_nothing(tmp_path, monkeypatch, forks, command):
    _width(monkeypatch, 2)
    assert main(command + ["--out", str(tmp_path / "out")]) == 0
    assert forks == []


@fallback_only
def test_importing_the_cli_loads_no_multiprocessing():
    code = ("import sys, chaoskit.cli; print(*(name in sys.modules for name in "
            "('multiprocessing', 'concurrent.futures', 'signal')))")
    src = os.path.dirname(os.path.dirname(_k.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert out.stdout == "False False False\n"


def _errors(cls=ChaoskitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _errors(sub)


@pytest.mark.parametrize("cls", sorted(set(_errors()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    args = {ValidationError: (["a; b", "c"],), DivergedTrajectory: (1.5,)}.get(cls, ("lost",))
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
