"""Tests of the benchmark itself: span self time, the tail percentile rule,
the patch sites, and one small run of each workload through its checks."""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _span(id, parent, start, end, thread=1, name="x"):
    sp = tr.Span(id, name, parent, start, thread)
    sp.end = end
    return sp


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, thread=2),
        _span(3, 1, 3.0, 6.0, thread=3),  # overlaps span 2 on another thread
        _span(4, 2, 2.0, 3.0, thread=2),
        _span(5, 1, 9.5, 11.0, thread=3),  # outlives its parent; only [9.5, 10] counts
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_worker_thread_spans_hang_under_the_scan_span(monkeypatch):
    from chaoskit import chaoscan

    monkeypatch.setenv("CHAOS_THREADS", "2")
    tracer = tr.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))
    barrier = threading.Barrier(2, timeout=10)

    def task():
        barrier.wait()  # both cells run at once, on two threads
        leaf()
        return None, "ok"

    scan = tr._traced_run_indexed(tracer, chaoscan._run_indexed)
    outer = tracer.open("outer")
    scan([task, task])
    tracer.close(outer)
    spans = {s.id: s for s in tracer.take()}
    by_name = lambda n: [s for s in spans.values() if s.name == n]
    (scan_span,) = by_name("chaoscan.scan")
    cells = by_name("chaoscan.cell")
    assert scan_span.parent == by_name("outer")[0].id
    assert len(cells) == 2 and all(c.parent == scan_span.id for c in cells)
    assert len({c.thread for c in cells}) == 2
    assert sorted(spans[s.parent].name for s in by_name("leaf")) == ["chaoscan.cell"] * 2
    selfs = tr.self_times(list(spans.values()))
    # the cells ran concurrently, so the scan's own time is far below the summed cell time
    assert selfs[scan_span.id] < scan_span.duration - 0.015
    assert all(selfs[c.id] < c.duration for c in cells)

    # every scan gets a fresh pool, whose threads may or may not reuse an
    # earlier pool's idents; workers and idle time are still counted per scan
    scan([task, task])
    scan([task, task])
    spans = tracer.take()
    scans = [s for s in spans if s.name == "chaoscan.scan"]
    assert len(scans) == 2
    m = tr.layer_metrics(spans, sum(s.duration for s in scans))
    assert m["chaoscan.scan.cells"] == 4
    assert m["chaoscan.scan.workers"] == 2
    expected_idle = sum(
        2 * s.duration - sum(c.duration for c in spans if c.parent == s.id) for s in scans
    )
    assert m["chaoscan.scan.idle_s"] == pytest.approx(expected_idle)
    assert m["chaoscan.scan.idle_s"] >= 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in range(1, 205):
        samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
        got = run.tail(samples)
        if n <= 10:
            assert got is None
            continue
        p, value = got
        rank = int(value)  # sample i has value i, so the value is its rank
        assert n - rank >= 10, n
        higher = -(-(p + 1) * n // 100)
        assert n - higher < 10, n  # one percentile more leaves fewer than ten beyond


def test_tail_examples():
    assert run.tail(list(range(1, 31))) == (66, 20)
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 12))) == (9, 1)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """One iteration of each workload, traced, with its reference digests."""
    out = {}
    for name in run.WORKLOADS:
        wl = workloads.Workload(name, 7, tmp_path_factory.mktemp(name))
        tracer = tr.Tracer()
        inst = tr.install(tracer)
        try:
            wall, codes = wl.iterate()
        finally:
            inst.uninstall()
        out[name] = (wl, codes, tr.layer_metrics(tracer.take(), wall), wl.digests())
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_passes_its_checks_and_reruns(ran, name):
    wl, codes, _, reference = ran[name]
    assert set(codes.values()) == {0}
    tally = run.Tally()
    assert run.verify(wl, reference, tally)
    assert (tally.attempted, tally.failed) == (2 * len(wl.commands) + 1, 0), tally.problems


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_artifact_fails_its_check(ran, name, tmp_path):
    wl = ran[name][0]
    first = next(iter(wl.commands))
    assert wl.check(first) == []
    bad = tmp_path / first
    workloads.corrupt(wl, wl.path(first), bad)
    assert wl.check(first, str(bad))


def test_traced_iteration_reaches_every_layer(ran):
    from chaoskit import _kernels, chaoscan, cli

    m = {name: ran[name][2] for name in run.WORKLOADS}
    assert m["scan"]["kernels.variational.calls"] == 20
    assert m["scan"]["kernels.rk4_events_strobo.calls"] == 6
    assert m["scan"]["chaoscan.scan.cells"] == 26
    assert m["scan"]["chaoscan.cells.diverged"] == 2
    assert m["scan"]["chaoscan.cluster_count.points"] > 0
    assert m["scan"]["kernels.benettin.calls"] == 9
    assert m["scan"]["chaoscan.critical.probes"] == 9
    assert m["scan"]["chaoscan.critical.rounds"] == 9
    art = m["artifact"]
    for k in ("rk4_trajectory", "rkf45_trajectory", "rk4_events_vzero"):
        assert art[f"kernels.{k}.calls"] >= 1
    assert 0.0 < art["integrate.filled_fraction"] < 1.0
    assert art["analysis.energy_trace.points"] == workloads._ART_ROWS
    assert art["io.write_energy_csv.rows"] == workloads._ART_ROWS
    for name in run.WORKLOADS:
        for metric in ("kernels.self_s", "analysis.self_s", "chaoscan.self_s", "io.self_s",
                       "cli.main.self_s"):
            assert m[name][metric] > 0.0, (name, metric)
        assert m[name]["trace.unattributed_s"] >= 0.0
    # uninstall put every original back
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(_kernels.variational, "__wrapped__")
    assert not hasattr(chaoscan._run_indexed, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in chaoscan._ESTIMATORS.values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
