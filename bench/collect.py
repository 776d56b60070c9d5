"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a chaoskit checkout):

    python3 bench/collect.py --seeds 1-10 [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one after another, each
for the ``run_seconds`` of ``BENCHMARK.json``, and prints per workload and
metric the median, the quartiles and the spread (distance between the
quartiles as a share of the median).  With ``--out`` it also writes every
run's record to FILE as JSON, which is how a baseline is kept for
before/after comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's record here")
    args = ap.parse_args(argv)

    runs = []
    for name in run.WORKLOADS:
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                raise SystemExit(f"{name} seed {seed} exited {out.returncode}")
            lines = out.stdout.splitlines()
            record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
            result = json.loads(lines[-1])
            runs.append({"result": result, "record": record})
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name:<9} seed {seed:<3} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    print(f"\n{'workload':<9} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    table = {}
    for name in run.WORKLOADS:
        mine = [r["result"] for r in runs if r["record"]["provenance"]["workload"] == name]
        for metric in mine[0]["metrics"]:
            s = summary([r["metrics"][metric]["value"] for r in mine])
            table.setdefault(name, {})[metric] = s
            print(f"{name:<9} {metric:<28} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.2%}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"summary": table, "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
