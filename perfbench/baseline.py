"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads certify sweep]
        [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and
the spread (q3 - q1) / median, and flags end-to-end metrics whose spread
exceeds a third of their bound and any metric that is 0 on some run.
Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarise(values):
    med = statistics.median(values)
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": spec["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, elapsed = run_once(workload, seed, spec["run_seconds"],
                                       args.trace)
            runs.append((result, elapsed))
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  flush=True)
        metrics = {}
        for name in runs[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _e in runs]
            stats = summarise(values)
            stats["unit"] = runs[0][0]["metrics"][name]["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] is not None:
                flag = ("  over bound" if stats["spread"] > bound else
                        "  over a third of the bound" if stats["spread"] > bound / 3
                        else "")
            if min(values) == 0:
                flag += "  0 on some run (a declared metric must never be 0)"
            print(f"  {name:32s} median {stats['median']:.6g} {stats['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread'] if stats['spread'] is not None else float('nan'):.3f}"
                  f"{flag}", flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "run_seconds_max": max(e for _r, e in runs),
            "all_correct": all(r["correct"] for r, _e in runs),
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
