"""apxring benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0

Run from the repository root.  The package is imported from ``src/``.
Each run sets up the workload, runs its round of instances at least
``workload.rounds`` times and until ``--seconds`` have passed, then runs
the correctness pass untimed.  Shared hosts change speed by tens of
percent, within seconds and over minutes, so times are reported at a
nominal machine speed: a fixed pure-Python reference loop is timed
between instances (about every ``REF_EVERY_S``), an instance's latency
is its mean time over the rounds, and every time is multiplied by
``REF_NOMINAL_S / mean reference time of the run``.  Raw times and the
speed factor are printed too.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
run.  Human-readable lines come first; the last line of standard output
is one JSON object.  The exit code is nonzero when any instance failed
its check.  See NOTES.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BudgetHit, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 9
REF_SAMPLES = 4
REF_NOMINAL_S = 0.0045           # reference-loop time at nominal speed
REF_EVERY_S = 0.5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "sweep", "growth"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the harness self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (timed by the parent)")
    return p.parse_args(argv)


def import_package():
    if not (SRC / "apxring" / "__init__.py").is_file():
        raise SystemExit(f"apxring sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import apxring
    return apxring


def reference_loop():
    """Fixed pure-Python work (set, dict and integer operations)."""
    seen, last = set(), {}
    for i in range(30000):
        v = (i * 7919) % 10007
        seen.add(v)
        last[v] = i
    return len(seen) + len(last)


def reference_time():
    """Mean of REF_SAMPLES timings of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(REF_SAMPLES):
        reference_loop()
    return (time.perf_counter() - t0) / REF_SAMPLES


def measure_setup(args):
    """Seconds from spawning a fresh process to the end of its set-up.

    The child prints ``time.perf_counter()`` (a system-wide monotonic
    clock) when its set-up is done; waiting for its exit is not timed.
    Returns the raw samples and the speed factor measured around them.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    meter = SpeedMeter()
    meter.sample()
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
                              capture_output=True, text=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
        meter.sample()
    return samples, meter.factor()


def percentile(values, q):
    """q-th percentile (q in 1..99) by statistics.quantiles, interpolated
    between the measured values (never beyond the largest)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_rounds(workload, seconds, tracer=None):
    """Rounds of outcomes; after the first round only answer summaries are
    kept, so memory does not grow with the number of rounds.  A traced
    run is exactly one round, so its totals do not depend on how fast
    the host is."""
    rounds = []
    measured = 0.0
    meter = SpeedMeter()
    pause = meter.pause if tracer is None else None
    while not rounds or (tracer is None and (len(rounds) < workload.rounds
                                             or measured < seconds)):
        meter.sample()
        t0 = time.perf_counter()
        outcomes = workload.run_round(tracer, pause)
        measured += time.perf_counter() - t0
        if rounds:
            for o in outcomes:
                if o.error is None:
                    o.result = summary(workload, o)
        rounds.append(outcomes)
    meter.sample()
    return rounds, measured, meter.factor()


class SpeedMeter:
    """Reference-loop timings taken between instances."""

    def __init__(self):
        self.last = 0.0
        self.refs = []

    def sample(self):
        self.refs.append(reference_time())
        self.last = time.perf_counter()

    def pause(self):
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def factor(self):
        """Nominal over measured machine speed for this run."""
        return REF_NOMINAL_S / statistics.mean(self.refs)


def mean_latencies(rounds):
    """{instance id: mean latency over the rounds}."""
    times = {}
    for outcomes in rounds:
        for o in outcomes:
            times.setdefault(o.id, []).append(o.latency)
    return {k: statistics.mean(v) for k, v in times.items()}


def summary(workload, outcome):
    """The answer of an outcome, in the form later rounds keep."""
    if isinstance(outcome.result, BudgetHit):
        return ["budget-exceeded", outcome.result.message]
    return workload.summary(outcome)


def check(workload, outcome):
    """A budget hit is an unproven answer, not a failure."""
    if isinstance(outcome.result, BudgetHit):
        return Verdict([], False)
    return workload.check(outcome)


def correctness_pass(workload, rounds):
    """(attempted, failed, proven, exact answers, failure messages).

    The first round is checked in full; later rounds must reproduce the
    first round's answers exactly.
    """
    first = {}
    attempted = failed = proven = exact = 0
    messages = []
    for index, outcomes in enumerate(rounds):
        for o in outcomes:
            attempted += 1
            if o.error is not None:
                problems, is_proven = [o.error], None
            elif index == 0:
                try:
                    verdict = check(workload, o)
                    problems, is_proven = verdict.problems, verdict.proven
                except Exception as exc:  # a crash in a check is a failure
                    problems, is_proven = [f"check raised {type(exc).__name__}: {exc}"], None
                first[o.id] = (summary(workload, o) if not problems else None,
                               is_proven)
            else:
                answer, is_proven = first.get(o.id, (None, None))
                problems = ([] if answer is not None and o.result == answer
                            else ["answer differs from the first round"])
            if problems:
                failed += 1
                messages.append(f"{o.id}: {'; '.join(problems)}")
            if is_proven is not None:
                exact += 1
                proven += bool(is_proven)
    return attempted, failed, proven, exact, messages


def end_to_end(setup_s, rounds, speed, peak_rss_mb, checked):
    attempted, failed, proven, exact, _messages = checked
    latencies = sorted(t * speed for t in mean_latencies(rounds).values())
    wall = sum(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (len(latencies) / wall, "1/s"),
        "instance_p50_s": (percentile(latencies, 50), "s"),
        "instance_p95_s": (percentile(latencies, 95), "s"),
        "proven_share": (proven / exact if exact else 1.0, "ratio"),
        "failed_share": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, tracer, check_tracer, probes, untraced_wall, measured):
    import tracing
    table = tracer.layer_table()
    table.update(check_tracer.layer_table())
    out = {}
    for name in tracing.span_names():
        calls, self_s = table.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out["rings.ops"] = (tracer.ring_ops, "count")
    for backend, ns in probes.items():
        out[f"rings.{backend}.op_ns"] = (ns, "ns")
    out["sets.elements_out"] = (tracer.elements_out, "count")
    out["sets.cap_hits"] = (tracer.cap_hits, "count")
    out["cover.bnb_nodes"] = (tracer.bnb_nodes, "count")
    out["cover.node_limit_hits"] = (tracer.node_limit_hits, "count")
    out["cover.exact_proven_share"] = (
        tracer.exact_proven / tracer.exact_calls if tracer.exact_calls else 0.0,
        "ratio")
    cli = getattr(workload, "cli_seconds", {"approx": 0.0, "verify": 0.0})
    out["cli.approx_s"] = (cli["approx"], "s")
    out["cli.verify_s"] = (cli["verify"], "s")
    out["trace.overhead_ratio"] = (measured / untraced_wall, "ratio")
    out["trace.top_level_share"] = (tracer.top_level_seconds() / measured, "ratio")
    return out


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    ax = import_package()
    import tracing
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(ax, args.seed, args.tiny)
        print(time.perf_counter())
        return 0
    declared = declared_metrics(args.trace)
    setup_raw, setup_speed = ([], 1.0) if args.trace else measure_setup(args)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = cls(ax, args.seed, args.tiny, workdir=workdir)
        tracer = probes = untraced_wall = None
        if args.trace:
            probes = tracing.probe_op_ns(ax, args.seed)
            t0 = time.perf_counter()
            workload.run_round()
            untraced_wall = time.perf_counter() - t0
            workload.cli_seconds = {"approx": 0.0, "verify": 0.0}
            tracer = tracing.Tracer(ax)
            tracer.install()
        try:
            rounds, measured, speed = run_rounds(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_tracer = tracing.Tracer(ax)
        if args.trace:
            check_tracer.install({"serialize": tracing.TRACED["serialize"]},
                                 count_ops=False)
        try:
            checked = correctness_pass(workload, rounds)
        finally:
            check_tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, _proven, _exact, messages = checked
    if args.trace:
        metrics = per_layer(workload, tracer, check_tracer, probes,
                            untraced_wall, measured)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(statistics.median(setup_raw) * setup_speed, rounds,
                             speed, peak_rss_mb, checked)
    n_lat = len(rounds[0])
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"in {measured:.2f} s, {attempted} instance runs, {failed} failed")
    if not args.trace:
        print(f"speed factor (nominal / mean reference time): {speed:.4f}, "
              f"during set-up {setup_speed:.4f}")
        raw = sorted(mean_latencies(rounds).values())
        print(f"raw (unscaled) setup_s = {statistics.median(setup_raw):.6g} s, "
              f"wall_s = {sum(raw):.6g} s, instance_p50_s = "
              f"{percentile(raw, 50):.6g} s, instance_p95_s = "
              f"{percentile(raw, 95):.6g} s")
        print(f"latency percentiles over the mean times of {n_lat} instances "
              f"({n_lat - math.ceil(0.95 * n_lat)} above p95)")
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    missing = [n for n in declared if n not in metrics]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not produced: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
