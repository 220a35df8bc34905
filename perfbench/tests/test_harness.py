"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/tests

Runs every workload once with tiny inputs, untraced and traced, and
checks the output contract and that a wrong answer is caught.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import apxring as ax  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0", "--tiny", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_reports_every_declared_metric(workload, trace):
    code, out = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    if not trace:    # tiny traced runs leave some layers out
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(ax, 5, tiny=True), cls(ax, 5, tiny=True)
    if name == "sweep":
        assert a.specs == b.specs and a.specs[0].seed == 5
    else:
        assert [i[0] for i in a.items] == [i[0] for i in b.items]
        assert [i[-1] for i in a.items] == [i[-1] for i in b.items]


@pytest.fixture
def workdir():
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=ROOT / ".perfbench-out")
    yield path
    shutil.rmtree(path)


def test_wrong_answer_is_counted_as_failure(workdir):
    w = workloads.Certify(ax, 1, tiny=True, workdir=workdir)
    rounds = [w.run_round()]
    assert run.correctness_pass(w, rounds)[1] == 0
    anchor = next(o for o in rounds[0] if w.kinds[o.id] == "anchor")
    k = anchor.result.k
    w.expected[anchor.id] = {"k_lower": k + 1, "k_upper": k + 1}
    attempted, failed, *_rest, messages = run.correctness_pass(w, rounds)
    assert failed == 1 and anchor.id in messages[0]


def test_later_round_must_repeat_the_first():
    w = workloads.Growth(ax, 1, tiny=True)
    first, second = w.run_round(), w.run_round()
    for o in second:
        o.result = w.summary(o)
    second[-1].result = second[0].result     # a different instance's answer
    failed = run.correctness_pass(w, [first, second])[1]
    assert failed == 1


def test_budget_hit_is_unproven_not_failed():
    def hit():
        raise ax.BudgetExceededError("cap reached")

    def bug():
        raise ValueError("not a budget")

    w = workloads.Growth(ax, 1, tiny=True)
    items = [("hit", hit), ("bug", bug)]
    first = workloads._run_items(ax, items, None, None)
    second = workloads._run_items(ax, items, None, None)
    for o in second:
        if o.error is None:
            o.result = run.summary(w, o)
    attempted, failed, proven, exact, messages = run.correctness_pass(
        w, [first, second])
    assert (attempted, failed, proven, exact) == (4, 2, 0, 2)
    assert all(m.startswith("bug:") for m in messages)

    sweep = workloads.Sweep(ax, 1, tiny=True)
    row = {"instance_id": 0, "ring": "zmod:11", "x": ("0", "1", "10"),
           "status": "budget-exceeded: cap reached"}
    hit_row = workloads.Outcome("nzd:0", 0.1, row)
    assert run.correctness_pass(sweep, [[hit_row]])[:4] == (1, 0, 0, 1)
    bad_row = workloads.Outcome("nzd:0", 0.1, dict(row, status="ParseError: bad"))
    assert run.correctness_pass(sweep, [[bad_row]])[1] == 1


def test_sweep_rows_carry_the_whole_sweep_time():
    """Instance generation and aggregation in run_sweep are shared out."""
    w = workloads.Sweep(ax, 1, tiny=True)
    t0 = time.perf_counter()
    outcomes = w.run_round()
    total = time.perf_counter() - t0
    assert 0.9 * total <= sum(o.latency for o in outcomes) <= total


def test_traced_run_is_one_round_whatever_the_seconds():
    w = workloads.Growth(ax, 1, tiny=True)
    totals = []
    for seconds in (0, 60):
        tracer = tracing.Tracer(ax)
        tracer.install()
        try:
            rounds, _measured, _speed = run.run_rounds(w, seconds, tracer)
        finally:
            tracer.uninstall()
        assert len(rounds) == 1
        calls = {n: c for n, (c, _s) in tracer.layer_table().items()}
        totals.append((calls, tracer.ring_ops, tracer.elements_out,
                       tracer.bnb_nodes))
    assert totals[0] == totals[1]


def test_tracer_restores_every_binding():
    import apxring.classify as classify
    import apxring.rings as rings
    before = (ax.approx_constant, classify.approx_constant,
              rings.ModularRing.add, rings.TableRing.__init__)
    tracer = tracing.Tracer(ax)
    tracer.install()
    assert classify.approx_constant is not before[1]
    x = ax.parse_set(ax.modular(7), "{0,1,6}")
    ax.approx_constant(x)
    tracer.uninstall()
    after = (ax.approx_constant, classify.approx_constant,
             rings.ModularRing.add, rings.TableRing.__init__)
    assert after == before
    table = tracer.layer_table()
    assert table["cover.approx_constant"][0] == 1
    assert table["cover.cover_exact"][0] == 1
    assert tracer.ring_ops > 0 and tracer.bnb_nodes >= 1
    top = tracer.top_level_seconds()
    assert abs(sum(s for _c, s in table.values()) - top) < 1e-6


def test_bare_directory_exits_nonzero():
    """Without the package sources the benchmark fails and prints no result."""
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-out"))
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
