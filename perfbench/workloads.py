"""The three benchmark workloads: inputs, timed rounds and correctness checks.

A workload object is built from a seed (its set-up), runs one *round*
of its instances at a time (``rounds`` of them per run), and checks the
outcomes afterwards.  Fixed
anchor instances are the same under every seed; the seed draws only the
extra seeded instances.  Expected answers for the anchors come from
``data/expected.json`` (written by ``make_expected.py`` with the
independent oracles); seeded instances are checked against the same
oracles at check time.  Nothing in a check calls the solver under test
to produce the value it is compared with.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

CLI_TIMEOUT_S = 120


def load_data(name):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class Outcome:
    """One timed instance execution."""

    id: str
    latency: float
    result: object = None
    error: str | None = None


@dataclasses.dataclass
class Verdict:
    """Check result for one outcome: problems found and provenness.

    ``proven`` is None when the instance gives no exact answer.
    """

    problems: list
    proven: bool | None = None


class BudgetHit:
    """The answer of an instance stopped by a set-size budget: unproven,
    not failed."""

    def __init__(self, message):
        self.message = message


def _run_items(ax, items, tracer, pause):
    """Time each (id, thunk); a budget hit becomes a ``BudgetHit`` answer
    and any other exception a failed outcome.  ``pause`` (if given) runs
    between instances, outside the timing."""
    out = []
    for ident, thunk in items:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = thunk()
            else:
                with tracer.span("bench.instance"):
                    result = thunk()
            error = None
        except ax.BudgetExceededError as exc:
            result, error = BudgetHit(str(exc)), None
        except Exception as exc:          # reported as a failed instance
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        out.append(Outcome(ident, t1 - t0, result, error))
        if pause is not None:
            pause()
    return out


def _orbits(ring):
    """Negation orbits of the nonzero elements, in canonical order."""
    zero = ring.zero()
    seen, orbits = set(), []
    for x in ring.elements():
        if x != zero and x not in seen:
            orbit = tuple(sorted({x, ring.neg(x)}, key=ring.sort_key))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _seeded_sets(ax, rng, ring, orbits, k, count):
    """``count`` distinct sets {0} ∪ (k orbits), drawn with ``rng``."""
    if count > math.comb(len(orbits), k):
        raise ValueError(f"{ring.descriptor} has fewer than {count} such sets")
    sets, seen = [], set()
    while len(sets) < count:
        picked = tuple(sorted(rng.sample(range(len(orbits)), k)))
        if picked in seen:
            continue
        seen.add(picked)
        elems = {ring.zero()}
        for i in picked:
            elems.update(orbits[i])
        sets.append(ax.FiniteSet(ring, elems))
    return sets


def _tiny_count(count, tiny):
    return min(count, 2) if tiny else count


# ---------------------------------------------------------------------------
# certify


class CliResult:
    """Exit codes and outputs of one ``apx approx`` / ``apx verify`` pair."""

    def __init__(self, approx, verify, payload):
        self.approx_rc = approx.returncode
        self.approx_err = approx.stderr
        self.verify_rc = verify.returncode
        self.verify_out = verify.stdout
        self.payload = payload


class Certify:
    name = "certify"
    # the median instance takes about 4 ms and its time moves most
    # between runs; five rounds halve the spread of instance_p50_s
    rounds = 5

    def __init__(self, ax, seed, tiny=False, workdir=None):
        self.ax = ax
        self.workdir = workdir
        self.expected = load_data("expected.json")["certify"]
        spec = load_data("certify.json")
        self.items = []              # (id, kind, set)
        for a in spec["anchors"]:
            if a["tiny"] or not tiny:
                item = ax.gallery(a["gallery"], **a["params"])
                self.items.append((a["id"], "anchor", item.xset))
        for entry in spec["seeded"]:
            ring = ax.parse_ring(entry["ring"])
            rng = random.Random(f"certify:{seed}:{entry['ring']}")
            sets = _seeded_sets(ax, rng, ring, _orbits(ring), entry["orbits"],
                                _tiny_count(entry["count"], tiny))
            for i, x in enumerate(sets):
                self.items.append((f"{entry['ring']}#{i}", "seeded", x))
        for c in spec["cli"]:
            if c["tiny"] or not tiny:
                item = ax.gallery(c["gallery"], **c["params"])
                self.items.append((c["id"], "cli", item.xset))
        self.kinds = {ident: kind for ident, kind, _x in self.items}
        self.sets = {ident: x for ident, _kind, x in self.items}
        self.cli_seconds = {"approx": 0.0, "verify": 0.0}
        self._oracle_k = {}

    def run_round(self, tracer=None, pause=None):
        thunks = []
        for ident, kind, x in self.items:
            if kind == "cli":
                thunks.append((ident, lambda i=ident, x=x: self._cli(i, x)))
            else:
                thunks.append((ident, lambda x=x: self.ax.approx_constant(x)))
        return _run_items(self.ax, thunks, tracer, pause)

    def _cli(self, ident, x):
        out = os.path.join(self.workdir, f"{ident}.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        base = [sys.executable, "-m", "apxring.cli"]
        t0 = time.perf_counter()
        approx = subprocess.run(
            base + ["approx", "--ring", x.ring.descriptor, "--set", x.render(),
                    "--json", "--output", out],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        verify = subprocess.run(base + ["verify", "--input", out],
                                capture_output=True, text=True, env=env,
                                cwd=ROOT, timeout=CLI_TIMEOUT_S)
        t2 = time.perf_counter()
        self.cli_seconds["approx"] += t1 - t0
        self.cli_seconds["verify"] += t2 - t1
        payload = None
        if approx.returncode == 0:
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
        return CliResult(approx, verify, payload)

    def summary(self, outcome):
        r = outcome.result
        if isinstance(r, CliResult):
            p = r.payload or {}
            return [r.approx_rc, r.verify_rc, p.get("k"), p.get("f")]
        ring = r.ring
        return [r.k, r.minimal, [ring.render(v) for v in r.witness_f]]

    def _bounds(self, ident):
        """(lower, upper) on K: recorded for anchors, oracle for seeded."""
        if self.kinds[ident] != "seeded":
            e = self.expected[ident]
            return e["k_lower"], e["k_upper"]
        if ident not in self._oracle_k:
            self._oracle_k[ident] = oracles.brute_force_k(self.ax, self.sets[ident])
        k = self._oracle_k[ident]
        return k, None               # any unproven K >= the exact one is valid

    def check(self, outcome):
        ax = self.ax
        if isinstance(outcome.result, CliResult):
            r = outcome.result
            if r.approx_rc != 0:
                return Verdict([f"apx approx exited {r.approx_rc}: {r.approx_err}"])
            problems = []
            if r.verify_rc != 0 or "VERIFIED" not in r.verify_out:
                problems.append(f"apx verify exited {r.verify_rc}")
            k, minimal, payload = r.payload["k"], r.payload["minimal"], r.payload
        else:
            cert = outcome.result
            k, minimal, payload = cert.k, cert.minimal, cert.to_json()
            problems = []
        ok, details = oracles.verify_payload(payload)
        if not ok:
            problems.append(f"payload failed verification: {details}")
        problems += _k_problems(k, minimal, *self._bounds(outcome.id))
        return Verdict(problems, bool(minimal))


def _k_problems(k, proven, lower, upper):
    """Proven K must equal an exactly known value; any K stays in bounds."""
    if k < lower:
        return [f"K = {k} is below the lower bound {lower}"]
    if upper is not None and k > upper:
        return [f"K = {k} exceeds the recorded value {upper}"]
    exact = lower if upper is None or upper == lower else None
    if proven and exact is not None and k != exact:
        return [f"proven K = {k} but the exact value is {exact}"]
    return []


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    name = "sweep"
    rounds = 3
    configs = ("nzd", "poschar")

    def __init__(self, ax, seed, tiny=False, workdir=None):
        self.ax = ax
        self.specs = []
        for cfg in self.configs:
            spec = ax.SweepSpec.load(str(DATA / f"{cfg}.cfg"))
            spec = dataclasses.replace(spec, seed=seed)
            if tiny:
                spec = dataclasses.replace(spec, rings=spec.rings[:2],
                                           instances_per_ring=3)
            self.specs.append(spec)
        self.rings = {dsl: ax.parse_ring(dsl)
                      for spec in self.specs for dsl in spec.rings}
        self._oracle = {}

    def run_round(self, tracer=None, pause=None):
        import apxring.sweep as sweep_mod
        outcomes = []
        original = sweep_mod._run_row

        for spec in self.specs:
            rows = []
            paused = 0.0

            def timed_row(args, mode=spec.mode):
                nonlocal paused
                t0 = time.perf_counter()
                row = original(args)
                t1 = time.perf_counter()
                rows.append(Outcome(f"{mode}:{row['instance_id']}", t1 - t0, row))
                if pause is not None:
                    pause()
                    paused += time.perf_counter() - t1
                return row

            sweep_mod._run_row = timed_row
            t0 = time.perf_counter()
            try:
                self.ax.run_sweep(spec, jobs=1)
            except Exception as exc:      # the whole sweep failed
                rows.append(Outcome(f"{spec.mode}:sweep", 0.0, None,
                                    f"{type(exc).__name__}: {exc}"))
            finally:
                sweep_mod._run_row = original
            # instance generation, rendering and aggregation happen in
            # run_sweep outside the rows; each row carries an equal share
            outside = (time.perf_counter() - t0 - paused
                       - sum(o.latency for o in rows))
            for o in rows:
                o.latency += outside / len(rows)
            outcomes += rows
        return outcomes

    def summary(self, outcome):
        return {k: v for k, v in outcome.result.items() if k != "_witness"}

    def check(self, outcome):
        ax = self.ax
        row = outcome.result
        if row["status"].startswith("budget-exceeded"):
            return Verdict([], False)
        if row["status"] != "ok":
            return Verdict([f"row status {row['status']}"])
        ring = self.rings[row["ring"]]
        x = ax.FiniteSet(ring, (ring.parse(e) for e in row["x"]))
        payload = row["_witness"]
        problems = []
        ok, details = oracles.verify_payload(payload)
        if not ok:
            problems.append(f"row payload failed verification: {details}")
        key = (row["ring"], row["x"])
        if key not in self._oracle:
            self._oracle[key] = oracles.classify_oracle(ax, x)
        truth = self._oracle[key]
        if row["core_size"] != len(truth["core"]):
            problems.append(f"core_size {row['core_size']} != {len(truth['core'])}")
        if outcome.id.startswith("nzd:"):
            cert = payload["certificate"]
            proven = (cert["minimal"] and payload["comm_core_by_x"]["optimal"]
                      and payload["comm_x_by_core"]["optimal"])
            problems += _k_problems(row["K"], cert["minimal"], truth["k"], None)
            comm = truth["comm_core"]
            if proven and row["commensurability"] != comm:
                problems.append(f"commensurability {row['commensurability']} != {comm}")
            if row["core_is_subring"] != truth["core_is_subring"]:
                problems.append("core_is_subring disagrees with the oracle")
            verdict = oracles.nzd_verdict(len(x), truth["k"], truth["core_is_subring"],
                                          comm)
            if proven and row["verdict"] != verdict:
                problems.append(f"verdict {row['verdict']} != {verdict}")
            return Verdict(problems, bool(proven))
        # poschar: rows carry K without a minimality flag; tiny instances
        # are always solved exactly, so K must equal the oracle value
        problems += _k_problems(row["K"], True, truth["k"], None)
        proven = None
        if row["found"]:
            s = ax.FiniteSet(ring, (ring.parse(e) for e in payload["subring"]))
            proven = bool(payload["comm_s_by_x"]["optimal"]
                          and payload["comm_x_by_s"]["optimal"])
            if not s.elements() <= truth["core"]:
                problems.append("subring is not inside the core")
            comm = oracles.commensurability(ax, s, x)
            if proven and row["commensurability"] != comm:
                problems.append(f"commensurability {row['commensurability']} != {comm}")
        return Verdict(problems, proven)


# ---------------------------------------------------------------------------
# growth


class Growth:
    """Fixed anchors only: the seed draws no instances here."""

    name = "growth"
    rounds = 3

    def __init__(self, ax, seed, tiny=False, workdir=None):
        self.ax = ax
        self.expected = load_data("expected.json")["growth"]
        spec = load_data("growth.json")
        self.items = []              # (id, anchor dict, x or None)
        for a in spec["anchors"]:
            if a["tiny"] or not tiny:
                self.items.append((a["id"], a, _anchor_set(ax, a)))
        self.kinds = {ident: a["kind"] for ident, a, _x in self.items}

    def run_round(self, tracer=None, pause=None):
        return _run_items(self.ax, [(ident, lambda a=a, x=x: self._run(a, x))
                                    for ident, a, x in self.items], tracer, pause)

    def _run(self, a, x):
        ax = self.ax
        kind = a["kind"]
        if kind == "growth":
            return ax.growth_sequence(x, a["n"], with_covering=a["covering"])
        if kind == "fact21":
            cert = ax.approx_constant(x)
            return cert, ax.bound_table(cert, a["m"]), ax.k11_cover(cert)
        if kind == "table":
            return ax.zero_multiplication_ring(a["n"])
        if kind == "model":
            ring = x.ring
            return ax.finite_model_check(x, ax.parse_set(ring, a["ideal"]))
        raise ValueError(f"unknown growth item kind {kind!r}")

    def summary(self, outcome):
        r = outcome.result
        kind = self.kinds[outcome.id]
        if kind == "growth":
            return [[e.size, e.covering, e.covering_method] for e in r.entries]
        if kind == "fact21":
            cert, rows, k11 = r
            return [cert.k, [[row.constructed_size, row.exact_size] for row in rows],
                    len(k11.translates)]
        if kind == "table":
            return [r.descriptor, r.characteristic]
        return r.to_json()

    def check(self, outcome):
        check = getattr(self, f"_check_{self.kinds[outcome.id]}")
        return check(outcome.result, self.expected[outcome.id])

    def _check_growth(self, profile, exp):
        problems = []
        sizes = [e.size for e in profile.entries]
        if sizes != exp["sizes"]:
            problems.append(f"sizes {sizes} != {exp['sizes']}")
        proven = None
        for e, bounds in zip(profile.entries, exp.get("covering", [])):
            lower, upper, exact_attempted = bounds
            if e.covering < lower or e.covering > upper:
                problems.append(f"X_{e.n} covering {e.covering} outside [{lower}, {upper}]")
            if exact_attempted:
                ok = e.covering_method == "exact"
                proven = ok if proven is None else proven and ok
                if ok and lower == upper and e.covering != lower:
                    problems.append(f"X_{e.n} exact covering {e.covering} != {lower}")
        return Verdict(problems, proven)

    def _check_fact21(self, result, exp):
        ax = self.ax
        cert, rows, k11 = result
        problems = _k_problems(cert.k, cert.minimal, exp["k_lower"], exp["k_upper"])
        payloads = [cert.to_json()] + [row.to_json() for row in rows] + [k11.to_json()]
        for p in payloads:
            ok, details = oracles.verify_payload(p)
            if not ok:
                problems.append(f"{p['kind']} failed verification: {details}")
        ok, missing = ax.verify_witness(k11)
        if not ok:
            problems.append("K^11 cover misses an element")
        if len(k11.translates) > cert.k ** 11:
            problems.append("K^11 cover exceeds K^11 translates")
        if len(k11.target) != exp["core_size"]:
            problems.append(f"core size {len(k11.target)} != {exp['core_size']}")
        for row, (lower, upper) in zip(rows, exp["bound_table_exact"]):
            if row.exact_size is None or not lower <= row.exact_size <= upper:
                problems.append(f"m = {row.m}: exact size {row.exact_size} "
                                f"outside [{lower}, {upper}]")
        if len(rows) != len(exp["bound_table_exact"]):
            problems.append("bound table has the wrong number of rows")
        return Verdict(problems, bool(cert.minimal))

    def _check_table(self, ring, exp):
        problems = []
        if (ring.cardinality, ring.characteristic) != (exp["cardinality"],
                                                       exp["characteristic"]):
            problems.append("table ring has the wrong size or characteristic")
        return Verdict(problems)

    def _check_model(self, report, exp):
        got = {"m": report.m, "quotient_size": report.quotient_size,
               "all_pass": report.all_pass,
               "comm_constants": list(report.comm_constants),
               "max_genericity": report.max_genericity}
        problems = [f"{k}: {got[k]} != {exp[k]}" for k in got if got[k] != exp[k]]
        return Verdict(problems, report.clause_generic and report.clause_commensurable)


def _anchor_set(ax, a):
    if "gallery" in a:
        return ax.gallery(a["gallery"], **a["params"]).xset
    if "set" in a:
        return ax.parse_set(ax.parse_ring(a["ring"]), a["set"])
    return None


WORKLOADS = {w.name: w for w in (Certify, Sweep, Growth)}
