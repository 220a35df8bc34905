"""Traced run: spans and counters recorded from outside the package.

The tracer rebinds module attributes in the benchmark process.  Every
listed public function is replaced by a wrapper that records a span
(name, start, end, parent) in memory, in every ``apxring`` module that
imported the same function object, so calls between modules are seen
too.  Ring operations are counted by wrapping the ``add``/``neg``/
``mul``/``sub`` methods each backend class defines.  ``uninstall``
restores every original binding.

Self time of a span is its duration minus the durations of its direct
children.  Private helpers (``_instance``, ``_derive_term``,
``_Builder``) are not wrapped, so their time shows in their callers'
self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import random
import statistics
import time

# (layer, function) pairs; the layer is the apxring module that defines it
TRACED = {
    "rings": ("TableRing", "subring_table", "quotient_ring"),
    "sets": ("sumset", "prodset", "difference_set", "closure", "growth_step",
             "iterated_sum"),
    "cover": ("approx_constant", "cover_exact", "cover_greedy",
              "commensurability", "make_witness"),
    "constructive": ("bound_table", "k11_cover", "claim2_cover"),
    "classify": ("nzd_classify", "pos_char_search", "core_set", "is_subring",
                 "find_zero_divisor", "finite_model_check"),
    "sweep": ("run_sweep",),
    "serialize": ("verify_payload",),
}

MODULES = ("rings", "sets", "cover", "constructive", "classify", "sweep",
           "serialize", "cli")

OPS = ("add", "neg", "mul", "sub")

# backend label -> ring DSL for the op_ns probes
PROBE_RINGS = {
    "zmod": "zmod:211",
    "gf": "gf:7^2:t^2+1",
    "polyquo": "polyquo:3:t^3",
    "mat": "mat:2:zmod:3",
    "prod": "prod:(zmod:5,zmod:7)",
    "int": "int",
    "poly": "poly:3",
    "table": None,                   # subring table of 3Z/27Z, built below
}

PROBE_PAIRS = 2000
PROBE_REPEATS = 5


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, ax):
        self.ax = ax
        self.spans = []              # [name, start, end, parent index]
        self.stack = []
        self.ring_ops = 0
        self.elements_out = 0
        self.cap_hits = 0
        self.bnb_nodes = 0
        self.node_limit_hits = 0
        self.exact_calls = 0
        self.exact_proven = 0
        self._seen_errors = set()
        self._undo = []

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self
        budget_error = self.ax.BudgetExceededError

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if name.startswith("sets.") and id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.cap_hits += 1
                raise
            finally:
                tracer._close(idx)
            tracer._count(name, result)
            return result

        return traced

    def _count(self, name, result):
        if name.startswith("sets."):
            if isinstance(result, self.ax.ClosureResult):
                if not result.complete:
                    self.cap_hits += 1
                result = result.set
            if result is not None:
                self.elements_out += len(result)
        elif name == "cover.cover_exact":
            self.exact_calls += 1
            self.exact_proven += bool(result.optimal)
            self.bnb_nodes += result.stats.get("nodes", 0)
            self.node_limit_hits += bool(result.stats.get("node_limit_hit"))

    # -- installing ----------------------------------------------------
    def _rebind(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, traced=TRACED, count_ops=True):
        mods = [importlib.import_module(f"apxring.{m}") for m in MODULES]
        mods.append(self.ax)
        for layer, fns in traced.items():
            home = importlib.import_module(f"apxring.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                if isinstance(original, type):
                    # wrap construction, keep the class for isinstance checks
                    self._rebind(original, "__init__",
                                 self._wrap(name, original.__init__))
                    continue
                wrapper = self._wrap(name, original)
                for mod in mods:
                    if getattr(mod, fn_name, None) is original:
                        self._rebind(mod, fn_name, wrapper)
        if not count_ops:
            return
        rings = importlib.import_module("apxring.rings")
        for cls in _ring_classes(rings.Ring):
            for op in OPS:
                if op in vars(cls):
                    self._rebind(cls, op, self._counting(vars(cls)[op]))

    def _counting(self, method):
        tracer = self

        def counted(*args):
            tracer.ring_ops += 1
            return method(*args)

        return counted

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------
    def layer_table(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for (name, start, end, _parent), kids in zip(self.spans, child_time):
            calls, self_s = table.get(name, (0, 0.0))
            table[name] = (calls + 1, self_s + (end - start) - kids)
        return table

    def top_level_seconds(self):
        return sum(end - start for _n, start, end, parent in self.spans
                   if parent < 0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _ring_classes(base):
    out = [base]
    for sub in base.__subclasses__():
        out.extend(_ring_classes(sub))
    return out


def probe_op_ns(ax, seed):
    """Median ns per ring op on a fixed seeded stream, per backend."""
    out = {}
    for label, dsl in PROBE_RINGS.items():
        if dsl is None:
            ring, _embed, _restrict = ax.subring_table(
                ax.modular(27), list(range(0, 27, 3)))
        else:
            ring = ax.parse_ring(dsl)
        rng = random.Random(f"probe:{seed}:{label}")
        if ring.is_finite:
            def draw():
                return ring.element_at(rng.randrange(ring.cardinality))
        elif label == "int":
            def draw():
                return rng.randrange(-10 ** 6, 10 ** 6)
        else:
            def draw():
                coeffs = [rng.randrange(ring.p) for _ in range(4)]
                return tuple(coeffs + [rng.randrange(1, ring.p)])
        pairs = [(draw(), draw()) for _ in range(PROBE_PAIRS)]
        add, neg, mul = ring.add, ring.neg, ring.mul
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                add(a, b)
                mul(a, b)
                neg(a)
            samples.append((time.perf_counter_ns() - t0) / (3 * len(pairs)))
        out[label] = statistics.median(samples)
    return out
