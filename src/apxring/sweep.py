"""Deterministic parameter sweeps with CSV / JSON reports.

A sweep runs the dichotomy classifier (mode ``nzd``) or the subring
search (mode ``poschar``) over families of symmetric sets in a list of
finite rings, collects one row per instance, and aggregates empirical
constants: ``empirical_N[K]`` (largest |X| among non-structured rows per
K) for nzd sweeps and ``empirical_C[(K, L)]`` (largest commensurability
constant per approximation-constant / characteristic cell, written
"K,L" in JSON) for poschar sweeps.  Every X holds 0, and every row's
classifier certifies the exact K and solves its covers exactly.  An ok
row's K comes from its witness (``row_fields``); a failing row has an
empty K, as it has no witness.  Rows are
generated and assembled in a fixed order, so identical configs produce
byte-identical CSV output; per-row failures are recorded in the status
column and never abort the sweep.

Config file: versioned ``key = value`` lines, ``#`` comments.

    schema_version = 1
    mode = nzd | poschar
    rings = zmod:5, zmod:7          # ring DSL list
    policy = exhaustive | random
    max_size = 9                    # |X| cap
    require_zero = true             # fixed in schema 1: 0 is in every X
    k_max = 0                       # fixed in schema 1: every row is kept
    exact = true                    # fixed in schema 1: exact solves
    small_threshold = 1             # nzd; -1 = default 4K^2
    seed = 0                        # required, even for exhaustive sweeps
    instances_per_ring = 25         # random policy only
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from .classify import nzd_classify, pos_char_search
from .errors import (ApxError, BudgetExceededError, InvalidParamsError,
                     ParseError)
from .rings import _split_top_level, parse_ring
from .sets import FiniteSet

SCHEMA_VERSION = "1"


def _boolean(text):
    return {"true": True, "1": True, "yes": True,
            "false": False, "0": False, "no": False}[text.lower()]


# keys schema 1 fixes at one value, which a config may spell as ``read`` reads
_FIXED = (("require_zero", "true", _boolean), ("k_max", "0", int),
          ("exact", "true", _boolean))
# every key a config may set, each at most once
_KEYS = ("schema_version", "mode", "rings", "policy", "max_size",
         "small_threshold", "seed", "instances_per_ring",
         *(key for key, _fixed, _read in _FIXED))


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    rings: tuple
    policy: str
    max_size: int
    small_threshold: int
    seed: int
    instances_per_ring: int = 25

    @classmethod
    def parse(cls, text):
        kv = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value on line {lineno}", raw, 0)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ParseError(f"unknown key {key!r} on line {lineno}", raw, 0)
            if key in kv:
                raise ParseError(f"repeated key {key!r} on line {lineno}", raw, 0)
            kv[key] = value.strip()
        if kv.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(
                f"schema_version must be {SCHEMA_VERSION}", text, 0)
        if "seed" not in kv:
            raise ParseError("sweep configs must set a seed explicitly", text, 0)
        mode = kv.get("mode", "nzd")
        if mode not in ("nzd", "poschar"):
            raise ParseError(f"unknown mode {mode!r}", text, 0)
        policy = kv.get("policy", "exhaustive")
        if policy not in ("exhaustive", "random"):
            raise ParseError(f"unknown policy {policy!r}", text, 0)

        def value(key, default, read=int):
            try:
                return read(kv[key]) if key in kv else default
            except (KeyError, ValueError):
                raise ParseError(f"{key} = {kv[key]} is not a valid value") from None

        for key, fixed, read in _FIXED:
            if value(key, read(fixed), read) != read(fixed):
                raise ParseError(f"schema {SCHEMA_VERSION} fixes {key} = {fixed}")
        for key, least in (("max_size", 1), ("instances_per_ring", 1),
                           ("small_threshold", -1)):
            if value(key, least) < least:
                raise ParseError(f"{key} = {kv[key]} is below {least}")
        rings = tuple(_split_top_level(kv.get("rings", "")))
        return cls(
            mode=mode,
            rings=rings,
            policy=policy,
            max_size=value("max_size", 9),
            small_threshold=value("small_threshold", -1),
            seed=value("seed", None),
            instances_per_ring=value("instances_per_ring", 25),
        )

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def render(self):
        lines = [f"schema_version = {SCHEMA_VERSION}",
                 f"mode = {self.mode}",
                 "rings = " + ", ".join(self.rings),
                 f"policy = {self.policy}",
                 f"max_size = {self.max_size}",
                 *(f"{key} = {fixed}" for key, fixed, _read in _FIXED),
                 f"small_threshold = {self.small_threshold}",
                 f"seed = {self.seed}",
                 f"instances_per_ring = {self.instances_per_ring}"]
        return "\n".join(lines) + "\n"


def _negation_orbits(ring):
    """Orbits of x -> -x on R minus 0, sorted canonically."""
    zero = ring.zero()
    seen = set()
    orbits = []
    for x in ring.elements():
        if x == zero or x in seen:
            continue
        orbit = frozenset((x, ring.neg(x)))
        seen |= orbit
        orbits.append(tuple(sorted(orbit, key=ring.sort_key)))
    orbits.sort(key=lambda o: ring.sort_key(o[0]))
    return orbits


def _eligible(orbits, room):
    """How many unions of whole orbits hold at most ``room`` elements,
    counted by size: ways[s] is the number with exactly s elements."""
    ways = [1] + [0] * room
    for o in orbits:
        for s in range(room, len(o) - 1, -1):
            ways[s] += ways[s - len(o)]
    return sum(ways) if room >= 0 else 0


def generate_instances(spec):
    """Yield (ring_dsl, element tuple) in a reproducible order; 0 is in
    every set."""
    import itertools
    for dsl in spec.rings:
        ring = parse_ring(dsl)
        orbits = _negation_orbits(ring)
        base = (ring.zero(),)
        if spec.policy == "exhaustive":
            # 0 is in every set: no union of more than max_size - 1 orbits fits
            for count in range(0, min(len(orbits), spec.max_size - 1) + 1):
                for combo in itertools.combinations(range(len(orbits)), count):
                    picked = [orbits[i] for i in combo]
                    size = len(base) + sum(len(o) for o in picked)
                    if size > spec.max_size:
                        continue
                    elems = set(base)
                    for o in picked:
                        elems.update(o)
                    yield dsl, tuple(sorted(elems, key=ring.sort_key))
        else:
            # string hash() is salted per process; derive the stream from
            # a stable digest so reruns see identical instances
            import zlib
            rng = random.Random(spec.seed ^ zlib.crc32(dsl.encode()))
            # no draw is left to make once every eligible set is out
            wanted = min(spec.instances_per_ring,
                         _eligible(orbits, spec.max_size - len(base)))
            emitted = set()
            attempts = 0
            while (len(emitted) < wanted
                   and attempts < spec.instances_per_ring * 50):
                attempts += 1
                n_orbits = rng.randrange(0, len(orbits) + 1)
                combo = tuple(sorted(rng.sample(range(len(orbits)),
                                                min(n_orbits, len(orbits)))))
                elems = set(base)
                for i in combo:
                    elems.update(orbits[i])
                if len(elems) > spec.max_size:
                    continue
                key = tuple(sorted(elems, key=ring.sort_key))
                if key not in emitted:
                    emitted.add(key)
                    yield dsl, key


def _run_row(args):
    """One sweep row; top-level and picklable for process pools."""
    index, dsl, rendered, mode, small_threshold = args
    ring = parse_ring(dsl)
    x = FiniteSet(ring, (ring.parse(e) for e in rendered))
    row = {
        "instance_id": index,
        "ring": dsl,
        "x": rendered,
        "x_size": len(x),
        "L": ring.characteristic,
        "status": "ok",
    }
    try:
        if mode == "nzd":
            threshold = None if small_threshold < 0 else small_threshold
            witness = nzd_classify(x, small_threshold=threshold).to_json()
        else:
            witness = pos_char_search(x).to_json()
        row.update(row_fields(witness, ring), _witness=witness)
    except BudgetExceededError as exc:
        row["status"] = f"budget-exceeded: {exc}"
    except ApxError as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    return row


def row_fields(w, ring):
    """The fields a sweep row takes from its witness payload ``w`` and
    ``ring``, the ring ``w`` names (``L``, its characteristic)."""
    row = {"ring": w["ring"], "x": tuple(w["x"]), "x_size": len(w["x"]),
           "L": ring.characteristic, "K": w["certificate"]["k"],
           "core_size": w["core_size"]}
    if w["kind"] == "classification_report":
        row.update(verdict=w["verdict"],
                   core_is_subring=w["core_is_subring"],
                   commensurability=w["commensurability_to_x"],
                   k11_bound=w["k11_bound"])
    else:
        row.update(strategy=w["strategy"], exhaustive=w["exhaustive"],
                   found="subring" in w, s_size=len(w.get("subring", ())),
                   commensurability=w["commensurability"])
    return row


@dataclass
class SweepReport:
    spec: SweepSpec
    rows: list

    @property
    def empirical(self):
        """The aggregate constants of the ok rows (see the module docstring)."""
        nzd = self.spec.mode == "nzd"
        table = {}
        for r in self.rows:
            if r["status"] == "ok" and (r["verdict"] != "structured" if nzd
                                        else r["commensurability"] is not None):
                cell, value = ((r["K"], r["x_size"]) if nzd
                               else ((r["K"], r["L"]), r["commensurability"]))
                table[cell] = max(table.get(cell, 0), value)
        return {"empirical_N" if nzd else "empirical_C": table}

    @property
    def counterexamples(self):
        return [r for r in self.rows
                if r.get("verdict") == "counterexample-candidate"]

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep_report",
            "config": self.spec.render(),
            "rows": [dict(r) for r in self.rows],
            "empirical": {name: {",".join(map(str, k)) if isinstance(k, tuple)
                                 else str(k): v for k, v in table.items()}
                          for name, table in self.empirical.items()},
        }

    def csv_columns(self):
        if self.spec.mode == "nzd":
            return ("instance_id", "ring", "x_size", "L", "K", "verdict",
                    "core_size", "core_is_subring", "commensurability",
                    "k11_bound", "status", "x")
        return ("instance_id", "ring", "x_size", "L", "K", "strategy",
                "exhaustive", "found", "s_size", "commensurability",
                "core_size", "status", "x")

    def to_csv(self):
        cols = self.csv_columns()
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for r in self.rows:
            cells = []
            for c in cols:
                v = r.get(c, "")
                if c == "x":
                    v = "{" + " ".join(v) + "}"
                elif v is None:
                    v = ""
                cells.append(str(v).replace(",", ";"))
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def run_sweep(spec, jobs=1):
    """Run every instance of the family on ``jobs`` >= 1 processes (one:
    in this one); never aborts on row errors."""
    if jobs < 1:
        raise InvalidParamsError(f"jobs = {jobs} is below 1")
    rings = {dsl: parse_ring(dsl) for dsl in spec.rings}
    inputs = [(i, dsl, tuple(map(rings[dsl].render, elems)),
               spec.mode, spec.small_threshold)
              for i, (dsl, elems) in enumerate(generate_instances(spec))]
    if jobs > 1 and len(inputs) > 1:
        # imported here: multiprocessing costs every other command its start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_row, inputs, chunksize=8))
    else:
        rows = [_run_row(a) for a in inputs]
    rows.sort(key=lambda r: r["instance_id"])
    return SweepReport(spec, rows)
