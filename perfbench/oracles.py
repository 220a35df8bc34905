"""Independent oracles for the correctness pass and ``make_expected.py``.

Sets are built here with plain Python loops over the ring's element
operations, never with the package's set kernels or solvers; covering
numbers come from ``cover_brute_force`` and core sets from
``core_set_bruteforce``, the package's designated independent oracles.
"""

from __future__ import annotations

import math


def verify_payload(payload):
    """``serialize.verify_payload`` with malformed payloads as failures."""
    from apxring.serialize import verify_payload as verify
    try:
        return verify(payload)
    except Exception as exc:              # a malformed payload is a failure
        return False, [f"{type(exc).__name__}: {exc}"]


def plain_target(ring, elems):
    """X + X ∪ X·X."""
    return ({ring.add(a, b) for a in elems for b in elems}
            | {ring.mul(a, b) for a in elems for b in elems})


def plain_difference(ring, a, b):
    return {ring.sub(u, v) for u in a for v in b}


def brute_force_cover(ax, target, base):
    """Least number of translates of ``base`` covering ``target``."""
    ring = base.ring
    t = ax.FiniteSet(ring, target)
    pool = ax.FiniteSet(ring, plain_difference(ring, t.elements(), base.elements()))
    k, _translates = ax.cover_brute_force(t, base, pool)
    return k


def brute_force_k(ax, x):
    """Exact ring-mode approximation constant of a symmetric set."""
    return brute_force_cover(ax, plain_target(x.ring, x.elements()), x)


def counting_lower_bound(target_size, base_size):
    return math.ceil(target_size / base_size)


def commensurability(ax, a, b):
    return max(brute_force_cover(ax, a.elements(), b),
               brute_force_cover(ax, b.elements(), a))


def is_subring(ring, elems):
    return bool(elems) and all(
        ring.neg(a) in elems and ring.add(a, b) in elems and ring.mul(a, b) in elems
        for a in elems for b in elems)


def classify_oracle(ax, x):
    """K, the core 4X + X·4X and its commensurability with X."""
    from apxring.classify import core_set_bruteforce
    core = core_set_bruteforce(x)
    return {"k": brute_force_k(ax, x),
            "core": frozenset(core.elements()),
            "core_is_subring": is_subring(x.ring, core.elements()),
            "comm_core": commensurability(ax, core, x)}


def nzd_verdict(size, k, core_is_subring, comm):
    """The dichotomy verdict with the default threshold 4K^2."""
    if size < 4 * k * k:
        return "small"
    if core_is_subring and comm <= k ** 11:
        return "structured"
    return "counterexample-candidate"


def growth_sets(ring, elems, n):
    """[X_0, .., X_n] with X_{i+1} = X_i·X_i + (X_i + X_i)."""
    out = [set(elems)]
    for _ in range(n):
        cur = out[-1]
        prods = {ring.mul(a, b) for a in cur for b in cur}
        sums = {ring.add(a, b) for a in cur for b in cur}
        out.append({ring.add(p, s) for p in prods for s in sums})
    return out
