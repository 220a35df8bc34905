"""Covering numbers by additive translates; approximation constants.

A cover witness certifies target ⊆ ∪_i (t_i + base) and is re-verified
element-wise on construction.  A cover may use t + base for any ring
element t; those that meet the target are the pool target − base, which
the solvers build themselves, and each target lies in |base| of them.
``_incidence`` is the one check of an instance: a nonempty base over the
target's ring.  An empty target gets the empty cover, proven optimal.
Two solvers are provided: a greedy cover with the classical
(1 + ln |target|) guarantee, and an exact branch-and-bound.  It
branches on the first uncovered target in one order fixed per call,
fewest covering translates first, and starts from an incumbent, the
smaller of the greedy cover and one dive: a path without backtracking
that starts where the coverers reach least.
Everything is deterministic: pools are processed in canonical element
order and ties always break toward the element first in that order, so
repeated runs reproduce witnesses bit for bit.

The exact search stops as soon as its incumbent meets a lower bound.
The target/translate incidence is built once per instance: a target
mask per translate and a coverer list per target.  One greedy, counted
on the lists and picking level by level (most uncovered targets first,
ties toward the lower rank), gives both the greedy cover, which builds
no masks, and the exact search's incumbent.  Every translate lies in
one of the incidence's connected components, found once per call, so a
cover needs the sum over components of each component's own bound.  A
node is pruned by Σ_C ceil(|C ∖ covered| / |base|).  Every other bound
is one vector of integer weights on the targets over a common
denominator, evaluated exactly, component by component, as a Lagrangian
bound of the covering LP (Beasley 1990), so any weights >= 0 give a
valid bound: counting (w = 1 over |base|), cheap fractional (1 /
largest translate holding the element), a greedy packing (targets
pairwise in no common translate), and a subgradient ascent whose float
weights run through the same evaluator and are rounded before the
exact one.  The ascent runs at most once per call, and only where it
can close: no Lagrangian bound exceeds room, the cost of the uniform
fractional cover (1 / |base| on every translate), so it runs only when
room reaches the incumbent.  The weights travel with the witness, so
``apx verify`` recomputes the components and re-checks the minimality
claim instead of trusting it.  Covers of the whole finite ring shift
onto covers holding 0 + base, so that search starts from 0 + base.
The exact search does not repeat itself: a table maps each covered set
it entered to the fewest picks it was entered with, and a visit to a
set entered with no more picks returns at once.

approx_constant certifies the minimal K with X*X ∪ (X+X) ⊆ F + X
(ring mode; group mode drops the product part).  It decides X's
preconditions: X = −X, and X ≠ ∅, as the paper's model theorem puts 0
in the core 4X + X·4X.  Its pool T − X sits inside the subring
generated by X.  The cover is its own proof of F ⊆ ⟨X⟩: a certificate
verifies only when every translate f meets the target (f + w ∈ T for
some w ∈ X), so f = t − w lies in ⟨X⟩ on every backend, finite or lazy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    InvalidParamsError,
    NotSymmetricError,
    UncoverableError,
    VerificationFailedError,
    _clip,
)
from .rings import check_same_ring
from .sets import (
    FiniteSet,
    difference_set,
    missing_negative,
    prodset,
    sumset,
    union,
)

DEFAULT_NODE_LIMIT = 10 ** 6
_TABLE_SIZE = 1 << 16                  # searched states cover_exact keeps


@dataclass(frozen=True)
class CoverWitness:
    """target ⊆ ∪ (t + base) for the listed translates."""

    target: FiniteSet
    base: FiniteSet
    translates: tuple
    optimal: bool
    method: str                      # "exact" | "greedy" | "constructive"
    stats: dict = field(default_factory=dict, compare=False)
    # (weights: target element -> int >= 0, denominator): see lagrangian_floor
    lower_bound: tuple | None = field(default=None, compare=False)

    def to_json(self):
        ring = self.target.ring
        # the bound's keys reuse these strings: sweeps keep many payloads
        names = {x: ring.render(x) for x in self.target}
        out = {
            "schema_version": "2",
            "kind": "cover_witness",
            "ring": ring.descriptor,
            "target": list(names.values()),
            "base": [ring.render(x) for x in self.base],
            "translates": [ring.render(t) for t in self.translates],
            "optimal": self.optimal,
            "method": self.method,
            "stats": {k: v for k, v in self.stats.items()
                      if isinstance(v, (int, float, str, bool))},
        }
        if self.lower_bound is not None:
            out["lower_bound"] = _bound_json(names.__getitem__, self.lower_bound)
        return out


def _bound_json(render, lower_bound):
    weights, d = lower_bound
    return {"weights": {render(e): w for e, w in weights.items()},
            "denominator": d}


def first_uncovered(target, base, translates):
    """Least target element (canonical order) outside ∪ (t + base), or
    None when the translates cover the target; checked from scratch."""
    add = target.ring.add
    covered = {add(t, x) for t in translates for x in base.elements()}
    missing = target.elements() - covered
    return min(missing, key=target.ring.sort_key) if missing else None


def verify_witness(w):
    """(ok, first uncovered element or None)."""
    missing = first_uncovered(w.target, w.base, w.translates)
    return missing is None, missing


def make_witness(target, base, translates, optimal, method, stats=None,
                 lower_bound=None):
    w = CoverWitness(target, base, tuple(translates), optimal, method,
                     dict(stats or {}), lower_bound)
    ok, missing = verify_witness(w)
    if not ok:
        raise VerificationFailedError(
            f"witness misses {target.ring.render(missing)}")
    return w


# ---------------------------------------------------------------------------
# solver core: targets become bit positions, translates become masks


def _incidence(a, b):
    """(targets, pool, coverers) over the pool a − b, the translates that
    meet a: coverers[i] lists the ranks r with targets[i] in pool[r] + b.
    t + b holds e iff t = e − x for some x in b, so each target has
    exactly |b| coverers, looked up by rank.  UncoverableError for an
    empty b and CrossRingError across rings; an empty a has no targets."""
    if len(b) == 0:
        raise UncoverableError("base set is empty")
    check_same_ring(a.ring, b.ring)
    ring = a.ring
    targets = sorted(a.elements(), key=ring.sort_key)
    pool = sorted(difference_set(a, b).elements(), key=ring.sort_key)
    rank = {t: r for r, t in enumerate(pool)}
    neg_b = [ring.neg(x) for x in b.elements()]
    add = ring.add
    coverers = [[rank[add(e, y)] for y in neg_b] for e in targets]
    return targets, pool, coverers


def _instance(a, b):
    """(targets, pool, coverers, masks, full): ``_incidence`` plus a
    target mask per translate, bit i of masks[r] set iff r covers
    targets[i], and the mask of all targets."""
    targets, pool, coverers = _incidence(a, b)
    masks = [0] * len(pool)
    for i, cov in enumerate(coverers):
        bit = 1 << i
        for r in cov:
            masks[r] |= bit
    return targets, pool, coverers, masks, (1 << len(targets)) - 1


def cover_greedy(a, b):
    """Greedy cover by ``_greedy_lists``: the translate covering most
    uncovered elements, ties toward the element first in canonical order."""
    t0 = time.perf_counter()
    _targets, pool, coverers = _incidence(a, b)
    chosen = [pool[r] for r in _greedy_lists(coverers, len(pool))]
    return make_witness(a, b, chosen, False, "greedy",
                        {"elapsed": time.perf_counter() - t0})


def _greedy_lists(coverers, n_pool):
    """Pool ranks in greedy pick order: the translate covering the most
    uncovered targets, ties toward the lower rank, until every target is
    covered.  Counted on the coverer lists and each translate's target
    list, and picked level by level: counts only shrink, so once level
    c + 1 is done no count exceeds c, and the lowest rank still at c is
    the next pick.  No rank below it can rise back to c, so each level
    is one scan of ``fresh`` and the picks are those of the rule.  A
    pick costs the coverers of the targets it covers."""
    members = [[] for _ in range(n_pool)]
    for i, cov in enumerate(coverers):
        for r in cov:
            members[r].append(i)
    fresh = list(map(len, members))
    covered = bytearray(len(coverers))
    left = len(coverers)
    chosen = []
    c = max(fresh, default=0)
    r = -1
    while left:
        try:
            r = fresh.index(c, r + 1)
        except ValueError:
            c -= 1
            r = -1
            continue
        chosen.append(r)
        left -= c
        for i in members[r] if left else ():    # the last pick updates nothing
            if not covered[i]:
                covered[i] = 1
                for q in coverers[i]:
                    fresh[q] -= 1
    return chosen


def cover_exact(a, b, node_limit=DEFAULT_NODE_LIMIT):
    """Minimum-cardinality cover of a by translates of b.

    Depth-first branch and bound from the greedy cover's picks
    (``_greedy_lists``), replaced by the cover of ``_dive`` when the
    root bound leaves greedy unproven and the dive is strictly smaller.
    A node branches on its first uncovered target in one order fixed per
    call, fewest coverers first (ties toward the lower index), and tries
    its coverers by most uncovered targets (ties toward the lower rank).
    Every coverer of an uncovered target still holds it, so that target
    is the one with fewest live coverers.  A node is pruned by Σ_C
    ceil(|C ∖ covered| / |b|) over the connected components C of the
    target/translate incidence, since each translate lies in one of
    them.

    A table maps each covered mask the search entered to the fewest
    picks it was entered with, and a visit to a mask entered with no
    more picks returns at once.  This is sound: covered grows strictly
    along a path, so the earlier entry is no ancestor and its subtree
    was searched in full, with a cutoff that has only fallen since, and
    below a mask the search depends only on the picks and the cutoff.
    Such a visit still counts as a node.  The table stops growing at
    ``_TABLE_SIZE`` masks, so its memory is bounded.

    The search stops as soon as the incumbent meets a proven lower
    bound: the best root bound of ``_root_floor``, raised at most once
    per call by ``_ascent``.  The ascent runs once the search has spent
    |targets| × |distinct masks| nodes without closing, or else once
    when the search ends exhausted above the bound, when the incumbent
    is the optimum and the best target for its steps; either way only if
    ``_room``, the cost of the uniform fractional cover, reaches the
    incumbent, as no Lagrangian bound exceeds it.  All bounds are summed
    over the components.  When a is the whole finite ring, every cover
    shifts to one that holds 0 + b, so the search starts from that
    translate.

    Returns an optimal witness, or the best incumbent flagged non-optimal
    when the node limit is hit before the bound is met.  The witness
    carries the bound's integer weights as ``lower_bound`` and its value
    as ``stats["lower_bound"]``.  ``stats["nodes"]`` counts the dive's
    path, one node per translate, plus the nodes of the search; the
    node limit bounds the search alone.  ``stats["revisits"]`` counts
    the search's visits that the table cut off.  An empty a gets the
    empty cover, proven optimal by the zero bound over d = |b|.

    A nonempty a ⊆ b builds no instance: it gets the witness the search
    returns there, the translate 0 (the least element of every ring, so
    greedy's first pick), proven by weight 1 on a's least element over
    d = |b| after 0 nodes.  The rings are checked first, so a subset by
    value in another ring still raises CrossRingError.
    """
    t0 = time.perf_counter()
    if len(a) and a.elements() <= b.elements():
        check_same_ring(a.ring, b.ring)
        ring = a.ring
        stats = {"nodes": 0, "revisits": 0, "elapsed": time.perf_counter() - t0,
                 "node_limit_hit": False, "lower_bound": 1}
        return make_witness(a, b, (ring.zero(),), True, "exact", stats,
                            ({min(a.elements(), key=ring.sort_key): 1}, len(b)))
    targets, pool, coverers, masks, full = _instance(a, b)
    n_targets = len(targets)
    base_size = len(b)

    best = _greedy_lists(coverers, len(pool))
    cutoff = len(best)
    parts, label = _components(masks, n_targets)
    bound = _root_floor(coverers, masks, base_size, cutoff, parts, label)
    floor = bound[0]
    dived = 0
    if floor < cutoff:
        dive = _dive(coverers, masks, full)
        dived = len(dive)
        if dived < cutoff:
            best, cutoff = dive, len(dive)

    nodes = revisits = 0
    hit_limit = ascended = False
    room = _room(masks, label, len(parts), base_size)
    seen = {}                               # covered -> fewest picks entered with

    def ascend():
        nonlocal bound, floor, ascended
        ascended = True
        raised = _ascent(coverers, masks, floor, cutoff, label)
        if raised is not None:
            bound = raised
            floor = bound[0]

    def visit(covered, chosen, at):
        # order[:at] is covered.  The node's search frame: covered, its
        # first uncovered place in order and an iterator over the
        # coverers there, most uncovered first; None for a leaf
        nonlocal nodes, revisits, cutoff, hit_limit
        nodes += 1
        if nodes > node_limit:
            hit_limit = True
            return None
        if nodes == stall_at and room >= cutoff:
            ascend()
        picks = len(chosen)
        if seen.get(covered, picks + 1) <= picks:
            revisits += 1
            return None
        if len(seen) < _TABLE_SIZE or covered in seen:
            seen[covered] = picks
        if covered == full:
            if picks < cutoff:
                best[:] = chosen
                cutoff = picks
            return None
        left = full & ~covered
        need = picks
        for m in parts:
            need += -(-(m & left).bit_count() // base_size)
        if need >= cutoff:
            return None
        while covered >> order[at] & 1:
            at += 1
        return covered, at, iter(sorted([(-(masks[r] & left).bit_count(), r)
                                         for r in coverers[order[at]]]))

    if floor < cutoff:
        stall_at = n_targets * len(set(masks))
        order = sorted(range(n_targets), key=lambda e: (len(coverers[e]), e))
        ring = a.ring
        covered, chosen = 0, []
        if ring.is_finite and n_targets == ring.cardinality:
            # covers of the whole ring shift by -t_1 onto covers holding 0 + b
            r0 = pool.index(ring.zero())
            covered, chosen = masks[r0], [r0]
        # depth first on an explicit stack, so no incumbent is too deep:
        # a frame per inner node on the path, each after the first
        # entered by appending its pick to chosen
        frame = visit(covered, chosen, 0)
        stack = [frame] if frame else []
        while stack:
            depth = len(stack)
            covered, at, tries = stack[-1]
            for _fresh, r in tries:
                if hit_limit or len(chosen) + 1 >= cutoff or cutoff <= floor:
                    break
                chosen.append(r)
                frame = visit(covered | masks[r], chosen, at + 1)
                if frame:
                    stack.append(frame)
                    break
                chosen.pop()
            if len(stack) == depth:         # no child to enter: backtrack
                stack.pop()
                if stack:
                    chosen.pop()
        if not (hit_limit or ascended) and floor < cutoff <= room:
            ascend()                        # cutoff is now the optimum
    chosen_elems = sorted((pool[r] for r in best), key=a.ring.sort_key)
    stats = {"nodes": dived + nodes, "revisits": revisits,
             "elapsed": time.perf_counter() - t0,
             "node_limit_hit": hit_limit, "lower_bound": floor}
    weights = {targets[e]: w for e, w in enumerate(bound[1]) if w}
    return make_witness(a, b, chosen_elems, not hit_limit or cutoff <= floor,
                        "exact", stats, (weights, bound[2]))


def _dive(coverers, masks, full):
    """Pool ranks of one branch-and-bound path without backtracking:
    cover the uncovered element whose coverers reach the fewest
    uncovered elements (ties toward the lower index) by its coverer with
    the most uncovered elements (ties toward the lower rank).

    The DFS branches on the fewest live coverers, which on an interval
    of Z sorted 0, 1, -1, 2, ... starts at its centre; the dive starts
    where the coverers reach least, an end, and sweeps across.
    """
    reach = []
    for cov in coverers:
        m = 0
        for r in cov:
            m |= masks[r]
        reach.append(m)
    left = full
    chosen = []
    while left:
        pick, least = 0, None
        live = left
        while live:
            low = live & -live
            idx = low.bit_length() - 1
            n = (reach[idx] & left).bit_count()
            if least is None or n < least:
                pick, least = idx, n
            live ^= low
        r = max(coverers[pick], key=lambda r: ((masks[r] & left).bit_count(), -r))
        left &= ~masks[r]
        chosen.append(r)
    return chosen


def _components(masks, n_targets):
    """(parts, label): the target masks of the connected components of
    the target/translate incidence, a row joining every component it
    meets, and the index in parts of each target's component.  A row's
    component is its lowest target's."""
    parts = []
    for m in set(masks):
        if m:
            keep = []
            for part in parts:
                if part & m:
                    m |= part
                else:
                    keep.append(part)
            keep.append(m)
            parts = keep
    label = [0] * n_targets
    for c, part in enumerate(parts[1:], 1):
        while part:
            low = part & -part
            label[low.bit_length() - 1] = c
            part ^= low
    return parts, label


# ---------------------------------------------------------------------------
# lower bounds: integer weights w_e >= 0 on the targets over a denominator
# d > 0.  For any such weights, the translates inside a connected
# component C of the target/translate incidence number at least
#   ceil((sum_{e in C} w_e - sum_{rows in C} max(0, w(row) - d)) / d),
# and at least 1, a row being the targets of one translate (the
# Lagrangian bound of the covering LP, Beasley 1990).  Every translate
# lies in one component, so every cover has at least the sum of these
# over the components, which is at least the same ceiling taken over all
# targets at once.  Floats only search for weights; every claimed bound
# is evaluated in integers.


def _evaluator(coverers, masks, label):
    """evaluate(weights, d) -> (net, value, over) for weights w_e >= 0,
    one per target index, ints or floats, over d.  A row's excess is
    max(0, w(row) − d); net[c] is the numerator of the bound above for
    the component with index c in ``label``, its weights less its rows'
    excess, value is the same over all targets, and over[r] is 1 for the
    ranks r of the rows with an excess.  The distinct rows are found
    once, here."""
    rows = {m: r for r, m in enumerate(masks)}.items()  # equal masks: one row
    n_pool, n_parts = len(masks), max(label, default=-1) + 1

    def evaluate(weights, d):
        load = [0] * n_pool
        net = [0] * n_parts
        for e, w in enumerate(weights):
            if w:
                net[label[e]] += w
                for r in coverers[e]:
                    load[r] += w
        value, over = sum(weights), bytearray(n_pool)
        for m, r in rows:
            if load[r] > d:
                net[label[(m & -m).bit_length() - 1]] -= load[r] - d
                value -= load[r] - d
                over[r] = 1
        return net, value, over

    return evaluate


def _weights_floor(weights, d, evaluate):
    """The bound above for integer ``weights`` over d, by an evaluator of
    ``_evaluator``."""
    return sum(max(1, -(-v // d)) for v in evaluate(weights, d)[0])


def lagrangian_floor(target, base, weights, d):
    """Least cover size that integer ``weights`` (target element -> int,
    missing = 0) over ``d`` prove for target by translates of base,
    summed over the components of the incidence.

    The rows are those of every translate meeting the target, the pool
    target − base that every cover is drawn from; the components are
    recomputed from the same rows.
    """
    targets, _pool, coverers, masks, _full = _instance(target, base)
    w = [weights.get(e, 0) for e in targets]
    _parts, label = _components(masks, len(targets))
    return _weights_floor(w, d, _evaluator(coverers, masks, label))


def _counting(parts, base_size):
    """Counting bound sum_C ceil(|C| / |b|) over the component masks
    ``parts`` as (floor, weights, d) with d = |b|: weight 1 on the
    lowest (ceil(|C| / |b|) - 1)·|b| + 1 targets of each component C
    already forces its ceiling."""
    floor = 0
    w = [0] * sum(map(int.bit_count, parts))
    for part in parts:
        need = -(-part.bit_count() // base_size)
        floor += need
        for _ in range((need - 1) * base_size + 1):
            low = part & -part
            w[low.bit_length() - 1] = 1
            part ^= low
    return floor, w, base_size


def _root_floor(coverers, masks, base_size, cutoff, parts, label):
    """Best of counting, cheap fractional and packing bounds over the
    components (``parts`` and ``label`` of ``_components``) as (floor,
    weights, d), stopping at the first that reaches ``cutoff``.

    cheap fractional: w_e = 1 / (largest mask holding e), so no row
    exceeds 1.  packing: w = 1 on targets that pairwise share no
    translate, taken greedily by fewest coverers.  No row is charged
    under either, so each component's ceiling needs only its weights.
    """
    bound = _counting(parts, base_size)
    if bound[0] >= cutoff:
        return bound
    sizes = [m.bit_count() for m in masks]
    big = [max(map(sizes.__getitem__, cov)) for cov in coverers]
    d = math.lcm(*set(big))
    w = [d // s for s in big]
    net = [0] * len(parts)
    for e, we in enumerate(w):
        net[label[e]] += we
    cheap = (sum(max(1, -(-v // d)) for v in net), w, d)
    bound = max(bound, cheap, key=lambda t: t[0])
    if bound[0] >= cutoff:
        return bound
    blocked = set()
    w = [0] * len(coverers)
    for e in sorted(range(len(coverers)), key=lambda e: len(coverers[e])):
        if blocked.isdisjoint(coverers[e]):
            blocked.update(coverers[e])
            w[e] = 1
    # the first target of each component in this order is packed
    return max(bound, (sum(w), w, 1), key=lambda t: t[0])


def _room(masks, label, n_parts, base_size):
    """Σ_C max(1, ceil(translates in C / |b|)) over the components: the
    cost of the uniform fractional cover, 1 / |b| on every translate,
    which covers each target exactly once.  No Lagrangian bound exceeds
    it; on a regular instance, every mask of |b| targets, it is the
    counting bound."""
    count = [0] * n_parts
    for m in masks:
        count[label[(m & -m).bit_length() - 1]] += 1
    return sum(max(1, -(-c // base_size)) for c in count)


def _ascent(coverers, masks, floor, cutoff, label):
    """Subgradient ascent on the Lagrangian weights u >= 0 (Beasley 1990)
    from u_e = 1 / (largest mask holding e), Polyak steps towards
    ``cutoff``.  Whenever the float bound, summed over the components
    that ``label`` gives each target, passes ``floor``, u is rounded
    down to d = 2^30 and evaluated in integers by the same evaluator.
    Returns the best (floor, weights, d) above ``floor``, or None.
    """
    evaluate = _evaluator(coverers, masks, label)
    sizes = [m.bit_count() for m in masks]
    u = [1.0 / max(map(sizes.__getitem__, cov)) for cov in coverers]
    d = 1 << 30
    found = None
    scale, best_value, stalled = 2.0, float("-inf"), 0
    for _ in range(200):
        net, value, over = evaluate(u, 1.0)
        if sum(max(1, math.ceil(v - 1e-9)) for v in net) > floor:
            w = [int(ue * d) for ue in u]
            exact = _weights_floor(w, d, evaluate)
            if exact > floor:
                floor = exact
                found = (floor, w, d)
                if floor >= cutoff:
                    break
        if value > best_value + 1e-9:
            best_value, stalled = value, 0
        else:
            stalled += 1
            if stalled == 5:
                scale, stalled = scale / 2, 0
        g = [1 - sum(map(over.__getitem__, cov)) for cov in coverers]
        norm = sum(x * x for x in g)
        if norm == 0 or scale < 1e-3:
            break
        step = scale * (cutoff - value) / norm
        u = [max(0.0, ue + step * ge) for ue, ge in zip(u, g)]
    return found


def cover_brute_force(a, b, pool):
    """Independent oracle: complete DFS in increasing cover size over the
    translates ``pool`` + b, each translate's mask built from its own
    sums.  UncoverableError when a target lies in no pool translate.

    At each step only the translates containing the least-index
    uncovered element are branched on — every cover of the given size
    contains one of them, so each depth level is exhaustive.  No greedy
    ordering, no lower bounds, no incumbents.
    """
    if len(a) == 0:
        return 0, ()
    ring = a.ring
    targets = sorted(a.elements(), key=ring.sort_key)
    pool_sorted = sorted(pool.elements(), key=ring.sort_key)
    sums = [{ring.add(t, x) for x in b.elements()} for t in pool_sorted]
    masks = [sum(1 << i for i, e in enumerate(targets) if e in s) for s in sums]
    coverers = [[r for r, s in enumerate(sums) if e in s] for e in targets]
    if not all(coverers):
        raise UncoverableError("a target lies in no pool translate")
    full = (1 << len(targets)) - 1

    def search(covered, depth, chosen):
        if covered == full:
            return tuple(chosen)
        if depth == 0:
            return None
        low = (full & ~covered)
        idx = (low & -low).bit_length() - 1
        for r in coverers[idx]:
            chosen.append(r)
            got = search(covered | masks[r], depth - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    k = 1
    while True:
        got = search(0, k, [])
        if got is not None:
            return k, tuple(pool_sorted[r] for r in got)
        k += 1


# ---------------------------------------------------------------------------
# approximation certificates


@dataclass(frozen=True)
class ApproxCertificate:
    """X*X ∪ (X+X) ⊆ F + X (ring mode) or X+X ⊆ F+X (group mode).

    ``lower_bound`` is (weights, denominator) as in ``lagrangian_floor``
    over the target and X; it proves minimality when its value reaches k.
    ``cover`` is the witness ``approx_constant`` solved, which
    ``commensurability`` reuses; None on a certificate read from a
    payload, and not part of the payload.
    """

    x: FiniteSet
    k: int
    witness_f: FiniteSet
    mode: str                        # "ring" | "group"
    minimal: bool
    stats: dict = field(default_factory=dict, compare=False)
    lower_bound: tuple | None = field(default=None, compare=False)
    cover: CoverWitness | None = field(default=None, compare=False, repr=False)

    @property
    def ring(self):
        return self.x.ring

    @cached_property
    def target(self):
        """X*X ∪ (X+X) in ring mode, X+X in group mode, built once."""
        return _certificate_target(self.x, self.mode)

    def verify(self):
        """Re-check the mode, that X is nonempty and symmetric, |F| = k,
        the covering inclusion and that every translate meets the
        target, which puts F in T − X ⊆ ⟨X⟩."""
        if self.mode not in ("ring", "group"):
            return False, f"unknown mode {_clip(repr(self.mode))}"
        if len(self.x) == 0:
            return False, "x is empty"
        ring = self.ring
        missing = missing_negative(self.x)
        if missing is not None:
            return False, ("x is not additively symmetric: missing "
                           f"{ring.render(missing)}")
        if len(self.witness_f) != self.k:
            return False, "|F| != k"
        target = self.target
        missing = first_uncovered(target, self.x, self.witness_f)
        if missing is not None:
            return False, f"uncovered {ring.render(missing)}"
        for f in sorted(self.witness_f.elements(), key=ring.sort_key):
            if not any(ring.add(f, w) in target for w in self.x.elements()):
                return False, f"translate {ring.render(f)} meets no target"
        return True, None

    def to_json(self):
        ring = self.ring
        out = {
            "schema_version": "4",
            "kind": "approx_certificate",
            "ring": ring.descriptor,
            "x": [ring.render(v) for v in self.x],
            "k": self.k,
            "f": [ring.render(v) for v in self.witness_f],
            "mode": self.mode,
            "minimal": self.minimal,
            "stats": {k: v for k, v in self.stats.items()
                      if isinstance(v, (int, float, str, bool))},
        }
        if self.lower_bound is not None:
            out["lower_bound"] = _bound_json(ring.render, self.lower_bound)
        return out


def _certificate_target(x, mode):
    """X*X ∪ (X+X) in ring mode, X+X in group mode."""
    t = sumset(x, x)
    return union(prodset(x, x), t) if mode == "ring" else t


def approx_constant(x, mode="ring", exact=True):
    """Certify the approximation constant of a nonempty symmetric set.

    Target T is X*X ∪ (X+X) (ring mode) or X+X (group mode), covered by
    the translates that meet it.  ``exact`` yields the minimal K, otherwise
    a greedy upper bound.  Raises InvalidParamsError for an empty X, which
    is no approximate subring, and NotSymmetricError when X ≠ −X.
    """
    if mode not in ("ring", "group"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(x) == 0:
        raise InvalidParamsError("an approximate subring is nonempty")
    ring = x.ring
    missing = missing_negative(x)
    if missing is not None:
        raise NotSymmetricError(f"set is not symmetric: missing {ring.render(missing)}")
    t = _certificate_target(x, mode)
    w = cover_exact(t, x) if exact else cover_greedy(t, x)
    f = FiniteSet(ring, w.translates)
    return ApproxCertificate(x, len(f), f, mode, w.optimal, dict(w.stats),
                             w.lower_bound, w)


# ---------------------------------------------------------------------------
# commensurability


@dataclass(frozen=True)
class CommensurabilityResult:
    a: FiniteSet
    b: FiniteSet
    k_ab: int                        # translates of b covering a
    k_ba: int                        # translates of a covering b
    witness_ab: CoverWitness
    witness_ba: CoverWitness

    @property
    def constant(self):
        return max(self.k_ab, self.k_ba)


def commensurability(a, b, cert=None):
    """Exact covers of each set by translates of the other; one that
    hits the node limit is flagged non-optimal.  An empty set is the base
    of one of them: UncoverableError, from ``_incidence``.

    ``cert``, an ``approx_constant`` certificate, lends its cover when
    that is an exact cover of a by b: the witness ``cover_exact(a, b)``
    returns, so it is not solved again.  A greedy cover, or one of
    another target or base, is never reused.
    """
    w_ab = cert and cert.cover
    if not (w_ab and w_ab.method == "exact" and (w_ab.target, w_ab.base) == (a, b)):
        w_ab = cover_exact(a, b)
    w_ba = cover_exact(b, a)
    return CommensurabilityResult(a, b, len(w_ab.translates),
                                  len(w_ba.translates), w_ab, w_ba)

