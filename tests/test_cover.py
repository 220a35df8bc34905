"""Cover solvers, approximation certificates, commensurability, genericity."""

import dataclasses
import heapq
import itertools
import json
import math
import random

import pytest

import apxring as ax
from apxring.constructive import _derive_term, eval_term
from apxring.cover import cover_brute_force, lagrangian_floor, make_witness
from apxring.errors import (
    CrossRingError,
    InvalidParamsError,
    NotSymmetricError,
    UncoverableError,
    VerificationFailedError,
)
from apxring.sets import (
    FiniteSet,
    difference_set,
    prodset,
    sumset,
    union,
)
from corpus import corpus_sets

Z = ax.parse_ring("int")


def iset(lo, hi):
    return FiniteSet(Z, range(lo, hi + 1))


def test_verify_witness_examples():
    a = iset(0, 2)
    w = make_witness(a, a, (0,), True, "exact")
    assert ax.verify_witness(w) == (True, None)
    with pytest.raises(VerificationFailedError):
        make_witness(a, FiniteSet(Z, [0]), (0, 1), False, "greedy")
    empty = FiniteSet(Z, [])
    w = make_witness(empty, a, (), True, "exact")
    assert ax.verify_witness(w) == (True, None)


def test_cover_greedy_examples():
    a, b = iset(0, 5), iset(0, 1)
    w = ax.cover_greedy(a, b)
    assert len(w.translates) == 3
    # |b| = 2 so two translates cover at most 4 < 6 elements: 3 is optimal
    exact = ax.cover_exact(a, b)
    assert len(exact.translates) == 3 and exact.optimal

    w = ax.cover_greedy(a, a)
    assert len(w.translates) == 1 and w.translates == (0,)

    w = ax.cover_greedy(FiniteSet(Z, [5]), FiniteSet(Z, [0]))
    assert w.translates == (5,)


def test_cover_exact_examples():
    a, b = iset(-2, 2), iset(-1, 1)
    w = ax.cover_exact(a, b)
    assert len(w.translates) == 2 and w.optimal
    w1 = ax.cover_exact(a, a)
    assert len(w1.translates) == 1


def test_brute_force_pool_missing_a_target_is_uncoverable():
    # the oracle takes its pool as given: 2 lies in no translate of {0}
    # by 0 or 1, so no cover exists, where the search would never end
    a = iset(0, 2)
    with pytest.raises(UncoverableError, match="no pool translate"):
        cover_brute_force(a, FiniteSet(Z, [0]), FiniteSet(Z, [0, 1]))
    assert cover_brute_force(a, FiniteSet(Z, [0]), iset(0, 2)) == (3, (0, 1, 2))
    # the solvers choose their own pool; only an empty base has no cover
    for solve in (ax.cover_exact, ax.cover_greedy):
        assert len(solve(a, FiniteSet(Z, [0])).translates) == 3
        with pytest.raises(UncoverableError, match="base set is empty"):
            solve(a, FiniteSet(Z, []))


def test_greedy_never_beats_exact_and_log_bound():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice((11, 13, 17))
        ring = ax.modular(p)
        a = FiniteSet(ring, {rng.randrange(p)
                             for _ in range(rng.randrange(3, 9))})
        b = FiniteSet(ring, {rng.randrange(p)
                             for _ in range(rng.randrange(1, 4))})
        g = ax.cover_greedy(a, b)
        e = ax.cover_exact(a, b)
        assert e.optimal
        assert len(g.translates) >= len(e.translates)
        assert len(g.translates) <= len(e.translates) * (1 + math.log(len(a)))
        # cardinality bound
        assert len(e.translates) >= math.ceil(len(a) / len(b))


def test_exact_matches_brute_force_small():
    rng = random.Random(9)
    for _ in range(30):
        ring = ax.modular(rng.choice((9, 11, 12)))
        n = ring.cardinality
        a = FiniteSet(ring, {rng.randrange(n)
                             for _ in range(rng.randrange(2, 7))})
        b = FiniteSet(ring, {rng.randrange(n)
                             for _ in range(rng.randrange(1, 4))})
        pool = difference_set(a, b)
        if len(pool) > 20 or len(a) > 24:
            continue
        e = ax.cover_exact(a, b)
        k, _ = cover_brute_force(a, b, pool)
        assert len(e.translates) == k


def test_approx_constant_subring():
    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    cert = ax.approx_constant(s, "ring", exact=True)
    assert cert.k == 1
    assert cert.witness_f == ax.parse_set(m8, "{0}")
    assert cert.minimal


def test_approx_constant_interval():
    cert = ax.approx_constant(iset(-1, 1), "ring", exact=True)
    assert cert.k == 2
    assert cert.witness_f == FiniteSet(Z, [-1, 1])
    ok, why = cert.verify()
    assert ok, why


def test_approx_constant_not_symmetric():
    with pytest.raises(NotSymmetricError):
        ax.approx_constant(FiniteSet(Z, [1]), "ring")


def test_approx_constant_group_mode():
    x = iset(-1, 1)
    cert = ax.approx_constant(x, "group", exact=True)
    # X+X = {-2..2}: 2 translates needed and enough
    assert cert.k == 2


def test_approx_constant_empty():
    # an approximate subring is nonempty: the certificate decides it
    for mode in ("ring", "group"):
        for exact in (True, False):
            with pytest.raises(InvalidParamsError,
                               match="^an approximate subring is nonempty$"):
                ax.approx_constant(FiniteSet(Z, []), mode, exact)


def test_empty_target_payloads_verify():
    # an empty target takes the general path: the empty cover, proven by
    # the zero bound over d = |base|
    from apxring.serialize import verify_payload
    empty = FiniteSet(Z, [])
    for base in (FiniteSet(Z, [0]), iset(-1, 1)):
        w = ax.cover_exact(empty, base)
        assert (w.translates, w.optimal) == ((), True)
        assert w.stats["node_limit_hit"] is False and "elapsed" in w.stats
        payload = w.to_json()
        assert payload["lower_bound"] == {"weights": {}, "denominator": len(base)}
        ok, details = verify_payload(payload)
        assert ok and "every cover needs 0" in details[-1], details
    payload = ax.cover_greedy(empty, iset(-1, 1)).to_json()
    assert (payload["translates"], payload["optimal"]) == ([], False)
    ok, details = verify_payload(payload)
    assert ok and details[-1] == "minimality not certified (no lower bound)"
    # the empty-X certificate, and the fact21 report over it, that the
    # package once wrote: the certificate fails on its own and nested, and
    # the report's constructive cover fails on its empty base
    cert = {"schema_version": "4", "kind": "approx_certificate", "ring": "int",
            "x": [], "k": 0, "f": [], "mode": "ring", "minimal": True,
            "stats": {}, "lower_bound": {"weights": {}, "denominator": 1}}
    witness = {"schema_version": "2", "kind": "cover_witness", "ring": "int",
               "target": [], "base": [], "translates": [], "optimal": False,
               "method": "constructive", "stats": {"count_bound": 0}}
    row = {"schema_version": "1", "kind": "constructive_report", "m": 1,
           "constructed_size": 0, "exact_size": 0, "bound_formula_value": 0,
           "witness": witness, "certificate": cert}
    report = {"schema_version": "1", "kind": "fact21_report",
              "certificate": cert, "rows": [row]}
    for payload in (cert, row, report):
        assert verify_payload(payload) == (False, ["x is empty"])
    assert verify_payload(witness) == (False, ["base set is empty"])
    payload = dict(ax.cover_exact(iset(-2, 2), iset(-1, 1)).to_json(), base=[])
    assert verify_payload(payload) == (False, ["base set is empty"])


def test_incidence_checks_every_instance():
    # _incidence is the one check of a cover instance: an empty base is
    # uncoverable and sets of two rings cross, for the solvers, the bound
    # and commensurability, which covers each set by the other
    a, empty = iset(-1, 1), FiniteSet(Z, [])
    for solve in (ax.cover_exact, ax.cover_greedy,
                  lambda t, b: lagrangian_floor(t, b, {}, 1)):
        with pytest.raises(UncoverableError, match="^base set is empty$"):
            solve(a, empty)
    for pair in ((a, empty), (empty, a), (empty, empty)):
        with pytest.raises(UncoverableError, match="^base set is empty$"):
            ax.commensurability(*pair)
    m7 = ax.modular(7)
    other = FiniteSet(m7, [0, 1, 6])
    for solve in (ax.cover_exact, ax.cover_greedy, ax.commensurability,
                  lambda t, b: lagrangian_floor(t, b, {}, 1)):
        for pair in ((a, other), (other, a)):
            with pytest.raises(CrossRingError):
                solve(*pair)


def test_certificate_derivations_stay_in_generated_subring():
    for name, lit, ring in (("w7", "{0,1,6}", ax.modular(7)),
                            ("w12", "{0,1,11}", ax.modular(12))):
        x = ax.parse_set(ring, lit)
        cert = ax.approx_constant(x, "ring", exact=True)
        gen = ax.closure(x)
        assert cert.witness_f.elements() <= gen.elements()
        ok, why = cert.verify()
        assert ok, why


def test_certificate_rejects_translate_meeting_no_target():
    # F + X still covers the target with 9 added to F and k raised, but
    # 9 + X misses X*X ∪ (X+X) = {-2..2}, so 9 is not shown to lie in ⟨X⟩
    from apxring.serialize import verify_payload
    x = iset(-1, 1)
    cert = ax.approx_constant(x, "ring", exact=True)
    bad = dataclasses.replace(cert, k=cert.k + 1, witness_f=FiniteSet(
        Z, [*cert.witness_f, 9]))
    assert bad.verify() == (False, "translate 9 meets no target")
    ok, details = verify_payload(bad.to_json())
    assert not ok and details == ["translate 9 meets no target"]


def test_certificate_soundness_reverify():
    rng = random.Random(17)
    for _ in range(25):
        p = rng.choice((5, 7, 11))
        ring = ax.modular(p)
        elems = {0}
        for _ in range(rng.randrange(1, 3)):
            v = rng.randrange(1, p)
            elems |= {v, p - v}
        cert = ax.approx_constant(FiniteSet(ring, elems), "ring",
                                  exact=rng.random() < 0.5)
        ok, why = cert.verify()
        assert ok, why


def test_derivations_are_read_off_the_pool():
    # F lies in T - X, so every derivation is one letter, or two sum words
    # or one product word, plus one negated letter
    for name, x in corpus_sets():
        ring = x.ring
        for mode, exact in itertools.product(("ring", "group"), (True, False)):
            cert = ax.approx_constant(x, mode, exact=exact)
            assert cert.verify() == (True, None)
            for v in cert.witness_f:
                term = _derive_term(x, v)
                assert tuple(map(len, term)) in ((1,), (1, 1, 1), (2, 1)), (
                    name, mode, exact, ring.render(v))
                assert all(letter in x for word in term for letter in word)
                assert eval_term(ring, term) == v


def test_derive_term_rejects_value_outside_pool():
    # T - X = {-3..3} for X = {-1, 0, 1}; in Z/8, T - X = X for the evens
    x = iset(-1, 1)
    assert eval_term(Z, _derive_term(x, 3)) == 3
    m8 = ax.modular(8)
    for x, v in ((x, 4), (x, -5), (ax.parse_set(m8, "{0,2,4,6}"), 1)):
        with pytest.raises(VerificationFailedError, match="not in T - X"):
            _derive_term(x, v)


def test_commensurability_examples():
    a = iset(-2, 2)
    r = ax.commensurability(a, a)
    assert (r.k_ab, r.k_ba) == (1, 1)
    r = ax.commensurability(a, iset(-1, 1))
    assert (r.k_ab, r.k_ba) == (2, 1)
    assert r.constant == 2
    m10 = ax.modular(10)
    r = ax.commensurability(ax.parse_set(m10, "{0}"),
                            ax.parse_set(m10, "{0,5}"))
    assert (r.k_ab, r.k_ba) == (1, 2)


def test_witness_json_round_trip():
    from apxring.serialize import verify_payload
    a, b = iset(-2, 2), iset(-1, 1)
    w = ax.cover_exact(a, b)
    ok, details = verify_payload(w.to_json())
    assert ok, details
    bad = w.to_json()
    bad["translates"] = bad["translates"][:1]
    ok, details = verify_payload(bad)
    assert not ok


def test_certificate_json_round_trip():
    from apxring.serialize import verify_payload
    cert = ax.approx_constant(iset(-2, 2), "ring", exact=True)
    payload = cert.to_json()
    assert payload["schema_version"] == "4"
    assert not {"membership", "f_location", "derivations"} & payload.keys()
    ok, details = verify_payload(payload)
    assert ok, details
    assert details[1].startswith("minimality certified")
    tampered = cert.to_json()
    tampered["k"] = 1
    ok, _ = verify_payload(tampered)
    assert not ok


def test_schema3_certificate_derivations_are_ignored():
    # schema 1-3 certificates stored a term per translate; the cover now
    # proves F ⊆ ⟨X⟩, so forged terms do not fail a sound certificate
    # and sound terms do not save one whose translate meets no target
    from apxring.serialize import verify_payload
    cert = ax.approx_constant(iset(-2, 2), "ring", exact=True)
    forged = {f: [["7"], ["-3"]] for f in cert.to_json()["f"]}
    v3 = dict(cert.to_json(), schema_version="3", derivations=forged)
    ok, details = verify_payload(v3)
    assert ok and details[0] == f"K = {cert.k} certificate re-verified", details
    stray = dict(v3, k=cert.k + 1, f=[*v3["f"], "40"],
                 derivations=dict(forged, **{"40": [["2"], ["2"] * 20]}))
    assert verify_payload(stray) == (False, ["translate 40 meets no target"])


def test_interval_oracle_small():
    # exact ring-mode constants for {-N..N}: solver vs complete DFS oracle
    for n in (1, 2, 3):
        x = iset(-n, n)
        t = union(prodset(x, x), sumset(x, x))
        pool = difference_set(t, x)
        k_oracle, _ = cover_brute_force(t, x, pool)
        cert = ax.approx_constant(x, "ring", exact=True)
        assert cert.k == k_oracle


def _random_instance(rng):
    ring = rng.choice([ax.modular(n) for n in range(7, 18)]
                      + [Z, ax.parse_ring("gf:2^2:t^2+t+1")])
    if ring.is_finite:
        elems = list(ring.elements())
    else:
        elems = list(range(-12, 13))
    a = FiniteSet(ring, rng.sample(elems, rng.randrange(1, min(12, len(elems)))))
    b = FiniteSet(ring, rng.sample(elems, rng.randrange(1, 4)))
    return a, b


def _pool_first_masks(a, b):
    # the pool is every plain difference of a target and an element of
    # b; each pool translate adds every element of b and looks the sums
    # up among the targets
    ring = a.ring
    targets = sorted(a.elements(), key=ring.sort_key)
    pool = sorted({ring.sub(e, x) for e in a for x in b}, key=ring.sort_key)
    pos = {x: i for i, x in enumerate(targets)}
    masks = []
    for t in pool:
        m = 0
        for x in b.elements():
            i = pos.get(ring.add(t, x))
            if i is not None:
                m |= 1 << i
        masks.append(m)
    return targets, pool, masks


def test_instance_masks_match_the_pool_first_oracle():
    # the solvers' pool is a − b: every translate meeting a target, each
    # target in exactly |b| of them
    from apxring import cover
    rng = random.Random(31)
    for _ in range(300):
        a, b = _random_instance(rng)
        targets, pool, expected = _pool_first_masks(a, b)
        assert all(expected)
        got = cover._instance(a, b)
        assert (got[:2], got[3:]) == (
            (targets, pool), (expected, (1 << len(targets)) - 1))
        # each target's coverers, in any order, are the ranks whose
        # oracle mask holds it, |b| of them
        assert [sorted(cov) for cov in got[2]] == [
            [r for r, m in enumerate(expected) if m >> i & 1]
            for i in range(len(targets))]
        assert {len(cov) for cov in got[2]} == {len(b)}
        assert cover._incidence(a, b) == got[:3]


def test_greedy_lists_picks_most_fresh_targets_lowest_rank():
    # the one greedy, behind cover_greedy and cover_exact's incumbent,
    # against a plain oracle: the translate covering most uncovered
    # targets, ties toward the lower rank, until all are covered
    from apxring import cover
    rng = random.Random(23)
    instances = [_random_instance(rng) for _ in range(200)]
    for _ in range(20):
        instances.append((FiniteSet(Z, rng.sample(range(-60, 60), rng.randrange(20, 80))),
                          FiniteSet(Z, rng.sample(range(-6, 6), rng.randrange(2, 6)))))
    x = iset(-2, 2)
    instances.append((ax.growth_sequence(x, 2).entries[2].xset, x))
    for a, b in instances:
        _t, pool_sorted, coverers, masks, left = cover._instance(a, b)
        expected = []
        while left:
            r = max(range(len(masks)), key=lambda r: ((masks[r] & left).bit_count(), -r))
            expected.append(r)
            left &= ~masks[r]
        assert cover._greedy_lists(coverers, len(pool_sorted)) == expected, (a, b)


def _heap_greedy(coverers, n_pool):
    # reference greedy: a lazy-decrement heap of (-count, rank), a stale
    # entry re-pushed with its current count, so each pop that matches its
    # count is the most fresh targets at the lowest rank
    members = [[] for _ in range(n_pool)]
    for i, cov in enumerate(coverers):
        for r in cov:
            members[r].append(i)
    fresh = list(map(len, members))
    heap = [(-n, r) for r, n in enumerate(fresh) if n]
    heapq.heapify(heap)
    covered = bytearray(len(coverers))
    left = len(coverers)
    chosen = []
    while left:
        negcnt, r = heapq.heappop(heap)
        if fresh[r] != -negcnt:
            if fresh[r]:
                heapq.heappush(heap, (-fresh[r], r))
            continue
        chosen.append(r)
        left -= fresh[r]
        for i in members[r]:
            if not covered[i]:
                covered[i] = 1
                for q in coverers[i]:
                    fresh[q] -= 1
    return chosen


def test_greedy_lists_matches_heap_greedy_on_growth_cover():
    # growth's greedy cover of X_3 of {-2..2}, too large for the mask oracle
    from apxring import cover
    x = iset(-2, 2)
    a = ax.growth_sequence(x, 3).entries[3].xset
    _t, pool_sorted, coverers = cover._incidence(a, x)
    assert len(coverers) == 13121
    got = cover._greedy_lists(coverers, len(pool_sorted))
    assert len(got) == 2625
    assert got == _heap_greedy(coverers, len(pool_sorted))


def test_greedy_lists_ties_across_levels_and_empty_translates():
    # translates of a few sizes, so counts tie on every level as picks
    # shrink them, and some translates cover no target at all
    from apxring import cover
    rng = random.Random(25)
    for _ in range(300):
        n_targets = rng.randrange(1, 40)
        n_pool = rng.randrange(1, 30)
        sizes = rng.sample([0, 0, 1, 2, 3, 4, 6, 8], 3)
        members = [rng.sample(range(n_targets), min(rng.choice(sizes), n_targets))
                   for _ in range(n_pool)]
        coverers = [[] for _ in range(n_targets)]
        for r, mem in enumerate(members):
            for i in mem:
                coverers[i].append(r)
        for i, cov in enumerate(coverers):
            if not cov:
                cov.append(rng.randrange(n_pool))
            rng.shuffle(cov)
        masks = [0] * n_pool
        for i, cov in enumerate(coverers):
            for r in cov:
                masks[r] |= 1 << i
        left = (1 << n_targets) - 1
        expected = []
        while left:
            r = max(range(n_pool), key=lambda r: ((masks[r] & left).bit_count(), -r))
            expected.append(r)
            left &= ~masks[r]
        got = cover._greedy_lists(coverers, n_pool)
        assert got == expected == _heap_greedy(coverers, n_pool)
        assert all(masks[r] for r in got)


def _one_ceiling(target, base, weights, d):
    # the Lagrangian bound over all targets at once, rows from scratch
    add = target.ring.add
    rows = {frozenset(add(t, b) for b in base) & target.elements()
            for t in difference_set(target, base)}
    over = sum(max(0, sum(weights.get(e, 0) for e in row) - d) for row in rows)
    return -((over - sum(weights.values())) // d)


def test_lagrangian_floor_sums_components():
    from apxring.cover import lagrangian_floor
    # translates of {0, 1, 2} never meet two of the blocks: 2 + 2 + 2
    a = FiniteSet(Z, [*range(4), *range(10, 14), *range(20, 24)])
    ones = dict.fromkeys(a, 1)
    assert _one_ceiling(a, iset(0, 2), ones, 3) == 4
    assert lagrangian_floor(a, iset(0, 2), ones, 3) == 6
    # on random weights the sum over components is at least the one
    # ceiling, so bounds written before components still certify, and it
    # stays below the optimum
    rng = random.Random(44)
    split = 0
    for _ in range(150):
        a, b = _random_instance(rng)
        weights = {e: rng.randrange(4) for e in a}
        d = rng.randrange(1, 5)
        floor = lagrangian_floor(a, b, weights, d)
        assert _one_ceiling(a, b, weights, d) <= floor
        assert floor <= cover_brute_force(a, b, difference_set(a, b))[0]
        split += floor > max(1, _one_ceiling(a, b, weights, d))
    assert split > 10


def test_whole_ring_components_proven_at_the_root():
    # X = {0, t, -t} in F_25: translates of X meet only inside the 5
    # cosets of F_5·t, each needs ceil(5 / 3) = 2 of them, so the sum
    # over components proves 10 where counting all 25 gives 9
    from apxring.serialize import verify_payload
    ring = ax.parse_ring("gf:5^2:t^2+2")
    whole = FiniteSet(ring, ring.elements())
    t = ring.parse("t")
    x = FiniteSet(ring, [ring.zero(), t, ring.neg(t)])
    w = ax.cover_exact(whole, x)
    assert (len(w.translates), w.optimal) == (10, True)
    assert (w.stats["nodes"], w.stats["lower_bound"]) == (0, 10)
    ok, details = verify_payload(w.to_json())
    assert ok and details[1] == "minimality certified: every cover needs 10"


def test_lower_bound_oracle():
    # every bound sits below the complete-search optimum; the recorded
    # weights reproduce it in integers; a claimed optimum is the optimum
    from apxring import cover
    rng = random.Random(90)
    for _ in range(200):
        a, b = _random_instance(rng)
        w = ax.cover_exact(a, b)
        k, _ = cover_brute_force(a, b, difference_set(a, b))
        lower = w.stats["lower_bound"]
        assert lower <= k <= len(w.translates)
        assert w.optimal and len(w.translates) == k
        weights, d = w.lower_bound
        assert cover.lagrangian_floor(a, b, weights, d) == lower
        # the ascent, run from scratch, stays below the optimum too
        targets, _p, coverers, masks, _f = cover._instance(a, b)
        _parts, label = cover._components(masks, len(targets))
        raised = cover._ascent(coverers, masks, 0, len(w.translates), label)
        if raised is not None:
            floor, aw, ad = raised
            assert floor <= k
            assert cover._weights_floor(
                aw, ad, cover._evaluator(coverers, masks, label)) == floor


def test_lower_bound_evaluator_charges_overloaded_rows():
    # rows of {0..5} by translates of {0,1}: {0}, {0,1}, ..., {4,5}, {5};
    # weight 1 everywhere over d = 1 sums to 6, but five rows hold 2 > 1
    # and each costs 1, so only 1 is proven (the optimum is 3)
    from apxring.cover import lagrangian_floor
    a, b = iset(0, 5), iset(0, 1)
    assert lagrangian_floor(a, b, dict.fromkeys(range(6), 1), 1) == 1
    assert lagrangian_floor(a, b, {0: 1, 2: 1, 4: 1}, 1) == 3
    assert lagrangian_floor(a, b, {0: 1, 1: 1}, 1) == 1


def test_whole_ring_symmetry_oracle():
    rng = random.Random(12)
    for desc in ("zmod:12", "gf:5^2:t^2+2", "mat:2:zmod:2"):
        ring = ax.parse_ring(desc)
        whole = FiniteSet(ring, ring.elements())
        elems = sorted(whole.elements(), key=ring.sort_key)
        for _ in range(4):
            b = FiniteSet(ring, rng.sample(elems, rng.randrange(2, 6)))
            w = ax.cover_exact(whole, b)
            k, _ = cover_brute_force(whole, b, whole)
            assert w.optimal and len(w.translates) == k, (desc, b)
            assert ring.zero() in w.translates or w.stats["nodes"] == 0


def test_anchors_proven_under_default_limit():
    # each of these ran into the 10^6-node limit or took 10^5 nodes
    # with the counting bound alone
    from apxring.classify import gallery
    from apxring.constructive import bound_table
    for name, params, k in (("interval", {"n": 20}, 19),
                            ("y-set", {"p": 11}, 6),
                            ("y-set", {"p": 13}, 7),
                            ("linear-quo", {"p": 5, "d": 3}, 5),
                            ("linear-quo", {"p": 7, "d": 3}, 7)):
        cert = ax.approx_constant(gallery(name, **params).xset, "ring")
        assert (cert.k, cert.minimal) == (k, True), name
        assert not cert.stats["node_limit_hit"] and cert.stats["lower_bound"] == k
    cert = ax.approx_constant(gallery("interval-mod", p=101, n=4).xset, "ring")
    row = bound_table(cert, 3)[-1]
    target = row.constructed.target
    w = ax.cover_exact(target, cert.x)
    assert w.optimal and len(w.translates) == row.exact_size == 10


def test_node_limit_returns_a_checkable_unproven_cover(tmp_path, capsys):
    # the certificate instance of y-set(11): T = X·X ∪ (X+X), base X,
    # pool T − X.  Proving 6 takes about 12,000 nodes; stopped at 100,
    # the incumbent still covers and its payload says what is unproven
    from apxring.classify import gallery
    from apxring.cli import main
    from apxring.cover import first_uncovered
    from apxring.serialize import verify_payload
    x = gallery("y-set", p=11).xset
    t = union(prodset(x, x), sumset(x, x))
    assert len(t) == 107
    w = ax.cover_exact(t, x, node_limit=100)
    assert len(w.translates) == 6 and first_uncovered(t, x, w.translates) is None
    assert not w.optimal and w.stats["node_limit_hit"]
    assert w.stats["lower_bound"] == 5
    unproven = "minimality not certified (lower bound 5 < 6)"
    ok, details = verify_payload(w.to_json())
    assert ok and unproven in details, details
    out = tmp_path / "cover.json"
    assert main(["cover", "--ring", x.ring.descriptor, "--target", t.render(),
                 "--base", x.render(), "--node-limit", "100", "--json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (len(payload["translates"]), payload["optimal"]) == (6, False)
    assert payload["stats"]["node_limit_hit"]
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 0
    printed = capsys.readouterr().out
    assert unproven in printed and printed.endswith("VERIFIED\n")


def test_dive_covers_and_never_beats_the_optimum():
    from apxring import cover
    rng = random.Random(10)
    for _ in range(200):
        a, b = _random_instance(rng)
        _t, pool_sorted, coverers, masks, full = cover._instance(a, b)
        ranks = cover._dive(coverers, masks, full)
        chosen = [pool_sorted[r] for r in ranks]
        assert cover.first_uncovered(a, b, chosen) is None
        assert len(chosen) >= cover_brute_force(a, b, difference_set(a, b))[0]


def test_dive_incumbent_meets_the_root_bound():
    # greedy covers these with one translate too many; the dive sweeps
    # from an end of the interval and meets the root bound, so the only
    # nodes are the dive's own path, one per translate
    x = iset(-6, 6)
    entry = ax.growth_sequence(x, 1, with_covering=True).entries[1]
    assert (entry.size, entry.covering, entry.covering_method) == (97, 8, "exact")
    w = ax.cover_exact(entry.xset, x)
    assert (len(w.translates), w.stats["nodes"], w.stats["lower_bound"]) == (8, 8, 8)
    from apxring.classify import gallery
    from apxring.constructive import bound_table
    cert = ax.approx_constant(gallery("interval-mod", p=101, n=4).xset, "ring")
    target = bound_table(cert, 3)[-1].constructed.target
    w = ax.cover_exact(target, cert.x)
    assert w.optimal and len(w.translates) == 10 and w.stats["nodes"] == 10


def test_minimality_certificate_checked_not_trusted():
    from apxring.serialize import verify_payload
    a, b = iset(0, 9), FiniteSet(Z, [0, 1, 3])
    w = ax.cover_exact(a, b)
    payload = w.to_json()
    assert payload["schema_version"] == "2"
    ok, details = verify_payload(payload)
    assert ok and details[1].startswith("minimality certified"), details
    # a worse cover with weights that would claim its size without the
    # row charges: still a valid cover, never certified minimal
    g = ax.cover_greedy(a, iset(0, 1))
    tampered = dict(g.to_json(), lower_bound={
        "weights": {str(v): 1 for v in range(10)}, "denominator": 1})
    ok, details = verify_payload(tampered)
    assert ok and details[1].startswith("minimality not certified"), details
    for bad in ({"weights": {"0": -1}, "denominator": 1},
                {"weights": {"0": 1}, "denominator": 0},
                {"weights": {"0": 1}, "denominator": -2},
                {"weights": {"0": 0.5}, "denominator": 1},
                {"weights": {"42": 1}, "denominator": 1}):
        ok, details = verify_payload(dict(payload, lower_bound=bad))
        assert not ok, bad
    # a payload without a bound, or from before bounds, still verifies
    old = dict(payload, schema_version="1")
    del old["lower_bound"]
    ok, details = verify_payload(old)
    assert ok and details[1].startswith("minimality not certified")
    cert = ax.approx_constant(iset(-2, 2), "ring")
    old = dict(cert.to_json(), schema_version="2")
    del old["lower_bound"]
    ok, details = verify_payload(old)
    assert ok and details[1].startswith("minimality not certified")


def test_cli_cover_ranges_over_every_translate(tmp_path, capsys):
    # {0, 2} + {0, 1} covers {0..3}: the cover and its optimality claim
    # range over every translate meeting the target, and re-verify
    from apxring.cli import main
    from apxring.serialize import verify_payload
    argv = ["cover", "--ring", "int", "--target", "{0,1,2,3}", "--base", "{0,1}"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--pool", "{-1,1,3}"])
    assert exc.value.code == 2
    assert "--pool" in capsys.readouterr().err
    out = tmp_path / "cover.json"
    assert main([*argv, "--json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["translates"], payload["optimal"]) == (["0", "2"], True)
    ok, details = verify_payload(payload)
    assert ok and details[1] == "minimality certified: every cover needs 2"
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "minimality certified: every cover needs 2" in printed
    assert printed.endswith("VERIFIED\n")
