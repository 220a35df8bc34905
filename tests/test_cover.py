"""Cover solvers, approximation certificates, commensurability, genericity."""

import dataclasses
import math
import random
import time

import pytest

import apxring as ax
from apxring.cover import cover_brute_force, eval_term, make_witness
from apxring.errors import (
    BudgetExceededError,
    NotSymmetricError,
    UncoverableError,
    VerificationFailedError,
)
from apxring.sets import FiniteSet, difference_set, prodset, sumset, union

Z = ax.integers()


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
    w = ax.cover_greedy(a, b, difference_set(a, b))
    assert len(w.translates) == 3
    # |b| = 2 so two translates cover at most 4 < 6 elements: 3 is optimal
    exact = ax.cover_exact(a, b, difference_set(a, b))
    assert len(exact.translates) == 3 and exact.optimal

    w = ax.cover_greedy(a, a, difference_set(a, a))
    assert len(w.translates) == 1 and w.translates == (0,)

    w = ax.cover_greedy(FiniteSet(Z, [5]), FiniteSet(Z, [0]), FiniteSet(Z, [5]))
    assert w.translates == (5,)


def test_cover_exact_examples():
    a, b = iset(-2, 2), iset(-1, 1)
    w = ax.cover_exact(a, b, difference_set(a, b))
    assert len(w.translates) == 2 and w.optimal
    w1 = ax.cover_exact(a, a, difference_set(a, a))
    assert len(w1.translates) == 1


def test_uncoverable():
    a = iset(0, 2)
    with pytest.raises(UncoverableError) as exc:
        ax.cover_greedy(a, FiniteSet(Z, [0]), FiniteSet(Z, [0, 1]))
    assert exc.value.element == 2


def test_greedy_never_beats_exact_and_log_bound():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice((11, 13, 17))
        ring = ax.modular(p)
        a = FiniteSet(ring, {rng.randrange(p)
                             for _ in range(rng.randrange(3, 9))})
        b = FiniteSet(ring, {rng.randrange(p)
                             for _ in range(rng.randrange(1, 4))})
        pool = difference_set(a, b)
        g = ax.cover_greedy(a, b, pool)
        e = ax.cover_exact(a, b, pool)
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
        e = ax.cover_exact(a, b, pool)
        k, _ = cover_brute_force(a, b, pool)
        assert len(e.translates) == k


def test_enlarging_pool_never_hurts():
    rng = random.Random(21)
    for _ in range(20):
        ring = ax.modular(13)
        a = FiniteSet(ring, {rng.randrange(13) for _ in range(5)})
        b = FiniteSet(ring, {rng.randrange(13) for _ in range(2)})
        pool = difference_set(a, b)
        small = FiniteSet(ring, list(pool)[: max(1, len(pool) // 2)])
        try:
            w_small = ax.cover_exact(a, b, small)
        except UncoverableError:
            continue
        w_big = ax.cover_exact(a, b, pool)
        assert len(w_big.translates) <= len(w_small.translates)


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
    cert = ax.approx_constant(FiniteSet(Z, []), "ring")
    assert cert.k == 0 and len(cert.witness_f) == 0


def test_certificate_derivations_stay_in_generated_subring():
    for name, lit, ring in (("w7", "{0,1,6}", ax.modular(7)),
                            ("w12", "{0,1,11}", ax.modular(12))):
        x = ax.parse_set(ring, lit)
        cert = ax.approx_constant(x, "ring", exact=True)
        gen = ax.closure(x, budget=ring.cardinality).set
        assert cert.witness_f.elements() <= gen.elements()
        ok, why = cert.verify()
        assert ok, why


def test_certificate_rejects_derivation_letter_outside_x():
    from apxring.serialize import verify_payload
    x = iset(-1, 1)
    cert = ax.approx_constant(x, "ring", exact=True)
    # 2 + (-1) evaluates to 1, but 2 is not a letter of X
    forged = dict(cert.derivations)
    forged[1] = ((2,), (-1,))
    bad = dataclasses.replace(cert, derivations=forged)
    ok, why = bad.verify()
    assert not ok and "outside X" in why
    ok, details = verify_payload(bad.to_json())
    assert not ok and "outside X" in details[0]


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


def test_manual_certificate():
    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    cert = ax.certificate_from_f(s, [0], "ring", minimal=True)
    assert cert.k == 1
    with pytest.raises(VerificationFailedError):
        ax.certificate_from_f(iset(-1, 1), [0], "ring")  # K=1 insufficient


def test_certificate_fallback_derivation(monkeypatch):
    # 5 is outside T - X = {-3..3}, so its term comes from the closure
    # search (negated and multiplied terms), not the t - x decomposition
    from apxring import cover
    from apxring.serialize import verify_payload
    searched = []
    search = cover._closure_term_search
    monkeypatch.setattr(cover, "_closure_term_search",
                        lambda x, v: searched.append(v) or search(x, v))
    x = iset(-1, 1)
    cert = ax.certificate_from_f(x, [-1, 1, 5])
    assert searched == [5]
    term = cert.derivations[5]
    assert eval_term(Z, term) == 5
    assert all(letter in x for word in term for letter in word)
    ok, details = verify_payload(cert.to_json())
    assert ok, details


def test_certificate_fallback_budget_and_unreachable():
    # 1 is odd, every value reachable from {-2, 0, 2} is even: the closure
    # over Z never completes, so the budget binds and says so
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        ax.certificate_from_f(FiniteSet(Z, [-2, 0, 2]), [1])
    assert time.perf_counter() - start < 1.0
    # the closure of {0} completes at once without 1: a proven no
    with pytest.raises(VerificationFailedError, match="not reachable"):
        ax.certificate_from_f(FiniteSet(Z, [0]), [1])


def test_closure_term_search_noncommutative():
    # in M_2(F_2) a·b ≠ b·a, so every recorded product must keep its order
    from apxring.cover import _closure_term_search
    from apxring.sets import closure
    mat = ax.parse_ring("mat:2:zmod:2")
    x = ax.parse_set(mat, "{[[0,0],[0,1]], [[0,1],[1,0]]}")
    gen = closure(x, budget=mat.cardinality).set
    assert len(gen) > 4
    for v in gen:
        term = _closure_term_search(x, v)
        assert eval_term(mat, term) == v, mat.render(v)
        assert all(letter in x for word in term for letter in word)


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


def test_is_generic_examples():
    x = iset(0, 3)
    r = ax.is_generic(x, x, 1)
    assert r.generic and r.witness.translates == (0,)
    r = ax.is_generic(FiniteSet(Z, [0]), FiniteSet(Z, [0, 1]), 1)
    assert not r.generic and r.constant == 2
    m9 = ax.modular(9)
    r = ax.is_generic(ax.parse_set(m9, "{0,3,6}"),
                      ax.parse_set(m9, "{0,1,2,3,4,5,6,7,8}"), 3)
    assert r.generic and r.constant == 3
    # the node limit binds: a verified cover within the bound still answers yes
    d, big = FiniteSet(Z, [0, 1, 3]), FiniteSet(Z, range(20))
    r = ax.is_generic(d, big, bound=10 ** 6, node_limit=5)
    assert not r.witness.optimal and r.generic and r.constant is None
    assert ax.verify_witness(r.witness)[0]
    r = ax.is_generic(d, big, bound=len(r.witness.translates) - 1, node_limit=5)
    assert not r.generic and r.constant is None


def test_witness_json_round_trip():
    from apxring.serialize import verify_payload
    a, b = iset(-2, 2), iset(-1, 1)
    w = ax.cover_exact(a, b, difference_set(a, b))
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
    assert payload["schema_version"] == "2"
    assert "membership" not in payload and "in_x2" not in payload["f_location"]
    ok, details = verify_payload(payload)
    assert ok, details
    tampered = cert.to_json()
    tampered["k"] = 1
    ok, _ = verify_payload(tampered)
    assert not ok


def test_interval_oracle_small():
    # exact ring-mode constants for {-N..N}: solver vs complete DFS oracle
    for n in (1, 2, 3):
        x = iset(-n, n)
        t = union(prodset(x, x), sumset(x, x))
        pool = difference_set(t, x)
        k_oracle, _ = cover_brute_force(t, x, pool)
        cert = ax.approx_constant(x, "ring", exact=True)
        assert cert.k == k_oracle
