"""Constructive covers: word products, power sets, m(X^{<=m}), K^11."""

import pytest

import apxring as ax
from apxring.constructive import _Builder, eval_term
from apxring.cover import ApproxCertificate, first_uncovered
from apxring.errors import VerificationFailedError
from apxring.sets import FiniteSet

from corpus import certified_corpus

Z = ax.parse_ring("int")


def interval_cert():
    x = FiniteSet(Z, (-1, 0, 1))
    return ax.approx_constant(x, "ring", exact=True)


def subring_cert():
    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    return ax.approx_constant(s, "ring", exact=True)


def word_cover(word, cert):
    """The translates ``_Builder.word_cover`` builds for (x_{m-1}···x_0)X,
    checked to cover it, each with a term over X evaluating to it."""
    ring, word = cert.ring, tuple(word)
    cover, _count = _Builder(cert).word_cover(word)
    target = ax.prodset(FiniteSet(ring, [eval_term(ring, (word,))]), cert.x)
    assert first_uncovered(target, cert.x, cover) is None
    for value, term in cover.items():
        assert eval_term(ring, term) == value
        assert all(letter in cert.x for w in term for letter in w)
    return set(cover)


def test_claim1_base_case():
    assert word_cover([1], interval_cert()) == {-1, 1}


def test_claim1_two_letter_word():
    assert word_cover([1, 1], interval_cert()) == {-2, 0, 2}


def test_claim1_subring():
    assert word_cover([2, 4], subring_cert()) == {0}


def test_claim2_examples():
    cert = interval_cert()
    w1, f1, _ = ax.claim2_cover(1, cert)
    assert f1 == FiniteSet(Z, [0])
    w2, f2, ders = ax.claim2_cover(2, cert)
    assert f2 == FiniteSet(Z, [-2, 0, 2])
    assert w2.target == FiniteSet(Z, [-1, 0, 1])
    for v, term in ders.items():
        assert eval_term(Z, term) == v

    sub = subring_cert()
    for m in (1, 2, 3, 4):
        _, fm, _ = ax.claim2_cover(m, sub)
        assert fm == FiniteSet(sub.ring, [0])


def test_claim2_requires_ring_mode():
    x = FiniteSet(Z, (-1, 0, 1))
    cert = ax.approx_constant(x, "group", exact=True)
    with pytest.raises(ValueError):
        ax.claim2_cover(2, cert)


def test_msum_examples():
    cert = interval_cert()
    w = ax.msum_cover(1, cert)
    assert set(w.translates) == {0}          # reduces to X in 0 + X
    w2 = ax.msum_cover(2, cert)
    # target 2(X^{<=2}) recomputed independently
    x = (-1, 0, 1)
    upto = {a * b for a in x for b in x} | set(x)
    assert w2.target.elements() == frozenset(
        {u + v for u in upto for v in upto})
    ok, missing = ax.verify_witness(w2)
    assert ok, missing

    sub = subring_cert()
    for m in (1, 2, 3):
        w = ax.msum_cover(m, sub)
        assert set(w.translates) == {0}


def test_k11_examples():
    sub = subring_cert()
    w = ax.k11_cover(sub)
    assert set(w.translates) == {0}
    assert w.target == sub.x                 # core of a subring is itself

    cert = interval_cert()
    w = ax.k11_cover(cert)
    assert set(w.translates) == set(range(-11, 12, 2))
    assert len(w.translates) == 12 <= 2 ** 11
    # target recomputed: 4X = {-4..4}, X*4X = {-4..4}, sum = {-8..8}
    assert w.target == FiniteSet(Z, range(-8, 9))
    ok, _ = ax.verify_witness(w)
    assert ok


def test_bound_table_examples():
    cert = interval_cert()
    rows = ax.bound_table(cert, 3)
    assert (rows[0].constructed_size, rows[0].exact_size) == (1, 1)
    assert (rows[1].constructed_size, rows[1].exact_size) == (3, 1)
    for r in rows:
        assert r.exact_size is None or r.constructed_size >= r.exact_size
        assert r.bound_formula_value >= r.constructed_size

    sub = subring_cert()
    for r in ax.bound_table(sub, 3):
        assert (r.constructed_size, r.exact_size) == (1, 1)


def test_empty_set_constructive():
    # approx_constant writes no certificate of the empty set; one built
    # by hand fails its own check before any cover is built
    empty = FiniteSet(Z, [])
    cert = ApproxCertificate(empty, 0, empty, "ring", True, {}, ({}, 1))
    for build in (lambda: ax.claim2_cover(3, cert), lambda: ax.msum_cover(2, cert),
                  lambda: ax.k11_cover(cert), lambda: ax.bound_table(cert, 3)):
        with pytest.raises(VerificationFailedError,
                           match="^certificate failed verification: x is empty$"):
            build()


def test_derivation_bookkeeping_all_corpus():
    # every constructed F_m element evaluates to its claimed value
    for name, x, cert in certified_corpus():
        b = _Builder(cert)
        seq = b.f_sequence(3)
        for d, _count in seq:
            for v, term in d.items():
                assert eval_term(x.ring, term) == v, name


def test_constructive_sizes_dominate_exact():
    for name, x, cert in certified_corpus()[:8]:
        rows = ax.bound_table(cert, 3)
        for r in rows:
            if r.exact_size is not None:
                assert r.constructed_size >= r.exact_size, name


def test_k11_bound_holds_on_corpus():
    for name, x, cert in certified_corpus():
        w = ax.k11_cover(cert)
        assert len(w.translates) <= cert.k ** 11, name
        ok, missing = ax.verify_witness(w)
        assert ok, (name, missing)


def test_growth_covering_reported_on_corpus_prefix():
    # covering numbers of X_n by translates of X exist for n <= 3
    for name, x, cert in certified_corpus():
        if not x.ring.is_finite:
            continue
        prof = ax.growth_sequence(x, 3, with_covering=True)
        for e in prof.entries:
            assert e.covering is not None and e.covering >= 1, name
