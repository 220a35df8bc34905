"""Constructive covers derived from an approximation certificate.

Given a certificate X*X ∪ (X+X) ⊆ F + X, covers by additive translates
of X are *built* (not searched) for:

  * word products:  (x_{m-1}···x_0)X, letters in X   (_Builder.word_cover)
  * power sets:     X^m ⊆ F_m + X                    (claim2_cover)
  * m(X^{<=m}):     sums of m products of <= m terms (msum_cover)
  * the core set:   4X + X·4X ⊆ S_11 + X, |S_11| <= K^11   (k11_cover)

The recursions are derivation-directed: every translate carries a formal
term over X (tuple of words, word (x_0,..,x_k) evaluating to x_k···x_0)
because the word induction multiplies covers by word prefixes — values
alone cannot drive it.  F's own terms are read off T − X, where the
certificate's check puts F (``_derive_term``).  Word covers chain
C -> l·C + F; covers of sums of words accumulate left to right as
(C_new + G) + F; the power-set step is F_{m+1} = (G_m + F) + F with G_m
the union of the word-sum covers of the F_m terms.  Every sum is taken
two sets at a time by one capped sum of value -> term dicts: a value
keeps the first term found in canonical order, and the final witness is
always re-verified — a verification failure here means an
implementation bug and is surfaced, never corrected.  The cap is the
one every derived set meets, ``sets.SET_CAP``: each dict the recursions
build passes ``sets._guard`` under the name of its stage ("word cover
of length 3", "G_2", "F_3"), and the targets and sumsets are built by
the ``sets`` kernels, which guard themselves.

``bound_formula_value`` reports the no-collapse size the recursion
guarantees a priori (K per letter, products over summed words), which
the deduplicated sets can only undershoot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import core_set
from .cover import cover_exact, make_witness
from .errors import InvalidParamsError, VerificationFailedError
from .sets import (
    FiniteSet,
    _guard,
    difference_set,
    iterated_sum,
    msum,
    power_products,
    sumset,
)


def eval_term(ring, term):
    """Value of a formal term: sum over words, word (x_0..x_k) = x_k···x_0."""
    acc = ring.zero()
    for word in term:
        v = word[0]
        for letter in word[1:]:
            v = ring.mul(letter, v)
        acc = ring.add(acc, v)
    return acc


def _derive_term(x, value):
    """Term over X for ``value`` in T − X: the letter ``value``, or
    a + b − w or a·b − w for letters a, b, w.  A verified certificate's
    translates all lie in T − X (each meets the target), so for them
    this cannot fail; any other value raises VerificationFailedError."""
    ring = x.ring
    if value in x:
        return ((value,),)
    elems = sorted(x.elements(), key=ring.sort_key)
    # value = t - w with t in X+X or X*X, w in X
    for w in elems:
        t = ring.add(value, w)
        for a in elems:
            b = ring.sub(t, a)
            if b in x:
                return ((a,), (b,), (ring.neg(w),))
        for a in elems:
            for b in elems:
                if ring.mul(a, b) == t:
                    return ((b, a), (ring.neg(w),))
    raise VerificationFailedError(f"{ring.render(value)} is not in T - X")


def _require_ring_cert(cert):
    if cert.mode != "ring":
        raise ValueError("constructive covers need a ring-mode certificate")
    ok, why = cert.verify()
    if not ok:
        raise VerificationFailedError(f"certificate failed verification: {why}")


class _Builder:
    """Shared state for one certificate: F with its terms, memoized covers."""

    def __init__(self, cert):
        self.ring = cert.ring
        self.k = cert.k
        self.key = self.ring.sort_key
        self.x_least = min(cert.x.elements(), key=self.key)
        self.f_cover = {f: _derive_term(cert.x, f) for f in cert.witness_f}
        self._word_memo = {}
        self._term_memo = {}

    def _plus(self, d, e, what):
        """d + e as a dict value -> term, a + b taking the term d[a] + e[b]:
        the first pair in canonical order wins.  BudgetExceededError
        names ``what`` once the values pass SET_CAP, checked after each a."""
        add = self.ring.add
        out = {}
        es = sorted(e, key=self.key)
        for a in sorted(d, key=self.key):
            for b in es:
                v = add(a, b)
                if v not in out:
                    out[v] = d[a] + e[b]
            _guard(self.ring, out, what)
        return out

    def word_cover(self, word):
        """Cover of (x_{k}···x_0)X: base F, step l·C + F.

        Returns (dict value -> term, no-collapse count).
        """
        if word not in self._word_memo:
            if len(word) == 1:
                d, count = self.f_cover, self.k
            else:
                prev, prev_count = self.word_cover(word[:-1])
                letter = word[-1]
                lifted = {}
                for c in sorted(prev, key=self.key):
                    lifted.setdefault(self.ring.mul(letter, c),
                                      tuple(w + (letter,) for w in prev[c]))
                d = self._plus(lifted, self.f_cover,
                               f"word cover of length {len(word)}")
                count = prev_count * self.k
            self._word_memo[word] = (d, count)
        return self._word_memo[word]

    def term_cover(self, term):
        """Cover of (v_1 + ... + v_r)X for the words of a term.

        The empty term (the value 0) is covered by the single translate
        -x_0 for the canonically least x_0 in X.  Sums accumulate left
        to right: G -> (C_new + G) + F.
        """
        if term not in self._term_memo:
            if not term:
                c = self.ring.neg(self.x_least)
                d, count = {c: ((c,),)}, 1
            else:
                d, count = self.word_cover(term[0])
            for word in term[1:]:
                cw, cw_count = self.word_cover(word)
                d = self._plus(self._plus(cw, d, "word-sum cover"), self.f_cover,
                               "word-sum cover")
                count *= cw_count * self.k
            self._term_memo[term] = (d, count)
        return self._term_memo[term]

    def f_sequence(self, m_max):
        """[F_1, .., F_{m_max}] as (dict value -> term, count) pairs.

        F_1 = {0} with the empty term; F_{m+1} = (G_m + F) + F where
        G_m unions the word-sum covers of the F_m terms.
        """
        ring = self.ring
        seq = [({ring.zero(): ()}, 1)]
        while len(seq) < m_max:
            m = len(seq)
            fm = seq[-1][0]
            gm = {}
            gm_count = 0
            for g in sorted(fm, key=self.key):
                cov, cov_count = self.term_cover(fm[g])
                gm_count += cov_count
                for v in sorted(cov, key=self.key):
                    gm.setdefault(v, cov[v])
            _guard(ring, gm, f"G_{m}")
            nxt = self._plus(self._plus(gm, self.f_cover, f"G_{m} + F"),
                             self.f_cover, f"F_{m + 1}")
            for v, t in nxt.items():
                if eval_term(ring, t) != v:
                    raise VerificationFailedError(
                        f"derivation of {ring.render(v)} evaluates wrongly")
            seq.append((nxt, gm_count * self.k * self.k))
        return seq


def claim2_cover(m, cert):
    """Cover X^m ⊆ F_m + X; returns (witness, F_m set, terms of F_m)."""
    if m < 1:
        raise InvalidParamsError("m must be >= 1")
    _require_ring_cert(cert)
    return _power_covers(cert, m, m)[0]


def _power_covers(cert, m_lo, m_hi):
    """``claim2_cover(m, cert)`` for m_lo <= m <= m_hi, from one F sequence."""
    ring, x = cert.ring, cert.x
    seq = _Builder(cert).f_sequence(m_hi)
    covers = []
    for m in range(m_lo, m_hi + 1):
        fm, count = seq[m - 1]
        w = make_witness(power_products(x, m)[0], x, sorted(fm, key=ring.sort_key),
                         False, "constructive", {"count_bound": count, "m": m})
        covers.append((w, FiniteSet(ring, fm.keys()), dict(fm)))
    return covers


def msum_cover(m, cert):
    """Cover of m(X^{<=m}) by translates of X.

    X^{<=m} ⊆ F'_m + X with F'_m = F_1 ∪ .. ∪ F_m, then the sum
    induction stacks m copies of F'_m and m-1 correction copies of F.
    """
    if m < 1:
        raise InvalidParamsError("m must be >= 1")
    _require_ring_cert(cert)
    ring = cert.ring
    seq = _Builder(cert).f_sequence(m)
    f_prime_set = _guard(ring, FiniteSet(ring, (v for d, _ in seq for v in d)),
                         f"F'_{m}")
    count_prime = sum(count for _, count in seq)
    translates = iterated_sum(f_prime_set, m)
    for _ in range(m - 1):
        translates = sumset(translates, cert.witness_f)
    target = msum(cert.x, m)
    count = count_prime ** m * cert.k ** (m - 1)
    return make_witness(target, cert.x, sorted(translates, key=ring.sort_key),
                        False, "constructive",
                        {"count_bound": count, "m": m,
                         "f_prime_size": len(f_prime_set)})


def k11_cover(cert):
    """Cover 4X + X·4X by the 11-fold sumset of F (at most K^11 translates).

    Chain: jX ⊆ S_{j-1} + X and X·X ⊆ S_1 + X give
    X·4X ⊆ 4(X·X) ⊆ S_4 + 4X ⊆ S_7 + X, hence
    4X + X·4X ⊆ S_3 + S_7 + (X+X) ⊆ S_11 + X.
    """
    _require_ring_cert(cert)
    ring = cert.ring
    x = cert.x
    s = iterated_sum(cert.witness_f, 11)
    target = core_set(x)
    bound = cert.k ** 11
    if len(s) > bound:
        raise VerificationFailedError(
            f"|S_11| = {len(s)} exceeds K^11 = {bound}")
    return make_witness(target, x, sorted(s, key=ring.sort_key), False,
                        "constructive", {"k_power": bound, "s11_size": len(s)})


@dataclass(frozen=True)
class ConstructiveCoverReport:
    certificate: object
    m: int
    constructed: object              # CoverWitness, method constructive
    constructed_size: int
    exact_size: int | None           # None = skipped (size threshold)
    bound_formula_value: int

    def to_json(self):
        return {
            "schema_version": "1",
            "kind": "constructive_report",
            "m": self.m,
            "constructed_size": self.constructed_size,
            "exact_size": self.exact_size,
            "bound_formula_value": self.bound_formula_value,
            "witness": self.constructed.to_json(),
            "certificate": self.certificate.to_json(),
        }


BOUND_TABLE_EXACT_LIMIT = 512


def bound_table(cert, m_max):
    """Constructive |F_m| against the exact covering number of X^m, for
    m = 1..m_max (InvalidParamsError for m_max < 1).

    The exact column is computed by the branch-and-bound solver and
    skipped (None) when X^m has more than BOUND_TABLE_EXACT_LIMIT
    elements or its translate pool more than four times that.  The pool
    X^m − X is built for that test only when |X^m|·|X|, which bounds
    its size, is above four times the limit.
    """
    if m_max < 1:
        raise InvalidParamsError("m must be >= 1")
    _require_ring_cert(cert)
    rows = []
    for m, (w, fm, _) in enumerate(_power_covers(cert, 1, m_max), 1):
        exact = None
        if len(w.target) <= BOUND_TABLE_EXACT_LIMIT:
            if (len(w.target) * len(cert.x) <= 4 * BOUND_TABLE_EXACT_LIMIT or
                    len(difference_set(w.target, cert.x)) <= 4 * BOUND_TABLE_EXACT_LIMIT):
                exact = len(cover_exact(w.target, cert.x).translates)
        count = w.stats["count_bound"]
        rows.append(ConstructiveCoverReport(cert, m, w, len(fm), exact, count))
    return rows


def fact21_report(cert, m_max, msum_m=0):
    """``bound_table(cert, m_max)`` and, for msum_m >= 1, the msum cover."""
    payload = {"schema_version": "1", "kind": "fact21_report",
               "certificate": cert.to_json(),
               "rows": [r.to_json() for r in bound_table(cert, m_max)]}
    if msum_m:
        payload["msum"] = msum_cover(msum_m, cert).to_json()
    return payload
