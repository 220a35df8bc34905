"""Desk-scale classification checks for approximate subrings.

Built around the core set 4X + X·4X: the no-zero-divisor dichotomy,
the positive-characteristic search for a commensurable subring inside
the core, the finite locally-compact-model checks (quotient of ⟨X⟩ by an
ideal sitting inside some X_m), and a gallery of named example sets.

The dichotomy: for every finite K-approximate X in a ring without zero
divisors, either |X| < N(K) or the core is a subring K^11-commensurable
with X.  The paper gives N(K) no value, so ``nzd_classify`` reports the
facts the dichotomy turns on, over a ring that ``find_zero_divisor``
shows, by its structure, has none.

Where the construction already guarantees a fact, it is not re-checked:
subrings grown by cosets inside the core (``sets._grow``) are subrings
inside the core, and in a finite ring every clause of the model check
holds once the ideal and the growth level are found, so the check
reports constants, not searches (see ``finite_model_check``).
The finite-substructure checks are the ring layer's: one closed-under
check (``rings._escape``), one ideal check (``rings._check_ideal``) and
one coset map (``rings._coset_map``).

Rings are non-unital throughout: a subring is a nonempty set closed
under addition and multiplication.  A finite set closed under addition
is an additive subgroup, since the multiples of each element repeat, so
negation and 0-membership follow; neither is an axiom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .cover import CommensurabilityResult, approx_constant, commensurability
from .errors import (
    InfiniteRingError,
    InvalidParamsError,
    NotAnIdealError,
    ZeroDivisorError,
    _clip,
)
from .rings import (
    GaloisField,
    IntegerRing,
    LazyPolyRing,
    ModularRing,
    PolyQuotientRing,
    _check_ideal,
    _coset_map,
    _escape,
    _is_prime,
    check_same_ring,
    find_zero_divisor,
)
from .sets import (
    FiniteSet,
    _grow,
    closure,
    growth_step,
    intersect,
    iterated_sum,
    prodset,
    sumset,
)


def core_set(x):
    """4X + X·(4X), with 4X the four-fold sumset."""
    four = iterated_sum(x, 4)
    return sumset(four, prodset(x, four))


def core_set_bruteforce(x):
    """Independent expression order: elementwise quadruple enumeration.

    Only meant for cross-checks on small sets (|X|^5 pairs of loops).
    """
    ring = x.ring
    elems = list(x.elements())
    four = set()
    for a in elems:
        for b in elems:
            ab = ring.add(a, b)
            for c in elems:
                abc = ring.add(ab, c)
                for d in elems:
                    four.add(ring.add(abc, d))
    out = set()
    for s in four:
        for e in elems:
            es = ring.mul(e, s)
            for f in four:
                out.add(ring.add(f, es))
    return FiniteSet(ring, out)


def is_subring(s):
    """(True, None) or (False, violating pair), addition checked first.

    Nonempty, s+s ⊆ s, s·s ⊆ s.  A finite nonempty set closed under + is
    an additive subgroup (the multiples of each x repeat), so s = -s and
    0 ∈ s follow.
    """
    if len(s) == 0:
        return False, ("empty",)
    ring = s.ring
    elems = sorted(s.elements(), key=ring.sort_key)
    for name, op in (("add", ring.add), ("mul", ring.mul)):
        pair = _escape(op, elems, elems, s.elements())
        if pair is not None:
            return False, (name, *pair)
    return True, None


@dataclass(frozen=True)
class ClassificationReport:
    x: FiniteSet
    k: int
    certificate: object
    core: FiniteSet
    core_is_subring: bool
    commensurability_to_x: int
    k11_bound: int
    comm_result: CommensurabilityResult = field(compare=False)

    def to_json(self):
        ring = self.x.ring
        return {
            "schema_version": "4",
            "kind": "classification_report",
            "ring": ring.descriptor,
            "x": [ring.render(v) for v in self.x],
            "k": self.k,
            "core_size": len(self.core),
            "core_is_subring": self.core_is_subring,
            "commensurability_to_x": self.commensurability_to_x,
            "k11_bound": self.k11_bound,
            "certificate": self.certificate.to_json(),
            "comm_core_by_x": self.comm_result.witness_ab.to_json(),
            "comm_x_by_core": self.comm_result.witness_ba.to_json(),
        }


def _check_no_zero_divisors(ring):
    """The paper's hypothesis on the ring: ZeroDivisorError naming the
    pair ``find_zero_divisor`` finds from the ring's structure, if any."""
    pair = find_zero_divisor(ring)
    if pair is not None:
        raise ZeroDivisorError(
            f"zero divisors {ring.render(pair[0])}·{ring.render(pair[1])} = 0")


def nzd_classify(x):
    """Dichotomy check over a ring without zero divisors.

    Checks the ring first (``_check_no_zero_divisors``), so no solve runs
    over a ring with zero divisors, then certifies K itself: an empty X
    raises InvalidParamsError, and an asymmetric one NotSymmetricError.
    It computes the core 4X + X·4X and measures its exact
    commensurability with X; ``classification_report`` derives the rest.
    A core equal to X·X ∪ (X+X) is covered by the certificate's own
    cover, not solved again, and with 0 ∈ X the cover of X by the core,
    which holds X, is the translate 0 (``cover_exact``).
    """
    _check_no_zero_divisors(x.ring)
    cert = approx_constant(x, "ring")
    core = core_set(x)
    return classification_report(x, cert, core, commensurability(core, x, cert))


def classification_report(x, cert, core, comm):
    """The report on X from its ring-mode certificate (ValueError for any
    other), core and commensurability of core and X: whether the core is
    a subring, and its commensurability against K^11.  The dichotomy's
    conclusion holds when both do; when it fails, |X| < N(K)."""
    if cert.x != x or cert.mode != "ring":
        raise ValueError("cert must be a ring-mode certificate of x")
    # the whole finite ring is a subring by construction
    subring_ok = (core.ring.is_finite and len(core) == core.ring.cardinality
                  or is_subring(core)[0])
    return ClassificationReport(x, cert.k, cert, core, subring_ok,
                                comm.constant, cert.k ** 11, comm)


# ---------------------------------------------------------------------------
# positive characteristic: subring search inside the core


@dataclass(frozen=True)
class SubringSearchResult:
    """A subring inside the core of X, or None, and the strategy that
    found it (ValueError for a tag the search cannot report with it),
    beside the ring-mode certificate of X (ValueError for any other)."""

    x: FiniteSet
    certificate: object
    core: FiniteSet
    found: FiniteSet | None
    strategy_used: str
    comm_result: CommensurabilityResult | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.certificate.x != self.x or self.certificate.mode != "ring":
            raise ValueError("certificate must be a ring-mode certificate of x")
        tags = {"none"} if self.found is None else _STRATEGY_TAGS - {"none"}
        if self.strategy_used not in tags:
            raise ValueError(
                f"strategy {self.strategy_used!r} does not match the outcome")

    @property
    def commensurability(self):
        return None if self.comm_result is None else self.comm_result.constant

    @property
    def exhaustive(self):                  # whether the exhaustive pass ran
        return _runs_exhaustive(self.core)

    def to_json(self):
        ring = self.x.ring
        out = {
            "schema_version": "4",
            "kind": "subring_search",
            "ring": ring.descriptor,
            "x": [ring.render(v) for v in self.x],
            "core_size": len(self.core),
            "strategy": self.strategy_used,
            "exhaustive": self.exhaustive,
            "commensurability": self.commensurability,
            "certificate": self.certificate.to_json(),
        }
        if self.found is not None:
            out["subring"] = [ring.render(v) for v in self.found]
            out["comm_s_by_x"] = self.comm_result.witness_ab.to_json()
            out["comm_x_by_s"] = self.comm_result.witness_ba.to_json()
        return out


def subrings_within(box):
    """Every subring inside ``box``, each once, as the exhaustive pass of
    ``pos_char_search`` tries them.

    A walk over the subring lattice from {0}: each subring S = ⟨gens⟩
    found is extended to ⟨gens, g⟩ by ``sets._grow``, which gives up as
    soon as a coset leaves the box.  Every g of one coset g + S gives the
    same subring, so one g per coset is tried.  Only useful for boxes of
    a few dozen elements: the number of subrings grows fast.
    """
    ring = box.ring
    inside = box.elements()
    zero = frozenset((ring.zero(),))
    if not zero <= inside:
        return
    seen = {zero}
    queue = [(zero, ())]
    while queue:
        span, gens = queue.pop()
        yield FiniteSet(ring, span)
        tried = set(span)
        for g in inside - span:
            if g in tried:
                continue
            tried.update(ring.add(e, g) for e in span)
            grown = _grow(ring, span, (*gens, g), inside)
            if grown is not None and (key := frozenset(grown)) not in seen:
                seen.add(key)
                queue.append((key, (*gens, g)))


POS_CHAR_EXHAUSTIVE_LIMIT = 32


def _runs_exhaustive(core):
    """Whether the exhaustive pass of ``pos_char_search`` runs on
    ``core``: on cores of at most POS_CHAR_EXHAUSTIVE_LIMIT elements."""
    return len(core) <= POS_CHAR_EXHAUSTIVE_LIMIT


def _commensurability_floor(s, x):
    """The counting bound max(⌈|S|/|X|⌉, ⌈|X|/|S|⌉) on the
    commensurability of S and X: a translate of X holds |X| elements."""
    return max(-(-len(s) // len(x)), -(-len(x) // len(s)))


_SEED_MULTIPLES = range(1, 5)
# every strategy tag ``pos_char_search`` can report
_STRATEGY_TAGS = frozenset({"none", "generated", "exhaustive",
                           *(f"seeded:{k}X" for k in _SEED_MULTIPLES)})


def pos_char_search(x):
    """Search for a subring S ⊆ 4X + X·4X minimizing commensurability
    with X.  K is certified here once the ring is known to be finite, so
    X's preconditions are the certificate's, as in ``nzd_classify``.
    Three strategies, in this order:

      generated   S = ⟨X⟩ when it stays inside the core
      seeded      S = ⟨X ∩ kX ∩ core⟩ for k <= 4, once per distinct seed
                  other than X itself; skipped when 0 ∈ X, as then
                  kX ⊇ X and the core ⊇ X, so every seed is X
      exhaustive  every subring inside the core (``subrings_within``)
                  when ``_runs_exhaustive`` says the core is small enough

    Each candidate is grown by ``sets._grow``, which drops it once a coset
    leaves the core, so it is a subring inside the core by construction.
    Returns the best candidate (smallest constant, then smallest set),
    tagged with the winning strategy and whether the exhaustive pass ran.
    A candidate equal to X·X ∪ (X+X) is covered by the certificate's own
    cover, not solved again (``commensurability``).
    """
    ring = x.ring
    if not ring.is_finite:
        raise InfiniteRingError("subring search needs a finite ring")
    cert = approx_constant(x, "ring")
    core = core_set(x)
    candidates = {}          # subring -> (rank, tag) of the first to find it

    def offer(gens, rank, tag):
        grown = _grow(ring, (ring.zero(),), gens.elements(), core.elements())
        if grown is not None:
            candidates.setdefault(FiniteSet(ring, grown), (rank, tag))

    offer(x, 0, "generated")
    seeds = {x}
    for k in _SEED_MULTIPLES if ring.zero() not in x else ():
        seed = intersect(x, intersect(iterated_sum(x, k), core))
        if len(seed) and seed not in seeds:
            seeds.add(seed)
            offer(seed, 1, f"seeded:{k}X")
    if _runs_exhaustive(core):
        for sub in subrings_within(core):
            candidates.setdefault(sub, (2, "exhaustive"))

    if not candidates:
        return SubringSearchResult(x, cert, core, None, "none")
    # ties on the constant resolve by strategy order, then smaller S.
    # Candidates go by counting bound: once one's bound loses, every
    # later one's does, and none can win with its real constant
    ranked = sorted(((_commensurability_floor(fs, x), rank, len(fs),
                      tuple(map(ring.sort_key, fs))), fs, tag)
                    for fs, (rank, tag) in candidates.items())
    best = None
    for (floor, *order), fs, tag in ranked:
        if best is not None and (floor, *order) >= best[0]:
            break
        comm = commensurability(fs, x, cert)
        key = (comm.constant, *order)
        if best is None or key < best[0]:
            best = (key, fs, tag, comm)
    _, fs, tag, comm = best
    return SubringSearchResult(x, cert, core, fs, tag, comm)


# ---------------------------------------------------------------------------
# finite locally compact model checks


@dataclass(frozen=True)
class ModelCheckReport:
    x: FiniteSet
    ideal: FiniteSet
    m: int                           # least m with ideal ⊆ X_m
    quotient_size: int
    neighborhood_size: int           # |U|, U the cosets inside X_m
    max_genericity: int              # |π[X]|
    comm_constants: tuple            # (cover of preimage by x, cover of x by preimage)
    comm_exact: bool                 # both commensurability covers optimal

    # In a finite ring each clause holds once a report exists; see
    # ``finite_model_check`` for why.
    clause_zero_neighborhood = clause_generic = clause_commensurable = True
    all_pass = True

    def to_json(self):
        ring = self.x.ring
        return {
            "schema_version": "2",
            "kind": "model_check",
            "ring": ring.descriptor,
            "x": [ring.render(v) for v in self.x],
            "ideal": [ring.render(v) for v in self.ideal],
            "m": self.m,
            "quotient_size": self.quotient_size,
            "clauses": {
                "zero_neighborhood": self.clause_zero_neighborhood,
                "generic": self.clause_generic,
                "commensurable": self.clause_commensurable,
            },
            "neighborhood_size": self.neighborhood_size,
            "max_genericity": self.max_genericity,
            "comm_constants": list(self.comm_constants),
            "comm_exact": self.comm_exact,
        }


_MODEL_DEPTH_CAP = 6


def finite_model_check(x, ideal):
    """Quotient-map checks of ⟨X⟩ / I at finite scale.

    I must be a two-sided ideal of ⟨X⟩ contained in some X_m (the least
    such m is found up to m = 6).  With f = π the projection onto the
    quotient, the paper's clauses hold by construction here:

      (i)   U := {a + I : a + I ⊆ X_m} contains 0, because I ⊆ X_m by the
            choice of m, and f⁻¹[U] ⊆ X_m by the definition of U; only
            |U| is reported.
      (ii)  f⁻¹[U] is generic relative to X for every U ∋ 0.  Such a
            preimage is a union of cosets of I that holds I, so
            x + f⁻¹[U] ⊇ x + I: one x from each coset that X meets gives
            |π[X]| translates covering X.  For U = {0} each translate
            meets one coset, so no fewer suffice.  The largest cover
            number over all U is therefore |π[X]|, reported as
            ``max_genericity``.
      (iii) f⁻¹[π[X_m]] is additively commensurable with X: both covers
            are built and verified.  ``comm_exact`` says whether both are
            optimal, so that the constants are exact rather than upper
            bounds.

    The ideal check (``rings._check_ideal``) runs inside ⟨X⟩, and every
    number is read off the cosets of I in ⟨X⟩ (``rings._coset_map``):
    the quotient's size, the fibers f⁻¹[π[X_m]], |U| and |π[X]|.  A
    NotAnIdealError carries its witness as elements of the ring.
    """
    ring = x.ring
    if not ring.is_finite:
        raise InfiniteRingError("model checks need a finite ring")
    if len(x) == 0:
        raise InvalidParamsError("x must be nonempty")
    check_same_ring(ring, ideal.ring)
    gen = closure(x)
    inside = ideal.elements()
    outside = inside - gen.elements()
    if outside:
        raise NotAnIdealError("ideal is not inside the subring generated by x",
                              (min(outside, key=ring.sort_key),))
    within = list(gen)
    _check_ideal(ring, within, inside)
    coset_of, reps = _coset_map(ring, within, inside)

    xm = x
    m = 0
    while not inside <= xm.elements():
        if m >= _MODEL_DEPTH_CAP:
            raise InvalidParamsError(
                f"ideal not inside any X_m for m <= {_MODEL_DEPTH_CAP}")
        xm = growth_step(xm)
        m += 1

    # X_m ⊆ ⟨X⟩ meets each coset in at most |I| elements, all |I| for U
    met = Counter(coset_of[e] for e in xm.elements())
    u_size = sum(k == len(inside) for k in met.values())
    pre_img = FiniteSet(ring, (e for e, c in coset_of.items() if c in met))
    comm = commensurability(pre_img, x)
    return ModelCheckReport(
        x, ideal, m, len(reps), u_size,
        len({coset_of[e] for e in x.elements()}), (comm.k_ab, comm.k_ba),
        comm.witness_ab.optimal and comm.witness_ba.optimal)


# ---------------------------------------------------------------------------
# gallery


@dataclass(frozen=True)
class GalleryItem:
    name: str
    params: dict
    ring: object
    xset: FiniteSet
    expected: str

    def to_json(self):
        return {
            "schema_version": "1",
            "kind": "gallery_item",
            "name": self.name,
            "params": dict(self.params),
            "ring": self.ring.descriptor,
            "x": [self.ring.render(v) for v in self.xset],
            "expected": self.expected,
        }


def gallery(name, **params):
    """Named example sets with their expected-property tags.

    y-set(p):        (t + F_p) ∪ {0} ∪ (−t + F_p) inside F_{p^2}; its
                     exact ring-mode constant grows strictly with p.
    linear-polys(p): all degree-<=1 polynomials in F_p[t]; approximate
                     subring with no commensurable overring containing it.
    linear-quo(p,d): degree-<=1 elements of F_p[t]/(t^d).
    interval(n):     {-N..N} in the integers.
    interval-mod(p,n): the image of {-N..N} mod p.
    """
    if name == "y-set":
        p = params.get("p")
        if not isinstance(p, int) or p < 3 or not _is_prime(p):
            raise InvalidParamsError("y-set needs an odd prime p >= 3")
        ring = GaloisField(p, 2)
        t = ring.parse("t")  # outside the prime subfield by degree
        elems = {ring.zero()}
        for c in range(p):
            const = ring.parse(str(c))
            elems.add(ring.add(t, const))
            elems.add(ring.add(ring.neg(t), const))
        return GalleryItem(name, {"p": p}, ring, FiniteSet(ring, elems),
                           "exact ring-mode constant strictly increasing in p")
    if name == "linear-polys":
        p = params.get("p")
        if not isinstance(p, int) or not _is_prime(p):
            raise InvalidParamsError("linear-polys needs a prime p")
        ring = LazyPolyRing(p)
        elems = {ring.parse(f"{a}+{b}t") for a in range(p) for b in range(p)}
        return GalleryItem(name, {"p": p}, ring, FiniteSet(ring, elems),
                           "no additively commensurable subring contains it")
    if name == "linear-quo":
        p, d = params.get("p"), params.get("d")
        if not isinstance(p, int) or not _is_prime(p) or not isinstance(d, int) or d < 2:
            raise InvalidParamsError("linear-quo needs a prime p and degree d >= 2")
        ring = PolyQuotientRing(p, (0,) * d + (1,))
        elems = {ring.parse(f"{a}+{b}t") for a in range(p) for b in range(p)}
        return GalleryItem(name, {"p": p, "d": d}, ring, FiniteSet(ring, elems),
                           "commensurable with a subring inside the core")
    if name == "interval":
        n = params.get("n")
        if not isinstance(n, int) or n < 1:
            raise InvalidParamsError("interval needs N >= 1")
        ring = IntegerRing()
        return GalleryItem(name, {"n": n}, ring,
                           FiniteSet(ring, range(-n, n + 1)),
                           "compact-neighborhood analogue; K nondecreasing in N")
    if name == "interval-mod":
        p, n = params.get("p"), params.get("n")
        if not isinstance(p, int) or p < 2 or not isinstance(n, int) or n < 1:
            raise InvalidParamsError("interval-mod needs p >= 2 and N >= 1")
        ring = ModularRing(p)
        return GalleryItem(name, {"p": p, "n": n}, ring,
                           FiniteSet(ring, {v % p for v in range(-n, n + 1)}),
                           "image of an integer window")
    raise InvalidParamsError(f"unknown gallery item {_clip(repr(name))}; "
                             f"one of: {', '.join(GALLERY_NAMES)}")


GALLERY_NAMES = ("y-set", "linear-polys", "linear-quo", "interval",
                 "interval-mod")
