"""Finite-set arithmetic over a ring.

Sum, difference and product sets, the growth recursion
X_{n+1} = X_n*X_n + (X_n + X_n), iterated sums and products, and
subrings of a finite ring grown by cosets (``_grow``): the closure
⟨gens⟩, and the steps of ``classify.subrings_within``'s lattice walk.

Sets are immutable and duplicate-free: a ring plus a frozenset of its
elements, the ints 0..n-1 of a finite ring and canonical encodings on Z
and F_p[t].  A sumset runs one of three kernels:

- offset mask (Z and Z/nZ): the larger operand as one integer bitmask
  offset by its minimum, shifted once per element of the smaller; on
  Z/nZ the bits at n and above are folded down once and the residues
  are read in two runs, split where they wrap round to 0, so the cost
  follows the span of the sets, not n.  It gives way to hashed pairs
  when the unreduced span of the result plus 128 reaches 4·|a|·|b|,
  where decoding the mask would cost more than adding the pairs;
- packed digits (F_p[t]): each polynomial as one integer with w bits
  per coefficient, constant term lowest.  Sums use w = bit_length(p) + 1,
  so adding two packed ints carries no digit into the next; each
  distinct raw sum is then reduced mod p on every digit at once, and
  only the distinct results are unpacked.  Products use the same
  packing (Kronecker substitution) with digits wide enough for any
  coefficient of the product, reduced mod p while unpacking;
- hashed pairs (every other ring, and the Z and Z/nZ case above):
  ``ring.add`` on every pair.

A product set runs the packed-digit kernel on F_p[t] and ``ring.mul`` on
every pair elsewhere.  Every kernel but the offset mask takes its pairs
through ``_pairs``: one set comprehension up to SET_CAP pairs, row by
row above it.

One cap, SET_CAP, bounds every derived set: each kernel here, the span
``_grow`` builds and each value -> term dict of ``constructive`` pass
``_guard``, whose BudgetExceededError names the stage that overran, so
sweeps and ``apx`` exit 3 rather than run out of memory (a frozenset of
2^21 ints takes about 135 MB on 64-bit CPython).  The row loops
(``_pairs`` above SET_CAP pairs, ``_Builder._plus``) stop after the
outer element that takes them past the cap, so ``partial`` holds more
than SET_CAP elements of the result and at most SET_CAP plus the inner
operand's size; the offset mask decodes SET_CAP + 1 at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice

from .errors import (BudgetExceededError, CrossRingError, InfiniteRingError,
                     InvalidParamsError, ParseError)
from .rings import (
    IntegerRing,
    LazyPolyRing,
    ModularRing,
    _split_top_level,
    check_same_ring,
)

SET_CAP = 2 ** 20    # cardinality cap for every derived set


class FiniteSet:
    """Immutable finite subset of one ring: a frozenset of its elements,
    dense indices on a finite ring.  Every set is built here, and
    ``ring.check_elements`` raises ValueError naming a value that is not
    an element, so every kernel may rely on them.
    ``sumset`` adds two sets by an offset mask on Z and Z/nZ, by packed
    digits on F_p[t] and by hashed pairs elsewhere (see the module
    docstring).  Iteration is in the backend's canonical order (its sort
    key: the dense index on finite rings).
    """

    __slots__ = ("ring", "_elems")

    def __init__(self, ring, elements):
        self.ring = ring
        self._elems = frozenset(elements)
        ring.check_elements(self._elems)

    def __len__(self):
        return len(self._elems)

    def __iter__(self):
        return iter(sorted(self._elems, key=self.ring.sort_key))

    def __contains__(self, x):
        return x in self._elems

    def __eq__(self, other):
        return (isinstance(other, FiniteSet) and self.ring == other.ring
                and self._elems == other._elems)

    def __hash__(self):
        return hash((self.ring.descriptor, self._elems))

    def __le__(self, other):
        if self.ring != other.ring:
            raise CrossRingError("subset test across rings")
        return self._elems <= other._elems

    def __repr__(self):
        inside = ", ".join(self.ring.render(x) for x in list(self)[:8])
        more = ", ..." if len(self) > 8 else ""
        return f"FiniteSet({self.ring}, {{{inside}{more}}}, n={len(self)})"

    def elements(self):
        return self._elems

    def render(self):
        return "{" + ", ".join(self.ring.render(x) for x in self) + "}"


def parse_set(ring, text):
    """Parse a set literal ``{e1, e2, ...}`` in the ring's element grammar."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ParseError("set literal must be {...}", text, 0)
    body = s[1:-1].strip()
    if not body:
        return FiniteSet(ring, ())
    return FiniteSet(ring, (ring.parse(p) for p in _split_top_level(body)))


def load_set_file(ring, path):
    """One element per line; blank lines and '#' comments ignored."""
    elems = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                elems.append(ring.parse(stripped))
    return FiniteSet(ring, elems)


def _guard(ring, out, what):
    """``out``, a sized collection of elements of ``ring``, or
    BudgetExceededError naming ``what`` when it has more than SET_CAP
    elements; the error's ``partial`` is FiniteSet(ring, out)."""
    if len(out) > SET_CAP:
        raise BudgetExceededError(f"{what} exceeded cap {SET_CAP}",
                                  partial=FiniteSet(ring, out))
    return out


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(m, lo=0):
    """lo + i for each set bit i of m >= 0, ascending: one C-level scan
    of ``bin(m)``, linear in its width."""
    flags = bin(m)[:1:-1].encode().translate(_BIT_FLAGS)
    return compress(range(lo, lo + len(flags)), flags)


def _sumset_mask(a, b, n=None):
    """Offset-mask kernel for Z, or for Z/nZ given its modulus n: the
    elements of a + b, or None when the unreduced span of the result
    plus 128 is at least 4·|a|·|b|.  Decoding a mask bit costs about a
    quarter of adding a pair, and the kernel's fixed cost is about that
    of 32 pairs."""
    xs, ys = a.elements(), b.elements()
    if not xs or not ys:
        return ()
    lo_a, hi_a, lo_b, hi_b = min(xs), max(xs), min(ys), max(ys)
    if hi_a - lo_a + hi_b - lo_b + 128 >= 4 * len(xs) * len(ys):
        return None
    buf = bytearray(b"0") * (hi_b - lo_b + 1)
    for y in ys:
        buf[hi_b - y] = 49           # ord("1"); bit y - lo_b of the mask
    mask, out = int(buf, 2), 0
    for x in xs:
        out |= mask << (x - lo_a)
    lo = lo_a + lo_b
    if n is None:
        elems = _bits(out, lo)
    else:
        # Z/nZ: bit p stands for the residue of lo + p.  Bits p and p + n
        # agree and p < 2n - 1, so one fold leaves only bits below n;
        # from bit n - lo on, the residues wrap round to 0.
        if out >> n:
            out = out & ((1 << n) - 1) | out >> n
        lo %= n
        hi = out >> (n - lo)
        elems = chain(_bits(out ^ hi << (n - lo), lo), _bits(hi))
    # one element past the cap is all _guard needs
    return elems if out.bit_count() <= SET_CAP else islice(elems, SET_CAP + 1)


def _packed(a, w):
    """The F_p[t] elements of a as ints, coefficient i in bits w·i to
    w·i + w − 1."""
    out = []
    for x in a.elements():
        v = 0
        for c in reversed(x):
            v = v << w | c
        out.append(v)
    return out


def _unpacked(vs, w, p):
    """The trimmed coefficient tuples of the packed ints vs, each digit
    reduced mod p.  The top digit of every v must stay nonzero mod p."""
    digit = (1 << w) - 1
    out = set()
    for v in vs:
        c = []
        while v:
            c.append((v & digit) % p)
            v >>= w
        out.add(tuple(c))
    return out


def _pairs(xs, ys, rows):
    """The set ``rows(us)`` of results on us × ys, for us = xs in one set
    comprehension when there are at most SET_CAP pairs; above that the
    union of ``rows((u,))`` for u in xs, stopping after the first u that
    takes it past SET_CAP."""
    if len(xs) * len(ys) <= SET_CAP:
        return rows(xs)
    out = set()
    for u in xs:
        out |= rows((u,))
        if len(out) > SET_CAP:
            break
    return out


def _sumset_poly(a, b):
    """Packed-digit kernel for F_p[t] sums: w = bit_length(p) + 1 bits a
    digit hold 2p − 2, and a digit d of a raw sum is at least p exactly
    when d + 2^(w−1) − p sets the digit's top bit."""
    p = a.ring.p
    w = p.bit_length() + 1
    n = max(map(len, chain(a.elements(), b.elements())), default=0)
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)         # 1 in every digit
    lift, top = ((1 << w - 1) - p) * ones, ones << w - 1
    xs, ys = _packed(a, w), _packed(b, w)
    sums = _pairs(xs, ys, lambda us: {
        s - (((s + lift) & top) >> w - 1) * p
        for s in {u + v for u in us for v in ys}})
    return _unpacked(sums, w, p)


def _prodset_poly(a, b):
    """Packed-digit kernel for F_p[t] products (Kronecker substitution):
    a coefficient of x·y sums at most min(len x, len y) products of
    digits below p, so w bits a digit hold it without carries."""
    p = a.ring.p
    terms = min(max(map(len, s.elements()), default=0) for s in (a, b))
    w = (terms * (p - 1) ** 2).bit_length() or 1
    xs, ys = _packed(a, w), _packed(b, w)
    return _pairs(xs, ys, lambda us: _unpacked(
        {u * v for u in us for v in ys}, w, p))


def sumset(a, b):
    """{x + y : x in a, y in b}."""
    check_same_ring(a.ring, b.ring)
    if len(a) > len(b):
        a, b = b, a
    ring = a.ring
    out = None
    if isinstance(ring, IntegerRing):
        out = _sumset_mask(a, b)
    elif isinstance(ring, ModularRing):
        out = _sumset_mask(a, b, ring.n)
    elif isinstance(ring, LazyPolyRing):
        out = _sumset_poly(a, b)
    if out is None:
        add, ys = ring.add, b.elements()
        out = _pairs(a.elements(), ys, lambda us: {add(u, v) for u in us for v in ys})
    return _guard(ring, FiniteSet(ring, out), "sumset")


def prodset(a, b):
    """{x * y : x in a, y in b}."""
    check_same_ring(a.ring, b.ring)
    ring = a.ring
    if isinstance(ring, LazyPolyRing):
        out = _prodset_poly(a, b)
    else:
        mul, ys = ring.mul, b.elements()
        out = _pairs(a.elements(), ys, lambda us: {mul(u, v) for u in us for v in ys})
    return _guard(ring, FiniteSet(ring, out), "product set")


def negate(a):
    return FiniteSet(a.ring, (a.ring.neg(x) for x in a.elements()))


def union(a, b):
    check_same_ring(a.ring, b.ring)
    return FiniteSet(a.ring, a.elements() | b.elements())


def intersect(a, b):
    check_same_ring(a.ring, b.ring)
    return FiniteSet(a.ring, a.elements() & b.elements())


def difference_set(a, b):
    """Minkowski difference {x - y : x in a, y in b} = a + (-b)."""
    return sumset(a, negate(b))


def missing_negative(a):
    """The least −x in canonical order with x in a and −x not in a, or
    None when a = −a."""
    missing = {a.ring.neg(x) for x in a.elements()} - a.elements()
    return min(missing, key=a.ring.sort_key, default=None)


def growth_step(a):
    """a*a + (a + a), one step of the growth recursion."""
    return sumset(prodset(a, a), sumset(a, a))


@dataclass(frozen=True)
class GrowthEntry:
    n: int
    xset: FiniteSet
    size: int
    covering: int | None = None        # translates of the base covering X_n
    covering_method: str | None = None # "exact" (optimal) | "greedy" (bound)


@dataclass(frozen=True)
class GrowthProfile:
    base: FiniteSet
    entries: tuple
    with_covering: bool = False

    def to_json(self):
        """Each X_n's size and covering, with its elements up to 64 of them."""
        ring = self.base.ring
        entries = [{"n": e.n, "size": e.size, "covering": e.covering,
                    "covering_method": e.covering_method, "elements":
                    [ring.render(v) for v in e.xset] if e.size <= 64 else None}
                   for e in self.entries]
        return {"schema_version": "2", "kind": "growth_profile",
                "ring": ring.descriptor, "x": [ring.render(v) for v in self.base],
                "covering": self.with_covering, "entries": entries}


_COVERING_EXACT_LIMIT = 2048


def growth_sequence(x, n_max, with_covering=False):
    """Entries X_0..X_{n_max} chained by growth_step; InvalidParamsError
    for n_max < 0.

    With ``with_covering``, each entry carries the number of additive
    translates of ``x`` covering it, "exact" when proven optimal and
    "greedy" when an upper bound: the greedy cover of a target above
    2048 elements, or an exact search stopped at its node limit.  An
    empty x covers nothing: UncoverableError, from the cover layer.
    """
    if n_max < 0:
        raise InvalidParamsError("n must be >= 0")
    entries = []
    cur = x
    for n in range(n_max + 1):
        if n > 0:
            cur = growth_step(cur)
        cov = method = None
        if with_covering:
            from .cover import cover_exact, cover_greedy  # cycle: cover uses sets
            w = (cover_exact(cur, x) if len(cur) <= _COVERING_EXACT_LIMIT
                 else cover_greedy(cur, x))
            cov, method = len(w.translates), "exact" if w.optimal else "greedy"
        entries.append(GrowthEntry(n, cur, len(cur), cov, method))
    return GrowthProfile(x, tuple(entries), with_covering)


def power_products(x, m):
    """(X^m, X^{<=m}): products of exactly / at most m elements.

    Associativity makes parenthesization irrelevant, so X^{k+1} is
    computed as X^k * X with memoized intermediates.
    """
    if m < 1:
        raise InvalidParamsError("m must be >= 1")
    powers = [x]
    for _ in range(m - 1):
        powers.append(prodset(powers[-1], x))
    up_to = FiniteSet(x.ring, chain.from_iterable(p.elements() for p in powers))
    return powers[-1], _guard(x.ring, up_to, f"X^<={m}")


def iterated_sum(a, m):
    """m-fold sumset a + a + ... + a."""
    if m < 1:
        raise InvalidParamsError("m must be >= 1")
    out = a
    for _ in range(m - 1):
        out = sumset(out, a)
    return out


def msum(x, m):
    """m(X^{<=m}): sums of m elements, each a product of at most m."""
    return iterated_sum(power_products(x, m)[1], m)


@dataclass(frozen=True)
class ClosureResult:
    """Built by nothing now that ``closure`` returns a FiniteSet; kept for
    the benchmark tracer, which tests results against it by name."""
    set: FiniteSet
    complete: bool


def _grow(ring, span, gens, inside=None):
    """⟨gens⟩ as a set, grown from ``span`` ({0}, or a subring that some
    of gens generate); None once a coset leaves ``inside``, if given, and
    BudgetExceededError("closure …") once the span passes SET_CAP.  A
    value g to try outside the span joins by the cosets span₀ + k·g,
    k = 1, 2, … until k·g ∈ span₀ (the span before g joined); then x·g
    and g·x join the values to try for each generator x.  Cost: about
    |⟨gens⟩| sums, and 2|gens| products per value that enlarged the span.
    """
    span = set(span)
    tries = list(gens)
    for g in tries:                  # tries grows while it is read
        if g in span:
            continue
        base = tuple(span)
        kg = g
        while kg not in span:
            coset = {ring.add(e, kg) for e in base}
            if inside is not None and not coset <= inside:
                return None
            span |= coset
            _guard(ring, span, "closure")
            kg = ring.add(kg, g)
        tries += (p for x in gens for p in (ring.mul(x, g), ring.mul(g, x)))
    return span


def closure(gens):
    """⟨gens⟩, the smallest subset of a finite ring containing gens and
    closed under +, -, *: ``_grow`` from {0} (from nothing when gens is
    empty); InfiniteRingError on an infinite ring."""
    ring = gens.ring
    if not ring.is_finite:
        raise InfiniteRingError("closure needs a finite ring")
    start = (ring.zero(),) if len(gens) else ()
    return FiniteSet(ring, _grow(ring, start, gens.elements()))
