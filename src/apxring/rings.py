"""Computable rings with canonical element encodings.

Backends: integers mod n, polynomial quotient rings F_p[t]/(m), Galois
fields, d x d matrix rings, finite products, explicit Cayley tables, and
two lazy (infinite) backends: the integers and F_p[t].

Rings are never assumed unital or commutative; no operation here uses a
multiplicative identity.  Finite backends expose a fixed dense indexing
of their elements with the additive zero at index 0 (lexicographic on
coordinates / coefficients, documented per backend below); lazy backends
expose hashable canonical encodings only and refuse enumeration loudly.

Every element has one canonical encoding, and a set holds no other:
``sets.FiniteSet`` hands every set it builds to ``Ring.check_elements``,
which raises ValueError naming the first element that is not one.
Finite backends look each element up in their dense indexing (Z/nZ and
table rings test that every element is an int, then the least and the
greatest), F_p[t] tests each coefficient tuple, and Z tests that every
element is an int.

Ring DSL, one line per ring.  A descriptor is its ring's identity,
``parse_ring(r.descriptor) == r`` on every backend, and ``str(ring)``
shows at most 64 characters of it:

    zmod:<n>              integers mod n, n >= 2
    gf:<p>^<k>:<poly>     Galois field F_{p^k}, irreducible monic <poly>
    polyquo:<p>:<poly>    F_p[t] / (<poly>), monic modulus of degree >= 1
    mat:<d>:<inner>       d x d matrices over a finite <inner> ring
    prod:(<dsl>,<dsl>,..) finite product ring
    int                   the integers (lazy)
    poly:<p>              F_p[t] (lazy)
    table:<n>:<add>:<mul> Cayley tables on 0..n-1, each one's entries row
                          by row in hex, a byte each (two, big-endian, if n > 256)
    table:@<path>         the same from a text file: first line n, then
                          n lines of the addition table and n lines of
                          the multiplication table (index entries)

Element grammar: optionally signed integers for zmod/int; polynomials in
t with ^ for powers and integer coefficients ("t^2+2t+1"); matrices as
[[..],[..]] with rows of inner elements; tuples as (..,..); a bare index
for table rings.

Small finite tuple rings run on index tables.  A polyquo, gf, mat or
prod ring with at most ``TABLE_LIMIT`` (256) elements builds add, neg
and mul tables over its dense indices, plus an encoding -> index dict,
once per descriptor in the process (``_build_tables``); every later
handle with that descriptor shares them.  An operation is then two dict
lookups and three indexings, and ``index_of``, ``element_at`` and
``sort_key`` read the same index.  Encodings, ``parse``/``render`` and
the dense index order are those of the raw tuple arithmetic, which also
runs above the limit and is what the tables are built from, on an
additive generating set only.  256 is fixed, not a setting: every index
fits in a byte, so a table row is one ``bytes`` object, and at 256
elements the build takes 10-16 ms on a 2-vCPU host.  On a tabulated
ring an operand that is not a canonical encoding raises ValueError.

Handles are immutable after construction and all operations are pure,
so they are safe for unrestricted concurrent use.  Two threads building
tables for one descriptor at once both build the same tables, and the
first stored is the one every handle keeps.
"""

from __future__ import annotations

import itertools
import math
import re
import struct

from .errors import (
    CrossRingError,
    InfiniteRingError,
    NotAnIdealError,
    ParseError,
    RingConstructionError,
    _clip,
)

TABLE_LIMIT = 256            # tuple rings up to this size run on index tables
_TABLES = {}                 # descriptor -> tables from _build_tables


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, lowest degree first, no trailing 0)


def _is_poly(x, p):
    return type(x) is tuple and (not x or x[-1] != 0 and 0 <= min(x) and max(x) < p)


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b, p):
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return _poly_trim([(u + v) % p for u, v in pairs])


def _poly_neg(a, p):
    return _poly_trim((-v) % p for v in a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return _poly_trim(out)


def _poly_mod(a, modulus, p):
    # modulus is monic; long division, remainder only
    a = list(a)
    d = len(modulus) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i, v in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * v) % p
        a.pop()
    return _poly_trim(a)


def _poly_render(coeffs):
    if not coeffs:
        return "0"
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append(f"{c}t" if c != 1 else "t")
        else:
            terms.append(f"{c}t^{e}" if c != 1 else f"t^{e}")
    return "+".join(terms)


_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*(t(?:\^(\d+))?)?")


def _poly_parse(text, p):
    """Parse a polynomial in t into a reduced coefficient tuple."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", text, 0)
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (not m.group(2) and not m.group(3)):
            raise ParseError("expected a polynomial term", text, pos)
        sign, num, tpart, exp = m.groups()
        if sign == "" and not first:
            raise ParseError("expected '+' or '-'", text, pos)
        coef = int(num) if num is not None else 1
        if sign == "-":
            coef = -coef
        if tpart:
            e = int(exp) if exp is not None else 1
        else:
            e = 0
        coeffs[e] = coeffs.get(e, 0) + coef
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
        first = False
    top = max(coeffs) if coeffs else 0
    out = [0] * (top + 1)
    for e, c in coeffs.items():
        out[e] = c % p
    return _poly_trim(out)


def poly_is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            if _poly_mod(coeffs, div, p) == ():
                return False
    return True


def find_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p."""
    if not _is_prime(p):
        raise RingConstructionError(f"base {p} is not prime")
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise RingConstructionError(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# ring handles


class Ring:
    """Common surface of every backend.

    Subclasses define ``add``/``neg``/``mul``/``zero`` on canonical
    encodings, plus encoding <-> dense index maps for finite backends.
    ``descriptor`` is the canonical DSL string and doubles as the
    identity used by cross-ring checks; ``str`` cuts it short.
    """

    descriptor = None
    cardinality = None       # None = infinite
    characteristic = None

    @property
    def is_finite(self):
        return self.cardinality is not None

    # element operations -----------------------------------------------
    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    # enumeration / indexing --------------------------------------------
    def elements(self):
        """All elements in dense-index order, zero first (finite only)."""
        if not self.is_finite:
            raise InfiniteRingError(f"{self} is infinite")
        return (self.element_at(i) for i in range(self.cardinality))

    def element_at(self, i):
        raise InfiniteRingError(f"{self} has no dense indexing")

    def index_of(self, x):
        raise InfiniteRingError(f"{self} has no dense indexing")

    def sort_key(self, x):
        """Total order on encodings; dense index on finite backends."""
        return self.index_of(x)

    def check_elements(self, elems):
        """Raise ValueError("<x!r> is not an element of <descriptor>") for
        the first x of the set ``elems`` that is not a canonical encoding."""
        for x in elems:
            self.index_of(x)

    # text --------------------------------------------------------------
    def parse(self, text):
        raise NotImplementedError

    def render(self, x):
        raise NotImplementedError

    # identity ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __str__(self):
        return _clip(self.descriptor)

    def __repr__(self):
        card = self.cardinality if self.is_finite else "inf"
        return f"<Ring {self} |R|={card} char={self.characteristic}>"


def check_same_ring(ring, *others):
    for o in others:
        if o != ring:
            raise CrossRingError(f"operands mix rings {ring} and {o}")


class _RangeRing(Ring):
    """Finite backend whose encodings are the ints 0..n-1, index = value,
    so once every element is an int the least and the greatest decide a
    set's check."""

    def zero(self):
        return 0

    def element_at(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return i

    def index_of(self, x):
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise ValueError(f"{x!r} is not an element of {self}")
        return x

    def check_elements(self, elems):
        IntegerRing.check_elements(self, elems)         # every element an int
        for x in (min(elems), max(elems)) if elems else ():
            if not 0 <= x < self.n:
                self.index_of(x)                        # raises, naming x

    def render(self, x):
        return str(x)


class ModularRing(_RangeRing):
    """Z/nZ."""

    def __init__(self, n):
        if n < 2:
            raise RingConstructionError(f"modulus {n} < 2")
        self.n = n
        self.descriptor = f"zmod:{n}"
        self.cardinality = n
        self.characteristic = n

    def add(self, x, y):
        return (x + y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def parse(self, text):
        s = text.strip()
        if not re.fullmatch(r"[+-]?\d+", s):
            raise ParseError("expected an integer", text, 0)
        return int(s) % self.n


class IntegerRing(Ring):
    """The integers, lazily: encodings are Python ints."""

    def __init__(self):
        self.descriptor = "int"
        self.cardinality = None
        self.characteristic = 0

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def zero(self):
        return 0

    def sort_key(self, x):
        # 0, 1, -1, 2, -2, ...: a canonical enumeration order of Z
        return (abs(x), 0 if x >= 0 else 1)

    def check_elements(self, elems):
        # every int is canonical.  A sum of ints is an int, so one sum, a
        # quarter of a type pass on small sets, tests them all
        try:
            ints = type(sum(elems)) is int
        except TypeError:
            ints = False
        for x in () if ints else elems:
            if not isinstance(x, int):
                raise ValueError(f"{x!r} is not an element of {self}")

    def parse(self, text):
        s = text.strip()
        if not re.fullmatch(r"[+-]?\d+", s):
            raise ParseError("expected an integer", text, 0)
        return int(s)

    def render(self, x):
        return str(x)


class _TupleRing(Ring):
    """Finite backend with tuple encodings, run on index tables when it
    has at most ``TABLE_LIMIT`` elements.

    Subclasses define the raw arithmetic and indexing (``_add_raw``,
    ``_neg_raw``, ``_mul_raw``, ``_element_at_raw``, ``_index_of_raw``)
    and call ``_tabulate`` once their descriptor is set.  ``add``,
    ``neg`` and ``mul`` stay methods of the class on both paths, so
    wrapping them on the class sees every call.  The tables are shared
    by descriptor, the identity ``Ring.__eq__`` already uses.
    """

    _index = None                # encoding -> index; None: raw arithmetic

    def _tabulate(self):
        if self.cardinality > TABLE_LIMIT:
            return
        tables = _TABLES.get(self.descriptor)
        if tables is None:
            tables = _TABLES.setdefault(self.descriptor, _build_tables(self))
        self._elems, self._index, self._add, self._neg, self._mul = tables

    def _not_element(self, *operands):
        bad = next(x for x in operands if x not in self._index)
        return ValueError(f"{bad!r} is not an element of {self}")

    def add(self, x, y):
        index = self._index
        if index is None:
            return self._add_raw(x, y)
        try:
            return self._elems[self._add[index[x]][index[y]]]
        except KeyError:
            raise self._not_element(x, y) from None

    def neg(self, x):
        index = self._index
        if index is None:
            return self._neg_raw(x)
        try:
            return self._elems[self._neg[index[x]]]
        except KeyError:
            raise self._not_element(x) from None

    def mul(self, x, y):
        index = self._index
        if index is None:
            return self._mul_raw(x, y)
        try:
            return self._elems[self._mul[index[x]][index[y]]]
        except KeyError:
            raise self._not_element(x, y) from None

    def element_at(self, i):
        if not 0 <= i < self.cardinality:
            raise IndexError(i)
        if self._index is None:
            return self._element_at_raw(i)
        return self._elems[i]

    def index_of(self, x):
        index = self._index
        try:
            return self._index_of_raw(x) if index is None else index[x]
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{x!r} is not an element of {self}") from None

    def check_elements(self, elems):
        if self._index is None:
            super().check_elements(elems)
        elif not self._index.keys() >= elems:
            raise self._not_element(*elems)


class PolyQuotientRing(_TupleRing):
    """F_p[t] / (m(t)) for a monic modulus m of degree d >= 1.

    Encodings are coefficient tuples of length < d (lowest degree first,
    trimmed).  Dense index reads the coefficient vector as a base-p
    number with the degree-(d-1) coefficient most significant, so the
    order is lexicographic on (c_{d-1}, ..., c_0) and zero comes first.
    Index tables up to ``TABLE_LIMIT`` elements (see ``_TupleRing``).
    """

    def __init__(self, p, modulus):
        if not _is_prime(p):
            raise RingConstructionError(f"base {p} is not prime")
        modulus = _poly_trim(v % p for v in modulus)
        if len(modulus) < 2:
            raise RingConstructionError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise RingConstructionError("modulus must be monic")
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self._validate()
        self.descriptor = self._describe()
        self.cardinality = p ** self.degree
        self.characteristic = p
        self._tabulate()

    def _validate(self):
        pass

    def _describe(self):
        return f"polyquo:{self.p}:{_poly_render(self.modulus)}"

    def _add_raw(self, x, y):
        return _poly_add(x, y, self.p)

    def _neg_raw(self, x):
        return _poly_neg(x, self.p)

    def _mul_raw(self, x, y):
        return _poly_mod(_poly_mul(x, y, self.p), self.modulus, self.p)

    def zero(self):
        return ()

    def _element_at_raw(self, i):
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(i % self.p)
            i //= self.p
        return _poly_trim(coeffs)

    def _index_of_raw(self, x):
        if len(x) > self.degree or not _is_poly(x, self.p):
            raise ValueError
        return sum(c * self.p ** e for e, c in enumerate(x))

    def parse(self, text):
        coeffs = _poly_parse(text, self.p)
        return _poly_mod(coeffs, self.modulus, self.p)

    def render(self, x):
        return _poly_render(x)


class GaloisField(PolyQuotientRing):
    """F_{p^k} as F_p[t]/(irreducible); construction checks irreducibility."""

    def __init__(self, p, k, modulus=None):
        if modulus is None:
            modulus = find_irreducible(p, k)
        modulus = _poly_trim(v % p for v in modulus)
        if len(modulus) - 1 != k:
            raise RingConstructionError(
                f"modulus degree {len(modulus) - 1} != extension degree {k}")
        super().__init__(p, modulus)

    def _validate(self):
        if not poly_is_irreducible(self.modulus, self.p):
            raise RingConstructionError(
                f"modulus {_poly_render(self.modulus)} is reducible over F_{self.p}")

    def _describe(self):
        return f"gf:{self.p}^{self.degree}:{_poly_render(self.modulus)}"


class LazyPolyRing(Ring):
    """F_p[t] with no degree bound; encodings are trimmed coeff tuples."""

    def __init__(self, p):
        if not _is_prime(p):
            raise RingConstructionError(f"base {p} is not prime")
        self.p = p
        self.descriptor = f"poly:{p}"
        self.cardinality = None
        self.characteristic = p

    def add(self, x, y):
        return _poly_add(x, y, self.p)

    def neg(self, x):
        return _poly_neg(x, self.p)

    def mul(self, x, y):
        return _poly_mul(x, y, self.p)

    def zero(self):
        return ()

    def sort_key(self, x):
        return (len(x), tuple(reversed(x)))

    def check_elements(self, elems):
        # whole-set passes over types, all and leading coefficients cost
        # about a third of testing each tuple; the loop names a bad one
        if set(map(type, elems)) <= {tuple}:
            coeffs = set(itertools.chain.from_iterable(elems))
            if (not coeffs or 0 <= min(coeffs) and max(coeffs) < self.p) \
                    and 0 not in (x[-1] for x in elems if x):
                return
        bad = next(x for x in elems if not _is_poly(x, self.p))
        raise ValueError(f"{bad!r} is not an element of {self}")

    def parse(self, text):
        return _poly_parse(text, self.p)

    def render(self, x):
        return _poly_render(x)


class MatrixRing(_TupleRing):
    """d x d matrices over a finite base ring.

    Encodings are tuples of row tuples of base encodings.  Index order
    is mixed-radix over the base indices, entry (0,0) most significant;
    the zero matrix sits at index 0.  Index tables up to ``TABLE_LIMIT``
    elements (see ``_TupleRing``); the raw arithmetic they are built
    from runs on the base ring's operations, tabulated or not.
    """

    def __init__(self, base, d):
        if d < 1:
            raise RingConstructionError(f"matrix size {d} < 1")
        if not base.is_finite:
            raise RingConstructionError("matrix base ring must be finite")
        self.base = base
        self.d = d
        self.descriptor = f"mat:{d}:{base.descriptor}"
        self.cardinality = base.cardinality ** (d * d)
        self.characteristic = base.characteristic
        self._tabulate()

    def _add_raw(self, x, y):
        b = self.base
        return tuple(tuple(b.add(u, v) for u, v in zip(rx, ry))
                     for rx, ry in zip(x, y))

    def _neg_raw(self, x):
        b = self.base
        return tuple(tuple(b.neg(u) for u in row) for row in x)

    def _mul_raw(self, x, y):
        b = self.base
        d = self.d
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = b.zero()
                for k in range(d):
                    acc = b.add(acc, b.mul(x[i][k], y[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def zero(self):
        z = self.base.zero()
        return tuple(tuple(z for _ in range(self.d)) for _ in range(self.d))

    def _element_at_raw(self, i):
        n = self.base.cardinality
        cells = []
        for _ in range(self.d * self.d):
            cells.append(self.base.element_at(i % n))
            i //= n
        cells.reverse()
        it = iter(cells)
        return tuple(tuple(next(it) for _ in range(self.d))
                     for _ in range(self.d))

    def _index_of_raw(self, x):
        if {len(x), *map(len, x)} != {self.d}:
            raise ValueError
        n = self.base.cardinality
        i = 0
        for row in x:
            for cell in row:
                i = i * n + self.base.index_of(cell)
        return i

    def parse(self, text):
        rows = [_split_enclosed(row, "[]") for row in _split_enclosed(text, "[]")]
        if len(rows) != self.d:
            raise ParseError(f"expected {self.d} rows", text, 0)
        if any(len(cells) != self.d for cells in rows):
            raise ParseError(f"expected {self.d} entries per row", text, 0)
        return tuple(tuple(self.base.parse(c) for c in cells) for cells in rows)

    def render(self, x):
        return "[" + ",".join(
            "[" + ",".join(self.base.render(c) for c in row) + "]"
            for row in x) + "]"


class ProductRing(_TupleRing):
    """Finite product of finite rings; componentwise operations.

    Index order is mixed-radix with the first factor most significant,
    so (0, 0, ..., 0) comes first.  Index tables up to ``TABLE_LIMIT``
    elements (see ``_TupleRing``).
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise RingConstructionError("product of zero rings")
        if any(not f.is_finite for f in factors):
            raise RingConstructionError("product factors must be finite")
        self.factors = factors
        self.descriptor = "prod:(" + ",".join(f.descriptor for f in factors) + ")"
        self.cardinality = math.prod(f.cardinality for f in factors)
        self.characteristic = math.lcm(*(f.characteristic for f in factors))
        self._tabulate()

    def _add_raw(self, x, y):
        return tuple(f.add(u, v) for f, u, v in zip(self.factors, x, y))

    def _neg_raw(self, x):
        return tuple(f.neg(u) for f, u in zip(self.factors, x))

    def _mul_raw(self, x, y):
        return tuple(f.mul(u, v) for f, u, v in zip(self.factors, x, y))

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def _element_at_raw(self, i):
        coords = []
        for f in reversed(self.factors):
            coords.append(f.element_at(i % f.cardinality))
            i //= f.cardinality
        coords.reverse()
        return tuple(coords)

    def _index_of_raw(self, x):
        i = 0
        for f, u in zip(self.factors, x, strict=True):
            i = i * f.cardinality + f.index_of(u)
        return i

    def parse(self, text):
        parts = _split_enclosed(text, "()")
        if len(parts) != len(self.factors):
            raise ParseError(f"expected {len(self.factors)} coordinates", text, 0)
        return tuple(f.parse(p) for f, p in zip(self.factors, parts))

    def render(self, x):
        return "(" + ",".join(f.render(u) for f, u in zip(self.factors, x)) + ")"


class TableRing(_RangeRing):
    """Ring given by explicit Cayley tables; elements are indices 0..n-1.

    Construction checks the table shapes, that every element has an
    additive order and that every row of the addition table holds 0 (the
    negation table).  ``table_ring`` and ``load_table_file`` also check the
    ring axioms (``_check_tables``, O(n^2 |G|) for a generating set G of
    the additive group, |G| <= log2 n); ``subring_table`` and
    ``quotient_ring`` build rings by construction and skip that check.

    The descriptor spells out both tables (``table:2:00010100:00000001``
    is F_2), so two table rings are equal exactly when their tables are.
    """

    def __init__(self, add_table, mul_table):
        n = len(add_table)
        if n < 1 or len(mul_table) != n:
            raise RingConstructionError("tables must be square and same size")
        self.descriptor = (f"table:{n}:{_table_hex(add_table, n, 'addition')}:"
                           f"{_table_hex(mul_table, n, 'multiplication')}")
        self.n = n
        self.add_table = tuple(tuple(r) for r in add_table)
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self.cardinality = n
        self.characteristic = self._exponent()
        for i, row in enumerate(self.add_table):
            if 0 not in row:
                raise RingConstructionError(f"element {i} has no additive inverse")
        self._neg = tuple(row.index(0) for row in self.add_table)

    def _exponent(self):
        out = 1
        for i in range(self.n):
            order, acc = 1, i
            while acc != 0:
                if order >= self.n:
                    raise RingConstructionError(
                        f"element {i} has no additive order <= {self.n}")
                acc = self.add_table[acc][i]
                order += 1
            out = math.lcm(out, order)
        return out

    def add(self, x, y):
        return self.add_table[x][y]

    def neg(self, x):
        return self._neg[x]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def parse(self, text):
        s = text.strip()
        if not re.fullmatch(r"\d+", s):
            raise ParseError("expected an element index", text, 0)
        i = int(s)
        if i >= self.n:
            raise ParseError(f"index {i} out of range 0..{self.n - 1}", text, 0)
        return i


def _table_hex(table, n, label):
    """Hex of an n x n table's entries, row by row.  They must be indices:
    packing refuses negative and non-int ones, and the greatest is < n."""
    try:
        if all(len(row) == n for row in table) and max(map(max, table)) < n:
            entries = itertools.chain.from_iterable(table)
            return struct.pack(_table_format(n), *entries).hex()
    except (struct.error, TypeError):
        pass
    raise RingConstructionError(f"{label} table entries must be indices in 0..{n - 1}")


def _table_format(n):
    return f">{n * n}{'B' if n <= 256 else 'H'}"


def _table_rows(text, n):
    entries = struct.unpack(_table_format(n), bytes.fromhex(text))
    return [entries[i:i + n] for i in range(0, n * n, n)]


def _check_tables(add, mul):
    """Why index tables fail the ring axioms, or None.

    Index 0 is an additive identity, every element has an additive
    inverse and addition commutes: checked on every element and pair.
    Both operations associate and multiplication distributes over
    addition on both sides: checked only where one argument lies in a
    generating set G of (A, +), O(n^2 |G|) in all, which decides them on
    all of A.  The elements a with (x + a) + y = x + (a + y) for all x, y
    are closed under + (Light's test); so, for each a, are the c with
    a(b + c) = ab + ac for all b, and likewise on the right; and once
    both laws hold, (ab)c − a(bc) is additive in each argument, so G^3
    decides it.
    """
    rng_n = range(len(add))
    for i in rng_n:
        if add[0][i] != i or add[i][0] != i:
            return f"index 0 is not the additive zero (fails at {i})"
        if 0 not in add[i]:
            return f"element {i} has no additive inverse"
    for i, col in enumerate(zip(*add)):
        j = _first_difference(add[i], col)
        if j is not None:
            return f"addition not commutative at ({i},{j})"
    gens, _ = _span(len(add), add.__getitem__)
    for g in gens:
        arow_g = add[g]
        for i in rng_n:
            row_a = add[i]
            k = _first_difference(add[row_a[g]], [row_a[v] for v in arow_g])
            if k is not None:
                return f"addition not associative at ({i},{g},{k})"
    for g in gens:
        arow_g, mrow_g = add[g], mul[g]
        for i in rng_n:
            row_m = mul[i]
            arow = add[row_m[g]]
            # i(j + g) against ij + ig, with j + g = g + j
            k = _first_difference([row_m[v] for v in arow_g],
                                  [arow[v] for v in row_m])
            if k is not None:
                return f"left distributivity fails at ({i},{k},{g})"
            k = _first_difference(mul[add[i][g]],
                                  [add[u][v] for u, v in zip(row_m, mrow_g)])
            if k is not None:
                return f"right distributivity fails at ({i},{g},{k})"
    for i in gens:
        for j in gens:
            for k in gens:
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    return f"multiplication not associative at ({i},{j},{k})"
    return None


def _span(n, row):
    """``(gens, derived)`` for an additive group on 0..n-1, zero at 0:
    greedy generators, each the least index not yet reached, and for
    every other nonzero t one (t, s, h), t = s + h, h a generator and s
    reached before t.  ``row(g)[s]`` is the index of g + s."""
    rows, derived, seen = {}, [], [0]
    reached = bytearray(n)
    reached[0] = 1
    while len(seen) < n:
        g = reached.index(0)
        rows[g], reached[g] = row(g), 1
        seen.append(g)
        for s in seen:               # seen grows while it is read
            for h, hrow in rows.items():
                t = hrow[s]
                if not reached[t]:
                    reached[t] = 1
                    derived.append((t, s, h))
                    seen.append(t)
    return list(rows), derived


def _build_tables(ring):
    """``(elements, index, add, neg, mul)`` of a finite ring with at most
    ``TABLE_LIMIT`` elements, from its raw arithmetic.

    ``elements`` lists the encodings in dense-index order and ``index``
    inverts it; ``add`` and ``mul`` hold one ``bytes`` row of indices per
    element (``add[i][j]`` is the index of element i + element j) and
    ``neg`` one byte per element.  Raw arithmetic runs only on the greedy
    additive generating set G of ``_span``: each generator g costs n raw
    sums x + g.  Every other element t is reached as s + g from an
    element s reached before it (``_span``'s triples), so its rows
    compose rows already built: (s + g) + y = s + (g + y) and
    (s + g)·y = s·y + g·y; and a generator's products follow from those
    with generators, g·(s + h) = g·s + g·h.  That is |G|n raw sums, |G|^2
    raw products and O(n^2) index lookups in all, against 2n^2 raw
    operations for reading the tables off pair by pair.
    """
    n = ring.cardinality
    elems = tuple(ring._element_at_raw(i) for i in range(n))
    index = {e: i for i, e in enumerate(elems)}
    add, mul = [None] * n, [None] * n
    add[0], mul[0] = bytes(range(n)), bytes(n)

    def add_row(g):
        add[g] = bytes([index[ring._add_raw(x, elems[g])] for x in elems])
        return add[g]

    gens, derived = _span(n, add_row)
    for t, s, h in derived:
        # (s + h) + y = s + (h + y): row h read through row s
        add[t] = add[h].translate(add[s].ljust(256, b"\0"))
    for g in gens:
        # g·(s + h) = g·s + g·h: raw products only among generators
        row = [0] * n
        for h in gens:
            row[h] = index[ring._mul_raw(elems[g], elems[h])]
        for t, s, h in derived:
            row[t] = add[row[s]][row[h]]
        mul[g] = bytes(row)
    for t, s, h in derived:
        mul[t] = bytes([add[u][v] for u, v in zip(mul[s], mul[h])])
    neg = bytes(row.index(0) for row in add)
    return elems, index, tuple(add), neg, tuple(mul)


def _first_difference(have, want):
    """Least index where two equal-length rows differ, or None."""
    have, want = list(have), list(want)
    if have == want:
        return None
    return next(k for k, (u, v) in enumerate(zip(have, want)) if u != v)


def zero_multiplication_ring(n):
    """Z/n addition with xy = 0 for all x, y: non-unital by construction."""
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[0] * n for _ in range(n)]
    return table_ring(add, mul)


# ---------------------------------------------------------------------------
# descriptor parsing


def _split_top_level(text):
    """Split on commas not nested inside (), [] or {}."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail or parts:
        parts.append(tail)
    return [p for p in parts if p != ""]


def _split_enclosed(text, pair):
    """The top-level parts of ``text`` inside the brackets ``pair``."""
    s = text.strip()
    if not (s.startswith(pair[0]) and s.endswith(pair[1])):
        raise ParseError(f"expected {pair[0]}..{pair[1]}", text, 0)
    return _split_top_level(s[1:-1])


def load_table_file(path):
    """Read the table:@ file format: n, n add rows, n mul rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, 1):
            if ln.strip() and not ln.startswith("#"):
                if not re.fullmatch(r"[\d\s]+", ln):
                    raise ParseError(f"table file {path}, line {lineno}: not indices")
                rows.append([int(v) for v in ln.split()])
    n = rows[0][0] if rows else 0
    if len(rows) != 1 + 2 * n or len(rows[0]) != 1:
        raise RingConstructionError(f"table file {path} must hold n, then 2n rows")
    return table_ring(rows[1:n + 1], rows[n + 1:])


def parse_ring(dsl):
    """Build a ring handle from its DSL string."""
    s = dsl.strip()
    if s == "int":
        return IntegerRing()
    if s.startswith("zmod:"):
        try:
            n = int(s[5:])
        except ValueError:
            raise ParseError("zmod modulus must be an integer", s, 5)
        return ModularRing(n)
    if s.startswith("gf:"):
        m = re.fullmatch(r"gf:(\d+)\^(\d+):(.+)", s)
        if not m:
            raise ParseError("expected gf:<p>^<k>:<poly>", s, 0)
        p, k = int(m.group(1)), int(m.group(2))
        return GaloisField(p, k, _poly_parse(m.group(3), p))
    if s.startswith("polyquo:"):
        m = re.fullmatch(r"polyquo:(\d+):(.+)", s)
        if not m:
            raise ParseError("expected polyquo:<p>:<poly>", s, 0)
        p = int(m.group(1))
        return PolyQuotientRing(p, _poly_parse(m.group(2), p))
    if s.startswith("mat:"):
        m = re.fullmatch(r"mat:(\d+):(.+)", s)
        if not m:
            raise ParseError("expected mat:<d>:<inner-dsl>", s, 0)
        return MatrixRing(parse_ring(m.group(2)), int(m.group(1)))
    if s.startswith("prod:"):
        body = s[5:]
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("expected prod:(<dsl>,...)", s, 5)
        return ProductRing(parse_ring(p) for p in _split_top_level(body[1:-1]))
    if s.startswith("poly:"):
        try:
            p = int(s[5:])
        except ValueError:
            raise ParseError("poly base must be an integer", s, 5)
        return LazyPolyRing(p)
    if s.startswith("table:@"):
        return load_table_file(s[7:])
    if s.startswith("table:"):
        m = re.fullmatch(r"table:([1-9]\d{0,4}):([0-9a-f]*):([0-9a-f]*)", s)
        n = int(m.group(1)) if m else 0
        digits = 2 * struct.calcsize(_table_format(n))      # hex digits a table
        if not m or not len(m.group(2)) == len(m.group(3)) == digits:
            raise ParseError("expected table:<n>:<add>:<mul>, n^2 hex entries each")
        return table_ring(*(_table_rows(h, n) for h in m.groups()[1:]))
    raise ParseError(f"unknown ring DSL {_clip(s)!r}")


def modular(n):
    """Z/nZ, as ``parse_ring(f"zmod:{n}")`` builds it."""
    return ModularRing(n)


def table_ring(add_table, mul_table):
    """Table ring from outside tables; raises RingConstructionError
    naming the first ring axiom they violate."""
    ring = TableRing(add_table, mul_table)
    why = _check_tables(ring.add_table, ring.mul_table)
    if why is not None:
        raise RingConstructionError(why)
    return ring


# ---------------------------------------------------------------------------
# quotients


def _escape(op, lefts, rights, inside):
    """The first pair (a, b) of lefts × rights with op(a, b) ∉ inside,
    or None: the package's one closed-under check."""
    for a in lefts:
        for b in rights:
            if op(a, b) not in inside:
                return a, b
    return None


def _check_ideal(ring, within, ideal):
    """NotAnIdealError, with ring elements as witness, unless the set
    ``ideal`` inside the subring ``within`` holds 0, is closed under +
    and absorbs products with ``within`` on both sides.  A finite set
    closed under + is an additive subgroup: the multiples of each x
    repeat, so −x is among them."""
    zero = ring.zero()
    if zero not in ideal:
        raise NotAnIdealError("ideal does not contain 0", (zero,))
    for why, op, lefts, rights in (
            ("not closed under addition", ring.add, ideal, ideal),
            ("not absorbing on the left", ring.mul, within, ideal),
            ("not absorbing on the right", ring.mul, ideal, within)):
        pair = _escape(op, lefts, rights, ideal)
        if pair is not None:
            raise NotAnIdealError(
                f"{why} at ({ring.render(pair[0])},{ring.render(pair[1])})",
                pair)


def _coset_map(ring, within, ideal):
    """``(coset_of, reps)`` for an ideal I of the subring ``within``: the
    index of x + I for each x in ``within``, cosets numbered in the order
    ``within`` meets them, and the first element met of each coset."""
    coset_of, reps = {}, []
    for x in within:
        if x not in coset_of:
            for i in ideal:
                coset_of[ring.add(x, i)] = len(reps)
            reps.append(x)
    return coset_of, reps


def quotient_ring(ring, ideal):
    """Quotient of a finite ring by a verified two-sided ideal.

    ``ideal`` is any iterable of elements of ``ring``, checked by
    ``_check_ideal``.  Returns ``(quotient, project)``: table-backed,
    and the map of elements to coset indices.  An ideal makes the
    projection a homomorphism, so the tables skip the axiom check.
    """
    if not ring.is_finite:
        raise InfiniteRingError("quotients need a finite ring")
    ideal_set = frozenset(ideal)
    elems = list(ring.elements())
    _check_ideal(ring, elems, ideal_set)
    coset_of, reps = _coset_map(ring, elems, ideal_set)
    add = [[coset_of[ring.add(a, b)] for b in reps] for a in reps]
    mul = [[coset_of[ring.mul(a, b)] for b in reps] for a in reps]
    return TableRing(add, mul), coset_of.__getitem__


def subring_table(ring, subset):
    """Table-backed handle for a finite subring, plus both element maps.

    Returns ``(handle, embed, restrict)`` where ``restrict`` maps ambient
    elements inside ``subset`` to handle elements and ``embed`` inverts it.
    Raises RingConstructionError when the subset is not closed under
    addition or multiplication.  A closed finite subset is a ring, so the
    axiom check is skipped.
    """
    elems = sorted({ring.zero(), *subset}, key=ring.sort_key)     # zero first
    pos = {e: i for i, e in enumerate(elems)}
    for name, op in (("addition", ring.add), ("multiplication", ring.mul)):
        pair = _escape(op, elems, elems, pos)
        if pair is not None:
            raise RingConstructionError(f"subset not closed under {name} "
                                        f"(escapes at {ring.render(op(*pair))})")
    add = [[pos[ring.add(a, b)] for b in elems] for a in elems]
    mul = [[pos[ring.mul(a, b)] for b in elems] for a in elems]
    handle = TableRing(add, mul)

    def embed(i):
        return elems[i]

    def restrict(x):
        return pos[x]

    return handle, embed, restrict
