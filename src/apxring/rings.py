"""Computable rings.

Backends: integers mod n, polynomial quotient rings F_p[t]/(m), Galois
fields, d x d matrix rings, finite products, explicit Cayley tables, and
two lazy (infinite) backends: the integers and F_p[t].

Rings are never assumed unital or commutative; no operation here uses a
multiplicative identity.  The elements of a finite ring are its dense
indices, the ints 0..n-1 with the additive zero at 0, in an order
documented per backend below (``_RangeRing``).  Lazy backends have
canonical encodings (ints on Z, trimmed coefficient tuples on F_p[t])
and refuse enumeration loudly.  ``sets.FiniteSet`` hands every set it
builds to ``Ring.check_elements``, which raises ValueError naming the
first value that is not an element.

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

Tuple codes never leave this module.  A polyquo, gf, mat or prod ring
(``_TupleRing``) is, as an additive group, the product of its ``parts``:
d copies of Z/pZ, d^2 copies of the matrix entries' ring, or the
factors.  Its index is a mixed-radix number over the parts'
cardinalities, most significant first, and the digits are its code: the
coefficients from t^(d-1) down, the entries row by row, or the factor
elements.  One codec and one coordinatewise addition serve all four;
codes appear only in the raw arithmetic, ``_build_tables``, ``parse``
and ``render``.  With at most ``TABLE_LIMIT`` (256) elements the ring
builds add, neg and mul tables once per descriptor in the process, from
the raw arithmetic on an additive generating set only, and runs the
table ops table rings run: one guarded lookup in a ``bytes`` row.  Above
the limit an op decodes its operands, runs the raw op and encodes the
result.  256 is fixed, not a setting: every index fits in a byte, and at
256 elements the build takes 10-16 ms on a 2-vCPU host.

Handles are immutable after construction and all operations are pure,
so they are safe for unrestricted concurrent use.  Two threads building
tables for one descriptor at once both build the same tables, and the
first stored is the one every handle keeps.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _least_factor(n):
    """The least prime factor of n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _is_prime(n):
    return n >= 2 and _least_factor(n) == n


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, lowest degree first, no trailing 0)


def _is_poly(x, p):
    return type(x) is tuple and (not x or x[-1] != 0 and 0 <= min(x) and max(x) < p)


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


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


def _poly_divmod(a, modulus, p):
    # modulus is monic; long division, (quotient, remainder)
    a = list(a)
    d = len(modulus) - 1
    q = [0] * (len(a) - d)
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            q[shift] = lead
            for i, v in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * v) % p
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_render(coeffs):
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
    return "+".join(terms) or "0"


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


def _poly_factor(coeffs, p):
    """(f, g) with f·g = coeffs, f monic and both of degree >= 1, f the
    least such divisor; None when coeffs, of degree >= 1, is irreducible.
    Trial division by all monic polynomials of degree <= deg/2."""
    for d in range(1, (len(coeffs) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            quotient, rest = _poly_divmod(coeffs, div, p)
            if rest == ():
                return div, quotient
    return None


def find_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p."""
    if not _is_prime(p):
        raise RingConstructionError(f"base {p} is not prime")
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        if k >= 1 and _poly_factor(cand, p) is None:
            return cand
    raise RingConstructionError(f"no irreducible of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# ring handles


class Ring:
    """Common surface of every backend.

    Subclasses define ``add``/``neg``/``mul``/``zero`` on elements: the
    dense indices of a finite ring, canonical encodings on a lazy one.
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
        raise InfiniteRingError(f"{self} is infinite")

    def element_at(self, i):
        raise InfiniteRingError(f"{self} has no dense indexing")

    def index_of(self, x):
        raise InfiniteRingError(f"{self} has no dense indexing")

    def sort_key(self, x):
        """Total order on elements; the dense index on finite backends."""
        raise NotImplementedError

    def check_elements(self, elems):
        """Raise ValueError("<x!r> is not an element of <descriptor>") for
        the first x of the set ``elems`` that is not an element."""
        raise NotImplementedError

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
    """A finite ring: its elements are the ints 0..n-1, index = value,
    0 the additive zero.  Once every element of a set is an int, the
    least and the greatest decide its check.

    ``add_table``, ``neg_table`` and ``mul_table`` hold the ring's
    operations on indices, a row per element (``add_table[x][y]`` is
    x + y), ``bytes`` rows up to 256 elements.  ``add``, ``neg`` and
    ``mul`` read them behind one guard and raise ValueError naming an
    operand that is not an element.  Z/nZ computes mod n instead, and a
    tuple ring above ``TABLE_LIMIT``, which has no tables, runs its raw
    arithmetic on codes (``_TupleRing``).
    """

    add_table = neg_table = mul_table = None

    def zero(self):
        return 0

    def add(self, x, y):
        rows = self.add_table
        if rows is None:
            return self._encode(self._add_raw(self._code(x), self._code(y)))
        try:
            if x | y >= 0:          # both ints >= 0, or a TypeError
                return rows[x][y]
        except (IndexError, TypeError):
            pass
        raise self._not_element(x, y)

    def neg(self, x):
        row = self.neg_table
        if row is None:
            return self._encode(self._neg_raw(self._code(x)))
        try:
            if x >= 0:
                return row[x]
        except (IndexError, TypeError):
            pass
        raise self._not_element(x)

    def mul(self, x, y):
        rows = self.mul_table
        if rows is None:
            return self._encode(self._mul_raw(self._code(x), self._code(y)))
        try:
            if x | y >= 0:
                return rows[x][y]
        except (IndexError, TypeError):
            pass
        raise self._not_element(x, y)

    def _not_element(self, *operands):
        """The ValueError naming the first operand that is not an element."""
        for x in operands:
            if not isinstance(x, int) or not 0 <= x < self.cardinality:
                return ValueError(f"{x!r} is not an element of {self}")

    def elements(self):
        return range(self.cardinality)

    def element_at(self, i):
        if not 0 <= i < self.cardinality:
            raise IndexError(i)
        return i

    def index_of(self, x):
        if isinstance(x, int) and 0 <= x < self.cardinality:
            return x
        raise self._not_element(x)

    def sort_key(self, x):
        return x

    def check_elements(self, elems):
        IntegerRing.check_elements(self, elems)         # every element an int
        if elems and (min(elems) < 0 or max(elems) >= self.cardinality):
            raise self._not_element(min(elems), max(elems))

    def render(self, x):
        return str(x)


class ModularRing(_RangeRing):
    """Z/nZ: the element x is the residue x."""

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
        # 0, 1, -1, 2, -2, ...: a canonical enumeration order of Z, as
        # one int, so sorts build no tuples
        return 2 * x - 1 if x > 0 else -2 * x

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


class _TupleRing(_RangeRing):
    """A finite ring that is, as an additive group, the product of its
    ``parts``: smaller finite rings, the most significant first.

    An element's code is its tuple of coordinates, one element of each
    part, and its index reads them as a mixed-radix number over the
    parts' cardinalities, so the zero tuple sits at index 0.  Addition
    and negation run coordinate by coordinate through each part's
    ``add`` and ``neg``; the cardinality and characteristic are the
    parts' product and lcm.  Subclasses pass a descriptor and their
    parts to ``__init__`` and define only the raw product ``_mul_raw``
    on codes, ``parse`` and ``render``.  With at most ``TABLE_LIMIT``
    elements the ring runs on tables, shared by descriptor, the identity
    ``Ring.__eq__`` already uses; above it an op decodes its operands
    (``_code``, which checks them), runs the raw op and encodes the
    result.  ``add``, ``neg`` and ``mul`` are ``_RangeRing``'s on both
    paths, so wrapping them on the class sees every call.
    """

    def __init__(self, descriptor, parts):
        self.descriptor = descriptor
        self.parts = tuple(parts)
        places, size = [], 1             # each coordinate's place value
        for f in reversed(self.parts):
            places.append(size)
            size *= f.cardinality
        self._places = tuple(reversed(places))
        self._adds = tuple(f.add for f in self.parts)
        self._negs = tuple(f.neg for f in self.parts)
        self.cardinality = size
        self.characteristic = math.lcm(*(f.characteristic for f in self.parts))
        if self.cardinality <= TABLE_LIMIT:
            tables = _TABLES.get(descriptor)
            if tables is None:
                tables = _TABLES.setdefault(descriptor, _build_tables(self))
            self.add_table, self.neg_table, self.mul_table = tables

    def _decode(self, i):
        code = []
        for w in self._places:
            c, i = divmod(i, w)
            code.append(c)
        return tuple(code)

    def _encode(self, code):
        return sum(map(operator.mul, code, self._places))

    def _add_raw(self, x, y):
        return tuple([add(u, v) for add, u, v in zip(self._adds, x, y)])

    def _neg_raw(self, x):
        return tuple([neg(u) for neg, u in zip(self._negs, x)])

    def _code(self, x):
        return self._decode(self.index_of(x))


class PolyQuotientRing(_TupleRing):
    """F_p[t] / (m(t)) for a monic modulus m of degree d >= 1.

    Parts: d copies of Z/pZ, the coefficient of t^(d-1) first, so the
    index is the base-p number c_{d-1}...c_0 and the order is
    lexicographic on (c_{d-1}, ..., c_0).  ``_poly`` turns a code into
    a coefficient tuple, lowest degree first and zeros left on top, and
    ``_unpoly`` a trimmed one back.
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
        super().__init__(self._describe(), [ModularRing(p)] * self.degree)

    def _validate(self):
        pass

    def _describe(self):
        return f"polyquo:{self.p}:{_poly_render(self.modulus)}"

    def _poly(self, code):
        return code[::-1]

    def _unpoly(self, coeffs):
        return (0,) * (self.degree - len(coeffs)) + coeffs[::-1]

    def _mul_raw(self, x, y):
        prod = _poly_mul(self._poly(x), self._poly(y), self.p)
        return self._unpoly(_poly_divmod(prod, self.modulus, self.p)[1])

    def parse(self, text):
        coeffs = _poly_parse(text, self.p)
        return self._encode(self._unpoly(_poly_divmod(coeffs, self.modulus, self.p)[1]))

    def render(self, x):
        return _poly_render(self._poly(self._decode(x)))


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
        if _poly_factor(self.modulus, self.p) is not None:
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
        p, pairs = self.p, itertools.zip_longest(x, y, fillvalue=0)
        return _poly_trim([(u + v) % p for u, v in pairs])

    def neg(self, x):
        p = self.p
        return _poly_trim([(-v) % p for v in x])

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

    Parts: d^2 copies of the base ring, the entries row by row, so entry
    (0,0) is most significant.  The raw product runs on the base ring's
    operations.
    """

    def __init__(self, base, d):
        if d < 1:
            raise RingConstructionError(f"matrix size {d} < 1")
        if not base.is_finite:
            raise RingConstructionError("matrix base ring must be finite")
        self.base = base
        self.d = d
        super().__init__(f"mat:{d}:{base.descriptor}", [base] * (d * d))

    def _mul_raw(self, x, y):
        b, d = self.base, self.d
        out = []
        for i in range(0, d * d, d):
            for j in range(d):
                acc = 0
                for k in range(d):
                    acc = b.add(acc, b.mul(x[i + k], y[k * d + j]))
                out.append(acc)
        return tuple(out)

    def parse(self, text):
        rows = [_split_enclosed(row, "[]") for row in _split_enclosed(text, "[]")]
        if len(rows) != self.d:
            raise ParseError(f"expected {self.d} rows", text, 0)
        if any(len(cells) != self.d for cells in rows):
            raise ParseError(f"expected {self.d} entries per row", text, 0)
        return self._encode(self.base.parse(c) for cells in rows for c in cells)

    def render(self, x):
        cells, d = list(map(self.base.render, self._decode(x))), self.d
        return "[" + ",".join("[" + ",".join(cells[i:i + d]) + "]"
                              for i in range(0, d * d, d)) + "]"


class ProductRing(_TupleRing):
    """Finite product of finite rings, its factors the parts, with
    componentwise operations."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise RingConstructionError("product of zero rings")
        if any(not f.is_finite for f in factors):
            raise RingConstructionError("product factors must be finite")
        super().__init__(
            "prod:(" + ",".join(f.descriptor for f in factors) + ")", factors)

    def _mul_raw(self, x, y):
        return tuple(f.mul(u, v) for f, u, v in zip(self.parts, x, y))

    def parse(self, text):
        coords = _split_enclosed(text, "()")
        if len(coords) != len(self.parts):
            raise ParseError(f"expected {len(self.parts)} coordinates", text, 0)
        return self._encode(f.parse(c) for f, c in zip(self.parts, coords))

    def render(self, x):
        coords = zip(self.parts, self._decode(x))
        return "(" + ",".join(f.render(u) for f, u in coords) + ")"


class TableRing(_RangeRing):
    """Ring given by explicit Cayley tables on its elements 0..n-1.

    Construction checks the table shapes and the ring axioms
    (``_check_tables``, O(n^2 |G|) for a generating set G of the additive
    group, |G| <= log2 n), and raises RingConstructionError naming the
    first one the tables violate.

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
        row = bytes if n <= 256 else tuple
        self.add_table = tuple(map(row, add_table))
        self.mul_table = tuple(map(row, mul_table))
        why = _check_tables(self.add_table, self.mul_table)
        if why is not None:
            raise RingConstructionError(why)
        self.cardinality = n
        self.characteristic = self._exponent()
        self.neg_table = row(add_row.index(0) for add_row in self.add_table)

    def _exponent(self):
        out = 1
        for i in range(self.n):
            order, acc = 1, i
            while acc != 0:
                acc = self.add_table[acc][i]
                order += 1
            out = math.lcm(out, order)
        return out

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
    """``(add, neg, mul)`` tables of a tuple ring with at most
    ``TABLE_LIMIT`` elements, from its raw arithmetic on codes.

    ``add`` and ``mul`` hold one ``bytes`` row of indices per element
    (``add[i][j]`` is the index of i + j) and ``neg`` one byte per
    element.  Raw arithmetic runs only on the greedy additive generating
    set G of ``_span``: each generator g costs n raw sums x + g.  Every
    other element t is reached as s + g from an element s reached before
    it (``_span``'s triples), so its rows compose rows already built:
    (s + g) + y = s + (g + y) and (s + g)·y = s·y + g·y; and a
    generator's products follow from those with generators,
    g·(s + h) = g·s + g·h.  That is |G|n raw sums, |G|^2 raw products and
    O(n^2) index lookups in all, against 2n^2 raw operations for reading
    the tables off pair by pair.
    """
    n = ring.cardinality
    codes = list(itertools.product(*(range(f.cardinality) for f in ring.parts)))
    encode = ring._encode
    add, mul = [None] * n, [None] * n
    add[0], mul[0] = bytes(range(n)), bytes(n)

    def add_row(g):
        add[g] = bytes([encode(ring._add_raw(x, codes[g])) for x in codes])
        return add[g]

    gens, derived = _span(n, add_row)
    for t, s, h in derived:
        # (s + h) + y = s + (h + y): row h read through row s
        add[t] = add[h].translate(add[s].ljust(256, b"\0"))
    for g in gens:
        # g·(s + h) = g·s + g·h: raw products only among generators
        row = [0] * n
        for h in gens:
            row[h] = encode(ring._mul_raw(codes[g], codes[h]))
        for t, s, h in derived:
            row[t] = add[row[s]][row[h]]
        mul[g] = bytes(row)
    for t, s, h in derived:
        mul[t] = bytes([add[u][v] for u, v in zip(mul[s], mul[h])])
    neg = bytes(row.index(0) for row in add)
    return tuple(add), neg, tuple(mul)


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
    return TableRing(add, mul)


# ---------------------------------------------------------------------------
# descriptor parsing


def _split_top_level(text):
    """Split on commas not nested inside (), [] or {}: no items for a
    blank text, and ParseError for an empty item."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((start, text[start:i].strip()))
            start = i + 1
    parts.append((start, text[start:].strip()))
    if parts == [(0, "")]:
        return []
    for start, part in parts:
        if not part:
            raise ParseError("empty item", text, start)
    return [part for _start, part in parts]


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
    return TableRing(rows[1:n + 1], rows[n + 1:])


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
        return TableRing(*(_table_rows(h, n) for h in m.groups()[1:]))
    raise ParseError(f"unknown ring DSL {_clip(s)!r}")


def modular(n):
    """Z/nZ, as ``parse_ring(f"zmod:{n}")`` builds it."""
    return ModularRing(n)


def find_zero_divisor(ring):
    """A pair (a, b) of nonzero elements with a·b = 0, or None, decided
    from the ring's structure: none in Z, F_p[t], Galois fields and
    one-element rings; (q, n/q) in Z/nZ, q the least prime factor of n; a
    factoring of m in F_p[t]/(m); E₁₂, the matrix unit with the base
    ring's element 1 at (0, 1), twice in d x d matrices, d >= 2;
    elements nonzero in two different factors of a product (1 x 1
    matrices and a product with one nontrivial factor embed that ring's
    answer); the first zero product of nonzero elements in a table ring."""
    if isinstance(ring, (IntegerRing, LazyPolyRing, GaloisField)) or \
            ring.cardinality == 1:
        return None
    if isinstance(ring, ModularRing):
        q = _least_factor(ring.n)
        return None if q == ring.n else (q, ring.n // q)
    if isinstance(ring, PolyQuotientRing):
        pair = _poly_factor(ring.modulus, ring.p)
        return pair and tuple(ring._encode(ring._unpoly(f)) for f in pair)
    if isinstance(ring, TableRing):
        return next(((a, b) for a, row in enumerate(ring.mul_table) if a
                     for b, ab in enumerate(row) if b and ab == 0), None)
    if isinstance(ring, MatrixRing):
        if ring.d == 1:                 # a 1 x 1 matrix's index is its entry's
            return find_zero_divisor(ring.base)
        e12 = ring._encode([0, 1] + [0] * (ring.d ** 2 - 2))   # row by row
        return e12, e12
    big = [i for i, f in enumerate(ring.parts) if f.cardinality > 1]
    where = big[:2] if len(big) > 1 else big * 2
    pair = (1, 1) if len(big) > 1 else find_zero_divisor(ring.parts[big[0]])
    return pair and tuple(
        ring._encode([v if k == i else 0 for k in range(len(ring.parts))])
        for i, v in zip(where, pair))


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
    """NotAnIdealError, with 0 or the least escaping pair in canonical
    order as witness, unless the set ``ideal`` inside the subring
    ``within`` (in canonical order) holds 0, is closed under + and absorbs
    products with ``within`` on both sides.  A finite set closed under +
    is an additive subgroup: the multiples of each x repeat, so −x is
    among them."""
    zero = ring.zero()
    if zero not in ideal:
        raise NotAnIdealError("ideal does not contain 0", (zero,))
    elems = sorted(ideal, key=ring.sort_key)
    for why, op, lefts, rights in (
            ("not closed under addition", ring.add, elems, elems),
            ("not absorbing on the left", ring.mul, within, elems),
            ("not absorbing on the right", ring.mul, elems, within)):
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
    and the map of elements to coset indices.
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
    addition or multiplication.
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
