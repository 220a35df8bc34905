"""Ring backends: construction, axioms, encodings, quotients."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apxring as ax
from apxring.errors import (
    CrossRingError,
    InfiniteRingError,
    NotAnIdealError,
    ParseError,
    RingConstructionError,
)
from apxring.rings import (
    TABLE_LIMIT,
    GaloisField,
    IntegerRing,
    Ring,
    TableRing,
    _RangeRing,
    _TupleRing,
    _check_tables,
    _poly_trim,
    find_irreducible,
    parse_ring,
)

from corpus import corpus_sets

_AXIOM_SAMPLE = 10_000       # random triples checked when |R| > exhaustive cap
_AXIOM_EXHAUSTIVE = 512      # complete table check up to this size


def sample_stream(ring):
    """Canonical elements of a lazy ring: 0, 1, -1, 2, -2, ... over Z,
    and over F_p[t] the polynomials by degree, each once."""
    if isinstance(ring, IntegerRing):
        yield 0
        for k in itertools.count(1):
            yield k
            yield -k
    d = 0
    while True:
        for tail in itertools.product(range(ring.p), repeat=d):
            lead = range(1, ring.p) if d else range(ring.p)
            for c in lead:
                poly = _poly_trim(tail + (c,))
                if d == 0 or poly:
                    yield poly
        d += 1


def check_ring_axioms(ring, rng=None):
    """Oracle: raise AssertionError if the ring axioms fail.

    Complete when |R| <= 512: ``_check_tables`` over index tables read
    off ``add``/``mul`` pair by pair, plus ``neg`` against them;
    otherwise 10^4 pseudorandom triples (a seeded Random must be
    supplied for the sampled path).
    """
    if ring.is_finite and ring.cardinality <= _AXIOM_EXHAUSTIVE:
        why = _check_tables(*_index_tables(ring))
        if why is not None:
            raise AssertionError(why)
        zero = ring.zero()
        for x in ring.elements():
            if ring.add(x, ring.neg(x)) != zero:
                raise AssertionError(f"neg fails at {x}")
        return
    if rng is None:
        raise ValueError("sampled axiom check needs a seeded Random")
    if ring.is_finite:
        def draw():
            return ring.element_at(rng.randrange(ring.cardinality))
    else:
        sample = list(itertools.islice(sample_stream(ring), 200))

        def draw():
            return rng.choice(sample)
    triples = ((draw(), draw(), draw()) for _ in range(_AXIOM_SAMPLE))
    zero = ring.zero()
    for a, b, c in triples:
        if ring.add(a, b) != ring.add(b, a):
            raise AssertionError(f"add not commutative at {a},{b}")
        if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
            raise AssertionError(f"add not associative at {a},{b},{c}")
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            raise AssertionError(f"mul not associative at {a},{b},{c}")
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            raise AssertionError(f"left distributivity fails at {a},{b},{c}")
        if ring.mul(ring.add(a, b), c) != ring.add(ring.mul(a, c), ring.mul(b, c)):
            raise AssertionError(f"right distributivity fails at {a},{b},{c}")
        if ring.add(a, ring.neg(a)) != zero:
            raise AssertionError(f"neg fails at {a}")


def all_backends():
    return [
        ax.modular(7),
        ax.modular(12),
        ax.parse_ring("zmod:13"),
        ax.parse_ring("gf:3^2:t^2+1"),          # t^2 + 1
        ax.parse_ring("polyquo:5:t^3"),          # t^3
        ax.parse_ring("mat:2:zmod:2"),
        ax.parse_ring("prod:(zmod:2,zmod:3)"),
        ax.zero_multiplication_ring(6),
        ax.parse_ring("int"),
        ax.parse_ring("poly:3"),
    ]


def test_parse_ring_examples():
    r = ax.parse_ring("zmod:7")
    assert r.cardinality == 7 and r.characteristic == 7
    g = ax.parse_ring("gf:3^2:t^2+1")
    assert g.cardinality == 9 and g.characteristic == 3


def test_invalid_descriptors():
    with pytest.raises(RingConstructionError):
        ax.modular(1)
    with pytest.raises(RingConstructionError):
        ax.parse_ring("polyquo:6:t")               # base not prime
    with pytest.raises(RingConstructionError):
        ax.parse_ring("gf:3^2:t^2")                # t^2 reducible
    with pytest.raises(RingConstructionError):
        ax.parse_ring("polyquo:5:2t+1")            # not monic
    # non-associative multiplication table
    add = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    ok_mul = [[0, 0], [0, 1]]
    assert TableRing(add, ok_mul).cardinality == 2
    with pytest.raises(RingConstructionError, match="associative|distributivity"):
        TableRing(add, [[0, 1], [1, 1]])
    with pytest.raises(RingConstructionError, match="element 1 has no additive inverse"):
        TableRing([[0, 1], [1, 1]], ok_mul)        # 1 + 1 + ... never 0
    # every element has an additive order (1 -> 2 -> 0 along column 1),
    # but row 1 holds no 0, so 1 has no negative
    with pytest.raises(RingConstructionError, match="element 1 has no additive inverse"):
        TableRing([[0, 1, 2], [1, 2, 2], [2, 0, 0]], [[0] * 3] * 3)


def _set7(text):
    return ax.parse_set(ax.modular(7), text)


@pytest.mark.parametrize("parse,text", [
    (_set7, "{1,,6}"), (_set7, "{,}"), (_set7, "{0,}"),
    (parse_ring("mat:2:zmod:2").parse, "[[1,,0],[0,1]]"),
    (parse_ring, "prod:(zmod:2,,zmod:3)")],
    ids=["set-inner", "set-comma", "set-trailing", "matrix", "product"])
def test_literals_reject_empty_items(parse, text, capsys):
    # an empty item between commas or after a trailing comma is an error,
    # not a dropped item; an empty body is still the empty list
    from apxring.cli import main
    with pytest.raises(ParseError, match="empty item"):
        parse(text)
    if parse is _set7:
        assert len(_set7("{ }")) == 0
        assert main(["approx", "--ring", "zmod:7", "--set", text]) == 2
        err = capsys.readouterr().err
        assert "precondition failed: empty item" in err and text[1:-1] in err


class _UncheckedTables(_RangeRing):
    """Index tables behind the finite-ring ops with no axiom check, so
    the oracle can judge tables that ``TableRing`` refuses to build."""

    def __init__(self, add, mul):
        self.descriptor = f"unchecked:{add}:{mul}"
        self.cardinality = len(add)
        self.add_table, self.mul_table = tuple(map(bytes, add)), tuple(map(bytes, mul))
        self.neg_table = bytes(row.index(0) for row in self.add_table)


def test_direct_table_ring_checked_by_check_ring_axioms():
    # TableRing refuses tables that break a ring axiom, naming the first
    # law they break; the oracle, given the same tables unchecked, fails
    # them too, and passes the ring TableRing builds once they hold
    add = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    # F_2^2 with the bilinear product e1·e1 = e2, e2·e1 = e1: distributive,
    # but (e1·e1)·e1 = e1 while e1·(e1·e1) = 0
    xor = [[i ^ j for j in range(4)] for i in range(4)]
    mul = [[((a & b & 1) << 1) ^ (a >> 1 & b & 1) for b in range(4)]
           for a in range(4)]
    for tables, law in (((add, [[0, 1], [1, 1]]), "associative|distributivity"),
                        ((xor, mul), "multiplication not associative")):
        with pytest.raises(RingConstructionError, match=law):
            TableRing(*tables)
        with pytest.raises(AssertionError, match=law):
            check_ring_axioms(_UncheckedTables(*tables))
    check_ring_axioms(TableRing(add, [[0, 0], [0, 1]]))


def test_element_ops_examples():
    r = ax.modular(7)
    assert r.add(3, 5) == 1
    for backend in all_backends():
        if backend.is_finite:
            for x in list(backend.elements())[:20]:
                assert backend.add(x, backend.neg(x)) == backend.zero()
    g = ax.parse_ring("gf:3^2:t^2+1")
    t = g.parse("t")
    assert g.mul(t, t) == g.parse("2")             # t^2 = -1 = 2


def test_cross_ring_mixing_rejected():
    a = ax.parse_set(ax.modular(7), "{1}")
    b = ax.parse_set(ax.modular(5), "{1}")
    with pytest.raises(CrossRingError):
        ax.sumset(a, b)


def test_enumeration():
    assert list(ax.modular(3).elements()) == [0, 1, 2]
    prod = ax.parse_ring("prod:(zmod:2,zmod:2)")
    elems = list(prod.elements())
    assert elems == [0, 1, 2, 3]
    assert list(map(prod.render, elems)) == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    with pytest.raises(InfiniteRingError):
        list(ax.parse_ring("int").elements())


def test_dense_index_zero_first():
    # a finite ring's elements are its indices, zero at 0
    rings = [*all_backends(), *map(parse_ring, TABULATED), *map(parse_ring, ABOVE_LIMIT)]
    for backend in rings:
        if backend.is_finite:
            assert backend.zero() == backend.element_at(0) == 0
            n = backend.cardinality
            assert list(backend.elements()) == list(range(n))
            assert all(backend.element_at(i) == backend.index_of(i)
                       == backend.sort_key(i) == i for i in range(n))


def test_parse_examples():
    assert ax.modular(7).parse("12") == 5
    pq = ax.parse_ring("polyquo:5:t^3")
    assert pq.parse("2+t") == 7 and pq.render(7) == "t+2"    # 2 + 1·5
    lp = ax.parse_ring("poly:3")
    assert lp.parse("t^2+2t") == (0, 2, 1)
    with pytest.raises(ParseError):
        ax.modular(7).parse("abc")
    with pytest.raises(ParseError):
        lp.parse("t^+2")


def test_parse_render_round_trip():
    rng = random.Random(7)
    for backend in all_backends():
        if backend.is_finite:
            sample = [backend.element_at(rng.randrange(backend.cardinality))
                      for _ in range(1000)]
        else:
            stream = list(itertools.islice(sample_stream(backend), 1000))
            sample = [rng.choice(stream) for _ in range(1000)]
        for x in sample:
            assert backend.parse(backend.render(x)) == x


def test_dsl_round_trip():
    # the descriptor is the ring: it parses back to an equal handle with
    # the same operations, on every backend, corpus ring and table handle
    r = ax.parse_ring("prod:(zmod:4,zmod:2)")
    sub, _, _ = ax.subring_table(r, _elems(r, "(0,0)", "(2,0)", "(0,1)", "(2,1)"))
    quo, _ = ax.quotient_ring(r, _elems(r, "(0,0)", "(2,0)"))
    rings = {*all_backends(), *(x.ring for _, x in corpus_sets()), sub, quo}
    assert sum(ring.descriptor.startswith("table:") for ring in rings) == 4
    for ring in rings:
        again = parse_ring(ring.descriptor)
        assert again == ring and again.descriptor == ring.descriptor
        if ring.is_finite:
            assert _index_tables(again) == _index_tables(ring)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_integer_backend_axioms(a, b, c):
    z = ax.parse_ring("int")
    assert z.add(z.add(a, b), c) == z.add(a, z.add(b, c))
    assert z.mul(a, z.add(b, c)) == z.add(z.mul(a, b), z.mul(a, c))
    assert z.add(a, z.neg(a)) == z.zero()


def test_integer_sort_key_enumerates_z():
    z = ax.parse_ring("int")
    expected = [0]
    for k in range(1, 51):
        expected += [k, -k]
    assert sorted(range(-50, 51), key=z.sort_key) == expected


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2), max_size=6),
       st.lists(st.integers(0, 2), max_size=6))
def test_lazy_poly_mul_commutes_with_eval(p, q):
    ring = ax.parse_ring("poly:3")
    a = ring.parse("+".join(f"{c}t^{i}" for i, c in enumerate(p)) or "0")
    b = ring.parse("+".join(f"{c}t^{i}" for i, c in enumerate(q)) or "0")
    # evaluate both sides at t = 2 in Z/3 as an independent oracle
    def ev(poly):
        return sum(c * pow(2, i, 3) for i, c in enumerate(poly)) % 3
    assert ev(ring.mul(a, b)) == (ev(a) * ev(b)) % 3


def test_axioms_all_backends():
    rng = random.Random(0)
    for backend in all_backends():
        check_ring_axioms(backend, rng)


def test_matrix_ring_noncommutative():
    m = ax.parse_ring("mat:2:zmod:2")
    a, b = _elems(m, "[[0,1],[0,0]]", "[[0,0],[1,0]]")
    assert m.mul(a, b) != m.mul(b, a)


def test_zero_mul_ring_is_nonunital():
    r = ax.zero_multiplication_ring(6)
    for e in r.elements():
        # no candidate identity: e*1 = e fails for any would-be 1
        assert all(r.mul(e, x) == 0 for x in r.elements())


def test_characteristic_values():
    assert ax.parse_ring("int").characteristic == 0
    assert ax.parse_ring("poly:3").characteristic == 3
    assert ax.modular(12).characteristic == 12
    assert ax.parse_ring("prod:(zmod:2,zmod:3)").characteristic == 6
    assert ax.parse_ring("mat:2:zmod:5").characteristic == 5
    r = ax.zero_multiplication_ring(8)
    assert r.characteristic == 8
    # characteristic kills every element
    for backend in all_backends():
        if not backend.is_finite:
            continue
        ch = backend.characteristic
        for x in backend.elements():
            acc = backend.zero()
            for _ in range(ch):
                acc = backend.add(acc, x)
            assert acc == backend.zero()


def test_find_irreducible():
    poly = find_irreducible(3, 2)
    assert len(poly) == 3 and poly[-1] == 1
    g = GaloisField(3, 2, poly)
    assert g.cardinality == 9


def test_quotient_examples():
    r = ax.modular(9)
    q, proj = ax.quotient_ring(r, [0, 3, 6])
    assert q.cardinality == 3
    check_ring_axioms(q)
    assert proj(0) == q.zero()
    # modular-isomorphic to Z/3: nonzero coset generates additively
    assert q.characteristic == 3

    r6 = ax.modular(6)
    with pytest.raises(NotAnIdealError):
        ax.quotient_ring(r6, [0, 2])               # 2+2=4 escapes
    with pytest.raises(NotAnIdealError) as info:
        ax.quotient_ring(r6, [3])
    assert info.value.witness == (0,)              # every witness is a tuple

    q1, proj1 = ax.quotient_ring(r6, [0])
    assert q1.cardinality == 6
    check_ring_axioms(q1)
    for x in r6.elements():
        for y in r6.elements():
            assert proj1(r6.add(x, y)) == q1.add(proj1(x), proj1(y))
            assert proj1(r6.mul(x, y)) == q1.mul(proj1(x), proj1(y))


def test_ideal_witness_is_least_pair_in_canonical_order():
    # {0,3,11} in Z/16: (3,3) is the least pair whose sum, 6, escapes
    with pytest.raises(NotAnIdealError,
                       match=r"not closed under addition at \(3,3\)$") as info:
        ax.quotient_ring(ax.modular(16), [0, 3, 11])
    assert info.value.witness == (3, 3)
    rng = random.Random(32)
    for dsl in ("zmod:16", "zmod:24", "zmod:36", "mat:2:zmod:2",
                "polyquo:2:t^4", "prod:(zmod:2,zmod:8)"):
        r = ax.parse_ring(dsl)
        elems = list(r.elements())

        def least(ideal):
            for op, lefts, rights in ((r.add, ideal, ideal), (r.mul, elems, ideal),
                                      (r.mul, ideal, elems)):
                bad = [(a, b) for a in lefts for b in rights
                       if op(a, b) not in ideal]
                if bad:
                    return min(bad, key=lambda p: (r.sort_key(p[0]),
                                                   r.sort_key(p[1])))
            return None

        for _ in range(40):
            ideal = {r.zero(), *rng.sample(elems[1:], rng.randrange(1, 6))}
            pair = least(ideal)
            if pair is None:
                ax.quotient_ring(r, ideal)
                continue
            with pytest.raises(NotAnIdealError) as info:
                ax.quotient_ring(r, ideal)
            assert info.value.witness == pair, (dsl, sorted(ideal))


def test_quotient_projection_homomorphism_exhaustive():
    r = ax.parse_ring("polyquo:2:t^2")             # F_2[t]/t^2
    ideal = _elems(r, "0", "t")                    # (t)
    q, proj = ax.quotient_ring(r, ideal)
    assert q.cardinality == 2
    check_ring_axioms(q)
    for x in r.elements():
        for y in r.elements():
            assert proj(r.add(x, y)) == q.add(proj(x), proj(y))
            assert proj(r.mul(x, y)) == q.mul(proj(x), proj(y))


def test_quotient_infinite_rejected():
    with pytest.raises(InfiniteRingError):
        ax.quotient_ring(ax.parse_ring("int"), [0])


def test_table_file_round_trip(tmp_path):
    r = ax.zero_multiplication_ring(4)
    path = tmp_path / "ring.tbl"
    lines = ["4"]
    lines += [" ".join(str(v) for v in row) for row in r.add_table]
    lines += [" ".join(str(v) for v in row) for row in r.mul_table]
    path.write_text("\n".join(lines) + "\n")
    loaded = parse_ring(f"table:@{path}")
    assert loaded.cardinality == 4
    assert loaded.add_table == r.add_table
    assert loaded == r


def test_table_descriptor_examples():
    f2 = TableRing([[0, 1], [1, 0]], [[0, 0], [0, 1]])
    assert f2.descriptor == "table:2:00010100:00000001"
    # above 256 elements each entry takes two bytes, most significant first
    n = 257
    big = TableRing([[(i + j) % n for j in range(n)] for i in range(n)],
                    [[0] * n for _ in range(n)])
    add_hex = big.descriptor.split(":")[2]
    assert len(add_hex) == 4 * n * n and add_hex[4 * (n - 1):4 * n] == "0100"
    assert parse_ring(big.descriptor) == big
    assert len(str(big)) <= 64 and repr(big).startswith(f"<Ring {big} ")


def test_malformed_table_descriptors():
    for bad in ("table:2:0001010:00000001",          # odd length
                "table:2:000101zz:00000001",         # not hex
                "table:2:00010100:0000000100",       # too long
                "table:2:00010100",                  # no mul table
                "table:0::",                         # no elements
                "table:99999999999999999999:00:00",  # no such table
                "table:2:00010100:00000001:00"):
        with pytest.raises(ParseError):
            parse_ring(bad)
    with pytest.raises(RingConstructionError, match="entries must be indices"):
        parse_ring("table:2:00010102:00000001")      # entry 2 >= n
    # F_2^2 with e1·e1 = e2, e2·e1 = e1: distributive, not associative
    with pytest.raises(RingConstructionError, match="multiplication not associative"):
        parse_ring("table:4:00010203010003020203000103020100:"
                   "00000000000200020001000100030003")


def test_subring_table():
    r = ax.modular(8)
    handle, embed, restrict = ax.subring_table(r, [0, 2, 4, 6])
    assert handle.cardinality == 4
    check_ring_axioms(handle)
    assert embed(restrict(4)) == 4
    assert handle.add(restrict(2), restrict(6)) == restrict(0)


def test_distinct_table_rings_compare_unequal():
    # same size, different tables: the descriptors must tell them apart
    r = ax.parse_ring("prod:(zmod:4,zmod:2)")
    a, _, _ = ax.subring_table(r, _elems(r, "(0,0)", "(2,0)"))   # zero product
    b, _, _ = ax.subring_table(r, _elems(r, "(0,0)", "(0,1)"))   # (0,1)^2 = (0,1)
    assert a.mul_table != b.mul_table
    assert a != b and a.descriptor != b.descriptor
    assert ax.subring_table(r, _elems(r, "(0,0)", "(2,0)"))[0] == a
    q1, _ = ax.quotient_ring(r, _elems(r, "(0,0)", "(0,1)"))     # Z/4
    q2, _ = ax.quotient_ring(r, _elems(r, "(0,0)", "(2,0)"))     # Z/2 x Z/2
    assert q1.cardinality == q2.cardinality == 4
    assert q1 != q2 and q1.descriptor != q2.descriptor
    for x, y in ((a, b), (q1, q2)):
        one_x, one_y = ax.FiniteSet(x, {1}), ax.FiniteSet(y, {1})
        assert one_x != one_y
        with pytest.raises(CrossRingError):
            ax.sumset(one_x, one_y)
    # a and b differ only in multiplication, and a product or matrix ring
    # over each multiplies by its own table
    assert a.add_table == b.add_table
    for t, one_one in ((a, 0), (b, 1)):
        prod = parse_ring(f"prod:({t.descriptor},zmod:2)")
        mat = parse_ring(f"mat:2:{t.descriptor}")
        ones, unit = prod.parse("(1,1)"), mat.parse("[[1,0],[0,0]]")
        assert prod.render(prod.mul(ones, ones)) == f"({one_one},1)"
        assert mat.render(mat.mul(unit, unit)) == f"[[{one_one},0],[0,0]]"


def _exhaustive_table_check(add, mul):
    """Reference for ``rings._check_tables``: index 0 is the additive
    zero, and every axiom holds on every pair and triple, O(n^3)."""
    n = range(len(add))
    for i in n:
        if add[0][i] != i or add[i][0] != i:
            return "zero"
        if 0 not in add[i]:
            return "inverse"
    for i in n:
        for j in n:
            if add[i][j] != add[j][i]:
                return "commutative"
            for k in n:
                if (add[add[i][j]][k] != add[i][add[j][k]]
                        or mul[mul[i][j]][k] != mul[i][mul[j][k]]
                        or mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]
                        or mul[add[i][j]][k] != add[mul[i][k]][mul[j][k]]):
                    return f"fails at ({i},{j},{k})"
    return None


def _index_tables(ring):
    assert ring.index_of(ring.zero()) == 0
    pool = list(ring.elements())
    add = [[ring.index_of(ring.add(a, b)) for b in pool] for a in pool]
    mul = [[ring.index_of(ring.mul(a, b)) for b in pool] for a in pool]
    return add, mul


def _bilinear_over_f2(k, rng):
    # F_2^k with a random bilinear product: distributive, often not
    # associative
    basis = [[rng.getrandbits(k) for _ in range(k)] for _ in range(k)]

    def mul(x, y):
        out = 0
        for a in range(k):
            for b in range(k):
                if x >> a & y >> b & 1:
                    out ^= basis[a][b]
        return out

    n = 1 << k
    return ([[i ^ j for j in range(n)] for i in range(n)],
            [[mul(i, j) for j in range(n)] for i in range(n)])


def _carry_tables():
    # F_2^3 whose addition xors and carries into bit 2 for the pairs of
    # low parts that ``bits`` selects: a group exactly when the carry is
    # a cocycle; with generators 1, 2, ... some fail only away from 1
    pairs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    for bits in range(1 << len(pairs)):
        carry = {p: bits >> i & 1 for i, p in enumerate(pairs)}
        add = [[x ^ y ^ carry.get(tuple(sorted((x & 3, y & 3))), 0) << 2
                for y in range(8)] for x in range(8)]
        yield add, [[0] * 8 for _ in range(8)]


def _one_sided_tables():
    # xy = (x odd)·q(y) on F_2^3, q additive along 1 but not along 2
    # and 4: right distributive, left distributive only along 1
    add = [[i ^ j for j in range(8)] for i in range(8)]
    for q4, q6 in ((0, 2), (2, 0), (2, 2)):
        q = [0, 0, 0, 0, q4, q4, q6, q6]
        mul = [[(i & 1) * q[j] for j in range(8)] for i in range(8)]
        yield add, mul
        yield add, [list(r) for r in zip(*mul)]


def test_table_check_matches_exhaustive_oracle():
    laws = {
        "addition not associative":
            lambda a, m, i, j, k: a[a[i][j]][k] != a[i][a[j][k]],
        "multiplication not associative":
            lambda a, m, i, j, k: m[m[i][j]][k] != m[i][m[j][k]],
        "left distributivity fails":
            lambda a, m, i, j, k: m[i][a[j][k]] != a[m[i][j]][m[i][k]],
        "right distributivity fails":
            lambda a, m, i, j, k: m[a[i][j]][k] != a[m[i][k]][m[j][k]],
    }
    rings = [ax.modular(n) for n in range(2, 10)] + [
        ax.parse_ring("gf:2^2:t^2+t+1"), ax.parse_ring("prod:(zmod:2,zmod:2)"),
        ax.parse_ring("prod:(zmod:2,zmod:3)"), ax.parse_ring("polyquo:2:t^3"),
        ax.zero_multiplication_ring(8), ax.parse_ring("mat:1:zmod:2")]
    tables = [_index_tables(r) for r in rings] + [([[0]], [[0]])]
    rng = random.Random(3)

    def corrupted():
        for trial in range(1500):
            if trial % 5 == 0:
                add, mul = _bilinear_over_f2(rng.randrange(1, 4), rng)
            else:
                add, mul = rng.choice(tables)
                add, mul = [list(r) for r in add], [list(r) for r in mul]
            n = len(add)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if rng.random() < 0.3:
                    add[i][j] = add[j][i] = v      # keeps + commutative
                else:
                    mul[i][j] = v
            yield add, mul

    verdicts = set()
    for add, mul in itertools.chain(
            corrupted(), _carry_tables(), _one_sided_tables()):
        why = _check_tables(add, mul)
        expect = _exhaustive_table_check(add, mul)
        assert (why is None) == (expect is None), (add, mul, why, expect)
        verdicts.add(why is None)
        if why is not None and why.count(",") == 2:
            law, args = why.split(" at ")
            i, j, k = map(int, args.strip("()").split(","))
            assert laws[law](add, mul, i, j, k), why
    assert verdicts == {True, False}


TABULATED = ["gf:5^2:t^2+2", "polyquo:5:t^3", "mat:2:zmod:3",
             "mat:2:polyquo:2:t^2", "prod:(gf:2^2:t^2+t+1,zmod:4)"]
ABOVE_LIMIT = ["gf:7^3:t^3+t^2+1", "mat:2:zmod:5", "mat:3:zmod:2",
               "polyquo:2:t^10+t^7+1"]


def _elems(ring, *texts):
    return [ring.parse(t) for t in texts]


def _check_against_raw(ring, pairs):
    # oracle: each op against the raw tuple arithmetic through decode and
    # encode, and each operand's text parsing back to it
    codes = {a: ring._decode(a) for pair in pairs for a in pair}
    encode = ring._encode
    for a, code in codes.items():
        assert ring.parse(ring.render(a)) == a
        assert ring.neg(a) == encode(ring._neg_raw(code)), (ring, a)
    for a, b in pairs:
        assert ring.add(a, b) == encode(ring._add_raw(codes[a], codes[b])), (ring, a, b)
        assert ring.mul(a, b) == encode(ring._mul_raw(codes[a], codes[b])), (ring, a, b)


def test_index_tables_match_raw_arithmetic():
    # the tables built from additive generators, on every pair; the small
    # backends above included
    rings = {r.descriptor: r for r in all_backends() if isinstance(r, _TupleRing)}
    rings.update((d, parse_ring(d)) for d in TABULATED)
    assert rings["mat:2:polyquo:2:t^2"].cardinality == TABLE_LIMIT
    for ring in rings.values():
        assert ring.add_table is not None, ring
        assert [ring._encode(ring._decode(i)) for i in ring.elements()] \
            == list(ring.elements())
        _check_against_raw(ring, list(itertools.product(ring.elements(), repeat=2)))
    # text and index order as before the tables
    g = parse_ring("gf:5^2:t^2+2")
    assert g.render(7) == "t+2" and g._decode(7) == (1, 2)
    assert g.parse("3t^2") == 4 and g.parse("t") == 5
    m = parse_ring("mat:2:polyquo:2:t^2")
    assert m.render(255) == "[[t+1,t+1],[t+1,t+1]]" and m.parse("[[0,0],[0,1]]") == 1
    p = parse_ring("prod:(gf:2^2:t^2+t+1,zmod:4)")
    assert p.parse("(t,3)") == 11 and p._decode(11) == (2, 3)


def _split_top(text):
    # the comma-separated items of text at bracket depth 0
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    return items + [text[start:]]


def _text_oracle(ring):
    """(read, add, neg, mul, write) for a tuple ring: its arithmetic on
    values read off rendered elements, never through its index codec.
    polyquo and gf compute in poly:p and reduce by the descriptor's
    modulus by long division; mat loops over base-ring operations on the
    entries; prod runs each factor's operations on the coordinates."""
    if ring.descriptor.startswith(("polyquo:", "gf:")):
        lazy = parse_ring(f"poly:{ring.characteristic}")
        m, p = lazy.parse(ring.descriptor.rsplit(":", 1)[1]), ring.characteristic

        def reduce(c):
            c = list(c)
            while len(c) >= len(m):                 # m is monic
                lead, shift = c[-1], len(c) - len(m)
                for i, v in enumerate(m):
                    c[shift + i] = (c[shift + i] - lead * v) % p
                while c and c[-1] == 0:
                    c.pop()
            return tuple(c)

        return (lazy.parse, lambda u, v: reduce(lazy.add(u, v)), lazy.neg,
                lambda u, v: reduce(lazy.mul(u, v)), lazy.render)
    if ring.descriptor.startswith("mat:"):
        _mat, d, inner = ring.descriptor.split(":", 2)
        b, d = parse_ring(inner), int(d)

        def mul(x, y):
            out = []
            for i in range(d):
                for j in range(d):
                    acc = b.zero()
                    for k in range(d):
                        acc = b.add(acc, b.mul(x[i * d + k], y[k * d + j]))
                    out.append(acc)
            return tuple(out)

        def write(x):
            rows = (",".join(map(b.render, x[i:i + d])) for i in range(0, d * d, d))
            return "[" + ",".join(f"[{r}]" for r in rows) + "]"

        return (lambda t: tuple(b.parse(e) for row in _split_top(t[1:-1])
                                for e in _split_top(row[1:-1])),
                lambda x, y: tuple(map(b.add, x, y)), lambda x: tuple(map(b.neg, x)),
                mul, write)
    fs = [parse_ring(f) for f in _split_top(ring.descriptor[6:-1])]
    return (lambda t: tuple(f.parse(c) for f, c in zip(fs, _split_top(t[1:-1]))),
            lambda x, y: tuple(f.add(u, v) for f, u, v in zip(fs, x, y)),
            lambda x: tuple(f.neg(u) for f, u in zip(fs, x)),
            lambda x, y: tuple(f.mul(u, v) for f, u, v in zip(fs, x, y)),
            lambda x: "(" + ",".join(f.render(u) for f, u in zip(fs, x)) + ")")


def test_tuple_ring_ops_match_text_oracles():
    # every pair of the tabulated rings and the small backends, 200
    # seeded pairs above the table limit: the rendered result of each op
    # against the text oracle's
    rng = random.Random(29)
    rings = [r for r in all_backends() if isinstance(r, _TupleRing)]
    rings += map(parse_ring, TABULATED + ABOVE_LIMIT)
    for ring in rings:
        read, add, neg, mul, write = _text_oracle(ring)
        n = ring.cardinality
        pairs = (itertools.product(range(n), repeat=2) if n <= TABLE_LIMIT else
                 [(rng.randrange(n), rng.randrange(n)) for _ in range(200)])
        texts, wrote = {}, {}

        def text(i):
            if i not in texts:
                texts[i] = ring.render(i)
            return texts[i]

        def oracle(v):
            if v not in wrote:
                wrote[v] = write(v)
            return wrote[v]

        values = {}
        for a, b in pairs:
            for i in (a, b):
                if i not in values:
                    values[i] = read(text(i))
                    assert text(ring.neg(i)) == oracle(neg(values[i])), (ring, i)
            u, v = values[a], values[b]
            assert text(ring.add(a, b)) == oracle(add(u, v)), (ring, a, b)
            assert text(ring.mul(a, b)) == oracle(mul(u, v)), (ring, a, b)
        if n <= TABLE_LIMIT:                # distinct elements read apart
            assert len(set(values.values())) == n, ring


def test_rings_above_table_limit_run_raw():
    rng = random.Random(5)
    for dsl in ABOVE_LIMIT:
        ring = parse_ring(dsl)
        n = ring.cardinality
        assert n > TABLE_LIMIT and ring.add_table is None
        _check_against_raw(ring, [(rng.randrange(n), rng.randrange(n))
                                  for _ in range(200)])
        with pytest.raises(ValueError, match=f"^{n} is not an element of "):
            ring.add(0, n)
    ring = parse_ring("mat:2:zmod:5")
    a, b, ab = _elems(ring, "[[1,2],[3,4]]", "[[0,1],[1,0]]", "[[2,1],[4,3]]")
    assert ring.mul(a, b) == ab


def test_tabulated_ring_rejects_non_canonical_operands():
    # table ops on tuple rings and table rings alike
    for ring in (parse_ring("gf:5^2:t^2+2"), parse_ring("mat:2:zmod:3"),
                 ax.zero_multiplication_ring(8)):
        one = ring.element_at(1)
        for bad in [-1, ring.cardinality, (5,), "a"]:
            for call in (lambda: ring.add(one, bad), lambda: ring.add(bad, one),
                         lambda: ring.mul(one, bad), lambda: ring.mul(bad, one),
                         lambda: ring.neg(bad), lambda: ring.index_of(bad)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"{bad!r} is not an element of {ring}"


def test_class_level_wrappers_see_every_tabulated_op(monkeypatch):
    # the benchmark tracer counts ring ops by wrapping the add/neg/mul
    # each Ring subclass defines; a tabulated ring must not bypass them
    before = parse_ring("gf:5^2:t^2+2")
    seen = []

    def classes(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from classes(sub)

    def counting(method, op):
        def counted(*args):
            seen.append(op)
            return method(*args)
        return counted

    for cls in classes(Ring):
        for op in ("add", "neg", "mul"):
            if op in vars(cls):
                monkeypatch.setattr(cls, op, counting(vars(cls)[op], op))
    after = parse_ring("mat:2:zmod:3")
    for ring in (before, after):
        assert ring.add_table is not None
        del seen[:]
        pool = list(ring.elements())[:9]
        for a in pool:
            ring.neg(a)
            for b in pool:
                ring.add(a, b)
                ring.mul(a, b)
        assert seen.count("add") == seen.count("mul") == 81
        assert seen.count("neg") == 9
    del seen[:]
    x = ax.FiniteSet(before, list(before.elements())[:6])
    ax.sumset(x, x)
    assert seen.count("add") == 36
