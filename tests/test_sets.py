"""Set arithmetic: sumsets, growth, closure, ideals, representations."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apxring as ax
from apxring.errors import BudgetExceededError, CrossRingError, InfiniteRingError
from apxring.sets import (
    FiniteSet,
    _bits,
    _sumset_mask,
    _sumset_sparse,
    intersect,
    is_symmetric,
    union,
)
from corpus import corpus_sets

Z = ax.parse_ring("int")


def iset(lo, hi):
    return FiniteSet(Z, range(lo, hi + 1))


def test_sumset_examples():
    zero = FiniteSet(Z, [0])
    assert ax.sumset(zero, zero) == zero
    m7 = ax.modular(7)
    a = ax.parse_set(m7, "{1,6}")
    assert ax.sumset(a, a) == ax.parse_set(m7, "{2,0,5}")
    assert ax.sumset(iset(-1, 1), iset(-1, 1)) == iset(-2, 2)


def test_prodset_examples():
    a = iset(-3, 3)
    got = ax.prodset(a, a)
    # oracle: exhaustive 49-pair enumeration
    expect = {x * y for x in range(-3, 4) for y in range(-3, 4)}
    assert got.elements() == frozenset(expect)
    assert sorted(expect) == [-9, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 9]

    zero = FiniteSet(Z, [0])
    assert ax.prodset(zero, a) == zero
    m5 = ax.modular(5)
    signs = ax.parse_set(m5, "{1,4}")
    assert ax.prodset(signs, signs) == signs


def test_negate_symmetrize_translate():
    m5 = ax.modular(5)
    assert ax.negate(ax.parse_set(m5, "{1,2}")) == ax.parse_set(m5, "{4,3}")
    one = FiniteSet(Z, [1])
    s = union(one, ax.negate(one))
    assert s == FiniteSet(Z, [1, -1]) and not is_symmetric(one)   # no forced 0
    assert is_symmetric(s)
    assert ax.sumset(ax.parse_set(m5, "{3}"), ax.parse_set(m5, "{0,1}")) == \
        ax.parse_set(m5, "{3,4}")


def test_growth_step_examples():
    m2 = ax.modular(2)
    s = ax.parse_set(m2, "{0,1}")
    assert ax.growth_step(s) == s
    x = iset(-1, 1)
    got = ax.growth_step(x)
    # oracle: all 81 quadruples xy + u + v
    expect = {a * b + u + v
              for a in (-1, 0, 1) for b in (-1, 0, 1)
              for u in (-1, 0, 1) for v in (-1, 0, 1)}
    assert got.elements() == frozenset(expect) == frozenset(range(-3, 4))


def test_growth_sequence_sizes():
    prof = ax.growth_sequence(iset(-1, 1), 2)
    assert [e.size for e in prof.entries] == [3, 7, 31]
    # oracle for X_2 from X_1 by enumeration
    x1 = sorted(prof.entries[1].xset.elements())
    expect = {a * b + u + v for a in x1 for b in x1 for u in x1 for v in x1}
    assert prof.entries[2].xset.elements() == frozenset(expect)
    assert frozenset(expect) == frozenset(range(-15, 16))


def test_growth_sequence_subring_constant():
    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    prof = ax.growth_sequence(s, 3, with_covering=True)
    for e in prof.entries:
        assert e.xset == s
        assert e.covering == 1


def test_growth_sequence_empty():
    prof = ax.growth_sequence(FiniteSet(Z, []), 3)
    assert all(e.size == 0 for e in prof.entries)


def test_growth_monotone_with_zero():
    rng = random.Random(3)
    for _ in range(20):
        p = rng.choice((7, 11, 13))
        ring = ax.modular(p)
        elems = {0}
        for _ in range(rng.randrange(1, 3)):
            v = rng.randrange(1, p)
            elems |= {v, p - v}
        x = FiniteSet(ring, elems)
        assert is_symmetric(x) and ring.zero() in x
        assert x <= ax.growth_step(x)


def test_power_products():
    m2 = ax.modular(2)
    x = ax.parse_set(m2, "{0,1}")
    xm, upto = ax.power_products(x, 3)
    assert xm == x and upto == x
    two = FiniteSet(Z, [2])
    assert ax.power_products(two, 4)[0] == FiniteSet(Z, [16])
    m7 = ax.modular(7)
    signs = ax.parse_set(m7, "{1,6}")
    assert ax.power_products(signs, 2)[0] == ax.parse_set(m7, "{1,6}")


def test_iterated_sum_and_msum():
    assert ax.iterated_sum(FiniteSet(Z, [0]), 4) == FiniteSet(Z, [0])
    assert ax.iterated_sum(iset(-1, 1), 4) == iset(-4, 4)
    m2 = ax.modular(2)
    assert ax.msum(ax.parse_set(m2, "{0,1}"), 2) == ax.parse_set(m2, "{0,1}")
    # oracle: 2(X^{<=2}) for X = {-1,0,1} by enumeration
    x = (-1, 0, 1)
    upto = {a * b for a in x for b in x} | set(x)
    expect = {u + v for u in upto for v in upto}
    assert ax.msum(iset(-1, 1), 2).elements() == frozenset(expect)
    assert frozenset(expect) == frozenset(range(-2, 3))


def test_closure_examples():
    m6 = ax.modular(6)
    assert len(ax.closure(ax.parse_set(m6, "{1}"))) == 6
    m8 = ax.modular(8)
    assert ax.closure(ax.parse_set(m8, "{2}")) == ax.parse_set(m8, "{0,2,4,6}")
    assert ax.closure(FiniteSet(m8, [])) == FiniteSet(m8, [])
    # finite rings only: no closure is computed over Z or F_p[t]
    for ring, gens in ((Z, []), (Z, [0]), (Z, [1, 2]),
                       (ax.parse_ring("poly:3"), [(1,)])):
        with pytest.raises(InfiniteRingError):
            ax.closure(FiniteSet(ring, gens))


def test_closure_matches_brute_force_small():
    # smallest closed superset by exhaustive subset enumeration, |R| <= 16
    for ring, gens in ((ax.modular(8), (2,)), (ax.modular(12), (4, 6)),
                       (ax.modular(16), (4,)), (ax.modular(9), (3,))):
        got = ax.closure(FiniteSet(ring, gens))
        best = None
        others = [e for e in ring.elements() if e not in gens]
        for mask in range(1 << len(others)):
            sub = set(gens) | {others[i] for i in range(len(others))
                               if mask >> i & 1}
            closed = all(ring.add(a, b) in sub and ring.mul(a, b) in sub
                         for a in sub for b in sub) and \
                all(ring.neg(a) in sub for a in sub)
            if closed and (best is None or len(sub) < len(best)):
                best = sub
        assert got.elements() == frozenset(best)


def closure_reference(gens):
    """Smallest superset of gens closed under +, -, *, as the pair-by-pair
    fixpoint: each round negates the values the last round found and
    combines them with every known value by a + b, a·b and b·a."""
    ring = gens.ring
    known = set(gens.elements())
    frontier = list(known)
    while frontier:
        old, new = list(known), []
        for a in frontier:
            made = [ring.neg(a)]
            for b in old:
                made += (ring.add(a, b), ring.mul(a, b), ring.mul(b, a))
            for v in made:
                if v not in known:
                    known.add(v)
                    new.append(v)
        frontier = new
    return FiniteSet(ring, known)


def test_closure_matches_reference_fixpoint():
    # every finite corpus ring: zmod, polyquo (polyquo:2:t^3 among them),
    # gf, the noncommutative mat:2:zmod:2, prod and the zeromul table;
    # random generator sets, most without 0 and not symmetric
    rng = random.Random(20)
    rings = {x.ring.descriptor: (x.ring, x) for _, x in corpus_sets()
             if x.ring.is_finite}
    assert {"mat:2:zmod:2", "prod:(zmod:2,zmod:3)", "polyquo:2:t^3"} <= rings.keys()
    assert any(d.startswith("table:") for d in rings)
    shapes = set()
    for ring, x in rings.values():
        elems = sorted(ring.elements(), key=ring.sort_key)
        draws = [x, FiniteSet(ring, [])]
        draws += (FiniteSet(ring, rng.sample(elems, rng.randrange(1, 4)))
                  for _ in range(12))
        for gens in draws:
            shapes.add((ring.zero() in gens, is_symmetric(gens)))
            assert ax.closure(gens) == closure_reference(gens), (
                ring.descriptor, gens)
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_closure_cost():
    # {0, ±1} fills Z/10007: about |R| sums, not |R|^2 pairs
    ring = ax.modular(10007)
    start = time.perf_counter()
    r = ax.closure(FiniteSet(ring, [0, 1, 10006]))
    assert time.perf_counter() - start < 1.0
    assert len(r) == 10007


def test_budget_exceeded_typed():
    m199 = ax.modular(199)
    gf9 = ax.parse_ring("gf:3^2:t^2+1")
    f5t = ax.parse_ring("poly:5")
    cases = [(iset(-300, 300), 100),                      # Z offset-mask kernel
             (FiniteSet(m199, range(100)), 10),           # Z/nZ offset mask and fold
             (FiniteSet(gf9, gf9.elements()), 5),         # hashed pairs
             (FiniteSet(f5t, (f5t.parse(f"t^{i}") for i in range(10))), 20)]  # hashed pairs
    for a, cap in cases:
        with pytest.raises(BudgetExceededError) as exc:
            ax.sumset(a, a, cap=cap)
        assert len(exc.value.partial) > cap
        assert len(ax.sumset(a, a, cap=len(exc.value.partial))) == len(exc.value.partial)


def test_mask_kernel_agrees_with_pairs():
    rng = random.Random(11)

    def check(a, b, n=None):
        pairs = FiniteSet(a.ring, _sumset_sparse(a, b))
        out = _sumset_mask(a, b, n)
        if out is not None:
            out = FiniteSet(a.ring, out)
            assert out == pairs
        assert ax.sumset(a, b) == pairs
        return out

    rings = [ax.modular(n) for n in (2, 6, 7, 12, 31)]
    took = 0
    for trial in range(1000):
        ring = rings[trial % len(rings)]
        a, b = (FiniteSet(ring, rng.sample(range(ring.n), rng.randrange(1, ring.n + 1)))
                for _ in range(2))
        took += check(a, b, ring.n) is not None
    assert 0 < took < 1000               # both sides of the span rule
    for n in (7, 31, 1000003):           # fold edges: 2n - 2 folds to n - 2, 0 stays 0
        ring = ax.modular(n)
        top, low = (FiniteSet(ring, r) for r in (range(max(n - 12, 0), n), range(min(n, 12))))
        assert n - 2 in check(top, top, n) and 0 in check(low, low, n)
        assert len(check(top, low, n)) == min(n, 23)   # residues wrap round to 0
    m10007 = ax.modular(10007)
    for k in (128, 256, 512):
        a, b = (FiniteSet(m10007, rng.sample(range(10007), k)) for _ in range(2))
        assert check(a, b, 10007) is not None
    m1000003 = ax.modular(1000003)
    assert check(FiniteSet(m1000003, [0, 500000]), FiniteSet(m1000003, [0, 1]), 1000003) is None
    took = 0
    for _ in range(300):
        lo, width = rng.randrange(-500, 500), rng.choice((1, 10, 30, 60))
        a = FiniteSet(Z, rng.sample(range(lo, lo + width), rng.randrange(1, width + 1)))
        b = FiniteSet(Z, rng.sample(range(-30, 30), rng.randrange(2, 40)))
        took += check(a, b) is not None
    assert 0 < took < 300


def test_poly_kernels_agree_with_pairs():
    rng = random.Random(14)
    for p in (2, 3, 5, 31, 101):
        ring = ax.parse_ring(f"poly:{p}")

        def poly():
            d = rng.randrange(-1, 9)             # degree, -1 for zero
            if d < 0:
                return ()
            return (*(rng.randrange(p) for _ in range(d)), rng.randrange(1, p))

        def check(a, b):
            assert ax.sumset(a, b) == FiniteSet(ring, _sumset_sparse(a, b))
            assert ax.prodset(a, b) == FiniteSet(
                ring, {ring.mul(x, y) for x in a for y in b})

        for _ in range(30):
            a, b = (FiniteSet(ring, [poly() for _ in range(rng.randrange(10))])
                    for _ in range(2))
            check(a, b)
        # widest digits: sums of p − 1 and nine products of p − 1 in one
        # coefficient; operands of different lengths; zero; empty sets
        top = FiniteSet(ring, [(p - 1,) * 9, (p - 1,)])
        check(top, top)
        check(top, FiniteSet(ring, [(), (1,), (0, 0, p - 1)]))
        check(FiniteSet(ring, [()]), top)
        check(FiniteSet(ring, []), top)


def test_poly_kernels_reject_non_canonical_elements():
    # the packed-digit kernels never see such an element: the set that
    # would hold it is refused when it is built
    ring = ax.parse_ring("poly:5")
    for bad in ((5,), (1, 0), (2, -1), (0,)):
        with pytest.raises(ValueError, match=re.escape(
                f"{bad!r} is not an element of poly:5")):
            FiniteSet(ring, [(3,), bad])


def test_finite_set_checks_elements_on_every_backend():
    gf = "gf:5^2:t^2+2"
    rejected = {
        "zmod:7": [19, -1],
        "poly:5": [(5,), (1, 0), (2, -1), (0,)],
        gf: [(5,), (1, 0), 3],
        "polyquo:5:t^4": [(1, 0), (5,), (0, 0, 0, 0, 1)],     # above the table limit
        "mat:2:zmod:3": [((0, 3), (0, 0))],
        "mat:2:zmod:5": [((0, 5), (0, 0)), ((0, 1),)],         # above the table limit
        "prod:(zmod:2,zmod:3)": [(1, 3), (1,)],
        "int": [0.5, "a", 2.0],
    }
    rings = [ax.parse_ring(d) for d in rejected] + [ax.zero_multiplication_ring(8)]
    rejected[rings[-1].descriptor] = [9, -1]
    for ring in rings:
        if ring.is_finite:
            good = list(ring.elements())
        else:
            texts = ["0", "1", "-1", "12", "-10"]
            if ring.descriptor == "poly:5":
                texts += ["t^3+4t", "-t^2+10", "5t^2+t"]
            good = [ring.parse(s) for s in texts]
        x = FiniteSet(ring, good)
        assert x.elements() == set(good)
        shifted = FiniteSet(ring, (ring.add(good[-1], v) for v in good))
        assert shifted == ax.sumset(FiniteSet(ring, good[-1:]), x)
        for bad in rejected[ring.descriptor]:
            message = re.escape(f"{bad!r} is not an element of {ring}")
            with pytest.raises(ValueError, match=message):
                FiniteSet(ring, [ring.zero(), bad])
    # a bad element that is neither the least nor the greatest is named too
    for ring, elems in ((ax.modular(7), [0, 2.5, 6]), (rings[-1], [0, "a", 7]),
                        (ax.parse_ring("int"), [-3, 0.5, 4])):
        with pytest.raises(ValueError, match=re.escape(
                f"{elems[1]!r} is not an element of {ring}")):
            FiniteSet(ring, elems)


def _growth_step_by_pairs(x):
    ring = x.ring
    prods = {ring.mul(a, b) for a in x for b in x}
    sums = {ring.add(a, b) for a in x for b in x}
    return FiniteSet(ring, {ring.add(u, v) for u in prods for v in sums})


def test_linear_polys_growth():
    x = ax.gallery("linear-polys", p=3).xset
    entries = ax.growth_sequence(x, 2).entries
    assert [e.size for e in entries] == [9, 27, 243]
    assert entries[1].xset == _growth_step_by_pairs(x)
    assert entries[2].xset == _growth_step_by_pairs(entries[1].xset)
    x = ax.gallery("linear-polys", p=5).xset
    assert [e.size for e in ax.growth_sequence(x, 2).entries] == [25, 125, 3125]


def _naive_bits(m):
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def test_bits_matches_lowest_bit_loop():
    rng = random.Random(17)
    assert list(_bits(0)) == []
    assert list(_bits((1 << 2 ** 17) - 1)) == list(range(2 ** 17))
    widths = [1, 2, 63, 64, 65] + [rng.randrange(66, 2 ** 17) for _ in range(4)] + [2 ** 17]
    for w in widths:
        m = rng.getrandbits(w)
        if w > 2 ** 14:                  # one bit in eight: the reference loop is quadratic
            m &= rng.getrandbits(w) & rng.getrandbits(w)
        m |= 1 << (w - 1)
        assert list(_bits(m)) == _naive_bits(m)


def test_int_kernel_span_fallback():
    wide = FiniteSet(Z, [0, 10 ** 18])
    assert _sumset_mask(FiniteSet(Z, [0, 1]), wide) is None
    assert ax.sumset(wide, FiniteSet(Z, [0, 1])).elements() == {0, 1, 10 ** 18, 10 ** 18 + 1}
    assert _sumset_mask(iset(-3, 3), iset(-3, 3)) is not None
    # |a| = 1, |b| = 64: the kernel runs up to a span of 4·64 - 129 and
    # gives way one above it
    b = FiniteSet(Z, [*range(63), 4 * 64 - 129])
    assert _sumset_mask(FiniteSet(Z, [5]), b) is not None
    b = FiniteSet(Z, [*range(63), 4 * 64 - 128])
    assert _sumset_mask(FiniteSet(Z, [5]), b) is None
    assert ax.sumset(FiniteSet(Z, [5]), b) == FiniteSet(Z, (5 + v for v in b))
    assert ax.sumset(FiniteSet(Z, []), iset(0, 2)) == FiniteSet(Z, [])


def test_zmod_sumset_rejects_non_canonical_elements():
    m7 = ax.modular(7)
    with pytest.raises(ValueError, match="19 is not an element of zmod:7"):
        ax.sumset(FiniteSet(m7, range(20)), FiniteSet(m7, range(20)))
    # the set is refused when it is built, whichever kernel would run
    with pytest.raises(ValueError, match="-1 is not an element of zmod:7"):
        ax.sumset(FiniteSet(m7, [0, -1]), FiniteSet(m7, [3]))


_int_sets = st.one_of(
    st.sets(st.integers(-40, 40), min_size=1, max_size=12),       # offset mask
    st.sets(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6),  # span fallback
)


@settings(max_examples=300)
@given(_int_sets, _int_sets, st.booleans())
def test_int_kernel_matches_pairs(xs, ys, same):
    a = FiniteSet(Z, xs)
    b = a if same else FiniteSet(Z, ys)
    assert ax.sumset(a, b) == FiniteSet(Z, _sumset_sparse(a, b))
    assert ax.sumset(a, FiniteSet(Z, [7])) == FiniteSet(Z, (7 + v for v in xs))


@settings(max_examples=200)
@given(st.sets(st.integers(-30, 30), min_size=1, max_size=8),
       st.sets(st.integers(-30, 30), min_size=1, max_size=8))
def test_sumset_commutative(xs, ys):
    a, b = FiniteSet(Z, xs), FiniteSet(Z, ys)
    assert ax.sumset(a, b) == ax.sumset(b, a)
    assert ax.prodset(a, b) == ax.prodset(b, a)


@settings(max_examples=100)
@given(st.sets(st.integers(-20, 20), min_size=1, max_size=6),
       st.sets(st.integers(-20, 20), min_size=1, max_size=6),
       st.sets(st.integers(-20, 20), min_size=1, max_size=6))
def test_sumset_associative(xs, ys, zs):
    a, b, c = FiniteSet(Z, xs), FiniteSet(Z, ys), FiniteSet(Z, zs)
    assert ax.sumset(ax.sumset(a, b), c) == ax.sumset(a, ax.sumset(b, c))


def test_set_literal_and_file(tmp_path):
    m7 = ax.modular(7)
    assert ax.parse_set(m7, "{}") == FiniteSet(m7, [])
    path = tmp_path / "set.txt"
    path.write_text("# window\n1\n6\n0\n")
    from apxring.sets import load_set_file
    assert load_set_file(m7, str(path)) == ax.parse_set(m7, "{0,1,6}")
    g = ax.parse_ring("gf:3^2:t^2+1")
    s = ax.parse_set(g, "{t, 2t+1, 0}")
    assert len(s) == 3
    assert s.ring.descriptor == "gf:3^2:t^2+1"


def test_union_intersect_cross_ring():
    a = ax.parse_set(ax.modular(5), "{1}")
    b = ax.parse_set(ax.modular(7), "{1}")
    with pytest.raises(CrossRingError):
        union(a, b)
    with pytest.raises(CrossRingError):
        intersect(a, b)
