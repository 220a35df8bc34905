"""Classification checks: core set, dichotomy, subring search, model checks."""

import pytest

import apxring as ax
from apxring.classify import (
    core_set_bruteforce,
    find_zero_divisor,
    subrings_within,
)
from apxring.errors import (
    InvalidParamsError,
    NotAnIdealError,
    ZeroDivisorError,
)
from apxring.cover import cover_brute_force
from apxring.sets import FiniteSet, closure, difference_set

Z = ax.parse_ring("int")


def test_core_set_examples():
    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    assert ax.core_set(s) == s
    assert ax.core_set(FiniteSet(Z, [0])) == FiniteSet(Z, [0])
    m7 = ax.modular(7)
    x = ax.parse_set(m7, "{0,1,6}")
    core = ax.core_set(x)
    assert len(core) == 7                     # whole field, by enumeration
    assert core == core_set_bruteforce(x)


def test_core_set_two_orders_agree():
    import random
    rng = random.Random(2)
    for _ in range(15):
        p = rng.choice((5, 7, 11))
        ring = ax.modular(p)
        elems = {0}
        for _ in range(rng.randrange(1, 3)):
            v = rng.randrange(1, p)
            elems |= {v, p - v}
        x = FiniteSet(ring, elems)
        if len(x) > 12:
            continue
        assert ax.core_set(x) == core_set_bruteforce(x)
    x = FiniteSet(Z, (-1, 0, 1))
    assert ax.core_set(x) == core_set_bruteforce(x) == FiniteSet(Z, range(-8, 9))


def test_is_subring_examples():
    assert ax.is_subring(FiniteSet(Z, [0])) == (True, None)
    m8 = ax.modular(8)
    assert ax.is_subring(ax.parse_set(m8, "{0,2,4,6}")) == (True, None)
    ok, pair = ax.is_subring(FiniteSet(Z, [0, 1]))
    assert not ok and pair == ("add", 1, 1)
    ok, pair = ax.is_subring(FiniteSet(Z, []))
    assert not ok


def _first_zero_divisor(ring):
    """The oracle: the first pair of nonzero elements, in index order,
    whose product is 0, by scanning every pair of the ring."""
    zero = ring.zero()
    return next(((a, b) for a in ring.elements() if a != zero
                 for b in ring.elements() if b != zero and ring.mul(a, b) == zero),
                None)


# rings of every finite backend, with and without zero divisors, and
# products and 1 x 1 matrix rings that embed another ring's answer
_ZD_RINGS = ("zmod:2", "zmod:7", "zmod:6", "zmod:8", "zmod:9", "zmod:221",
             "polyquo:3:t^2", "polyquo:3:t^2+1", "polyquo:2:t^6", "polyquo:2:t^7",
             "polyquo:5:t+2", "polyquo:2:t^4+1", "gf:3^2:t^2+1", "gf:2^4:t^4+t+1",
             "mat:1:zmod:6", "mat:1:zmod:5", "mat:2:zmod:2", "mat:2:polyquo:2:t^2",
             "prod:(zmod:5)", "prod:(zmod:4)", "prod:(zmod:2,zmod:2,zmod:2,zmod:2)",
             "prod:(zmod:2,gf:3^2:t^2+1)", "table:2:00010100:00000001")


def test_zero_divisor_oracle():
    # the structural answer has a pair exactly when the scan finds one,
    # and every pair it gives is of nonzero elements with product 0, on
    # the table above and every corpus ring of at most 256 elements
    from corpus import corpus_sets
    rings = {ax.parse_ring(dsl) for dsl in _ZD_RINGS}
    rings |= {x.ring for _name, x in corpus_sets()
              if x.ring.is_finite and x.ring.cardinality <= 256}
    rings.add(ax.zero_multiplication_ring(8))
    assert len(rings) >= 30
    for ring in rings:
        pair = find_zero_divisor(ring)
        assert (pair is None) == (_first_zero_divisor(ring) is None), ring
        if pair is not None:
            ring.check_elements(frozenset(pair))
            assert ring.zero() not in pair and ring.mul(*pair) == ring.zero(), ring
    # where the scan's first pair is the structural one
    assert find_zero_divisor(ax.modular(6)) == (2, 3)
    pq = ax.parse_ring("polyquo:3:t^2")
    assert find_zero_divisor(pq) == (pq.parse("t"), pq.parse("t"))
    for infinite in ("int", "poly:3"):
        assert find_zero_divisor(ax.parse_ring(infinite)) is None


def test_zero_divisors_of_large_rings_are_found(capsys):
    # zmod:16850989 = 4099 · 4111 and mat:2:zmod:67, where E₁₂ · E₁₂ = 0,
    # have zero divisors too rare for random pairs to meet; a field of
    # 1,024 elements named through polyquo has none
    from apxring.cli import main
    for dsl, literal in (("zmod:16850989", "{0,1,16850988}"),
                         ("mat:2:zmod:67", "{[[0,0],[0,0]]}")):
        ring = ax.parse_ring(dsl)
        with pytest.raises(ZeroDivisorError):
            ax.nzd_classify(ax.parse_set(ring, literal))
    assert find_zero_divisor(ax.modular(16850989)) == (4099, 4111)
    assert find_zero_divisor(ax.parse_ring("polyquo:2:t^10+t^7+1")) is None
    assert main(["classify", "--ring", "zmod:16850989", "--set",
                 "{0,1,16850988}", "--json"]) == 2
    assert "4099·4111" in capsys.readouterr().err


def test_nzd_classify_whole_field():
    g = ax.parse_ring("gf:3^2:t^2+1")
    x = FiniteSet(g, g.elements())
    rep = ax.nzd_classify(x)
    assert rep.core == x and rep.core_is_subring
    assert rep.commensurability_to_x == 1
    assert rep.k == 1 and rep.k11_bound == 1


def test_nzd_classify_zero_set_small():
    rep = ax.nzd_classify(FiniteSet(Z, [0]))
    assert (rep.k, len(rep.core), rep.core_is_subring) == (1, 1, True)
    assert (rep.commensurability_to_x, rep.k11_bound) == (1, 1)


def test_nzd_classify_window_structured():
    m7 = ax.modular(7)
    rep = ax.nzd_classify(ax.parse_set(m7, "{0,1,6}"))
    assert rep.k == 2
    assert len(rep.core) == 7 and rep.core_is_subring
    assert rep.commensurability_to_x <= 3 <= 2 ** 11 == rep.k11_bound


def test_empty_set_is_no_counterexample(capsys):
    # the empty set is no approximate subring: classify exits 2, and the
    # report it once wrote, a "counterexample-candidate" with no
    # commensurability witnesses, fails on its retired schemas and, at
    # today's, on its certificate
    from apxring.cli import main
    from apxring.serialize import verify_payload
    m7 = ax.modular(7)
    with pytest.raises(InvalidParamsError, match="approximate subring is nonempty"):
        ax.nzd_classify(FiniteSet(m7, []))
    assert main(["classify", "--ring", "zmod:7", "--set", "{}", "--json"]) == 2
    assert "an approximate subring is nonempty" in capsys.readouterr().err
    cert = {"schema_version": "4", "kind": "approx_certificate", "ring": "zmod:7",
            "x": [], "k": 0, "f": [], "mode": "ring", "minimal": True,
            "stats": {}, "lower_bound": {"weights": {}, "denominator": 1}}
    payload = {"schema_version": "4", "kind": "classification_report",
               "ring": "zmod:7", "x": [], "k": 0, "core_size": 0,
               "core_is_subring": False, "commensurability_to_x": None,
               "k11_bound": 0, "certificate": cert}
    assert verify_payload(payload) == (False, ["x is empty"])
    old = dict(payload, schema_version="3", verdict="counterexample-candidate",
               small_threshold=0)
    assert verify_payload(old) == (
        False, ["unknown classification_report schema_version '3'"])
    old = dict(old, schema_version="2", hypothesis="ambient",
               certificate=dict(cert, schema_version="3", derivations={}))
    assert verify_payload(old) == (
        False, ["unknown classification_report schema_version '2'"])


def test_nzd_classify_rejects_zero_divisors():
    m6 = ax.modular(6)
    with pytest.raises(ZeroDivisorError):
        ax.nzd_classify(ax.parse_set(m6, "{0,1,5}"))


def test_structured_verdict_bound_invariant():
    # in a prime field the core is {0} or the whole field, a subring
    # either way, and the dichotomy's conclusion holds: its
    # commensurability with X is within K^11
    import random
    rng = random.Random(4)
    for _ in range(20):
        p = rng.choice((5, 7, 11, 13))
        ring = ax.modular(p)
        elems = {0}
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(1, p)
            elems |= {v, p - v}
        rep = ax.nzd_classify(FiniteSet(ring, elems))
        assert rep.core_is_subring and len(rep.core) in (1, p)
        assert rep.commensurability_to_x <= rep.k11_bound == rep.k ** 11


def test_pos_char_search_examples():
    item = ax.gallery("linear-quo", p=3, d=3)
    res = ax.pos_char_search(item.xset)
    assert res.found is not None and len(res.found) == 27
    assert res.commensurability == 3
    assert res.strategy_used == "generated"

    m8 = ax.modular(8)
    s = ax.parse_set(m8, "{0,2,4,6}")
    res = ax.pos_char_search(s)
    assert res.found == s and res.commensurability == 1

    m9 = ax.modular(9)
    sub = ax.parse_set(m9, "{0,3,6}")
    res = ax.pos_char_search(sub)
    assert res.found == sub


def test_pos_char_search_seeded_strategy():
    # 0 ∉ X: the seed X ∩ 2X ∩ core is a proper part of X and its
    # closure beats ⟨X⟩, which is the whole ring
    m12 = ax.modular(12)
    res = ax.pos_char_search(ax.parse_set(m12, "{3,4,8,9}"))
    assert res.strategy_used == "seeded:2X"
    assert res.found == ax.parse_set(m12, "{0,4,8}")
    assert res.commensurability == 3
    m27 = ax.modular(27)
    res = ax.pos_char_search(ax.parse_set(m27, "{1,9,18,26}"))
    assert res.strategy_used == "seeded:2X"
    assert res.found == ax.parse_set(m27, "{0,9,18}")


def test_pos_char_search_exhaustive_flag():
    m5 = ax.modular(5)
    x = ax.parse_set(m5, "{0,1,4}")
    res = ax.pos_char_search(x)
    assert res.exhaustive                     # core is the 5-element field
    assert res.found is not None
    assert res.found.elements() <= res.core.elements()
    assert ax.is_subring(res.found) == (True, None)
    payload = res.to_json()
    assert payload["schema_version"] == "4" and "containment_ok" not in payload
    assert payload["certificate"]["k"] == ax.approx_constant(x, "ring").k


def _closed_subsets_bruteforce(ring, box):
    """Every subset of ``box`` holding 0 and closed under + and −."""
    zero = ring.zero()
    others = sorted(box.elements() - {zero}, key=ring.sort_key)
    add = {(a, b): ring.add(a, b) for a in box.elements() for b in box.elements()}
    out = set()
    for mask in range(1 << len(others)):
        s = {zero}.union(e for i, e in enumerate(others) if mask >> i & 1)
        if all(add[a, b] in s for a in s for b in s) and \
                all(ring.neg(a) in s for a in s):
            out.add(frozenset(s))
    return out


def _subgroups_by_cosets(ring, box):
    """Every additive subgroup inside ``box``, each H grown from {0} by
    one g per coset H + g through the cosets H + k·g, k = 1, 2, ...
    until k·g ∈ H, and dropped once a coset leaves the box."""
    zero = ring.zero()
    if zero not in box:
        return set()
    seen = {frozenset((zero,))}
    queue = list(seen)
    while queue:
        h = queue.pop()
        tried = set(h)
        for g in box.elements() - h:
            if g in tried:
                continue
            tried.update(ring.add(e, g) for e in h)
            grown, kg = set(h), g
            while kg not in h:
                coset = {ring.add(e, kg) for e in h}
                if not coset <= box.elements():
                    break
                grown |= coset
                kg = ring.add(kg, g)
            else:
                if frozenset(grown) not in seen:
                    seen.add(frozenset(grown))
                    queue.append(frozenset(grown))
    return seen


def _closed_under_products(ring, groups):
    return {h for h in groups if all(ring.mul(a, b) in h for a in h for b in h)}


def _subrings(box):
    got = [sub.elements() for sub in subrings_within(box)]
    assert len(got) == len(set(got))          # each subring once
    return set(got)


def test_subrings_within_match_brute_force():
    boxes = []
    for dsl in ("zmod:8", "zmod:12", "polyquo:2:t^3", "prod:(zmod:2,zmod:4)",
                "mat:2:zmod:2"):
        ring = ax.parse_ring(dsl)
        boxes.append((ring, FiniteSet(ring, ring.elements())))
    # the core of a poschar row: 8 of the 16 matrices
    mat = ax.parse_ring("mat:2:zmod:2")
    x = ax.parse_set(mat, "{[[0,0],[0,0]], [[1,0],[1,0]], [[1,0],[1,1]]}")
    boxes.append((mat, ax.core_set(x)))
    assert len(boxes[-1][1]) == 8
    # a box that is no subgroup (2 + 3 = 5 escapes), so cosets leave it
    m12 = ax.modular(12)
    boxes.append((m12, ax.parse_set(m12, "{0,2,3,4,6,8,9}")))
    for ring, box in boxes:
        assert _subrings(box) == _closed_under_products(
            ring, _closed_subsets_bruteforce(ring, box)), ring
    assert {len(h) for h in _subrings(boxes[-1][1])} == {1, 2, 3, 4}
    assert list(subrings_within(ax.parse_set(m12, "{1,11}"))) == []


@pytest.mark.parametrize("dsl", ["zmod:16", "zmod:32", "polyquo:2:t^4",
                                 "polyquo:2:t^5", "polyquo:3:t^3",
                                 "polyquo:5:t^2", "gf:2^4:t^4+t+1", "mat:2:zmod:2",
                                 "prod:(zmod:2,zmod:2,zmod:2,zmod:2)"])
def test_subrings_within_whole_ring_match_coset_listing(dsl):
    # every subring of a ring of at most 32 elements: the additive
    # subgroups grown by cosets, filtered by products
    ring = ax.parse_ring(dsl)
    box = FiniteSet(ring, ring.elements())
    assert len(box) <= 32
    assert _subrings(box) == _closed_under_products(
        ring, _subgroups_by_cosets(ring, box))


def test_finite_model_check_example():
    m9 = ax.modular(9)
    x = ax.parse_set(m9, "{0,1,8}")
    ideal = ax.parse_set(m9, "{0,3,6}")
    rep = ax.finite_model_check(x, ideal)
    assert rep.all_pass
    assert rep.m == 1 and rep.quotient_size == 3
    assert rep.max_genericity == 3
    assert rep.neighborhood_size == 1          # only the coset I ⊆ X_1
    assert rep.comm_constants == (3, 1) and rep.comm_exact
    payload = rep.to_json()
    assert payload["schema_version"] == "2" and payload["comm_exact"]
    assert not {"subsets_tested", "subsets_exhaustive"} & set(payload)


# (ring, X, ideal): some X without 0, quotients of 2 to 14 cosets
# (zmod:28 by {0,14}: 2^13 neighborhoods U ∋ 0)
_MODEL_ORACLE_CASES = [
    ("zmod:8", "{0,1,7}", "{0,4}"),
    ("zmod:8", "{0,1,7}", "{0,2,4,6}"),
    ("zmod:8", "{1,2,6,7}", "{0,4}"),
    ("zmod:9", "{0,1,8}", "{0,3,6}"),
    ("zmod:12", "{0,1,11}", "{0,6}"),
    ("zmod:12", "{0,1,11}", "{0,4,8}"),
    ("zmod:12", "{3,4,8,9}", "{0,6}"),
    ("zmod:27", "{0,1,26}", "{0,9,18}"),
    ("zmod:27", "{0,3,24}", "{0,9,18}"),
    ("zmod:27", "{1,9,18,26}", "{0,9,18}"),
    ("polyquo:2:t^3", "{0,1,t}", "{0,t^2}"),
    ("polyquo:2:t^3", "{1,t}", "{0,t,t^2,t^2+t}"),
    ("prod:(zmod:2,zmod:4)", "{(0,0),(1,1),(1,3)}", "{(0,0),(0,2)}"),
    ("prod:(zmod:2,zmod:4)", "{(0,0),(0,1),(1,1),(0,3),(1,3)}",
     "{(0,0),(1,0)}"),
    ("zmod:28", "{0,1,2,26,27}", "{0,14}"),
]


def test_max_genericity_matches_every_neighborhood():
    # oracle: the largest brute-force cover number of X by f⁻¹[U] over
    # every U ∋ 0, with cosets of I in ⟨X⟩ formed by plain addition
    for dsl, x_text, ideal_text in _MODEL_ORACLE_CASES:
        ring = ax.parse_ring(dsl)
        x = ax.parse_set(ring, x_text)
        ideal = ax.parse_set(ring, ideal_text)
        gen = closure(x)
        cosets = {frozenset(ring.add(g, i) for i in ideal) for g in gen}
        zero = frozenset(ideal.elements())
        others = sorted(cosets - {zero}, key=lambda c: sorted(c))
        most = 0
        for mask in range(1 << len(others)):
            pre = set(zero).union(*(c for i, c in enumerate(others)
                                    if mask >> i & 1))
            pre = FiniteSet(ring, pre)
            most = max(most, cover_brute_force(x, pre,
                                               difference_set(x, pre))[0])
        rep = ax.finite_model_check(x, ideal)
        assert rep.quotient_size == len(cosets), (dsl, x_text)
        assert rep.max_genericity == most, (dsl, x_text, ideal_text)
    assert len(cosets) == 14 and most == 5


def test_finite_model_check_trivial_ideal():
    m9 = ax.modular(9)
    x = ax.parse_set(m9, "{0,1,8}")
    rep = ax.finite_model_check(x, ax.parse_set(m9, "{0}"))
    assert rep.all_pass and rep.quotient_size == 9


def test_finite_model_check_full_ideal():
    m9 = ax.modular(9)
    x = ax.parse_set(m9, "{0,1,8}")
    whole = FiniteSet(m9, m9.elements())
    rep = ax.finite_model_check(x, whole)
    assert rep.all_pass and rep.quotient_size == 1


def test_finite_model_check_rejects_non_ideal():
    m9 = ax.modular(9)
    x = ax.parse_set(m9, "{0,1,8}")
    with pytest.raises(NotAnIdealError):
        ax.finite_model_check(x, ax.parse_set(m9, "{0,3}"))


def test_finite_model_check_witness_in_ring():
    # {0,1} is an additive subgroup of F_4 but t·1 = t escapes it
    f4 = ax.parse_ring("gf:2^2:t^2+t+1")
    x = FiniteSet(f4, f4.elements())
    ideal = ax.parse_set(f4, "{0,1}")
    with pytest.raises(NotAnIdealError) as info:
        ax.finite_model_check(x, ideal)
    witness = info.value.witness
    assert len(witness) == 2 and set(witness) <= set(f4.elements())
    assert f4.mul(*witness) not in ideal


def test_finite_model_check_witness_outside_subring():
    # <{0,2,6}> = {0,2,4,6} in Z/8 misses 1 and 7; 1 is the least
    z8 = ax.modular(8)
    with pytest.raises(NotAnIdealError) as info:
        ax.finite_model_check(ax.parse_set(z8, "{0,2,6}"),
                              ax.parse_set(z8, "{0,1,7}"))
    assert info.value.witness == (1,)


def test_verify_payload_rechecks_core_and_subring():
    from apxring.serialize import verify_payload
    rep = ax.nzd_classify(ax.parse_set(ax.modular(7), "{0,1,6}"))
    payload = rep.to_json()
    assert verify_payload(payload)[0]
    # X is the nested certificate's; the top-level x is re-derived
    assert verify_payload(dict(payload, x=payload["x"][:-1])) == (
        False, ["classification_report re-derives another x"])
    payload["core_size"] -= 1
    ok, details = verify_payload(payload)
    assert not ok and "core_size" in details[0]

    res = ax.pos_char_search(ax.parse_set(ax.modular(8), "{0,2,4,6}"))
    payload = res.to_json()
    assert verify_payload(payload)[0]
    # schema 1 carried containment_ok, and schemas 1-3 nested no
    # certificate: both are retired
    assert verify_payload(dict(payload, schema_version="1",
                               containment_ok=True)) == (
        False, ["unknown subring_search schema_version '1'"])
    # the nested certificate verifies, and must be one of X: the X of
    # another, {0}, has the core {0}, which the subring {0, 2, 4, 6} leaves
    cert = dict(payload["certificate"], f=payload["certificate"]["f"][:-1])
    ok, details = verify_payload(dict(payload, certificate=cert))
    assert not ok and details == ["|F| != k"]
    other = ax.approx_constant(ax.parse_set(ax.modular(8), "{0}"), "ring")
    assert verify_payload(dict(payload, certificate=other.to_json())) == (
        False, ["subring outside the core 4X + X·4X"])
    assert verify_payload(dict(payload, x=payload["x"][:-1])) == (
        False, ["subring_search re-derives another x"])
    no_cert = {k: v for k, v in payload.items() if k != "certificate"}
    with pytest.raises(KeyError, match="certificate"):
        verify_payload(no_cert)
    payload["subring"] = ["0", "2", "4"]       # 2 + 4 = 6 escapes
    ok, details = verify_payload(payload)
    assert not ok and details == ["not a subring: add 2 4"]


def test_reports_need_a_ring_mode_certificate_of_x():
    # a report rests on X's own ring-mode certificate: another X's raises
    # ValueError, and a payload that nests a group-mode certificate of X
    # does not rebuild
    from apxring.classify import classification_report
    from apxring.serialize import verify_payload
    ring = ax.modular(7)
    x = ax.parse_set(ring, "{0,1,6}")
    core = ax.core_set(x)
    other = ax.approx_constant(ax.parse_set(ring, "{0,2,5}"), "ring")
    with pytest.raises(ValueError, match="^cert must be a ring-mode certificate of x$"):
        classification_report(x, other, core, ax.commensurability(core, x))
    group = ax.approx_constant(x, "group").to_json()
    assert verify_payload(group)[0]
    for payload, name, slot in (
            (ax.nzd_classify(x), "classification_report", "cert"),
            (ax.pos_char_search(x), "subring_search", "certificate")):
        assert verify_payload(dict(payload.to_json(), certificate=group)) == (
            False, [f"{name} does not rebuild: {slot} must be a ring-mode "
                    "certificate of x"])


def test_verify_payload_rechecks_exhaustive_subring_search():
    # over Z/4 the subrings {0, 2} and Z/4 have constant 2 against
    # X = {0, ±1}; {0} is a subring inside the core with constant 3
    from apxring.classify import SubringSearchResult
    from apxring.serialize import verify_payload
    x = ax.parse_set(ax.modular(4), "{0,1,3}")
    res = ax.pos_char_search(x)
    assert res.exhaustive and res.commensurability == 2
    assert verify_payload(res.to_json())[0]
    worse_s = ax.parse_set(ax.modular(4), "{0}")
    assert ax.is_subring(worse_s) == (True, None)
    payload = SubringSearchResult(x, res.certificate, res.core, worse_s,
                                  "generated", ax.commensurability(worse_s, x)).to_json()
    assert payload["commensurability"] == 3
    ok, details = verify_payload(payload)
    assert not ok and details[0].startswith("exhaustive pass: a subring of")
    assert details[0].endswith("inside the core has constant 2"), details
    # no subring at all: {0} alone lies inside every core
    payload = SubringSearchResult(x, res.certificate, res.core, None,
                                  "none").to_json()
    ok, details = verify_payload(payload)
    assert not ok and "exhaustive pass" in details[0]


def test_verify_payload_rechecks_the_hypothesis():
    # the one hypothesis is the paper's: the ring has no zero divisors.
    # nzd_classify checks it before any solve; a report built by hand for
    # zmod:8 fails on the ring.  Schemas 1 and 2 named the hypothesis;
    # they are retired, and schema 4 names none
    from apxring.classify import classification_report
    from apxring.serialize import verify_payload
    x = ax.parse_set(ax.modular(8), "{0,1,7}")
    cert = ax.approx_constant(x, "ring")
    core = ax.core_set(x)
    comm = ax.commensurability(core, x)
    with pytest.raises(ZeroDivisorError, match="^zero divisors 2·4 = 0$"):
        ax.nzd_classify(x)
    # asymmetric, so a solve would raise NotSymmetricError first
    with pytest.raises(ZeroDivisorError):
        ax.nzd_classify(ax.parse_set(ax.modular(8), "{0,1}"))
    payload = classification_report(x, cert, core, comm).to_json()
    assert payload["core_is_subring"]
    assert verify_payload(payload) == (False, ["zero divisors 2·4 = 0"])
    assert verify_payload(dict(payload, schema_version="2", hypothesis="ambient")) == (
        False, ["unknown classification_report schema_version '2'"])
    x = ax.parse_set(ax.modular(7), "{0,1,6}")
    payload = ax.nzd_classify(x).to_json()
    assert payload["schema_version"] == "4" and "hypothesis" not in payload
    assert verify_payload(payload)[0]
    assert verify_payload(dict(payload, hypothesis="ambient")) == (
        False, ["schema 4 names no hypothesis"])
    for version in ("1", "2", "3"):
        for hypothesis in ("ambient", "core-witnessed", "ambient/known-domain"):
            assert verify_payload(dict(payload, schema_version=version,
                                       hypothesis=hypothesis)) == (
                False, [f"unknown classification_report schema_version '{version}'"])


def test_cli_classify_checks_the_ring_only(capsys):
    # Z/10403 = Z/101 × Z/103: classify exits 2 naming the pair, and the
    # options that once chose another hypothesis or a size threshold are gone
    from apxring.cli import main
    args = ["classify", "--ring", "zmod:10403", "--set", "{0,1,10402}"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "precondition failed: zero divisors 101·103 = 0\n")
    for option in (["--hypothesis", "ambient"], ["--small-threshold", "0"]):
        with pytest.raises(SystemExit) as info:
            main([*args, *option])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_gallery_y_set():
    item = ax.gallery("y-set", p=3)
    assert len(item.xset) == 7
    ring = item.ring
    t = ring.parse("t")
    expected = {ring.zero()}
    for c in range(3):
        cc = ring.parse(str(c))
        expected.add(ring.add(t, cc))
        expected.add(ring.add(ring.neg(t), cc))
    assert item.xset.elements() == frozenset(expected)
    with pytest.raises(InvalidParamsError):
        ax.gallery("y-set", p=4)


def test_gallery_linear_polys():
    item = ax.gallery("linear-polys", p=2)
    ring = item.ring
    assert item.xset.elements() == frozenset(
        {(), (1,), (0, 1), (1, 1)})
    assert ring.descriptor == "poly:2"


def test_gallery_interval():
    item = ax.gallery("interval", n=1)
    assert item.xset == FiniteSet(Z, (-1, 0, 1))
    with pytest.raises(InvalidParamsError):
        ax.gallery("interval", n=0)
    with pytest.raises(InvalidParamsError):
        ax.gallery("no-such-item")


def test_y_set_constants_strictly_increase():
    ks = []
    for p in (3, 5):
        item = ax.gallery("y-set", p=p)
        cert = ax.approx_constant(item.xset, "ring", exact=True)
        assert cert.minimal
        ks.append(cert.k)
    assert ks == sorted(ks) and ks[0] < ks[1]
    assert ks[0] == 2                          # pinned oracle regression value


def test_reduction_mod_n_maps_core_and_bounds_constant():
    # φ: Z -> Z/nZ is a ring map, so φ(4X + X·4X) = 4φX + φX·4φX; and
    # φF + φX covers φX·φX ∪ (φX + φX) when F + X covers X·X ∪ (X + X),
    # so a minimal K(φX) is at most K(X)
    z = ax.parse_ring("int")
    for bits in range(16):
        half = [v for v in range(1, 5) if bits >> (v - 1) & 1]
        x = FiniteSet(z, [0, *half, *(-v for v in half)])
        core, k = ax.core_set(x), ax.approx_constant(x).k
        for n in (5, 6, 7, 8, 9, 12):
            zn = ax.modular(n)

            def phi(s):
                return FiniteSet(zn, (v % n for v in s.elements()))

            assert ax.core_set(phi(x)) == phi(core), (sorted(x), n)
            cert = ax.approx_constant(phi(x))
            if cert.minimal:
                assert cert.k <= k, (sorted(x), n)


def _first_coordinate(text):
    # "(a,b,..)" -> "a", at bracket depth 0
    depth = 0
    for i, ch in enumerate(text[1:-1], 1):
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and depth == 0:
            return text[1:i]
    return text[1:-1]


def _symmetric_sets(ring, rng, count):
    # {0} and one or two ± pairs of random elements, in a fixed order
    pool = (list(ring.elements()) if ring.is_finite
            else [ring.parse(f"{a}t+{b}") for a in range(ring.p) for b in range(ring.p)]
            + [ring.parse("t^2"), ring.parse("t^2+1")])
    out = set()
    for _ in range(20 * count):             # bounded: a tiny ring has few
        picks = rng.sample(pool, rng.randint(1, 2))
        out.add(frozenset({ring.zero(), *picks, *map(ring.neg, picks)}))
        if len(out) == count:
            break
    return [FiniteSet(ring, s) for s in sorted(out, key=lambda s: sorted(
        map(ring.sort_key, s)))]


def test_text_named_maps_map_core_and_bound_constant():
    # ROADMAP item 13, second slice: a ring map φ sends the core
    # 4X + X·4X onto 4φX + φX·4φX, and a cover F + X of X·X ∪ (X + X) to
    # one of φX·φX ∪ (φX + φX), so K(φX) <= K(X) when both are minimal.
    # It sends a subring S to a subring φS and covers of S by X and of X
    # by S to covers of the images, so commensurability(φS, φX) <=
    # commensurability(S, X) when all four covers are optimal; S is ⟨X⟩
    # in a finite ring and the constants F_p in F_p[t].
    # Each φ is named by text, φ(x) = target.parse(source.render(x)):
    # reduction mod d | n, entrywise on matrices, mod h | g in F_p[t]/(g),
    # F_p[t] onto F_p[t]/(g), and a product onto its first factor
    import random
    rng = random.Random(13)
    maps = [("zmod:12", "zmod:4"), ("zmod:12", "zmod:6"), ("zmod:12", "zmod:3"),
            ("zmod:8", "zmod:2"), ("mat:2:zmod:4", "mat:2:zmod:2"),
            ("polyquo:2:t^3", "polyquo:2:t^2"), ("polyquo:2:t^4+t^2", "polyquo:2:t^2+1"),
            ("polyquo:3:t^3", "polyquo:3:t"), ("poly:3", "gf:3^2:t^2+1"),
            ("poly:2", "gf:2^2:t^2+t+1"), ("prod:(zmod:4,zmod:3)", "zmod:4"),
            ("prod:(gf:2^2:t^2+t+1,zmod:2)", "gf:2^2:t^2+t+1")]
    checked = comm_checked = total = 0
    for src_dsl, dst_dsl in maps:
        src, dst = ax.parse_ring(src_dsl), ax.parse_ring(dst_dsl)
        text = _first_coordinate if src_dsl.startswith("prod:") else str
        constants = None if src.is_finite else ax.parse_set(
            src, "{" + ",".join(map(str, range(src.p))) + "}")

        def one(v):
            return dst.parse(text(src.render(v)))

        def phi(s):
            return FiniteSet(dst, map(one, s.elements()))

        sets = _symmetric_sets(src, rng, 8)
        elems = set().union(*(x.elements() for x in sets))
        for a in elems:                     # φ is a ring map on what it meets
            for b in elems:
                assert one(src.add(a, b)) == dst.add(one(a), one(b))
                assert one(src.mul(a, b)) == dst.mul(one(a), one(b))
        for x in sets:
            total += 1
            where = (src_dsl, dst_dsl, x.render())
            assert ax.core_set(phi(x)) == phi(ax.core_set(x)), where
            cert, image = ax.approx_constant(x), ax.approx_constant(phi(x))
            if cert.minimal and image.minimal:
                assert image.k <= cert.k, where
                checked += 1
            s = ax.closure(x) if src.is_finite else constants
            assert ax.is_subring(s)[0] and ax.is_subring(phi(s))[0], where
            comm = ax.commensurability(s, x)
            image_comm = ax.commensurability(phi(s), phi(x))
            if all(w.optimal for c in (comm, image_comm)
                   for w in (c.witness_ab, c.witness_ba)):
                assert image_comm.constant <= comm.constant, where
                comm_checked += 1
    assert checked == comm_checked == total == 8 * len(maps)


def test_frobenius_preserves_constant_and_core():
    # x -> x^p is an automorphism of F_{p^k}: it maps the core onto the
    # core and certificates onto certificates both ways, so the
    # dichotomy's facts (ROADMAP item 16) agree on X and its image
    import random
    rng = random.Random(17)
    for dsl in ("gf:2^3:t^3+t+1", "gf:3^2:t^2+1", "gf:5^2:t^2+2", "gf:2^4:t^4+t+1"):
        ring = ax.parse_ring(dsl)

        def frob(v):
            out = v
            for _ in range(ring.characteristic - 1):
                out = ring.mul(out, v)
            return out

        assert sorted(map(frob, ring.elements())) == list(ring.elements())
        for x in _symmetric_sets(ring, rng, 8):
            fx = FiniteSet(ring, map(frob, x.elements()))
            core = ax.core_set(x)
            assert ax.core_set(fx) == FiniteSet(ring, map(frob, core.elements()))
            rep, image = ax.nzd_classify(x), ax.nzd_classify(fx)
            # K minimal and both covers optimal: the facts are exact, so
            # they must agree
            assert rep.certificate.minimal and image.certificate.minimal
            assert all(w.optimal for r in (rep, image)
                       for w in (r.comm_result.witness_ab, r.comm_result.witness_ba))
            facts = [(r.k, len(r.core), r.core_is_subring, r.commensurability_to_x)
                     for r in (rep, image)]
            assert facts[0] == facts[1], x.render()


def test_conjugation_preserves_constant_and_core():
    # ROADMAP item 13: v -> g·v·g⁻¹ with g = [[1,1],[0,1]] is an
    # automorphism of a matrix ring: it maps the core onto the core and
    # certificates onto certificates both ways, and on mat:2:zmod:2 it
    # keeps the subring search's constant (on mat:2:zmod:3 some searches
    # stall at the node limit, so their constants are not optimal)
    import random
    rng = random.Random(13)
    for dsl in ("mat:2:zmod:2", "mat:2:zmod:3"):
        ring = ax.parse_ring(dsl)
        g, one = ring.parse("[[1,1],[0,1]]"), ring.parse("[[1,0],[0,1]]")
        g_inv = next(h for h in ring.elements() if ring.mul(g, h) == one)

        def conj(v):
            return ring.mul(ring.mul(g, v), g_inv)

        assert sorted(map(conj, ring.elements())) == list(ring.elements())
        for x in _symmetric_sets(ring, rng, 8):
            cx = FiniteSet(ring, map(conj, x.elements()))
            core = ax.core_set(x)
            assert ax.core_set(cx) == FiniteSet(ring, map(conj, core.elements()))
            cert, image = ax.approx_constant(x), ax.approx_constant(cx)
            assert cert.minimal and image.minimal
            assert (image.k, len(ax.core_set(cx))) == (cert.k, len(core)), x.render()
            if dsl == "mat:2:zmod:2":
                assert ax.pos_char_search(cx).commensurability == \
                    ax.pos_char_search(x).commensurability, x.render()
