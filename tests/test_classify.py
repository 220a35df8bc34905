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
    assert find_zero_divisor(ax.parse_ring("polyquo:3:t^2")) == ((0, 1), (0, 1))
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
    assert rep.verdict == "structured"
    assert rep.core == x and rep.commensurability_to_x == 1
    assert rep.k == 1


def test_nzd_classify_zero_set_small():
    rep = ax.nzd_classify(FiniteSet(Z, [0]))
    assert rep.verdict == "small"


def test_nzd_classify_window_structured():
    m7 = ax.modular(7)
    rep = ax.nzd_classify(ax.parse_set(m7, "{0,1,6}"), small_threshold=0)
    assert rep.k == 2
    assert len(rep.core) == 7 and rep.core_is_subring
    assert rep.commensurability_to_x <= 3 <= 2 ** 11
    assert rep.verdict == "structured"


def test_empty_set_is_no_counterexample(capsys):
    # the empty set is no approximate subring: classify exits 2, and the
    # report it once wrote, a "counterexample-candidate" with no
    # commensurability witnesses, fails on its certificate
    from apxring.cli import main
    from apxring.serialize import verify_payload
    m7 = ax.modular(7)
    with pytest.raises(InvalidParamsError, match="approximate subring is nonempty"):
        ax.nzd_classify(FiniteSet(m7, []))
    assert main(["classify", "--ring", "zmod:7", "--set", "{}", "--json"]) == 2
    assert "an approximate subring is nonempty" in capsys.readouterr().err
    cert = {"schema_version": "3", "kind": "approx_certificate", "ring": "zmod:7",
            "x": [], "k": 0, "f": [], "mode": "ring", "minimal": True,
            "stats": {}, "lower_bound": {"weights": {}, "denominator": 1},
            "derivations": {}}
    payload = {"schema_version": "2", "kind": "classification_report",
               "ring": "zmod:7", "x": [], "k": 0, "core_size": 0,
               "core_is_subring": False, "commensurability_to_x": None,
               "k11_bound": 0, "verdict": "counterexample-candidate",
               "small_threshold": 0, "hypothesis": "ambient",
               "certificate": cert}
    assert verify_payload(payload) == (False, ["x is empty"])


def test_nzd_classify_rejects_zero_divisors():
    m6 = ax.modular(6)
    with pytest.raises(ZeroDivisorError):
        ax.nzd_classify(ax.parse_set(m6, "{0,1,5}"))


def test_nzd_weakened_hypothesis():
    # Z/6 has zero divisors, but the core of {0,2,4} is a copy of Z/3:
    # the weakened (core-local) check passes where the ambient one fails
    m6 = ax.modular(6)
    x = ax.parse_set(m6, "{0,2,4}")
    with pytest.raises(ZeroDivisorError):
        ax.nzd_classify(x)
    rep = ax.nzd_classify(x, hypothesis="core-witnessed")
    assert rep.core_is_subring
    # Z/8 with X = {0,4}: 4*4 = 0 inside the core, witnessed locally
    m8 = ax.modular(8)
    with pytest.raises(ZeroDivisorError):
        ax.nzd_classify(ax.parse_set(m8, "{0,4}"),
                        hypothesis="core-witnessed")


def test_structured_verdict_bound_invariant():
    import random
    rng = random.Random(4)
    for _ in range(20):
        p = rng.choice((5, 7, 11, 13))
        ring = ax.modular(p)
        elems = {0}
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(1, p)
            elems |= {v, p - v}
        rep = ax.nzd_classify(FiniteSet(ring, elems), small_threshold=1)
        if rep.verdict == "structured":
            assert rep.commensurability_to_x <= rep.k11_bound
        # prime fields: subring core means {0} or everything
        if rep.core_is_subring:
            assert len(rep.core) in (1, p)


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
    rep = ax.nzd_classify(ax.parse_set(ax.modular(7), "{0,1,6}"),
                          small_threshold=0)
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
    # schema 1 carried containment_ok, which the verifier never read
    assert verify_payload(dict(payload, schema_version="1",
                               containment_ok=True))[0]
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
    assert verify_payload(no_cert) == (
        False, ["no certificate of X (schema 4 nests one)"])
    payload["subring"] = ["0", "2", "4"]       # 2 + 4 = 6 escapes
    ok, details = verify_payload(payload)
    assert not ok and details == ["not a subring: add 2 4"]


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
    # a report built by hand for zmod:8, which has zero divisors, claims
    # either hypothesis; nzd_classify itself raises on both
    from apxring.classify import classification_report
    from apxring.serialize import verify_payload
    x = ax.parse_set(ax.modular(8), "{0,1,7}")
    cert = ax.approx_constant(x, "ring")
    core = ax.core_set(x)
    comm = ax.commensurability(core, x)
    for hypothesis, why in (("ambient", "zero divisors 2·4 = 0"),
                            ("core-witnessed", "zero divisor inside the core")):
        with pytest.raises(ZeroDivisorError):
            ax.nzd_classify(x, small_threshold=0, hypothesis=hypothesis)
        report = classification_report(x, cert, core, comm, 0, hypothesis)
        assert (report.verdict, report.core_is_subring) == ("structured", True)
        ok, details = verify_payload(report.to_json())
        assert not ok and why in details[0], details
    # schema 1 tagged the ambient hypothesis with how it was established;
    # such a report fails, on a ring without zero divisors too
    x = ax.parse_set(ax.modular(7), "{0,1,6}")
    payload = ax.nzd_classify(x, small_threshold=0).to_json()
    assert (payload["schema_version"], payload["hypothesis"]) == ("2", "ambient")
    assert verify_payload(payload)[0]
    ok, details = verify_payload(dict(payload, schema_version="1",
                                      hypothesis="ambient/known-domain"))
    assert not ok and details == ["hypothesis 'ambient/known-domain' fails: "
                                  "unknown hypothesis 'ambient/known-domain'"]


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
