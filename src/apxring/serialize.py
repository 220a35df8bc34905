"""Self-contained JSON payloads and from-scratch re-verification.

Every witness / certificate / report serializes with its ring DSL and
rendered elements, so ``verify_payload`` can rebuild the objects and
re-check them without any ambient state.  The re-checks are the
package's own checkers, not copies: ``cover.first_uncovered`` for cover
witnesses, ``ApproxCertificate.verify`` for certificates, and
``classify.core_set`` / ``classify.is_subring`` for reports.  A report's
constants are re-derived from its set, its certificate and its two
commensurability witnesses, whose targets and bases must be the core (or
subring) and X: K, K^11, whether the core is a subring, the
commensurability constant, the core size and, by ``nzd_classify``'s own
rule, the verdict; its no-zero-divisor hypothesis is checked again by
the classifier's own step.  A subring search's strategy must be a tag
``pos_char_search`` reports for its outcome, and its exhaustive flag
must match the recomputed core's size.  A sweep report's rows must
agree with their witnesses on every field they copy from them.  A Fact
2.1 report's certificate, row covers and msum cover each pass their own
verifier, and a gallery item must equal ``classify.gallery`` re-run on
its name and parameters.  It
returns (ok, details) and never raises on a merely *invalid* payload —
malformed ones do raise.
"""

from __future__ import annotations

import json

from .classify import (
    POS_CHAR_EXHAUSTIVE_LIMIT,
    _STRATEGY_TAGS,
    _core_is_subring,
    _hypothesis,
    _verdict,
    core_set,
    gallery,
    is_subring,
)
from .cover import ApproxCertificate, first_uncovered, lagrangian_floor
from .errors import ZeroDivisorError
from .rings import parse_ring
from .sets import FiniteSet


def _ring_and_set(payload, key):
    ring = parse_ring(payload["ring"])
    return ring, _parse_set(ring, payload[key])


def _parse_set(ring, texts):
    return FiniteSet(ring, (ring.parse(e) for e in texts))


def _minimality(payload, target, base, k):
    """(ok, note) for the payload's ``lower_bound``, re-evaluated in
    integers over the rows of target − base and summed over the
    components those rows form (``cover.lagrangian_floor``).  Malformed
    weights fail; a bound short of k only goes uncertified."""
    lb = payload.get("lower_bound")
    if lb is None:
        return True, "minimality not certified (no lower bound)"
    ring = target.ring
    d = lb["denominator"]
    weights = {ring.parse(e): w for e, w in lb["weights"].items()}
    if not all(type(v) is int and v >= 0 for v in (d, *weights.values())) \
            or d == 0:
        return False, "lower bound needs integer weights >= 0 over d > 0"
    if not weights.keys() <= target.elements():
        return False, "lower bound weights an element outside the target"
    floor = lagrangian_floor(target, base, weights, d)
    if floor >= k:
        return True, f"minimality certified: every cover needs {floor}"
    return True, f"minimality not certified (lower bound {floor} < {k})"


def _cover_witness(payload):
    """(ok, details, target, base, k) of a cover witness, k being its
    number of distinct translates."""
    ring, target = _ring_and_set(payload, "target")
    base = _parse_set(ring, payload["base"])
    translates = [ring.parse(e) for e in payload["translates"]]
    k = len(set(translates))
    missing = first_uncovered(target, base, translates)
    if missing is not None:
        return False, [f"uncovered element {ring.render(missing)}"], target, base, k
    ok, note = _minimality(payload, target, base, k)
    details = [f"cover of {len(target)} elements by {k} translates", note]
    return ok, details if ok else [note], target, base, k


def _verify_cover_witness(payload):
    return _cover_witness(payload)[:2]


def _verify_certificate(payload):
    ring, x = _ring_and_set(payload, "x")
    derivs = {ring.parse(f_text): tuple(tuple(ring.parse(e) for e in word)
                                        for word in words)
              for f_text, words in payload.get("derivations", {}).items()}
    cert = ApproxCertificate(
        x, payload["k"], _parse_set(ring, payload["f"]),
        payload.get("mode", "ring"), bool(payload.get("minimal")), derivs)
    ok, why = cert.verify()
    if not ok:
        return False, [why]
    ok, note = _minimality(payload, cert.target(), x, cert.k)
    if not ok:
        return False, [note]
    details = [f"K = {cert.k} certificate re-verified ({len(derivs)} derivations)",
               note]
    if payload.get("schema_version") == "1":
        details.append("schema v1: membership and f_location.in_x2 ignored, "
                       "F ⊆ ⟨X⟩ re-proven from the derivations")
    return True, details


def _commensurability(payload, ring, keys, a, b):
    """(failure or None, constant): the witnesses under ``keys`` must
    cover a by translates of b and b by translates of a; the constant is
    the larger of their sizes."""
    sizes = []
    for key, target, base in ((keys[0], a, b), (keys[1], b, a)):
        w = payload[key]
        ok, det, w_target, w_base, k = _cover_witness(w)
        if not ok:
            return f"{key}: {det[0]}", None
        if w["ring"] != ring.descriptor or w_target != target or w_base != base:
            return f"{key}: covers the wrong target or base", None
        sizes.append(k)
    return None, max(sizes)


def _verify_classification(payload):
    ok, details = _verify_certificate(payload["certificate"])
    if not ok:
        return ok, details
    ring, x = _ring_and_set(payload, "x")
    cert, k = payload["certificate"], payload["k"]
    if (cert["ring"], cert.get("mode", "ring"), cert["k"]) \
            != (ring.descriptor, "ring", k) or _parse_set(ring, cert["x"]) != x:
        return False, ["the certificate is not a ring-mode certificate of x and k"]
    k11 = k ** 11
    if payload["k11_bound"] != k11:
        return False, [f"k11_bound {payload['k11_bound']} != {k}^11"]
    core = core_set(x)
    claimed = payload["hypothesis"]
    try:
        hyp = _hypothesis(core, claimed.split("/")[0])
    except (ValueError, ZeroDivisorError) as exc:
        return False, [f"hypothesis {claimed!r} fails: {exc}"]
    if hyp != claimed:
        return False, [f"hypothesis {claimed!r} != {hyp!r}"]
    if len(core) != payload["core_size"]:
        return False, [f"core size {len(core)} != reported {payload['core_size']}"]
    subring = _core_is_subring(core)[0]
    if payload["core_is_subring"] != subring:
        return False, [f"core_is_subring {payload['core_is_subring']} != {subring}"]
    comm = None
    if len(x) and len(core):
        why, comm = _commensurability(
            payload, ring, ("comm_core_by_x", "comm_x_by_core"), core, x)
        if why is not None:
            return False, [why]
    if payload["commensurability_to_x"] != comm:
        return False, [f"commensurability_to_x {payload['commensurability_to_x']} "
                       f"!= {comm}"]
    verdict = _verdict(len(x), payload["small_threshold"], subring, comm, k11)
    if payload["verdict"] != verdict:
        return False, [f"verdict {payload['verdict']} != {verdict}"]
    details.append(f"core recomputed, size {len(core)}, verdict {verdict}")
    return True, details


def _verify_subring_search(payload):
    strategy, found = payload["strategy"], "subring" in payload
    if strategy not in _STRATEGY_TAGS or (strategy == "none") == found:
        return False, [f"strategy {strategy!r} does not match the outcome"]
    if not found:
        return True, ["no subring found (heuristic outcome)"]
    ring, s = _ring_and_set(payload, "subring")
    ok, bad = is_subring(s)
    if not ok:
        return False, ["not a subring: "
                       + " ".join([bad[0], *map(ring.render, bad[1:])])]
    x = _parse_set(ring, payload["comm_s_by_x"]["base"])
    why, comm = _commensurability(
        payload, ring, ("comm_s_by_x", "comm_x_by_s"), s, x)
    if why is not None:
        return False, [why]
    if payload["commensurability"] != comm:
        return False, [f"commensurability {payload['commensurability']} != {comm}"]
    core = core_set(x)
    if payload["core_size"] != len(core):
        return False, [f"core size {len(core)} != reported {payload['core_size']}"]
    exhaustive = len(core) <= POS_CHAR_EXHAUSTIVE_LIMIT
    if payload["exhaustive"] != exhaustive:
        return False, [f"exhaustive {payload['exhaustive']} != {exhaustive} "
                       f"for a core of {len(core)} elements"]
    if not s <= core:
        return False, ["subring outside the core 4X + X·4X"]
    return True, [f"subring of size {len(s)} re-verified"]


def _row_claims(w):
    """The fields a sweep row copies from its witness ``w``."""
    if w["kind"] == "classification_report":
        return {"ring": w["ring"], "x": w["x"], "x_size": len(w["x"]),
                "K": w["k"], "verdict": w["verdict"], "core_size": w["core_size"],
                "core_is_subring": w["core_is_subring"],
                "commensurability": w["commensurability_to_x"],
                "k11_bound": w["k11_bound"]}
    claims = {"strategy": w["strategy"], "exhaustive": w["exhaustive"],
              "found": "subring" in w, "s_size": len(w.get("subring", ())),
              "commensurability": w["commensurability"]}
    if "subring" in w:
        x = w["comm_s_by_x"]["base"]
        claims.update(ring=w["ring"], x=x, x_size=len(x), core_size=w["core_size"])
    return claims


def _verify_sweep(payload):
    """Every row witness must verify, and every row field taken from a
    witness must equal the witness's value (x as a set)."""
    details = []
    n = 0
    for row in payload.get("rows", []):
        w = row.get("_witness")
        if not w:
            continue
        n += 1
        ok, det = verify_payload(w)
        if ok:
            det = [f"{key} {row.get(key)!r} differs from the witness's {value!r}"
                   for key, value in _row_claims(w).items()
                   if (sorted(row.get(key, ())) != sorted(value) if key == "x"
                       else row.get(key) != value)]
        if det:     # the witness's failure, or the row's first wrong field
            details.append(f"row {row.get('instance_id')}: {det[0]}")
    if details:
        return False, details
    return True, [f"all {n} row witnesses re-verified"]


def _verify_fact21(payload):
    """The certificate, every row's constructive cover and the msum
    cover, each by its own kind's verifier (not the kind a part names)."""
    parts = [(_verify_certificate, payload["certificate"])]
    parts += [(_verify_cover_witness, row["witness"]) for row in payload["rows"]]
    if "msum" in payload:
        parts.append((_verify_cover_witness, payload["msum"]))
    details = []
    for verify, part in parts:
        ok, det = verify(part)
        if not ok:
            return False, det
        details += det
    return True, details


def _verify_gallery(payload):
    item = gallery(payload["name"], **payload["params"]).to_json()
    wrong = sorted(k for k in item.keys() | payload.keys()
                   if item.get(k) != payload.get(k))
    if wrong:
        return False, [f"gallery({payload['name']!r}) re-derives another "
                       + ", ".join(wrong)]
    return True, [f"gallery item {payload['name']} re-derived"]


_VERIFIERS = {
    "cover_witness": _verify_cover_witness,
    "approx_certificate": _verify_certificate,
    "classification_report": _verify_classification,
    "subring_search": _verify_subring_search,
    "sweep_report": _verify_sweep,
    "constructive_report": lambda p: _verify_cover_witness(p["witness"]),
    "fact21_report": _verify_fact21,
    "gallery_item": _verify_gallery,
}


def verify_payload(payload):
    """(ok, list of detail strings) for any serialized object."""
    kind = payload.get("kind")
    fn = _VERIFIERS.get(kind)
    if fn is None:
        return False, [f"unknown payload kind {kind!r}"]
    return fn(payload)


def verify_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return verify_payload(json.load(fh))
