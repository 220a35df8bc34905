"""Self-contained JSON payloads and from-scratch re-verification.

Every witness / certificate / report serializes with its ring DSL and
rendered elements, so ``verify_payload`` can rebuild the objects and
re-check them without any ambient state.  It returns (ok, details) and
never raises on a merely *invalid* payload — malformed ones do raise.
"""

from __future__ import annotations

import json

from .cover import CoverWitness, derivation_error, verify_witness
from .rings import parse_ring
from .sets import FiniteSet, iterated_sum, prodset, sumset, union


def _ring_and_set(payload, key):
    ring = parse_ring(payload["ring"])
    return ring, FiniteSet(ring, (ring.parse(e) for e in payload[key]))


def _verify_cover_witness(payload):
    ring, target = _ring_and_set(payload, "target")
    base = FiniteSet(ring, (ring.parse(e) for e in payload["base"]))
    translates = tuple(ring.parse(e) for e in payload["translates"])
    w = CoverWitness(target, base, translates, bool(payload.get("optimal")),
                     payload.get("method", "unknown"), {})
    ok, missing = verify_witness(w)
    if not ok:
        return False, [f"uncovered element {ring.render(missing)}"]
    return True, [f"cover of {len(target)} elements by {len(translates)} translates"]


def _verify_certificate(payload):
    ring, x = _ring_and_set(payload, "x")
    f = FiniteSet(ring, (ring.parse(e) for e in payload["f"]))
    details = []
    if len(f) != payload["k"]:
        return False, [f"|F| = {len(f)} but k = {payload['k']}"]
    for v in x:
        if ring.neg(v) not in x:
            return False, [f"x not symmetric at {ring.render(v)}"]
    t = sumset(x, x)
    if payload.get("mode", "ring") == "ring":
        t = union(prodset(x, x), t)
    covered = set()
    for fv in f:
        covered |= {ring.add(fv, xv) for xv in x.elements()}
    for v in t:
        if v not in covered:
            return False, [f"target element {ring.render(v)} uncovered"]
    derivs = {ring.parse(f_text): tuple(tuple(ring.parse(e) for e in word)
                                        for word in words)
              for f_text, words in payload.get("derivations", {}).items()}
    why = derivation_error(x, f, derivs)
    if why is not None:
        return False, [why]
    details.append(f"K = {payload['k']} certificate re-verified "
                   f"({len(derivs)} derivations)")
    if payload.get("schema_version") == "1":
        details.append("schema v1: membership and f_location.in_x2 ignored, "
                       "F ⊆ ⟨X⟩ re-proven from the derivations")
    return True, details


def _verify_classification(payload):
    ok, details = _verify_certificate(payload["certificate"])
    if not ok:
        return ok, details
    ring, x = _ring_and_set(payload, "x")
    four = iterated_sum(x, 4) if len(x) else x
    core = sumset(four, prodset(x, four)) if len(x) else x
    if len(core) != payload["core_size"]:
        return False, [f"core size {len(core)} != reported {payload['core_size']}"]
    for key in ("comm_core_by_x", "comm_x_by_core"):
        if key in payload:
            w_ok, w_det = _verify_cover_witness(payload[key])
            if not w_ok:
                return False, [f"{key}: {w_det[0]}"]
    details.append(f"core recomputed, size {len(core)}, verdict "
                   f"{payload.get('verdict')}")
    return True, details


def _verify_subring_search(payload):
    if "subring" not in payload:
        return True, ["no subring found (heuristic outcome)"]
    ring, s = _ring_and_set(payload, "subring")
    for a in s:
        if ring.neg(a) not in s:
            return False, [f"not closed under negation at {ring.render(a)}"]
        for b in s:
            if ring.add(a, b) not in s:
                return False, ["not closed under addition"]
            if ring.mul(a, b) not in s:
                return False, ["not closed under multiplication"]
    for key in ("comm_s_by_x", "comm_x_by_s"):
        if key in payload:
            w_ok, w_det = _verify_cover_witness(payload[key])
            if not w_ok:
                return False, [f"{key}: {w_det[0]}"]
    return True, [f"subring of size {len(s)} re-verified"]


def _verify_sweep(payload):
    details = []
    bad = 0
    for row in payload.get("rows", []):
        w = row.get("_witness")
        if not w:
            continue
        ok, det = verify_payload(w)
        if not ok:
            bad += 1
            details.append(f"row {row.get('instance_id')}: {det[0]}")
    if bad:
        return False, details
    n = sum(1 for r in payload.get("rows", []) if r.get("_witness"))
    return True, [f"all {n} row witnesses re-verified"]


_VERIFIERS = {
    "cover_witness": _verify_cover_witness,
    "approx_certificate": _verify_certificate,
    "classification_report": _verify_classification,
    "subring_search": _verify_subring_search,
    "sweep_report": _verify_sweep,
    "constructive_report": lambda p: _verify_cover_witness(p["witness"]),
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
