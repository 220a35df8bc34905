"""Self-contained JSON payloads and from-scratch re-verification.

Every witness / certificate / report serializes with its ring DSL and
rendered elements, so ``verify_payload`` can rebuild the objects and
re-check them without any ambient state.  The re-checks are the
package's own checkers, not copies: ``cover.first_uncovered`` for cover
witnesses, ``ApproxCertificate.verify`` for certificates, and
``classify.core_set`` / ``classify.is_subring`` for reports.  It returns
(ok, details) and never raises on a merely *invalid* payload — malformed
ones do raise.
"""

from __future__ import annotations

import json

from .classify import core_set, is_subring
from .cover import ApproxCertificate, first_uncovered, lagrangian_floor
from .rings import parse_ring
from .sets import FiniteSet


def _ring_and_set(payload, key):
    ring = parse_ring(payload["ring"])
    return ring, FiniteSet(ring, (ring.parse(e) for e in payload[key]))


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


def _verify_cover_witness(payload):
    ring, target = _ring_and_set(payload, "target")
    base = FiniteSet(ring, (ring.parse(e) for e in payload["base"]))
    translates = [ring.parse(e) for e in payload["translates"]]
    missing = first_uncovered(target, base, translates)
    if missing is not None:
        return False, [f"uncovered element {ring.render(missing)}"]
    k = len(set(translates))
    ok, note = _minimality(payload, target, base, k)
    if not ok:
        return False, [note]
    return True, [f"cover of {len(target)} elements by {k} translates", note]


def _verify_certificate(payload):
    ring, x = _ring_and_set(payload, "x")
    derivs = {ring.parse(f_text): tuple(tuple(ring.parse(e) for e in word)
                                        for word in words)
              for f_text, words in payload.get("derivations", {}).items()}
    cert = ApproxCertificate(
        x, payload["k"], FiniteSet(ring, (ring.parse(e) for e in payload["f"])),
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


def _verify_classification(payload):
    ok, details = _verify_certificate(payload["certificate"])
    if not ok:
        return ok, details
    x = _ring_and_set(payload, "x")[1]
    core = core_set(x)
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
    ok, bad = is_subring(s)
    if not ok:
        return False, ["not a subring: "
                       + " ".join([bad[0], *map(ring.render, bad[1:])])]
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
