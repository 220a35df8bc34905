"""Self-contained JSON payloads and from-scratch re-verification.

Each payload kind has one schema, the one its builder writes
(``_SCHEMA_VERSIONS``).  A payload verifies only while today's builder
re-derives it, and a schema bump retires the older version: its
payloads fail as of an unknown schema_version.  As every payload holds
its own ring and sets, re-running the command that wrote one rebuilds
it at today's schema.

Every payload carries its ring DSL and rendered elements, so
``verify_payload`` rebuilds it without any ambient state, by one rule:
what a payload proves by a witness is re-checked by the package's own
checker (``cover.first_uncovered`` for covers with their lower bounds,
``ApproxCertificate.verify`` for certificates, whose cover also proves
F ⊆ ⟨X⟩, ``classify.is_subring`` and the core for a found subring,
``classify.subrings_within`` for the claim of the exhaustive pass that
no subring inside the core has a smaller constant, the classifier's own
check that the ring has no zero divisors), and every other field is
re-derived by the builder that wrote it, run on the payload's inputs and
re-checked witnesses, and compared as JSON values: 2 is not 2.0, and 1
is not true.  Every payload, nested ones too, must be of its kind's
schema version, with no key its builder does not write, and the leaves
its verifier reads directly of their JSON types, and nested payloads
verify by their own kind, which must be the kind their slot holds; a
sweep's rows must be its config's instances in order and hold, key for
key, the fields ``sweep.row_fields`` takes from their witnesses, and a
row without a witness must equal its instance's re-run.  It returns
(ok, details) and never raises on a merely *invalid* payload — malformed
ones do raise.
"""

from __future__ import annotations

import json
import math

from .cover import (
    ApproxCertificate,
    CommensurabilityResult,
    CoverWitness,
    commensurability,
    first_uncovered,
    lagrangian_floor,
)
from .errors import ApxError, ZeroDivisorError, _clip
from .rings import parse_ring
from .sets import FiniteSet, growth_sequence


def _differs(a, b):
    """Whether a and b are different JSON values: 2 is not 2.0, and 1 is
    not true."""
    return a is not b and json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def _ring_and_set(payload, key):
    ring = parse_ring(payload["ring"])
    return ring, _parse_set(ring, payload[key])


def _parse_set(ring, texts):
    return FiniteSet(ring, (ring.parse(e) for e in texts))


def _bound(ring, payload):
    """The payload's ``lower_bound`` as (weights, denominator), or None."""
    lb = payload.get("lower_bound")
    return None if lb is None else (
        {ring.parse(e): w for e, w in lb["weights"].items()}, lb["denominator"])


def _minimality(bound, target, base, k):
    """(ok, note) for a ``lower_bound`` parsed by ``_bound``, re-evaluated
    in integers over the rows of target − base and summed over the
    components those rows form (``cover.lagrangian_floor``).  Malformed
    weights fail; a bound short of k only goes uncertified."""
    if bound is None:
        return True, "minimality not certified (no lower bound)"
    weights, d = bound
    if not all(type(v) is int and v >= 0 for v in (d, *weights.values())) \
            or d == 0:
        return False, "lower bound needs integer weights >= 0 over d > 0"
    if not weights.keys() <= target.elements():
        return False, "lower bound weights an element outside the target"
    floor = lagrangian_floor(target, base, weights, d)
    if floor >= k:
        return True, f"minimality certified: every cover needs {floor}"
    return True, f"minimality not certified (lower bound {floor} < {k})"


# the one schema version of each kind, the one its builder writes
_SCHEMA_VERSIONS = {
    "cover_witness": "2",
    "approx_certificate": "4",
    "classification_report": "4",
    "subring_search": "4",
    "sweep_report": "1",
    "constructive_report": "1",
    "fact21_report": "1",
    "gallery_item": "1",
    "model_check": "2",
    "growth_profile": "2",
}


# the leaves each kind's verifier reads directly, with their JSON types
_LEAF_TYPES = {
    "cover_witness": {"optimal": bool},
    "approx_certificate": {"k": int, "minimal": bool},
    "growth_profile": {"covering": bool},
}
_TYPE_NAMES = {int: "an int", bool: "true or false"}


def _kind_fault(payload, kind):
    """[why] when ``payload``, where a ``kind`` payload belongs, is of
    another kind, of another schema version than its builder writes, or
    holds a leaf its verifier reads directly of another JSON type;
    else []."""
    have, version = payload.get("kind"), payload["schema_version"]
    if have != kind:
        return [f"kind {have!r} where {kind} belongs"]
    if version != _SCHEMA_VERSIONS[kind]:
        return [f"unknown {kind} schema_version {_clip(repr(version))}"]
    return [f"{key} {json.dumps(payload[key])} is not {_TYPE_NAMES[t]}"
            for key, t in _LEAF_TYPES.get(kind, {}).items()
            if key in payload and type(payload[key]) is not t][:1]


def _unknown_key(payload, rebuilt):
    """[why] when ``payload`` holds a key that ``rebuilt``, the payload
    re-derived from it, does not; else []."""
    unknown = payload.keys() - rebuilt.keys()
    return [f"schema {payload['schema_version']} names no "
            f"{_clip(min(unknown))}"] if unknown else []


def _cover_witness(payload):
    """(ok, details, witness or None) of a cover witness payload, its
    keys unchecked (``_standalone``).  Its method is exact, greedy or
    constructive; only an exact cover may claim to be optimal, as no
    other builder proves it; and its base is nonempty, as
    ``cover._incidence`` requires of every instance."""
    why = _kind_fault(payload, "cover_witness")
    if why:
        return False, why, None
    method, optimal = payload["method"], payload["optimal"]
    if method not in ("exact", "greedy", "constructive"):
        return False, [f"unknown cover method {method!r}"], None
    if optimal and method != "exact":
        return False, [f"a {method} cover claims to be optimal"], None
    ring, target = _ring_and_set(payload, "target")
    base = _parse_set(ring, payload["base"])
    if len(base) == 0:
        return False, ["base set is empty"], None
    translates = tuple(ring.parse(e) for e in payload["translates"])
    w = CoverWitness(target, base, translates, optimal, method,
                     lower_bound=_bound(ring, payload))
    k = len(set(w.translates))
    missing = first_uncovered(target, base, w.translates)
    if missing is not None:
        return False, [f"uncovered element {ring.render(missing)}"], w
    ok, note = _minimality(w.lower_bound, target, base, k)
    if not ok:
        return False, [note], w
    return True, [f"cover of {len(target)} elements by {k} translates", note], w


def _certificate(payload):
    """(ok, details, certificate) of a certificate payload, its keys
    unchecked (``_standalone``); no certificate when it is of another
    kind."""
    why = _kind_fault(payload, "approx_certificate")
    if why:
        return False, why, None
    ring, x = _ring_and_set(payload, "x")
    cert = ApproxCertificate(
        x, payload["k"], _parse_set(ring, payload["f"]), payload["mode"],
        payload["minimal"], payload["stats"], _bound(ring, payload))
    ok, why = cert.verify()
    if not ok:
        return False, [why], cert
    ok, note = _minimality(cert.lower_bound, cert.target, x, cert.k)
    if not ok:
        return False, [note], cert
    return True, [f"K = {cert.k} certificate re-verified", note], cert


def _standalone(check):
    """Verifier of a payload that ``check`` verifies, read on its own: it
    may hold no key its object's ``to_json`` does not write.  Nested, it
    is held to the rebuilt payload that nests it (``_rebuilt``)."""
    def verify(payload):
        ok, details, obj = check(payload)
        why = _unknown_key(payload, obj.to_json()) if ok else []
        return (False, why) if why else (ok, details)
    return verify


def _commensurability(payload, keys, a, b):
    """(failure or None, CommensurabilityResult): the witnesses under
    ``keys`` must cover a by translates of b and b by translates of a."""
    ws = []
    for key, target, base in ((keys[0], a, b), (keys[1], b, a)):
        ok, det, w = _cover_witness(payload[key])
        if not ok:
            return f"{key}: {det[0]}", None
        if w.target != target or w.base != base:
            return f"{key}: covers the wrong target or base", None
        ws.append(w)
    w_ab, w_ba = ws
    return None, CommensurabilityResult(a, b, len(set(w_ab.translates)),
                                        len(set(w_ba.translates)), w_ab, w_ba)


def _rebuilt(name, build, payload, flat=False):
    """(ok, details): ``build()``, a payload, must equal ``payload`` on
    every key of either; or, with ``flat``, on every key of its own but
    the schema version and the nested payloads, which verify by their
    own kind, and neither ``payload`` nor a payload nested in it may
    hold a key the rebuilt one does not (``_unknown_key``).  A build
    that raises fails."""
    try:
        rebuilt = build()
    except (ApxError, ValueError) as exc:
        return False, [f"{name} does not rebuild: {exc}"]
    # a nested certificate's faults are the payload's own, a witness's
    # are named by its slot, as when they verify
    why = _unknown_key(payload, rebuilt) + [
        ("" if key == "certificate" else f"{key}: ") + w
        for key, inner in rebuilt.items() if isinstance(inner, dict)
        for w in _unknown_key(payload[key], inner)] if flat else []
    if why:
        return False, why[:1]
    keys = ({k for k, v in rebuilt.items() if not isinstance(v, dict)}
            - {"schema_version"} if flat else rebuilt.keys() | payload.keys())
    wrong = sorted(k for k in keys if _differs(rebuilt.get(k), payload.get(k)))
    if wrong:
        return False, [f"{name} re-derives another " + ", ".join(wrong)]
    return True, [f"{name} re-derived"]


def _verify_classification(payload):
    """X and its ring are the verified certificate's, and the ring must
    have no zero divisors; the top-level X and ring are re-derived with
    every other field."""
    from .classify import _check_no_zero_divisors, classification_report, core_set
    ok, details, cert = _certificate(payload["certificate"])
    if not ok:
        return ok, details
    x = cert.x
    try:
        _check_no_zero_divisors(x.ring)
    except ZeroDivisorError as exc:
        return False, [str(exc)]
    core = core_set(x)
    why, comm = _commensurability(
        payload, ("comm_core_by_x", "comm_x_by_core"), core, x)
    if why is not None:
        return False, [why]
    ok, det = _rebuilt("classification_report", lambda: classification_report(
        x, cert, core, comm).to_json(), payload, flat=True)
    return ok, details + det if ok else det


def _verify_subring_search(payload):
    """The certificate must verify; the subring must be one inside the
    core with the witnessed constant; where the exhaustive pass runs, no
    subring inside the core may have a smaller constant against X, the
    certificate's.  A subring whose counting bound reaches the claimed
    constant cannot, and is not covered."""
    from .classify import (SubringSearchResult, _commensurability_floor,
                           _runs_exhaustive, core_set, is_subring, subrings_within)
    ok, details, cert = _certificate(payload["certificate"])
    if not ok:
        return ok, details
    ring, x = cert.ring, cert.x
    core = core_set(x)
    s = comm = None
    if "subring" in payload:
        s = _parse_set(ring, payload["subring"])
        ok, bad = is_subring(s)
        if not ok:
            return False, ["not a subring: "
                           + " ".join([bad[0], *map(ring.render, bad[1:])])]
        if not s <= core:
            return False, ["subring outside the core 4X + X·4X"]
        why, comm = _commensurability(
            payload, ("comm_s_by_x", "comm_x_by_s"), s, x)
        if why is not None:
            return False, [why]
    if _runs_exhaustive(core):
        claimed = math.inf if comm is None else comm.constant
        for sub in subrings_within(core):
            if _commensurability_floor(sub, x) >= claimed:
                continue
            c = commensurability(sub, x).constant
            if c < claimed:
                return False, [f"exhaustive pass: a subring of {len(sub)} "
                               f"elements inside the core has constant {c}"]
    ok, det = _rebuilt("subring_search", lambda: SubringSearchResult(
        x, cert, core, s, payload["strategy"], comm).to_json(), payload, flat=True)
    return ok, details + det if ok else det


def _differing(row, expected, whose):
    """A line for each key of ``row`` or ``expected`` that the two hold
    otherwise, as JSON values (``_differs``), x compared as a set."""
    return [f"{key} {row.get(key)!r} differs from {whose} {expected.get(key)!r}"
            for key in sorted(row.keys() | expected.keys())
            if (sorted(row.get(key, ())) != sorted(expected.get(key, ()))
                if key == "x" else _differs(row.get(key), expected.get(key)))]


def _row_faults(row, instance, ring, spec):
    """Why a sweep row is not the row of its config's ``instance``
    (instance_id, ring and rendered x, over ``ring``) and of its
    witness, or, without a witness, not the failing row a re-run of the
    instance under ``spec`` gives: empty when it is."""
    from .sweep import _run_row, row_fields
    faults = _differing({key: row[key] for key in instance if key in row},
                        instance, "the config's")
    w = row.get("_witness")
    if faults:
        return faults
    if not w:
        if row.get("status") == "ok":
            return ["ok without a witness"]
        rerun = _run_row((instance["instance_id"], instance["ring"], instance["x"],
                          spec.mode))
        rerun.pop("_witness", None)
        return _differing(row, rerun, "a re-run's")
    ok, det = verify_payload(w)
    if not ok:
        return det
    return _differing(row, {**instance, "status": "ok", **row_fields(w, ring),
                            "_witness": w}, "the witness's")


def _verify_sweep(payload):
    """The rows must be the config's instances in order; every row
    witness must verify, and its row be, key for key, the instance's
    fields, status "ok" and the fields taken from the witness; a row
    without one must be what a re-run of its instance gives
    (``_row_faults``); the report must rebuild from its config and
    rows."""
    from .sweep import SweepReport, SweepSpec, generate_instances
    spec = SweepSpec.parse(payload["config"])
    rings = {dsl: parse_ring(dsl) for dsl in spec.rings}
    rows = payload["rows"]
    instances = list(generate_instances(spec))
    if len(rows) != len(instances):
        return False, [f"{len(rows)} rows for the config's {len(instances)} instances"]
    details = []
    for i, (row, (dsl, elems)) in enumerate(zip(rows, instances)):
        faults = _row_faults(row, {"instance_id": i, "ring": dsl, "x": tuple(
            map(rings[dsl].render, elems))}, rings[dsl], spec)
        if faults:
            details.append(f"row {row.get('instance_id')}: {faults[0]}")
    if details:
        return False, details
    return _rebuilt("sweep_report", lambda: SweepReport(spec, rows).to_json(),
                    payload)


def _constructive(payload, cert):
    from .constructive import bound_table
    return bound_table(cert, payload["m"])[payload["m"] - 1].to_json()


def _fact21(payload, cert):
    from .constructive import fact21_report
    msum_m = payload["msum"]["stats"]["m"] if "msum" in payload else 0
    return fact21_report(cert, len(payload["rows"]), msum_m)


def _from_certificate(name, build):
    """Verifier of a payload whose certificate must verify and which
    ``build(payload, cert)`` must re-derive from that certificate."""
    def verify(payload):
        ok, details, cert = _certificate(payload["certificate"])
        if not ok:
            return False, details
        ok, det = _rebuilt(name, lambda: build(payload, cert), payload)
        return ok, details + det if ok else det
    return verify


def _verify_gallery(payload):
    from .classify import gallery
    name = payload["name"]
    return _rebuilt(f"gallery({name!r})",
                    lambda: gallery(name, **payload["params"]).to_json(), payload)


def _verify_model(payload):
    from .classify import finite_model_check
    ring, x = _ring_and_set(payload, "x")
    ideal = _parse_set(ring, payload["ideal"])
    return _rebuilt("model_check",
                    lambda: finite_model_check(x, ideal).to_json(), payload)


def _verify_growth(payload):
    _ring, x = _ring_and_set(payload, "x")
    return _rebuilt("growth_profile", lambda: growth_sequence(
        x, len(payload["entries"]) - 1, payload["covering"]).to_json(), payload)


_VERIFIERS = {
    "cover_witness": _standalone(_cover_witness),
    "approx_certificate": _standalone(_certificate),
    "classification_report": _verify_classification,
    "subring_search": _verify_subring_search,
    "sweep_report": _verify_sweep,
    "constructive_report": _from_certificate("constructive_report", _constructive),
    "fact21_report": _from_certificate("fact21_report", _fact21),
    "gallery_item": _verify_gallery,
    "model_check": _verify_model,
    "growth_profile": _verify_growth,
}


def verify_payload(payload):
    """(ok, list of detail strings) for any serialized object."""
    kind = payload.get("kind")
    fn = _VERIFIERS.get(kind)
    if fn is None:
        return False, [f"unknown payload kind {kind!r}"]
    why = _kind_fault(payload, kind)
    return (False, why) if why else fn(payload)


def verify_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return verify_payload(json.load(fh))
