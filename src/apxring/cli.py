"""apx: command line surface.

Exit codes: 0 ok, 1 internal error, 2 precondition violated, 3 budget
exceeded, 4 verification failure / counterexample candidate.  Output is
a human-readable summary by default; --json writes the self-contained
payload (re-checkable with ``apx verify``).  Each subcommand imports
only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ApxError,
    BudgetExceededError,
    CrossRingError,
    InfiniteRingError,
    InvalidParamsError,
    NotAnIdealError,
    NotSymmetricError,
    ParseError,
    RingConstructionError,
    UncoverableError,
    VerificationFailedError,
    ZeroDivisorError,
)
from .rings import parse_ring
from .sets import growth_sequence, load_set_file, parse_set

# unreadable input files (missing, not JSON) are precondition failures too
_PRECONDITION = (ParseError, RingConstructionError, CrossRingError,
                 InfiniteRingError, NotAnIdealError, NotSymmetricError,
                 UncoverableError, InvalidParamsError, ZeroDivisorError,
                 OSError, json.JSONDecodeError)


def _load_set(ring, spec_text):
    if spec_text.startswith("@"):
        return load_set_file(ring, spec_text[1:])
    return parse_set(ring, spec_text)


def _emit(args, payload, human_lines):
    if getattr(args, "json", False):
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(human_lines)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_approx(args):
    from .cover import approx_constant
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    cert = approx_constant(x, args.mode, exact=not args.greedy)
    _emit(args, cert.to_json(), [
        f"ring: {ring}",
        f"|X| = {len(x)}  mode = {cert.mode}",
        f"K = {cert.k}  minimal = {cert.minimal}",
        "F = " + cert.witness_f.render(),
    ])
    return 0


def _cmd_growth(args):
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    profile = growth_sequence(x, args.n, with_covering=args.covering)
    rows = []
    for e in profile.entries:
        line = f"X_{e.n}: size {e.size}"
        if e.covering is not None:
            line += f"  covered by {e.covering} translates ({e.covering_method})"
        rows.append(line)
    _emit(args, profile.to_json(), rows)
    return 0


def _cmd_cover(args):
    from .cover import cover_exact, cover_greedy
    ring = parse_ring(args.ring)
    target = _load_set(ring, args.target)
    base = _load_set(ring, args.base)
    w = (cover_greedy(target, base) if args.greedy
         else cover_exact(target, base, node_limit=args.node_limit))
    lines = [f"cover of {len(target)} elements by {len(w.translates)} translates",
             f"optimal = {w.optimal}  method = {w.method}"]
    if not args.greedy:
        s = w.stats
        lines.append(f"nodes = {s['nodes']}  revisits = {s['revisits']}  "
                     f"lower bound = {s['lower_bound']}  "
                     f"node limit hit = {s['node_limit_hit']}")
    lines.append("translates = {" + ", ".join(ring.render(t) for t in w.translates) + "}")
    _emit(args, w.to_json(), lines)
    return 0


def _cmd_fact21(args):
    from .constructive import fact21_report
    from .cover import approx_constant
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    cert = approx_constant(x, "ring", exact=not args.greedy)
    payload = fact21_report(cert, args.m, args.msum_m)
    lines = [f"K = {cert.k}", "m  constructive  exact  bound_formula"]
    for r in payload["rows"]:
        exact = r["exact_size"] if r["exact_size"] is not None else "skipped"
        lines.append(f"{r['m']}  {r['constructed_size']}  {exact}  "
                     f"{r['bound_formula_value']}")
    if args.msum_m:
        w = payload["msum"]
        lines.append(f"msum m={args.msum_m}: {len(w['translates'])} translates "
                     f"over a target of {len(w['target'])}")
    _emit(args, payload, lines)
    return 0


def _cmd_k11(args):
    from .constructive import k11_cover
    from .cover import approx_constant
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    cert = approx_constant(x, "ring", exact=not args.greedy)
    w = k11_cover(cert)
    _emit(args, w.to_json(), [
        f"K = {cert.k}, K^11 = {cert.k ** 11}",
        f"core 4X + X.4X: {len(w.target)} elements",
        f"constructive cover: {len(w.translates)} translates (<= K^11)",
    ])
    return 0


def _cmd_classify(args):
    from .classify import nzd_classify, pos_char_search
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    if args.mode == "nzd":
        report = nzd_classify(x, small_threshold=args.small_threshold)
        _emit(args, report.to_json(), [
            f"K = {report.k}  |X| = {len(x)}  threshold = {report.small_threshold}",
            f"core: {len(report.core)} elements, subring = {report.core_is_subring}",
            f"commensurability(core, X) = {report.commensurability_to_x}"
            f" (bound K^11 = {report.k11_bound})",
            f"verdict: {report.verdict}",
        ])
        return 4 if report.verdict == "counterexample-candidate" else 0
    result = pos_char_search(x)
    _emit(args, result.to_json(), [
        f"strategy = {result.strategy_used}  exhaustive = {result.exhaustive}",
        (f"S: {len(result.found)} elements, commensurability = "
         f"{result.commensurability}") if result.found is not None
        else "no subring found",
    ])
    return 0


def _cmd_model(args):
    from .classify import finite_model_check
    ring = parse_ring(args.ring)
    x = _load_set(ring, args.set)
    ideal = _load_set(ring, args.ideal)
    report = finite_model_check(x, ideal)
    _emit(args, report.to_json(), [
        f"ideal inside X_{report.m}; quotient size {report.quotient_size}",
        f"(i) zero neighborhood: {report.clause_zero_neighborhood} "
        f"(|U| = {report.neighborhood_size})",
        f"(ii) genericity: {report.clause_generic} "
        f"(max constant {report.max_genericity} = cosets of I meeting X)",
        f"(iii) commensurability: {report.clause_commensurable} "
        f"constants {report.comm_constants} "
        f"({'exact' if report.comm_exact else 'upper bounds'})",
    ])
    return 0


def _cmd_gallery(args):
    from .classify import gallery
    params = {}
    if args.p is not None:
        params["p"] = args.p
    if args.n is not None:
        params["n"] = args.n
    if args.d is not None:
        params["d"] = args.d
    item = gallery(args.name, **params)
    _emit(args, item.to_json(), [
        f"{item.name} in {item.ring}: {len(item.xset)} elements",
        item.xset.render(),
        f"expected: {item.expected}",
    ])
    return 0


def _cmd_sweep(args):
    from .sweep import SweepSpec, run_sweep
    spec = SweepSpec.load(args.config)
    report = run_sweep(spec, jobs=args.jobs)
    csv_text = report.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    ok_rows = sum(1 for r in report.rows if r["status"] == "ok")
    print(f"{len(report.rows)} instances, {ok_rows} ok, "
          f"{len(report.counterexamples)} counterexample candidates")
    for key, table in report.empirical.items():
        print(f"{key}: {table}")
    if not args.csv and not args.json_out:
        sys.stdout.write(csv_text)
    return 4 if report.counterexamples else 0


def _cmd_verify(args):
    from .serialize import verify_file
    try:
        ok, details = verify_file(args.input)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed payload ({type(exc).__name__}: {exc})") from exc
    for line in details:
        print(line)
    print("VERIFIED" if ok else "FAILED")
    return 0 if ok else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="apx",
        description="approximate subrings: constants, covers, growth, "
                    "classification checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_set=True):
        p.add_argument("--ring", required=True, help="ring DSL, e.g. zmod:7")
        if with_set:
            p.add_argument("--set", required=True,
                           help="set literal {..} or @file")
        p.add_argument("--json", action="store_true")
        p.add_argument("--output", help="write the report to a file")

    p = sub.add_parser("approx", help="approximation constant certificate")
    common(p)
    p.add_argument("--mode", choices=("ring", "group"), default="ring")
    p.add_argument("--greedy", action="store_true",
                   help="greedy upper bound instead of the exact constant")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("growth", help="growth sequence X_0..X_n")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--covering", action="store_true")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("cover", help="cover a target by translates of a base")
    common(p, with_set=False)
    p.add_argument("--target", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--node-limit", type=int, default=10 ** 6)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("fact21", help="constructive power-set covers and "
                                      "their slack against exact covers")
    common(p)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--msum-m", type=int, default=0)
    p.add_argument("--greedy", action="store_true")
    p.set_defaults(fn=_cmd_fact21)

    p = sub.add_parser("k11", help="cover of 4X + X.4X by <= K^11 translates")
    common(p)
    p.add_argument("--greedy", action="store_true")
    p.set_defaults(fn=_cmd_k11)

    p = sub.add_parser("classify", help="dichotomy / subring-search checks")
    common(p)
    p.add_argument("--mode", choices=("nzd", "poschar"), default="nzd")
    p.add_argument("--small-threshold", type=int, default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("model", help="finite locally-compact-model checks")
    common(p)
    p.add_argument("--ideal", required=True)
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser("gallery", help="named example sets")
    p.add_argument("name", help="example set (an unknown name lists them)")
    p.add_argument("--p", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_gallery)

    p = sub.add_parser("sweep", help="family sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--json", dest="json_out", help="JSON output path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="re-check a serialized payload")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except _PRECONDITION as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except ApxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
