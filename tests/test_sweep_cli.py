"""Sweep harness determinism and the apx command line surface."""

import ast
import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import apxring as ax
from apxring.classify import GALLERY_NAMES
from apxring.errors import InvalidParamsError, ParseError
from apxring.serialize import verify_payload
from apxring.sweep import SweepReport, SweepSpec, generate_instances, run_sweep

# the subprocesses import the package from this checkout's src/
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p))


def spec_text(**over):
    base = {
        "schema_version": "1",
        "mode": "nzd",
        "rings": "zmod:5, zmod:7",
        "policy": "exhaustive",
        "max_size": "5",
        "require_zero": "true",
        "k_max": "0",
        "exact": "true",
        "small_threshold": "-1",
        "seed": "0",
    }
    base.update({k: str(v) for k, v in over.items()})
    return "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


def test_spec_requires_seed():
    text = "\n".join(l for l in spec_text().splitlines()
                     if not l.startswith("seed"))
    with pytest.raises(ParseError, match="seed"):
        SweepSpec.parse(text)


def test_spec_round_trip():
    spec = SweepSpec.parse(spec_text())
    again = SweepSpec.parse(spec.render())
    assert spec == again


_CONFIGS = sorted([*(Path(__file__).parent / "data").glob("*.cfg"),
                   *(Path(__file__).parents[1] / "perfbench" / "data").glob("*.cfg")])


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_checked_in_config_renders_its_key_lines(path):
    # render() writes back every key line of each checked-in config,
    # the three keys schema 1 fixes included
    text = path.read_text(encoding="utf-8")
    keys = [l for l in text.splitlines() if l.split("#", 1)[0].strip()]
    assert SweepSpec.parse(text).render().splitlines() == keys


@pytest.mark.parametrize("key,value", [("exact", "false"), ("require_zero", "no"),
                                       ("k_max", "3"), ("small_threshold", "1")])
def test_spec_rejects_other_values_of_fixed_keys(key, value, tmp_path, capsys):
    # schema 1 fixes exact = true, require_zero = true, k_max = 0 and
    # small_threshold = -1; any spelling of that value parses, any other
    # value names the key
    assert SweepSpec.parse(spec_text(exact="yes", require_zero="1", k_max="00",
                                     small_threshold="-01")) \
        == SweepSpec.parse(spec_text())
    with pytest.raises(ParseError, match=key):
        SweepSpec.parse(spec_text(**{key: value}))
    from apxring.cli import main
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(spec_text(**{key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed:" in err and key in err


@pytest.mark.parametrize("text,why", [
    (spec_text() + "max_sise = 3\n", "unknown key 'max_sise'"),
    (spec_text() + "max_size = 3\n", "repeated key 'max_size'"),
    (spec_text(max_size=-2), "max_size = -2 is below 1"),
    (spec_text(instances_per_ring=-3), "instances_per_ring = -3 is below 1"),
], ids=["unknown", "repeated", "max_size", "instances_per_ring"])
def test_spec_rejects_unknown_repeated_and_out_of_range_keys(text, why, tmp_path,
                                                             capsys):
    # each used to parse: a misspelt key was skipped, the last of two
    # lines won, and a size below 1 yielded no rows
    with pytest.raises(ParseError, match=why):
        SweepSpec.parse(text)
    from apxring.cli import main
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed:" in err and why in err


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_rejects_jobs_below_1(jobs, tmp_path, capsys):
    from apxring.cli import main
    with pytest.raises(InvalidParamsError, match=f"^jobs = {jobs} is below 1$"):
        run_sweep(SweepSpec.parse(spec_text()), jobs=jobs)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(spec_text())
    assert main(["sweep", "--config", str(cfg), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err == (
        f"precondition failed: jobs = {jobs} is below 1\n")


def test_spec_product_ring():
    spec = SweepSpec.parse(spec_text(mode="poschar",
                                     rings="prod:(zmod:2,zmod:3), zmod:5",
                                     max_size="4"))
    assert spec.rings == ("prod:(zmod:2,zmod:3)", "zmod:5")
    assert SweepSpec.parse(spec.render()) == spec
    report = run_sweep(spec)
    prod_rows = [r for r in report.rows if r["ring"] == "prod:(zmod:2,zmod:3)"]
    assert prod_rows and all(r["status"] == "ok" for r in prod_rows)


def test_empty_family():
    spec = SweepSpec.parse(spec_text(rings=""))
    report = run_sweep(spec)
    assert report.rows == []
    assert report.to_csv().count("\n") == 1   # header only


def test_exhaustive_generation_is_symmetric_with_zero():
    spec = SweepSpec.parse(spec_text(rings="zmod:7", max_size="5"))
    ring = ax.modular(7)
    seen = set()
    for dsl, elems in generate_instances(spec):
        assert dsl == "zmod:7"
        s = ax.FiniteSet(ring, elems)
        assert ring.zero() in s
        assert ax.negate(s) == s
        assert len(s) <= 5
        seen.add(elems)
    # {0}, {0,a,-a} (3 pairs), {0,a,-a,b,-b} (3 choose 2)
    assert len(seen) == 1 + 3 + 3


def test_random_policy_stops_once_every_eligible_set_is_out(monkeypatch):
    # zmod:11 has 31 sets of 0 and whole ± orbits with at most 9
    # elements, and zmod:8 16 (its orbit {4} has one element); asked for
    # 40 each, the random policy emits every one of them and then stops
    # drawing, rather than drawing 40 × 50 times a ring
    import apxring.sweep as sweep_mod
    draws = []

    class Counted(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(sweep_mod, "random", types.SimpleNamespace(Random=Counted))
    over = dict(rings="zmod:11, zmod:8", max_size=9)
    every = list(generate_instances(SweepSpec.parse(spec_text(**over))))
    drawn = list(generate_instances(SweepSpec.parse(spec_text(
        policy="random", instances_per_ring=40, **over))))
    assert sorted(drawn) == sorted(every) and len(every) == 31 + 16
    assert len(draws) < 40 * 50


def test_sweep_nzd_smoke():
    spec = SweepSpec.parse(spec_text())
    report = run_sweep(spec)
    assert report.rows and all(r["status"] == "ok" for r in report.rows)
    assert "empirical_N" in report.empirical
    ok, details = verify_payload(report.to_json())
    assert ok, details


def test_sweep_deterministic_and_parallel_identical():
    spec = SweepSpec.parse(spec_text())
    a = run_sweep(spec).to_csv()
    b = run_sweep(spec).to_csv()
    assert a == b
    c = run_sweep(spec, jobs=2).to_csv()
    assert a == c


def test_nzd_rows_certify_k_once(monkeypatch):
    # the classifier is the one place a row's K is certified: one
    # certificate per row, in both modes
    import apxring.classify as classify_mod
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return ax.approx_constant(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "approx_constant", counted)
    for mode in ("nzd", "poschar"):
        calls.clear()
        report = run_sweep(SweepSpec.parse(spec_text(mode=mode)))
        assert len(calls) == len(report.rows) > 0
        assert all(r["status"] == "ok" for r in report.rows)


def test_sweep_random_policy_deterministic():
    spec = SweepSpec.parse(spec_text(policy="random", instances_per_ring="6",
                                     seed="42"))
    a = run_sweep(spec).to_csv()
    b = run_sweep(spec).to_csv()
    assert a == b
    other = SweepSpec.parse(spec_text(policy="random",
                                      instances_per_ring="6", seed="43"))
    assert run_sweep(other).to_csv() != a


def test_sweep_poschar_smoke():
    spec = SweepSpec.parse(spec_text(
        mode="poschar", rings="zmod:5, polyquo:2:t^2", max_size="5"))
    report = run_sweep(spec)
    ok_rows = [r for r in report.rows if r["status"] == "ok"]
    assert ok_rows
    for r in ok_rows:
        assert r["found"]
        assert r["commensurability"] is not None
    assert "empirical_C" in report.empirical
    cells = report.empirical["empirical_C"]
    for r in ok_rows:
        assert r["commensurability"] <= cells[(r["K"], r["L"])]
    ok, details = verify_payload(report.to_json())
    assert ok, details


def test_poschar_row_without_a_subring():
    # X = {0, ±1, ±2} over zmod:101: the core has 49 > 32 elements, so the
    # exhaustive pass does not run; ⟨X⟩ = Z/101 leaves the core, and every
    # seed equals X.  The row finds no subring, its commensurability cell
    # is empty, and its witness verifies
    from apxring.sweep import _run_row
    spec = SweepSpec.parse(spec_text(mode="poschar", rings="zmod:101"))
    row = _run_row((0, "zmod:101", ("0", "1", "2", "99", "100"), "poschar"))
    assert (row["strategy"], row["commensurability"]) == ("none", None)
    assert SweepReport(spec, [row]).to_csv().splitlines()[1] == \
        "0,zmod:101,5,101,2,none,False,False,0,,49,ok,{0 1 2 99 100}"
    assert verify_payload(row["_witness"]) == (True, [
        "K = 2 certificate re-verified",
        "minimality certified: every cover needs 2", "subring_search re-derived"])


def _tampered(payload):
    """Copies of a report payload, each with one claimed constant changed."""
    if payload["kind"] == "subring_search":
        yield dict(payload, commensurability=payload["commensurability"] + 1)
        yield dict(payload, core_size=payload["core_size"] + 1)
        yield dict(payload, exhaustive=not payload["exhaustive"])
        yield dict(payload, strategy="seeded:5X")
        yield dict(payload, strategy="none")
        return
    yield dict(payload, hypothesis="ambient")
    yield dict(payload, k=payload["k"] + 1)
    yield dict(payload, k11_bound=payload["k11_bound"] + 1)
    yield dict(payload, core_is_subring=not payload["core_is_subring"])
    yield dict(payload, commensurability_to_x=payload["commensurability_to_x"] + 1)
    yield dict(payload, verdict="small")
    ab, ba = payload["comm_core_by_x"], payload["comm_x_by_core"]
    if ab["target"] != ab["base"]:
        yield dict(payload, comm_core_by_x=ba, comm_x_by_core=ab)


def test_verify_payload_rederives_report_constants():
    # every row of an nzd and a poschar sweep verifies, and so does a
    # report whose core is no subring; each tampered copy fails, alone and
    # inside its sweep report
    z = ax.nzd_classify(ax.parse_set(ax.parse_ring("int"), "{-1,0,1}")).to_json()
    assert not z["core_is_subring"]
    payloads = [z]
    for mode, rings in (("nzd", "zmod:5, zmod:7, gf:2^2:t^2+t+1"),
                        ("poschar", "zmod:4, zmod:8, polyquo:2:t^2")):
        report = run_sweep(SweepSpec.parse(
            spec_text(mode=mode, rings=rings, max_size="5"))).to_json()
        rows = report["rows"]
        assert len(rows) > 10 and all(row.get("_witness") for row in rows)
        payloads += [row["_witness"] for row in rows]
        bad_row = dict(rows[0], _witness=next(_tampered(rows[0]["_witness"])))
        assert not verify_payload(dict(report, rows=[bad_row, *rows[1:]]))[0]
    checked = 0
    for payload in payloads:
        ok, details = verify_payload(payload)
        assert ok, details
        for bad in _tampered(payload):
            assert not verify_payload(bad)[0], bad
            checked += 1
    assert checked > 100


def _bumped(value):
    """A different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, (list, tuple)):
        return list(value[1:])
    return 1        # None


def test_verify_sweep_checks_row_fields():
    # a row field the CSV prints must equal its witness's value; tampering
    # the field, not the witness, fails the report
    fields = {"nzd": ("ring", "x", "x_size", "L", "K", "verdict", "core_size",
                      "core_is_subring", "commensurability", "k11_bound"),
              "poschar": ("ring", "x", "x_size", "L", "K", "strategy", "exhaustive",
                          "found", "s_size", "commensurability", "core_size")}
    for mode, rings in (("nzd", "zmod:5, zmod:7"), ("poschar", "zmod:4, zmod:8")):
        report = run_sweep(SweepSpec.parse(
            spec_text(mode=mode, rings=rings, max_size="4"))).to_json()
        rows = report["rows"]
        i = next(i for i, r in enumerate(rows) if r.get("found", True))
        found = rows[i]

        def with_row(row):
            return dict(report, rows=[*rows[:i], row, *rows[i + 1:]])

        assert verify_payload(report)[0]
        # x in another order is the same set
        shuffled = dict(found, x=list(reversed(found["x"])))
        assert verify_payload(with_row(shuffled))[0]
        for key in fields[mode]:
            bad = dict(found, **{key: _bumped(found[key])})
            ok, details = verify_payload(with_row(bad))
            assert not ok and f": {key} " in details[0], (key, details)


def _modules_after(code):
    """Names in sys.modules of a fresh interpreter after running code:
    the package's modules and concurrent.futures."""
    code = ("import sys\n" + code + "\nprint(*sorted(m for m in sys.modules "
            "if m.startswith(('apxring', 'concurrent.futures'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_leaves_process_pool_out(tmp_path):
    # only run_sweep with jobs > 1 needs multiprocessing, and each
    # subcommand loads only the modules it runs
    assert _modules_after("import apxring.cli") == {
        "apxring", "apxring.cli", "apxring.errors", "apxring.rings",
        "apxring.sets"}
    path = tmp_path / "cert.json"
    cert = ax.approx_constant(ax.parse_set(ax.modular(7), "{0,1,6}"))
    path.write_text(json.dumps(cert.to_json()))
    assert _modules_after(
        "from apxring.cli import main\n"
        f"assert main(['verify', '--input', {str(path)!r}]) == 0") == {
        "apxring", "apxring.cli", "apxring.cover", "apxring.errors",
        "apxring.rings", "apxring.serialize", "apxring.sets"}


def test_package_exports_load_on_first_use():
    for name in ax.__all__:
        home = importlib.import_module(f"apxring.{ax._EXPORTS[name]}")
        assert getattr(ax, name) is getattr(home, name), name
    assert set(ax.__all__) <= set(dir(ax))
    with pytest.raises(AttributeError, match="no_such_name"):
        ax.no_such_name


# exported so that tests can cross-check the solvers against them
ORACLES = ("cover_brute_force",)


def _references(path):
    """Identifiers a Python file uses: names, imported names, attributes
    of ``ax`` or ``apxring``, and strings spelling one (as the lists a
    ``getattr`` loop reads do).  Definitions, docstrings and comments
    are not uses."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Attribute):
            if ast.unparse(node.value).rpartition(".")[2] in ("ax", "apxring"):
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def test_public_surface_has_callers():
    # every exported name is used by the CLI, a module of the package or
    # the benchmark harness, or is a named test oracle
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "apxring").glob("*.py"), *(root / "perfbench").rglob("*.py")]
    used = set().union(*(_references(f) for f in files if f.name != "__init__.py"))
    assert set(ORACLES) <= set(ax.__all__)
    assert [n for n in ax.__all__ if n not in used and n not in ORACLES] == []


def test_package_imports_only_the_standard_library():
    # numpy, scipy and every other third-party package stay out of src/,
    # which keeps pyproject.toml's dependencies empty
    src = Path(__file__).resolve().parents[1] / "src" / "apxring"
    allowed = {*sys.stdlib_module_names, "apxring"}
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names
                        if n.partition(".")[0] not in allowed]
    assert outside == []
    assert len(list(src.glob("*.py"))) >= 10


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "apxring.cli", *args],
                          capture_output=True, text=True, timeout=300, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_approx_exact():
    code, out, _ = run_cli("approx", "--ring", "zmod:7", "--set", "{1,6,0}",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2 and payload["kind"] == "approx_certificate"
    ok, details = verify_payload(payload)
    assert ok, details


def test_cli_approx_trivial_and_error():
    code, out, _ = run_cli("approx", "--ring", "int", "--set", "{0}")
    assert code == 0 and "K = 1" in out
    code, _, err = run_cli("approx", "--ring", "int", "--set", "{1}")
    assert code == 2 and "symmetric" in err


def test_cli_k11():
    code, out, _ = run_cli("k11", "--ring", "int", "--set", "{-1,0,1}",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["translates"]) <= 2 ** 11
    ok, details = verify_payload(payload)
    assert ok, details


def test_cli_gallery():
    code, out, _ = run_cli("gallery", "y-set", "--p", "3")
    assert code == 0 and "7 elements" in out
    code, _, err = run_cli("gallery", "bogus")
    assert code == 2 and "'bogus'" in err
    assert all(name in err for name in GALLERY_NAMES), err
    code, out, _ = run_cli("gallery", "y-set", "--p", "3", "--json")
    payload = json.loads(out)
    ok, details = verify_payload(payload)
    assert code == 0 and ok, details
    for key, value, wrong in (("x", payload["x"][:-1], "x"),
                              ("params", {"p": 5}, "ring, x"),
                              ("expected", "", "expected")):
        ok, details = verify_payload(dict(payload, **{key: value}))
        assert not ok and details[0].endswith(f"re-derives another {wrong}")


def test_cli_growth_and_cover_and_fact21():
    code, out, _ = run_cli("growth", "--ring", "int", "--set", "{-1,0,1}",
                           "--n", "2")
    assert code == 0 and "size 31" in out
    code, out, _ = run_cli("cover", "--ring", "int", "--target", "{-2,-1,0,1,2}",
                           "--base", "{-1,0,1}")
    assert code == 0 and "by 2 translates" in out
    code, out, _ = run_cli("fact21", "--ring", "int", "--set", "{-1,0,1}",
                           "--m", "2", "--msum-m", "2")
    assert code == 0 and "msum m=2" in out
    code, out, _ = run_cli("fact21", "--ring", "int", "--set", "{-1,0,1}",
                           "--m", "2", "--msum-m", "2", "--json")
    payload = json.loads(out)
    ok, details = verify_payload(payload)
    assert code == 0 and ok, details
    far = {"translates": ["100"]}         # covers nothing near the target
    rows = payload["rows"]
    # a row verifies alone too, re-derived from its certificate
    ok, details = verify_payload(rows[1])
    assert ok and details[-1] == "constructive_report re-derived", details
    for bad in (dict(payload, msum=dict(payload["msum"], **far)),
                dict(payload, rows=[rows[0], dict(rows[1], witness=dict(
                    rows[1]["witness"], **far))]),
                dict(payload, certificate=dict(payload["certificate"], k=1)),
                dict(rows[1], exact_size=rows[1]["exact_size"] + 1)):
        assert not verify_payload(bad)[0]


def test_cli_model():
    code, out, _ = run_cli("model", "--ring", "zmod:9", "--set", "{0,1,8}",
                           "--ideal", "{0,3,6}")
    assert code == 0
    assert "max constant 3 = cosets of I meeting X" in out
    assert "constants (3, 1) (exact)" in out and "subsets" not in out


def test_cli_model_names_least_escaping_pair(capsys):
    # the ideal check names the least escaping pair in canonical order
    from apxring.cli import main
    assert main(["model", "--ring", "zmod:16", "--set", "{0,1,15}",
                 "--ideal", "{0,3,11}"]) == 2
    assert capsys.readouterr().err == (
        "precondition failed: not closed under addition at (3,3)\n")


def test_cli_classify():
    # the facts the dichotomy turns on, and no verdict: exit 0 either way
    code, out, _ = run_cli("classify", "--ring", "zmod:7", "--set", "{0,1,6}")
    assert code == 0 and out.splitlines() == [
        "K = 2  |X| = 3", "core: 7 elements, subring = True",
        "commensurability(core, X) = 3 (exact) <= K^11 = 2048"]
    code, out, _ = run_cli("classify", "--ring", "int", "--set", "{-1,0,1}")
    assert code == 0 and out.splitlines()[1:] == [
        "core: 17 elements, subring = False",
        "commensurability(core, X) = 6 (exact) <= K^11 = 2048"]


def test_cli_verify_round_trip(tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run_cli("approx", "--ring", "zmod:7", "--set", "{1,6,0}",
                         "--json", "--output", str(out_path))
    assert code == 0
    code, out, _ = run_cli("verify", "--input", str(out_path))
    assert code == 0 and "VERIFIED" in out
    payload = json.loads(out_path.read_text())
    payload["f"] = payload["f"][:1]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(payload))
    code, out, _ = run_cli("verify", "--input", str(bad_path))
    assert code == 4 and "FAILED" in out


def test_cli_verify_rejects_v1_certificate(tmp_path):
    # v1 payloads carried "membership" and f_location["in_x2"]; the cover
    # alone proves F inside the generated subring, every translate
    # meeting the target, so schema 1 is retired and today's names neither
    cert = ax.approx_constant(ax.parse_set(ax.modular(7), "{0,1,6}"), "ring")
    payload = cert.to_json()
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli("verify", "--input", str(path))
    assert code == 0 and "VERIFIED" in out
    payload.update(membership="closure", f_location={"in_x2": True})
    assert verify_payload(payload) == (False, ["schema 4 names no f_location"])
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(dict(payload, schema_version="1")))
    code, out, _ = run_cli("verify", "--input", str(path))
    assert code == 4 and out == (
        "unknown approx_certificate schema_version '1'\nFAILED\n"), out


def test_cli_sweep_deterministic_csv(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(spec_text())
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    json_out = tmp_path / "report.json"
    code, _, _ = run_cli("sweep", "--config", str(cfg), "--csv", str(csv1),
                         "--json", str(json_out))
    assert code == 0
    code, _, _ = run_cli("sweep", "--config", str(cfg), "--csv", str(csv2))
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    code, out, _ = run_cli("verify", "--input", str(json_out))
    assert code == 0, out


def test_cli_sweep_empty_family(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(spec_text(rings=""))
    code, out, _ = run_cli("sweep", "--config", str(cfg))
    assert code == 0
    assert "0 instances" in out


def test_poschar_sweep_csv_golden():
    # byte-for-byte pin of the chosen S, its strategy tag and the
    # exhaustive flag on a small random-policy config (cores <= 16)
    data = Path(__file__).parent / "data"
    spec = SweepSpec.load(str(data / "poschar_small.cfg"))
    csv = run_sweep(spec).to_csv()
    assert csv == (data / "poschar_small.csv").read_text(encoding="utf-8")
    assert "exhaustive,True" in csv and ",generated," in csv


def test_poschar_cores_csv_golden():
    # byte-for-byte pin of the subring search on 16- and 25-element
    # cores, where the exhaustive pass finds the most subrings
    data = Path(__file__).parent / "data"
    spec = SweepSpec.load(str(data / "poschar_cores.cfg"))
    assert run_sweep(spec).to_csv() == \
        (data / "poschar_cores.csv").read_text(encoding="utf-8")


def test_nzd_sweep_csv_golden():
    # byte-for-byte pin of K, verdict, core and commensurability over
    # prime zmod and gf rings, which have no zero divisors, so every row
    # has a witness: a schema-4 report, which names no hypothesis, verdict
    # or threshold; schema 3 is retired
    data = Path(__file__).parent / "data"
    report = run_sweep(SweepSpec.load(str(data / "nzd_small.cfg")))
    assert report.to_csv() == \
        (data / "nzd_small.csv").read_text(encoding="utf-8")
    witnesses = [r["_witness"] for r in report.rows]
    assert all(w["schema_version"] == "4" and not {
        "hypothesis", "verdict", "small_threshold"} & w.keys() for w in witnesses)
    assert verify_payload(dict(witnesses[0], schema_version="3")) == (
        False, ["unknown classification_report schema_version '3'"])
    # every core is a subring: no row bounds N(K)
    assert _empirical_n(report) == {}


def test_verify_reruns_rows_without_a_witness():
    # every row of an nzd sweep over rings with zero divisors fails with
    # a ZeroDivisorError and carries no witness; apx verify re-runs each
    # and accepts the report, and fails it once one status is edited
    report = run_sweep(SweepSpec.parse(spec_text(rings="zmod:6, zmod:8"))).to_json()
    rows = report["rows"]
    assert rows and all(r["status"].startswith("ZeroDivisorError: zero divisors")
                        and "_witness" not in r for r in rows)
    assert verify_payload(report)[0]
    bad = dict(rows[0], status="ZeroDivisorError: made up")
    ok, details = verify_payload(dict(report, rows=[bad, *rows[1:]]))
    assert not ok and "differs from a re-run's" in details[0], details
    # a key the re-run does not write fails too
    bad = dict(rows[0], verdict="structured")
    assert verify_payload(dict(report, rows=[bad, *rows[1:]])) == (False, [
        "row 0: verdict 'structured' differs from a re-run's None"])


def test_zero_divisor_rows_solve_nothing(monkeypatch):
    # over rings with zero divisors an nzd row ends at the ring check:
    # no cover is solved, in the sweep or in apx verify's re-run of its
    # witness-less rows, and no K is written without a witness
    import apxring.cover as cover_mod
    cover_exact, calls = cover_mod.cover_exact, []

    def counted(*args, **kwargs):
        calls.append(args)
        return cover_exact(*args, **kwargs)

    monkeypatch.setattr(cover_mod, "cover_exact", counted)
    report = run_sweep(SweepSpec.parse(spec_text(
        rings="mat:2:zmod:2, polyquo:2:t^4", policy="random", seed=3,
        instances_per_ring=5)))
    assert len(report.rows) == 10 and all(
        r["status"].startswith("ZeroDivisorError: ") and "K" not in r
        for r in report.rows)
    assert report.to_csv().splitlines()[1] == (
        "0,mat:2:zmod:2,4,2,,,,,,,ZeroDivisorError: zero divisors "
        "[[0;1];[0;0]]·[[0;1];[0;0]] = 0,{[[0;0];[0;0]] [[0;1];[1;0]] "
        "[[1;0];[0;1]] [[1;0];[1;1]]}")
    payload = report.to_json()
    assert verify_payload(payload) == (True, ["sweep_report re-derived"])
    assert calls == []
    # sweeps that certified K before the classifier ran wrote it on
    # failing rows too (row 0 held 3): today's re-run writes none
    for k in (3, 4):
        assert verify_payload(_row_edit(payload, K=k)) == (
            False, [f"row 0: K {k} differs from a re-run's None"])
    assert calls == []


DATA = Path(__file__).parent / "data"


# sha256 prefixes of the benchmark's sweep CSVs at seeds 2 and 3
_BENCHMARK_CSV_SHA256 = {
    "nzd": {2: "4dd73647d4a17be4", 3: "7ccfa26ca64b532b"},
    "poschar": {2: "10302c5d2da0e0ba", 3: "598605d5f07bf375"},
}


# empirical_N of the benchmark's nzd sweep at seeds 1 to 3: lower bounds
# on N(K), each from rows whose core is no subring
_BENCHMARK_EMPIRICAL_N = {1: {2: 2, 3: 3}, 2: {2: 3, 3: 3}, 3: {2: 3}}


def _empirical_n(report):
    """The report's empirical_N, each cell checked to be the |X| of an ok
    row of its K whose core is no subring, which proves N(K) > |X|."""
    table = report.empirical["empirical_N"]
    for k, size in table.items():
        assert any(r["status"] == "ok" and not r["core_is_subring"]
                   and (r["K"], r["x_size"]) == (k, size) for r in report.rows), k
    return table


@pytest.mark.parametrize("cfg", ["nzd", "poschar"])
def test_benchmark_sweep_csv_golden(cfg):
    # the benchmark's sweeps from its own configs, byte for byte at seed
    # 1 and by hash at seeds 2 and 3: a change that moves a row shows
    # here first; the nzd sweeps pin their empirical_N too
    import hashlib
    spec = SweepSpec.load(str(Path(__file__).parents[1] / "perfbench" / "data"
                              / f"{cfg}.cfg"))
    report = run_sweep(dataclasses.replace(spec, seed=1))
    assert report.to_csv() == \
        (DATA / f"perfbench_{cfg}_seed1.csv").read_text(encoding="utf-8")
    reports = {1: report}
    for seed, prefix in _BENCHMARK_CSV_SHA256[cfg].items():
        reports[seed] = run_sweep(dataclasses.replace(spec, seed=seed))
        csv = reports[seed].to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest()[:16] == prefix, seed
    if cfg == "nzd":
        assert {seed: _empirical_n(r) for seed, r in reports.items()} \
            == _BENCHMARK_EMPIRICAL_N


def _rows_edited(p, *rows):
    return dict(p, rows=[*rows, *p["rows"][len(rows):]])


# edits of a sweep report's rows that keep every row witness: the rows
# must be the config's instances in order, and a row with a witness "ok"
_ROW_EDITS = {
    "dropped": lambda p: SweepReport(SweepSpec.parse(p["config"]),
                                     p["rows"][1:]).to_json(),
    "status": lambda p: _rows_edited(p, dict(p["rows"][0], status="okx")),
    "instance-id": lambda p: _rows_edited(p, dict(p["rows"][0], instance_id=99)),
    "swapped": lambda p: _rows_edited(p, dict(p["rows"][1], instance_id=0),
                                      dict(p["rows"][0], instance_id=1)),
    # an ok row stripped of its witness
    "ok-unwitnessed": lambda p: _rows_edited(p, {
        k: v for k, v in p["rows"][0].items() if k != "_witness"}),
    # keys a poschar row never holds
    "verdict-added": lambda p: _rows_edited(p, dict(
        p["rows"][0], verdict="counterexample-candidate")),
    "k11-bound-added": lambda p: _rows_edited(p, p["rows"][0], dict(
        p["rows"][1], k11_bound=99)),
}
# every subcommand that writes a payload, and one tampered copy of it
_CLI_PAYLOADS = {
    "approx": (["approx", "--ring", "zmod:7", "--set", "{0,1,6}"],
               lambda p: dict(p, k=p["k"] + 1)),
    # a mode other than ring or group is not read as group mode
    "approx-mode": (["approx", "--ring", "zmod:7", "--set", "{0,1,6}"],
                    lambda p: dict(p, mode="ringx")),
    "approx-asymmetric": (["approx", "--ring", "zmod:7", "--set", "{0,1,6}"],
                          lambda p: dict(p, x=["0", "1"])),
    "approx-uncovered": (["approx", "--ring", "zmod:7", "--set", "{0,1,6}"],
                         lambda p: dict(p, f=["3", "4"])),
    "approx-lower-bound": (["approx", "--ring", "zmod:7", "--set", "{0,1,6}"],
                           lambda p: dict(p, lower_bound=dict(
                               p["lower_bound"], weights={"0": -1}))),
    "cover": (["cover", "--ring", "int", "--target", "{-2,-1,0,1,2}",
               "--base", "{-1,0,1}"],
              lambda p: dict(p, translates=p["translates"][:1])),
    "growth": (["growth", "--ring", "int", "--set", "{-1,0,1}", "--n", "2",
                "--covering"],
               lambda p: dict(p, entries=[*p["entries"][:-1], dict(
                   p["entries"][-1], covering=p["entries"][-1]["covering"] + 1)])),
    "fact21": (["fact21", "--ring", "int", "--set", "{-1,0,1}", "--m", "2",
                "--msum-m", "2"],
               lambda p: dict(p, rows=[*p["rows"][:-1],
                                       dict(p["rows"][-1], constructed_size=1)])),
    "k11": (["k11", "--ring", "int", "--set", "{-1,0,1}"],
            lambda p: dict(p, translates=["100"])),
    # only an exact cover proves itself optimal, and the method is one of
    # the three builders'
    "k11-optimal": (["k11", "--ring", "int", "--set", "{-1,0,1}"],
                    lambda p: dict(p, optimal=not p["optimal"])),
    "cover-method": (["cover", "--ring", "int", "--target", "{-2,-1,0,1,2}",
                      "--base", "{-1,0,1}"],
                     lambda p: dict(p, method="exactx")),
    "cover-greedy": (["cover", "--ring", "int", "--target", "{-2,-1,0,1,2}",
                      "--base", "{-1,0,1}", "--greedy"],
                     lambda p: dict(p, optimal=True)),
    "classify-nzd": (["classify", "--ring", "zmod:7", "--set", "{0,1,6}"],
                     lambda p: dict(p, verdict="small")),
    # a nested payload is of the kind its slot holds
    "classify-nested-kind": (["classify", "--ring", "zmod:7", "--set", "{0,1,6}"],
                             lambda p: dict(p, comm_core_by_x=dict(
                                 p["comm_core_by_x"], kind="approx_certificate"))),
    "classify-certificate-kind": (["classify", "--ring", "zmod:7", "--set",
                                   "{0,1,6}"],
                                  lambda p: dict(p, certificate=dict(
                                      p["certificate"], kind="cover_witness"))),
    # a nested payload is of a schema version its kind's verifier reads
    **{f"classify-{slot}-schema": (["classify", "--ring", "zmod:7", "--set",
                                    "{0,1,6}"],
                                   lambda p, slot=slot: dict(p, **{slot: dict(
                                       p[slot], schema_version="99")}))
       for slot in ("certificate", "comm_core_by_x")},
    "classify-poschar": (["classify", "--mode", "poschar", "--ring", "zmod:8",
                          "--set", "{0,2,6}"],
                         lambda p: dict(p, core_size=p["core_size"] + 1)),
    # Z/8 is a subring, but not one inside the core {0, 2, 4, 6}
    "classify-poschar-outside-core": (
        ["classify", "--mode", "poschar", "--ring", "zmod:8", "--set", "{0,2,6}"],
        lambda p: dict(p, subring=[str(v) for v in range(8)])),
    "classify-poschar-comm": (
        ["classify", "--mode", "poschar", "--ring", "zmod:8", "--set", "{0,2,6}"],
        lambda p: dict(p, comm_s_by_x=dict(
            p["comm_s_by_x"], translates=p["comm_s_by_x"]["translates"][:-1]))),
    # the core has 97 elements, too many for the exhaustive pass, and
    # ⟨X⟩ = Z/101 leaves it: no candidate, strategy "none"
    "classify-poschar-none": (
        ["classify", "--mode", "poschar", "--ring", "zmod:101", "--set",
         "{0,1,2,3,98,99,100}"],
        lambda p: dict(p, strategy="generated")),
    "model": (["model", "--ring", "zmod:9", "--set", "{0,1,8}", "--ideal",
               "{0,3,6}"],
              lambda p: dict(p, max_genericity=p["max_genericity"] + 1)),
    "gallery": (["gallery", "y-set", "--p", "3"],
                lambda p: dict(p, expected="")),
    **{f"sweep-{cfg}": (["sweep", "--config", str(DATA / f"{cfg}.cfg")],
                        lambda p: dict(p, empirical={
                            name: dict(table, **{"99": 1})
                            for name, table in p["empirical"].items()}))
       for cfg in ("nzd_small", "poschar_small")},
    **{f"sweep-rows-{name}": (["sweep", "--config", str(DATA / "poschar_small.cfg")],
                              edit)
       for name, edit in _ROW_EDITS.items()},
    # an ok row passed off as a failing one, out of ``empirical``: rows
    # without a witness are re-run
    "sweep-rows-unwitnessed": (
        ["sweep", "--config", str(DATA / "poschar_small.cfg")],
        lambda p: SweepReport(SweepSpec.parse(p["config"]), [
            {k: v for k, v in p["rows"][0].items() if k != "_witness"}
            | {"status": "ZeroDivisorError: made up"}, *p["rows"][1:]]).to_json()),
}

# the detail a tamper's FAILED names, where it pins the check reached
_CLI_TAMPER_WHY = {
    "approx-asymmetric": "x is not additively symmetric",
    "approx-uncovered": "uncovered 0",
    "approx-lower-bound": "lower bound needs integer weights >= 0 over d > 0",
    "classify-nzd": "schema 4 names no verdict",
    "classify-poschar-comm": "comm_s_by_x: uncovered element 4",
    "classify-poschar-none": "strategy 'generated' does not match the outcome",
}


@pytest.mark.parametrize("name", sorted(_CLI_PAYLOADS))
def test_cli_json_output_verifies(name, tmp_path, capsys):
    # the file each subcommand writes re-verifies with apx verify, and a
    # copy with one claim changed fails, as does one of an unknown
    # schema version
    from apxring.cli import main
    argv, tamper = _CLI_PAYLOADS[name]
    out = tmp_path / "payload.json"
    if argv[0] == "sweep":
        argv = [*argv, "--json", str(out), "--csv", str(tmp_path / "rows.csv")]
    else:
        argv = [*argv, "--json", "--output", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert verify_payload(payload)[0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tamper(payload)), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 0
    assert capsys.readouterr().out.endswith("VERIFIED\n")
    assert main(["verify", "--input", str(bad)]) == 4
    text = capsys.readouterr().out
    assert text.endswith("FAILED\n") and _CLI_TAMPER_WHY.get(name, "") in text, text
    bad.write_text(json.dumps(dict(payload, schema_version="99")), encoding="utf-8")
    assert main(["verify", "--input", str(bad)]) == 4
    text = capsys.readouterr().out
    assert "schema_version '99'" in text and text.endswith("FAILED\n"), text


def _row_edit(p, **edit):
    return _rows_edited(p, dict(p["rows"][0], **edit))


# a leaf of another JSON type than the builder writes, which == compares
# equal (2 == 2.0, 1 == true) or bool() reads as a claim
_TYPE_MUTATIONS = {
    "certificate-k-float": ("k2", lambda p: dict(p, k=2.0)),
    "certificate-k-true": ("k1", lambda p: dict(p, k=True)),
    "certificate-minimal-string": ("k2", lambda p: dict(p, minimal="yes")),
    "cover-optimal-one": ("cover", lambda p: dict(p, optimal=1)),
    "cover-optimal-string": ("cover", lambda p: dict(p, optimal="no")),
    "classify-k-float": ("classify", lambda p: dict(p, k=float(p["k"]))),
    "classify-core-is-subring-int": ("classify", lambda p: dict(
        p, core_is_subring=int(p["core_is_subring"]))),
    "growth-covering-one": ("growth", lambda p: dict(p, covering=1)),
    "sweep-row-core-is-subring-int": ("sweep", lambda p: _row_edit(
        p, core_is_subring=int(p["rows"][0]["core_is_subring"]))),
    "sweep-row-x-size-float": ("sweep", lambda p: _row_edit(
        p, x_size=float(p["rows"][0]["x_size"]))),
}


@pytest.fixture(scope="module")
def type_mutation_payloads():
    m7 = ax.modular(7)
    x = ax.parse_set(m7, "{0,1,6}")
    sweep = run_sweep(SweepSpec.parse(spec_text(rings="zmod:7", max_size=3)))
    payloads = {
        "k2": ax.approx_constant(x),
        "k1": ax.approx_constant(ax.parse_set(ax.modular(9), "{0,3,6}")),
        "cover": ax.cover_exact(ax.parse_set(m7, "{0,1,2,5,6}"), x),
        "classify": ax.nzd_classify(x),
        "growth": ax.growth_sequence(x, 1, with_covering=True),
        "sweep": sweep,
    }
    # as read back from a file
    return {k: json.loads(json.dumps(v.to_json())) for k, v in payloads.items()}


@pytest.mark.parametrize("name", sorted(_TYPE_MUTATIONS))
def test_verify_fails_leaves_of_the_wrong_json_type(name, type_mutation_payloads):
    source, mutate = _TYPE_MUTATIONS[name]
    payload = type_mutation_payloads[source]
    assert verify_payload(payload)[0], source
    bad = json.loads(json.dumps(mutate(payload)))
    assert (bad == payload) != name.endswith("-string")   # == cannot tell the rest
    ok, details = verify_payload(bad)
    assert not ok, details


def test_verify_fails_unknown_keys(type_mutation_payloads):
    # a key outside its kind's, of any JSON type, fails at the top level,
    # in a nested payload and in a sweep row's witness; an older schema's
    # key fails, and so does its schema
    search = ax.pos_char_search(ax.parse_set(ax.modular(8), "{0,2,6}")).to_json()
    top = {name: type_mutation_payloads[name] for name in ("cover", "k2", "classify")}
    top["search"] = search
    nested = [(type_mutation_payloads["classify"], "certificate", ""),
              (type_mutation_payloads["classify"], "comm_core_by_x",
               "comm_core_by_x: "),
              (search, "certificate", ""), (search, "comm_x_by_s", "comm_x_by_s: ")]
    sweep = type_mutation_payloads["sweep"]
    for value in (123, 1.5, "x", True, None, [], {"a": 1}):
        for name, payload in top.items():
            assert verify_payload(dict(payload, bogus=value)) == (
                False, [f"schema {payload['schema_version']} names no bogus"]), name
        for payload, slot, where in nested:
            inner = payload[slot]
            bad = dict(payload, **{slot: dict(inner, bogus=value)})
            assert verify_payload(bad) == (False, [
                f"{where}schema {inner['schema_version']} names no bogus"]), slot
        row = sweep["rows"][0]
        bad = _row_edit(sweep, _witness=dict(row["_witness"], bogus=value))
        assert verify_payload(bad) == (False, ["row 0: schema 4 names no bogus"])
    for payload, key in ((type_mutation_payloads["k2"], "derivations"),
                         (type_mutation_payloads["k2"], "membership"),
                         (search, "containment_ok"),
                         *((type_mutation_payloads["classify"], key)
                           for key in ("hypothesis", "verdict", "small_threshold"))):
        version = payload["schema_version"]
        assert verify_payload(dict(payload, **{key: "ambient"})) == (
            False, [f"schema {version} names no {key}"])
    # certificates of schemas 2 and 3 carried the constant f_location
    # "T-X" pool and their derivations, which the cover re-proves; they
    # fail alone, nested in today's classification report and nested in
    # a schema-2 one
    cert, report = type_mutation_payloads["k2"], type_mutation_payloads["classify"]
    for version in ("2", "3"):
        old = dict(cert, schema_version=version, f_location={"pool": "T-X"},
                   derivations={})
        why = f"unknown approx_certificate schema_version '{version}'"
        assert verify_payload(old) == (False, [why])
        assert verify_payload(dict(report, certificate=old)) == (False, [why])
        nested = dict(report, schema_version="2", hypothesis="ambient",
                      certificate=old)
        assert verify_payload(nested) == (
            False, ["unknown classification_report schema_version '2'"])


def test_verify_fails_an_unknown_kind():
    assert verify_payload({"kind": "cover_witnes", "schema_version": "2"}) == (
        False, ["unknown payload kind 'cover_witnes'"])


def test_exhaustive_instances_stop_at_the_largest_set_that_fits(monkeypatch):
    # 0 is in every set, so no union of more than max_size - 1 orbits
    # fits: on gf:2^5, whose 31 orbits are single elements, max_size 3
    # tries the 1 + 31 + 465 unions of at most two and none of the
    # 2^31 - 497 larger ones
    import itertools
    real, tried = itertools.combinations, []

    def combinations(pool, r):
        for combo in real(pool, r):
            tried.append(combo)
            assert len(tried) <= 497, "a union of too many orbits was tried"
            yield combo

    monkeypatch.setattr(itertools, "combinations", combinations)
    spec = SweepSpec.parse(spec_text(rings="gf:2^5:t^5+t^2+1", max_size=3))
    assert len(list(generate_instances(spec))) == len(tried) == 497


def test_cli_table_ring_payload_verifies(tmp_path, capsys):
    # a payload over a table ring loaded from a file carries the tables
    # inline, re-verifies, and fails when a claim or its tables are edited
    from apxring.cli import main
    zm = ax.zero_multiplication_ring(8)
    tables = tmp_path / "zeromul8.tbl"
    rows = [" ".join(map(str, row)) for row in (*zm.add_table, *zm.mul_table)]
    tables.write_text("\n".join(["8", *rows]) + "\n")
    out = tmp_path / "payload.json"
    assert main(["approx", "--ring", f"table:@{tables}", "--set", "{0,1,7}",
                 "--json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["ring"] == zm.descriptor
    capsys.readouterr()
    assert main(["verify", "--input", str(out)]) == 0
    assert capsys.readouterr().out.endswith("VERIFIED\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(payload, k=payload["k"] + 1)), encoding="utf-8")
    assert main(["verify", "--input", str(bad)]) == 4
    assert capsys.readouterr().out.endswith("FAILED\n")
    # an entry >= n, and a non-associative product, fail the ring's checks
    add_hex = zm.descriptor.split(":")[2]
    for ring in (zm.descriptor.replace(add_hex, "08" + add_hex[2:]),
                 "table:4:00010203010003020203000103020100:"
                 "00000000000200020001000100030003"):
        bad.write_text(json.dumps(dict(payload, ring=ring)), encoding="utf-8")
        assert main(["verify", "--input", str(bad)]) == 2
        assert "precondition failed:" in capsys.readouterr().err


def test_cli_unreadable_input_exits_2(tmp_path, capsys):
    from apxring.cli import main
    missing = tmp_path / "missing.json"
    not_json = tmp_path / "not.json"
    not_json.write_text("{ not json")
    bad_size = tmp_path / "bad_size.tbl"
    bad_size.write_text("x\n0 1\n1 0\n0 0\n0 1\n")
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text(spec_text(max_size="nine"))
    for argv in (["verify", "--input", str(missing)],
                 ["verify", "--input", str(not_json)],
                 ["approx", "--ring", "zmod:7", "--set", f"@{missing}"],
                 ["approx", "--ring", f"table:@{bad_size}", "--set", "{0,1}"],
                 ["sweep", "--config", str(bad_config)]):
        assert main(argv) == 2, argv
        assert "precondition failed:" in capsys.readouterr().err


def test_cli_out_of_range_m_and_n_exit_2(tmp_path, capsys):
    # m < 1 and n < 0 are bad parameters (exit 2), not an internal error
    # or an empty table; a constructive report claiming m = 0 fails
    from apxring.cli import main
    base = ["--ring", "int", "--set", "{-1,0,1}"]
    for argv in (["fact21", *base, "--msum-m", "-1"], ["fact21", *base, "--m", "0"],
                 ["growth", *base, "--n", "-1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:") and "must be >= " in err, err
    x = ax.parse_set(ax.parse_ring("int"), "{-1,0,1}")
    cert = ax.approx_constant(x, "ring")
    for call in (lambda: ax.power_products(x, 0), lambda: ax.iterated_sum(x, 0),
                 lambda: ax.claim2_cover(0, cert), lambda: ax.msum_cover(-1, cert),
                 lambda: ax.bound_table(cert, 0), lambda: ax.growth_sequence(x, -1)):
        with pytest.raises(ax.InvalidParamsError, match="must be >= "):
            call()
    out = tmp_path / "fact21.json"
    assert main(["fact21", *base, "--m", "1", "--json", "--output", str(out)]) == 0
    row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(row, m=0)), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--input", str(bad)]) == 4
    assert capsys.readouterr().out.endswith("FAILED\n")


def test_cli_empty_set_exits_2(capsys):
    # every subcommand that certifies X first rejects an empty one
    from apxring.cli import main
    base = ["--ring", "zmod:7", "--set", "{}"]
    for argv in (["approx", *base], ["approx", *base, "--mode", "group"],
                 ["k11", *base], ["fact21", *base], ["classify", *base],
                 ["classify", "--mode", "poschar", *base]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "precondition failed: an approximate subring is nonempty\n", err


def test_growth_covering_of_empty_set_exits_2(tmp_path, capsys):
    # an empty X covers no X_n: the covering run fails as `apx cover` with
    # an empty base does, and a payload claiming null coverings fails
    from apxring.cli import main
    empty = ax.FiniteSet(ax.parse_ring("int"), [])
    with pytest.raises(ax.UncoverableError, match="^base set is empty$"):
        ax.growth_sequence(empty, 2, with_covering=True)
    for argv in (["growth", "--ring", "int", "--set", "{}", "--covering"],
                 ["cover", "--ring", "int", "--target", "{1}", "--base", "{}"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "precondition failed: base set is empty\n"
    out = tmp_path / "growth.json"
    assert main(["growth", "--ring", "int", "--set", "{}", "--json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [e["size"] for e in payload["entries"]] == [0, 0, 0, 0]
    assert verify_payload(dict(payload, covering=True)) == (
        False, ["growth_profile does not rebuild: base set is empty"])


def test_cli_verify_malformed_payload_exits_2(tmp_path, capsys):
    # a payload without a key its verifier reads, or of the wrong type,
    # is bad input: a precondition failure naming the key or the type
    from apxring.cli import main
    cert = ax.approx_constant(ax.parse_set(ax.modular(7), "{0,1,6}")).to_json()
    search = ax.pos_char_search(ax.parse_set(ax.modular(8), "{0,2,6}")).to_json()
    without = [({k: v for k, v in p.items() if k != key}, repr(key))
               for p, key in ((cert, "mode"), (cert, "minimal"), (cert, "stats"),
                              (search, "certificate"))]
    for payload, named in (({"kind": "classification_report", "schema_version": "4"},
                            "'certificate'"),
                           *without,
                           ([], "'list'"),
                           ({"kind": "approx_certificate", "schema_version": "4",
                             "ring": "zmod:7"}, "'x'"),
                           ({"kind": "approx_certificate", "ring": "zmod:7"},
                            "'schema_version'")):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", "--input", str(path)]) == 2, payload
        err = capsys.readouterr().err
        assert "precondition failed: malformed payload" in err and named in err, err


def test_unknown_ring_descriptor_error_is_bounded(capsys):
    # every ParseError quotes its input cut as str(ring) cuts it
    from apxring.cli import main
    for dsl, why in (("prod:(zmod:2,tablex:" + "00" * 5000 + ")", "unknown ring DSL"),
                     ("zmod:" + "x" * 5000, "modulus must be an integer"),
                     ("gf:2^2:" + "t" * 5000, "expected"),
                     ("prod:(zmod:2" + ",zmod:2" * 2000, "expected prod")):
        with pytest.raises(ParseError, match=why) as exc:
            ax.parse_ring(dsl)
        assert len(str(exc.value)) < 200
        assert main(["approx", "--ring", dsl, "--set", "{0}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:") and len(err) < 200
    for literal in ("{" + "1x" * 5000 + "}", "[" + "1, " * 5000):
        assert main(["approx", "--ring", "zmod:7", "--set", literal]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:") and len(err) < 200
