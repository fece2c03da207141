import json
import sys
import threading
import time

import numpy as np
import pytest

from ringlab import cli
from ringlab import core
from ringlab import constructions as cons
from ringlab import exprs
from ringlab import harness
from ringlab import properties as props
from ringlab.core import MAX_ORDER, BadArgumentError, canonical_fingerprint


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- expression parsing ------------------------------------------------------

def test_parse_examples():
    R = exprs.build("M(2, Z(2))")
    assert R.order == 16
    Q = exprs.build("Quo(Z(8), gen(4))")
    assert canonical_fingerprint(Q) == canonical_fingerprint(cons.zmod(4))


def test_parse_error_carries_offset():
    with pytest.raises(exprs.ExprError) as e:
        exprs.parse("T(2")
    assert "offset 4" in str(e.value)
    assert e.value.offset == 4


def test_parse_whitespace_insensitive():
    a = exprs.build("Prod( Z(2) ,Z(3))")
    b = exprs.build("Prod(Z(2),Z(3))")
    assert canonical_fingerprint(a) == canonical_fingerprint(b)


def test_parse_rejects_unknown_and_arity():
    with pytest.raises(exprs.ExprError):
        exprs.build("Frob(2)")
    with pytest.raises(exprs.ExprError):
        exprs.build("M(2)")


def test_corner_by_label():
    R = cons.matrix_ring(cons.zmod(2), 2)
    label = R.labels[R.one]
    got = exprs.build(f'Corner(M(2, Z(2)), "{label}")')
    assert canonical_fingerprint(got) == canonical_fingerprint(R)


def test_max_order_threads_through_evaluation():
    with pytest.raises(Exception):
        exprs.build("M(3, Z(16))")


def test_bimodule_file_constructions(tmp_path):
    Z2 = cons.zmod(2)
    path = tmp_path / "m.bim"
    path.write_text(cons.serialize_bimodule(cons.ring_bimodule(Z2), 2, 2))
    T = exprs.build(f'Tri(Z(2), Z(2), "{path}")')
    assert canonical_fingerprint(T) == \
        canonical_fingerprint(cons.upper_triangular(Z2, 2))
    D = exprs.build(f'Dorroh(Z(2), "{path}")')
    assert D.order == 4


def test_skew_map_from_file(tmp_path):
    path = tmp_path / "psi.map"
    path.write_text("0 1\n")
    S = exprs.build(f'SkewTrunc(Z(2), "{path}", 2)')
    assert canonical_fingerprint(S) == canonical_fingerprint(
        cons.truncated_skew_poly(cons.zmod(2), np.arange(2), 2))


# -- subcommands and exit codes ----------------------------------------------

def test_prop_exit_codes(capsys):
    code, out, _ = run(capsys, "prop", "nj_symmetric", "M(2, Z(2))")
    assert code == 1
    assert "witness" in out
    code, out, _ = run(capsys, "prop", "nj_symmetric", "T(2, Z(4))")
    assert code == 0
    code, _, err = run(capsys, "prop", "bogus", "Z(2)")
    assert code == 2 and "bogus" in err


@pytest.fixture
def hashers(monkeypatch):
    """The thread of each hasher the CLI starts, each slowed down so that
    one left unjoined is still alive when main returns."""
    threads = []
    memoize = cli._memoize_fingerprint

    def slow_memoize(R):
        threads.append(threading.current_thread())
        time.sleep(0.05)
        memoize(R)
    monkeypatch.setattr(cli, "_memoize_fingerprint", slow_memoize)
    return threads


def _serial_fingerprint(R):
    """The digest of R's tables hashed on this thread, from a fresh copy."""
    S = core.FiniteRing(R.add.copy(), R.mul.copy(), R.zero, R.one)
    core._memoize_fingerprint(S)
    return S._fingerprint


@pytest.mark.parametrize("name, expr, threaded", [
    ("semicommutative", "Prod(Z(32), Z(32))", True),
    ("nj_symmetric", "T(2, Z(4))", False)], ids=["thread", "inline"])
def test_prop_json_fingerprint_is_that_of_a_fresh_build(capsys, hashers,
                                                        name, expr, threaded):
    code, out, _ = run(capsys, "prop", name, expr, "--json")
    assert code == 0
    # only the printed ring is hashed, never its factors
    assert len(hashers) == threaded
    assert threading.main_thread() not in hashers
    R = exprs.build(expr)
    assert (R.add.nbytes + R.mul.nbytes >= cli.HASH_THREAD_BYTES) is threaded
    assert json.loads(out)["fingerprint"] == _serial_fingerprint(R)


def _raising_check(R):
    raise RuntimeError("a check that raises")


@pytest.mark.parametrize("argv, code", [
    (["prop", "nj_symmetric", "T(2, Z(4))", "--json"], 0),
    (["prop", "nj_symmetric", "M(2, Z(2))", "--json"], 1),
    (["prop", "nope", "Z(2)", "--json"], 2),
    (["prop", "nj_symmetric", "Z(2)", "--json"], None),
    (["ideals", "M(2, Z(2))", "--json"], 0)],
    ids=["holds", "fails", "unknown-property", "check-raises", "ideals"])
def test_no_thread_outlives_main(capsys, hashers, monkeypatch, argv, code):
    # every printed ring on the hasher thread, which main joins before it
    # returns or raises
    monkeypatch.setattr(cli, "HASH_THREAD_BYTES", 0)
    before = set(threading.enumerate())
    if code is None:
        monkeypatch.setitem(props.PROPERTY_CHECKS, "nj_symmetric",
                            _raising_check)
        with pytest.raises(RuntimeError, match="a check that raises"):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    assert set(threading.enumerate()) == before
    assert len(hashers) == 1 and hashers[0] is not threading.main_thread()


def test_hashers_beside_their_work_under_contention():
    # more callers than cores, each with a hasher, switching threads often:
    # every caller gets its verdict and the serial digest
    R = exprs.build("Prod(Z(16), Z(32))")
    assert R.add.nbytes + R.mul.nbytes >= cli.HASH_THREAD_BYTES
    want = (True, _serial_fingerprint(R))
    results = []

    def call():
        S = core.FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)
        results.append(cli._with_fingerprint(
            S, lambda: props.check_property(S, "semicommutative").holds))
    callers = [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [want] * 4


def test_ideals_json_is_the_same_from_either_thread(capsys, hashers,
                                                    monkeypatch):
    # --no-cache: a fingerprint read from the expression index is hashed
    # on no thread at all
    argv = ["ideals", "T(2, Z(4))", "--json", "--no-cache"]
    inline = run(capsys, *argv)
    assert hashers == []
    monkeypatch.setattr(cli, "HASH_THREAD_BYTES", 0)
    assert run(capsys, *argv) == inline
    assert len(hashers) == 1 and hashers[0] is not threading.main_thread()


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "T(2")
    assert code == 2
    assert "offset 4" in err


def test_swap_needs_factors_of_equal_order(capsys):
    # |R| = 4 is a square, but the factors have orders 1 and 4
    code, out, err = run(capsys, "prop", "nj_symmetric",
                         "SkewTrunc(Prod(Z(1), Prod(Z(2), Z(2))), swap, 2)")
    assert (code, out) == (2, "")
    assert "swap needs equal-order factors" in err
    # a second factor of the first's order builds, however it is written
    R = exprs.build("SkewTrunc(Prod(Z(3), Prod(Z(1), Z(3))), swap, 2)")
    assert R.order == 81


def test_swap_reads_its_first_factor_under_the_given_cap(capsys):
    # Z(4097) is past the default cap but within --max-order, so the order
    # check is the one that fails
    code, out, err = run(capsys, "prop", "commutative", "--max-order", "10000",
                         "SkewTrunc(Prod(Z(4097), Z(2)), swap, 1)")
    assert (code, out) == (2, "")
    assert "swap needs equal-order factors" in err


def test_swap_evaluates_each_factor_once(monkeypatch):
    calls = []
    matrix_ring = cons.matrix_ring

    def counted(*args, **kwargs):
        calls.append(args[1])
        return matrix_ring(*args, **kwargs)

    monkeypatch.setattr(cons, "matrix_ring", counted)
    R = exprs.build("SkewTrunc(Prod(M(2, Z(2)), M(2, Z(2))), swap, 1)")
    assert R.order == 256 and calls == [2, 2]
    # a SkewTrunc over a Prod with another map builds the same ring
    calls.clear()
    assert exprs.build("SkewTrunc(Prod(M(2, Z(2)), Z(2)), id, 1)").order == 32
    assert calls == [2]


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "Z(4)", "--json", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "analysis v1"
    assert doc["radicals"]["jacobson"] == [0, 2]
    assert doc["properties"]["nj_symmetric"]["holds"] is True


def test_radical_json(capsys):
    code, out, _ = run(capsys, "radical", "T(2, Z(2))", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "radical v1"
    assert doc["jacobson"] == [0, 2]


def test_ideals_output(capsys):
    code, out, _ = run(capsys, "ideals", "M(2, Z(2))", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["left"]) == 5 and len(doc["two_sided"]) == 2
    assert doc["truncated"] is False


def test_ideals_cap_exit(capsys):
    code, out, _ = run(capsys, "ideals", "M(2, Z(2))", "--cap", "2", "--json")
    assert code == 0
    assert json.loads(out)["truncated"] is True


@pytest.mark.parametrize("argv", [
    ["ideals", "Z(6)", "--cap", "0"],
    ["ideals", "Z(6)", "--cap", "-1"],
    ["search", "--hyp", "melt", "--not", "nj_symmetric", "--budget", "-1"]],
    ids=" ".join)
def test_bad_cap_or_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_search_budget_zero_examines_nothing(capsys):
    code, out, _ = run(capsys, "search", "--hyp", "melt", "--not",
                       "nj_symmetric", "--budget", "0")
    assert code == 1 and out == "exhausted after 0 rings\n"


@pytest.mark.parametrize("budget", [[], ["--budget", "60"]],
                         ids=["corpus", "random fill"])
def test_search_max_order_caps_every_examined_ring(capsys, monkeypatch,
                                                   budget):
    # M(2, Z(2)) of order 16 is MELT but not NJ-symmetric; under the cap
    # no ring is both
    orders = []
    holds = harness._holds

    def recording_holds(R, name):
        orders.append(R.order)
        return holds(R, name)
    monkeypatch.setattr(harness, "_holds", recording_holds)
    code, out, _ = run(capsys, "search", "--max-order", "4", "--hyp", "melt",
                       "--not", "nj_symmetric", "--json", *budget)
    assert code == 1 and json.loads(out)["ring"] is None
    assert orders and max(orders) <= 4


def test_verify_subset_of_rules(capsys):
    code, out, _ = run(capsys, "verify", "--rules", "R24,R26")
    assert code == 0
    assert "R24  pass" in out and "R26  pass" in out


def test_verify_rejects_unknown_rule(capsys):
    code, _, err = run(capsys, "verify", "--rules", "R99")
    assert code == 2 and err == "error: unknown rule ids: ['R99']\n"
    args = cli._make_parser().parse_args(["verify", "--rules", "R1,R99"])
    with pytest.raises(BadArgumentError, match=r"\['R99'\]$"):
        cli._cmd_verify(args)


@pytest.mark.parametrize("rules", ["R1,", "R1,,R2", " R2 , ,R1"])
def test_verify_rules_skip_empty_ids(capsys, rules):
    code, out, err = run(capsys, "verify", "--rules", rules)
    assert code == 0, err
    ran = {line.split()[0] for line in out.splitlines()
           if line.startswith("R")}
    assert ran == {rid.strip() for rid in rules.split(",") if rid.strip()}


@pytest.mark.parametrize("rules", [",", "", " , "])
def test_verify_rules_naming_no_rule_is_a_usage_error(capsys, rules):
    code, out, err = run(capsys, "verify", "--rules", rules)
    assert code == 2 and out == ""
    assert err == f"error: --rules names no rule: {rules!r}\n"
    args = cli._make_parser().parse_args(["verify", "--rules", rules])
    with pytest.raises(BadArgumentError):
        cli._cmd_verify(args)


def test_verify_json_deterministic_across_threads(capsys):
    code, a, _ = run(capsys, "verify", "--json", "--threads", "1",
                     "--rules", "R1,R2,R24")
    assert code == 0
    code, b, _ = run(capsys, "verify", "--json", "--threads", "3",
                     "--rules", "R1,R2,R24")
    assert code == 0
    assert a == b


def test_verify_corpus_file(tmp_path, capsys):
    f = tmp_path / "corpus.txt"
    f.write_text("# tiny corpus\nZ(4)\nT(2, Z(2))\nrandom seed=1 count=2\n")
    code, out, _ = run(capsys, "verify", "--corpus", str(f),
                       "--rules", "R1,R2", "--json")
    assert code == 0
    doc = json.loads(out)
    r1 = [e for e in doc["entries"] if e["rule"] == "R1"]
    assert len(r1) == 4


def test_search_cli(capsys):
    code, out, _ = run(capsys, "search", "--hyp", "nj_symmetric",
                       "--not", "symmetric")
    assert code == 0
    assert "T(2, Z(2))" in out
    code, out, _ = run(capsys, "search", "--hyp", "symmetric",
                       "--not", "nj_symmetric")
    assert code == 1
    assert "exhausted" in out


def test_cache_flag_round_trip(tmp_path, capsys):
    code, a, _ = run(capsys, "analyze", "Z(6)", "--json",
                     "--cache", str(tmp_path))
    assert code == 0
    assert (len(list(tmp_path.glob("*.json")))) == 1
    code, b, _ = run(capsys, "analyze", "Z(6)", "--json",
                     "--cache", str(tmp_path))
    assert a == b


def _z6_report_with(change):
    """Z(6)'s report, with its real fingerprint, after change(report)."""
    def body():
        report = harness.analyze(cons.zmod(6))
        change(report)
        return report
    return body


def _drop_one_property(report):
    del report["properties"][sorted(report["properties"])[0]]


@pytest.mark.parametrize("body", [
    [], "x", {"format": "analysis v1"},
    {"format": "analysis v1", "radicals": {}},
    lambda: harness.analyze(cons.zmod(2)),
    _z6_report_with(lambda r: (r["radicals"].clear(),
                               r["properties"].clear())),
    _z6_report_with(_drop_one_property),
    _z6_report_with(lambda r: r.update(extra=1)),
    _z6_report_with(lambda r: r["radicals"].update(extra=[])),
    _z6_report_with(lambda r: r["properties"]["reduced"].update(extra=1)),
    _z6_report_with(lambda r: r.update(order="6")),
    _z6_report_with(lambda r: r["radicals"].update(jacobson=3)),
    _z6_report_with(lambda r: r["radicals"].update(units=["1", "5"])),
    _z6_report_with(lambda r: r["properties"]["reduced"].update(holds=1)),
    _z6_report_with(lambda r: r["properties"]["reduced"].update(witness=[])),
    _z6_report_with(lambda r: r["properties"]["reduced"].update(name="x")),
], ids=["list", "string", "format", "no-properties", "other-ring",
        "emptied", "truncated", "extra-key", "extra-radical",
        "extra-verdict-key", "order-type", "jacobson-type",
        "units-item-type", "holds-type", "witness-type", "verdict-name"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_malformed_cache_entry_is_a_miss(tmp_path, capsys, body, flags):
    from ringlab.cache import ReportCache
    fp = canonical_fingerprint(cons.zmod(6))
    if callable(body):
        body = body()
    path = ReportCache(tmp_path)._path(fp)
    path.write_text(json.dumps(body))
    code, got, err = run(capsys, "analyze", "Z(6)", *flags,
                         "--cache", str(tmp_path))
    assert code == 0 and err == ""
    assert (code, got) == run(capsys, "analyze", "Z(6)", *flags,
                              "--no-cache")[:2]
    # the miss wrote Z(6)'s report over the entry
    assert json.loads(path.read_text()) == harness.analyze(cons.zmod(6))


def test_analyze_reports_are_cache_hits(tmp_path):
    # every report analyze writes passes the cache's check of its fields
    from ringlab.cache import ReportCache
    cache = ReportCache(tmp_path)
    for R in harness.default_corpus(max_order=64).rings:
        harness.analyze(R, cache=cache)
        assert harness.analyze(R, cache=cache) == harness.analyze(R), R.name
    assert cache.hits == cache.misses


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "analyze", "Z(5)", "--json")
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_max_order_flag(capsys):
    code, _, err = run(capsys, "analyze", "T(2, Z(4))", "--max-order", "10")
    assert code == 2
    assert "order" in err.lower()


def test_library_errors_exit_2_without_traceback():
    # a non-idempotent corner is a usage error, not "property fails"
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-m", "ringlab.cli", "prop", "nj_symmetric",
         "Corner(Z(4), 2)"], capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "not idempotent" in out.stderr


def test_library_errors_are_ring_errors():
    from ringlab import invariants as inv
    from ringlab.core import RingError
    for err in (cons.NotIdempotentError, cons.NotAHomomorphismError,
                cons.BimoduleLawError, inv.NotAnIdealError):
        assert issubclass(err, RingError), err


@pytest.mark.parametrize("line", ["random seed=1", "random count=x",
                                  "random seed"])
def test_corpus_random_line_errors_name_file_and_line(tmp_path, capsys, line):
    f = tmp_path / "corpus.txt"
    f.write_text(f"Z(4)\n{line}\n")
    code, out, err = run(capsys, "verify", "--corpus", str(f),
                         "--rules", "R1")
    assert code == 2
    assert f"{f}:2" in err and "offset" not in err
    assert out == ""
    with pytest.raises(BadArgumentError):
        cli._load_corpus_file(str(f), MAX_ORDER)


def test_verify_max_order_skips_larger_default_rings(capsys):
    code, out, _ = run(capsys, "verify", "--json", "--max-order", "64",
                       "--rules", "R1", "--threads", "1")
    assert code == 0
    doc = json.loads(out)
    skipped = dict(doc["corpus_skipped"])
    assert set(skipped) == {"M(2, Z(3))", "CD(3, Z(4))"}
    assert all("max order 64" in reason for reason in skipped.values())
    rings = {e["ring"] for e in doc["entries"]}
    assert rings and not rings & set(skipped)


@pytest.mark.parametrize("expr", ["Z(0)", "M(0, Z(2))", "T(0, Z(2))",
                                  "CD(0, Z(2))", "SkewTrunc(Z(2), id, 0)"])
def test_bad_construction_arguments_exit_2_without_traceback(expr):
    import subprocess
    import sys
    out = subprocess.run(
        [sys.executable, "-m", "ringlab.cli", "prop", "nj_symmetric", expr],
        capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stdout == ""


def test_bad_construction_arguments_are_ring_errors():
    from ringlab.core import RingError, SizeError
    assert issubclass(cons.BadArgumentError, RingError)
    # not a SizeError: default_corpus skips those as "too large"
    assert not issubclass(cons.BadArgumentError, SizeError)
    with pytest.raises(cons.BadArgumentError):
        cons.example_weak_symmetric_component(-1)


def test_main_keeps_freed_tables_for_the_next_command(monkeypatch):
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cli._keep_freed_tables.__wrapped__()
    assert calls == [(cli._M_MMAP_THRESHOLD, 32 << 20),
                     (cli._M_TRIM_THRESHOLD, 64 << 20)]


def test_a_c_library_without_mallopt_keeps_its_defaults(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_tables.__wrapped__() is None


def test_repeated_commands_reuse_their_tables_memory(capsys):
    # an order-1024 ring's two tables are 8 MiB, some 2,000 pages; before
    # the thresholds were raised each repeat faulted about 1,000 of them in
    import resource

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    argv = ["prop", "semicommutative", "Prod(Z(32), Z(32))"]
    for _ in range(2):
        assert cli.main(argv) == 0
    before = faults()
    for _ in range(3):
        assert cli.main(argv) == 0
    assert faults() - before < 300
    capsys.readouterr()


def test_one_command_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, 10-17 ms of a one-shot
    # run; the quotient route and corners do without it
    import subprocess
    import sys
    code = ("import sys, ringlab.cli as c; "
            "c.main(['prop', 'weak_symmetric', '--json', '--no-cache', "
            "'Prod(M(2, Z(2)), T(2, Z(4)))']); "
            "c.main(['prop', 'commutative', 'Corner(M(2, Z(2)), 1)']); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
