"""The report cache's expression index and its JSON writer.

A warm ``analyze`` answers from the index without building the ring; the
build-and-fingerprint path stays the oracle every answer is compared with.
"""

import json

import pytest

from ringlab import cache as cache_mod
from ringlab import cli
from ringlab import constructions as cons
from ringlab import core
from ringlab import exprs
from ringlab import harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.cache import ReportCache, _dumps
from ringlab.core import MAX_ORDER, canonical_fingerprint


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _refuse_builds(monkeypatch):
    """Make building a ring or hashing its tables fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a warm analyze built or hashed a ring")
    monkeypatch.setattr(exprs, "evaluate", refuse)
    monkeypatch.setattr(harness, "canonical_fingerprint", refuse)
    monkeypatch.setattr(core, "_memoize_fingerprint", refuse)


def _index_files(directory):
    return sorted((directory / "index").glob("*"))


# -- the warm path -------------------------------------------------------------

# the benchmark's analyze workload, plus a quotient whose tables equal Z(4)'s
WARM_EXPRS = ["Z(4)", "Z(2)", "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))",
              "M(2, Z(4))", "CD(3, Prod(Z(2), Z(2)))",
              "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)", "T(2, Z(4))",
              "Quo(Z(8), gen(4))"]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("expr", WARM_EXPRS)
def test_warm_analyze_prints_the_fresh_report(tmp_path, capsys, monkeypatch,
                                              expr, flags):
    fresh = run(capsys, "analyze", expr, *flags, "--no-cache")
    assert fresh[0] == 0 and fresh[2] == ""
    assert run(capsys, "analyze", expr, *flags, "--cache", str(tmp_path)) \
        == fresh
    assert len(_index_files(tmp_path)) == 1
    with monkeypatch.context() as m:
        _refuse_builds(m)
        assert run(capsys, "analyze", expr, *flags,
                   "--cache", str(tmp_path)) == fresh


def test_equal_tables_under_two_texts_print_their_own_names(tmp_path, capsys,
                                                           monkeypatch):
    for expr in ("Z(4)", "Quo(Z(8), gen(4))"):
        run(capsys, "analyze", expr, "--cache", str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert len(_index_files(tmp_path)) == 2
    _refuse_builds(monkeypatch)
    for expr in ("Z(4)", "Quo(Z(8), gen(4))"):
        code, out, _ = run(capsys, "analyze", expr, "--json",
                           "--cache", str(tmp_path))
        doc = json.loads(out)
        assert (code, doc["ring"], doc["radicals"]["ring"]) == (0, expr, expr)


def _fp(expr):
    return canonical_fingerprint(exprs.build(expr))


def _truncate(path):
    path.write_text(path.read_text()[:20])


def _edit_entry(**changes):
    def edit(path):
        entry = json.loads(path.read_text())
        entry.update(changes)
        path.write_text(json.dumps(entry))
    return edit


def _report_of(expr, body):
    """Write body over the cached report of expr's tables."""
    def edit(path):
        report = ReportCache(path.parent.parent)._path(_fp(expr))
        if body is None:
            report.unlink()
        else:
            report.write_bytes(body)
    return edit


@pytest.mark.parametrize("damage", [
    _truncate, lambda p: p.write_text(""), lambda p: p.write_bytes(b"\xff"),
    lambda p: p.write_text("[" * 100000),
    lambda p: p.write_text("[]"),
    _edit_entry(max_order="4096"), _edit_entry(fingerprint=7),
    _edit_entry(ring=None), _edit_entry(text=["Z(6)"]),
    _edit_entry(fingerprint="../" + "0" * 61), _edit_entry(extra=1),
    _edit_entry(text="Z(3)"), _edit_entry(max_order=64),
    _edit_entry(fingerprint="0" * 64),
    _report_of("Z(6)", None), _report_of("Z(6)", b"{}"),
    _report_of("Z(6)", b"not json"), _report_of("Z(6)", b"\xff{}")],
    ids=["truncated", "empty", "not-utf8", "too-deep", "list",
         "max-order-type", "fingerprint-type", "ring-type", "text-type",
         "fingerprint-path", "extra-key", "other-text", "other-max-order",
         "unknown-fingerprint", "report-missing", "report-malformed",
         "report-not-json", "report-not-utf8"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_damaged_index_entry_is_a_miss_and_is_rewritten(tmp_path, capsys,
                                                        damage, flags):
    fresh = run(capsys, "analyze", "Z(6)", *flags, "--no-cache")
    run(capsys, "analyze", "Z(6)", "--cache", str(tmp_path))
    [entry] = _index_files(tmp_path)
    good = entry.read_text()
    damage(entry)
    assert run(capsys, "analyze", "Z(6)", *flags,
               "--cache", str(tmp_path)) == fresh
    assert _index_files(tmp_path) == [entry]
    assert entry.read_text() == good
    report = ReportCache(tmp_path).get(_fp("Z(6)"), valid=harness._is_report)
    assert report == harness.analyze(cons.zmod(6))


@pytest.mark.parametrize("damage, counts", [
    (None, (1, 0)), (_truncate, (1, 0)), (_report_of("Z(6)", None), (0, 1)),
    (_report_of("Z(6)", b"{}"), (0, 1))],
    ids=["warm", "index-truncated", "report-missing", "report-malformed"])
def test_one_analyze_counts_one_hit_or_one_miss(tmp_path, capsys, monkeypatch,
                                                damage, counts):
    run(capsys, "analyze", "Z(6)", "--cache", str(tmp_path))
    [entry] = _index_files(tmp_path)
    if damage is not None:
        damage(entry)
    opened = []

    def open_cache(args):
        opened.append(ReportCache(args.cache))
        return opened[-1]
    monkeypatch.setattr(cli, "_open_cache", open_cache)
    assert run(capsys, "analyze", "Z(6)", "--json",
               "--cache", str(tmp_path))[0] == 0
    [cache] = opened
    assert (cache.hits, cache.misses) == counts


def test_index_entry_holds_text_cap_fingerprint_and_name(tmp_path, capsys):
    run(capsys, "analyze", "Quo(Z(8), gen(4))", "--max-order", "64",
        "--cache", str(tmp_path))
    [entry] = _index_files(tmp_path)
    assert json.loads(entry.read_text()) == {
        "text": "Quo(Z(8), gen(4))", "max_order": 64,
        "fingerprint": _fp("Z(4)"), "ring": "Quo(Z(8), gen(4))"}
    assert entry.name.endswith(f".{cache_mod.code_version()}.json")


def test_warm_max_order_below_the_order_still_exits_2(tmp_path, capsys):
    assert run(capsys, "analyze", "T(2, Z(4))", "--cache", str(tmp_path))[0] \
        == 0
    fresh = run(capsys, "analyze", "T(2, Z(4))", "--max-order", "10",
                "--no-cache")
    assert fresh[0] == 2 and fresh[1] == "" and "order" in fresh[2].lower()
    warm = run(capsys, "analyze", "T(2, Z(4))", "--max-order", "10",
               "--cache", str(tmp_path))
    assert warm == fresh
    assert len(_index_files(tmp_path)) == 1


def test_syntax_error_exits_2_on_a_warm_cache(tmp_path, capsys):
    run(capsys, "analyze", "T(2, Z(2))", "--cache", str(tmp_path))
    # even an entry made for the broken text is never read
    cache = ReportCache(tmp_path)
    cache._index_put("T(2, Z(2)", MAX_ORDER, _fp("T(2, Z(2))"), "T(2, Z(2))")
    code, out, err = run(capsys, "analyze", "T(2, Z(2)", "--cache",
                         str(tmp_path))
    assert (code, out) == (2, "")
    assert "offset" in err


@pytest.mark.parametrize("template, bimodules", [
    ('Dorroh(Z(2), "{}")', [cons.ring_bimodule, lambda R: cons.zero_bimodule(
        R, R)]),
    ('Tri(Z(2), Z(2), "{}")', [lambda R: cons.zero_bimodule(R, R),
                               cons.ring_bimodule])],
    ids=["Dorroh", "Tri"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_expressions_that_read_files_are_never_indexed(tmp_path, capsys,
                                                       template, bimodules,
                                                       flags):
    Z2 = cons.zmod(2)
    path = tmp_path / "m.bim"
    expr = template.format(path)
    cache_dir = tmp_path / "cache"
    outputs = []
    for make in bimodules:
        path.write_text(cons.serialize_bimodule(make(Z2), 2, 2))
        fresh = run(capsys, "analyze", expr, *flags, "--no-cache")
        assert fresh[0] == 0
        assert run(capsys, "analyze", expr, *flags,
                   "--cache", str(cache_dir)) == fresh
        outputs.append(fresh)
    assert outputs[0] != outputs[1]
    assert not (cache_dir / "index").exists()
    assert exprs._reads_files(exprs.parse(expr))


@pytest.mark.parametrize("text, reads", [
    ("Z(4)", False), ("Quo(Z(8), gen(4))", False), ("Sub(M(2, Z(2)), [7])",
                                                    False),
    ('Corner(M(2, Z(2)), "x")', True), ('SkewTrunc(Z(2), "p.map", 2)', True),
    ('Prod(Z(2), Morita(Z(2), Z(2), "a", "b"))', True)])
def test_reads_files_finds_string_arguments(text, reads):
    assert exprs._reads_files(exprs.parse(text)) is reads


def test_index_written_by_other_code_is_a_miss(tmp_path, capsys,
                                               monkeypatch):
    fresh = run(capsys, "analyze", "T(2, Z(2))", "--json", "--no-cache")
    with monkeypatch.context() as m:
        m.setattr(cache_mod, "code_version", lambda: "0" * 64)
        assert run(capsys, "analyze", "T(2, Z(2))", "--json",
                   "--cache", str(tmp_path)) == fresh
    [stale] = _index_files(tmp_path)
    analyzed = []
    analyze = harness.analyze

    def counting_analyze(R, cache=None):
        analyzed.append(R.name)
        return analyze(R, cache=cache)
    monkeypatch.setattr(harness, "analyze", counting_analyze)
    assert run(capsys, "analyze", "T(2, Z(2))", "--json",
               "--cache", str(tmp_path)) == fresh
    assert analyzed == ["T(2, Z(2))"]
    # the rewrite removed the other code's entry for the same key
    [entry] = _index_files(tmp_path)
    assert entry != stale
    assert entry.name.split(".")[0] == stale.name.split(".")[0]
    assert entry.name.endswith(f".{cache_mod.code_version()}.json")
    assert run(capsys, "analyze", "T(2, Z(2))", "--json",
               "--cache", str(tmp_path)) == fresh
    assert analyzed == ["T(2, Z(2))"]


def test_index_put_leaves_other_keys_alone(tmp_path):
    cache = ReportCache(tmp_path)
    fp = "0" * 64
    cache._index_put("Z(2)", MAX_ORDER, fp, "Z(2)")
    cache._index_put("Z(2)", 64, fp, "Z(2)")
    cache._index_put("Z(3)", MAX_ORDER, fp, "Z(3)")
    cache._index_put("Z(2)", MAX_ORDER, fp, "Z(2)")
    assert len(_index_files(tmp_path)) == 3
    assert cache._index_get("Z(2)", 64) == (fp, "Z(2)")
    assert cache._index_get("Z(2)", 63) is None
    assert not list(tmp_path.glob("*.json"))


def test_miss_prints_the_text_it_wrote(tmp_path, capsys, monkeypatch):
    encoded = []
    dumps = cache_mod._dumps

    def counting_dumps(obj):
        encoded.append(obj.get("format"))
        return dumps(obj)
    monkeypatch.setattr(cache_mod, "_dumps", counting_dumps)
    code, out, _ = run(capsys, "analyze", "Z(6)", "--json",
                       "--cache", str(tmp_path))
    assert code == 0
    # the report once, for file and stdout; the index entry has no format
    assert encoded == ["analysis v1", None]
    assert ReportCache(tmp_path)._path(_fp("Z(6)")).read_text() == out


# -- prop --json and ideals --json ---------------------------------------------

def _refuse_hashing(monkeypatch):
    """Make hashing a ring's tables, or starting a thread, fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a warm run hashed a ring or started a thread")
    monkeypatch.setattr(core, "_memoize_fingerprint", refuse)
    monkeypatch.setattr(cli, "_memoize_fingerprint", refuse)
    monkeypatch.setattr(cli.threading, "Thread", refuse)


# an order-1024 ring hashed on a thread when cold, an order-512 lattice, and
# small rings hashed inline
FINGERPRINTED = [
    ["prop", "nj_symmetric", "Prod(M(2, Z(2)), T(2, Z(4)))", "--json"],
    ["prop", "weak_symmetric", "Prod(M(2, Z(2)), T(2, Z(4)))", "--json"],
    ["prop", "nj_symmetric", "M(2, Z(2))", "--json"],
    ["prop", "symmetric", "T(2, Z(4))", "--json"],
    ["ideals", "Prod(Z(32), Z(16))", "--json"],
    ["ideals", "T(2, Z(4))", "--json"]]


@pytest.mark.parametrize("argv", FINGERPRINTED, ids=" ".join)
def test_warm_fingerprint_prints_the_fresh_output(tmp_path, capsys,
                                                  monkeypatch, argv):
    fresh = run(capsys, *argv, "--no-cache")
    assert fresh[0] in (0, 1) and fresh[2] == ""
    assert run(capsys, *argv, "--cache", str(tmp_path)) == fresh
    [entry] = _index_files(tmp_path)
    R = exprs.build(argv[-2])
    assert json.loads(entry.read_text()) == {
        "text": argv[-2], "max_order": MAX_ORDER,
        "fingerprint": canonical_fingerprint(R), "ring": R.name}
    with monkeypatch.context() as m:
        _refuse_hashing(m)
        assert run(capsys, *argv, "--cache", str(tmp_path)) == fresh
    assert _index_files(tmp_path) == [entry]


def test_warm_prop_at_order_4096_hashes_nothing(tmp_path, capsys,
                                                monkeypatch):
    argv = ["prop", "commutative", "T(3, Z(4))", "--json"]
    fresh = run(capsys, *argv, "--no-cache")
    assert fresh[0] == 1
    assert run(capsys, *argv, "--cache", str(tmp_path)) == fresh
    _refuse_hashing(monkeypatch)
    assert run(capsys, *argv, "--cache", str(tmp_path)) == fresh


@pytest.mark.parametrize("first", ["prop", "analyze"])
def test_prop_and_analyze_share_one_entry(tmp_path, capsys, monkeypatch,
                                          first):
    expr = "T(2, Z(4))"
    argvs = {"prop": ["prop", "nj_symmetric", expr, "--json"],
             "analyze": ["analyze", expr, "--json"]}
    fresh = {k: run(capsys, *a, "--no-cache") for k, a in argvs.items()}
    second = "analyze" if first == "prop" else "prop"
    assert run(capsys, *argvs[first], "--cache", str(tmp_path)) == fresh[first]
    [entry] = _index_files(tmp_path)
    written = entry.read_text()
    assert run(capsys, *argvs[second], "--cache", str(tmp_path)) \
        == fresh[second]
    assert _index_files(tmp_path) == [entry]
    assert entry.read_text() == written
    # prop builds the ring it decides; neither command hashes it
    _refuse_hashing(monkeypatch)
    for k, a in argvs.items():
        assert run(capsys, *a, "--cache", str(tmp_path)) == fresh[k]


@pytest.mark.parametrize("damage", [
    _truncate, lambda p: p.write_text(""), _edit_entry(ring="Z(2)"),
    _edit_entry(fingerprint=7), _edit_entry(max_order=64)],
    ids=["truncated", "empty", "other-ring", "fingerprint-type",
         "other-max-order"])
@pytest.mark.parametrize("argv", [
    ["prop", "nj_symmetric", "M(2, Z(2))", "--json"],
    ["ideals", "T(2, Z(4))", "--json"]], ids=lambda a: a[0])
def test_damaged_entry_is_rehashed_and_rewritten(tmp_path, capsys,
                                                 monkeypatch, argv, damage):
    fresh = run(capsys, *argv, "--no-cache")
    run(capsys, *argv, "--cache", str(tmp_path))
    [entry] = _index_files(tmp_path)
    good = entry.read_text()
    damage(entry)
    hashed = []
    memoize = cli._memoize_fingerprint
    with monkeypatch.context() as m:
        m.setattr(core, "_memoize_fingerprint",
                  lambda R: hashed.append(R.name) or memoize(R))
        assert run(capsys, *argv, "--cache", str(tmp_path)) == fresh
    assert hashed == [argv[-2]]
    assert _index_files(tmp_path) == [entry]
    assert entry.read_text() == good


@pytest.mark.parametrize("command", [["prop", "nj_symmetric"], ["ideals"]],
                         ids=lambda c: c[0])
def test_fingerprints_of_expressions_that_read_files_are_never_indexed(
        tmp_path, capsys, command):
    path = tmp_path / "m.bim"
    Z2 = cons.zmod(2)
    path.write_text(cons.serialize_bimodule(cons.ring_bimodule(Z2), 2, 2))
    argv = [*command, f'Dorroh(Z(2), "{path}")', "--json"]
    fresh = run(capsys, *argv, "--no-cache")
    cache_dir = tmp_path / "cache"
    for _ in range(2):
        assert run(capsys, *argv, "--cache", str(cache_dir)) == fresh
    assert not cache_dir.exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", FINGERPRINTED[2:] + [
    ["prop", "nope", "Z(2)", "--json"]], ids=" ".join)
def test_unusable_cache_keeps_the_output_and_exit_code(tmp_path, capsys,
                                                       argv, under):
    fresh = run(capsys, *argv, "--no-cache")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    for _ in range(2):
        assert run(capsys, *argv, "--cache", str(blocker / under)) == fresh
    assert blocker.read_text() == "a regular file"


def test_no_cache_and_the_environment(tmp_path, capsys, monkeypatch):
    # an entry that names the ring with another fingerprint shows whether
    # the index was read
    env = tmp_path / "env"
    monkeypatch.setenv("RINGLAB_CACHE", str(env))
    argv = ["prop", "nj_symmetric", "T(2, Z(4))", "--json"]
    fresh = run(capsys, *argv, "--no-cache")
    assert not env.exists()
    ReportCache(env)._index_put("T(2, Z(4))", MAX_ORDER, "0" * 64,
                                "T(2, Z(4))")
    written = _index_files(env)
    assert run(capsys, *argv, "--no-cache") == fresh
    code, out, _ = run(capsys, *argv)
    assert code == fresh[0]
    assert json.loads(out)["fingerprint"] == "0" * 64
    # --cache outranks the environment, and text output reads no cache
    assert run(capsys, *argv, "--cache", str(tmp_path / "flag")) == fresh
    assert len(_index_files(tmp_path / "flag")) == 1
    run(capsys, "prop", "nj_symmetric", "Z(6)")
    run(capsys, "ideals", "Z(6)")
    assert _index_files(env) == written


# -- the JSON writer -----------------------------------------------------------

def _shapes():
    """One report of each kind the command line prints."""
    R = exprs.build("T(2, Z(4))")
    M = exprs.build("M(2, Z(2))")
    left = inv.all_left_ideals(M)
    verify = harness.run_rules(harness.default_corpus(max_order=16),
                               harness.rule_catalog())
    search = harness.search_counterexample(["nj_symmetric"], "symmetric",
                                           budget=None, seed=0)
    return {
        "analyze": harness.analyze(R),
        "verify": verify.to_dict(),
        "radical": inv.radical_report(M).to_dict(),
        "ideals": {"format": "ideals v1", "ring": M.name, "order": M.order,
                   "left": [core.mask_indices(m) for m in sorted(left.ideals)],
                   "truncated": False},
        "prop-fails": props.check_property(M, "nj_symmetric").to_dict(),
        "prop-holds": props.check_property(R, "nj_symmetric").to_dict(),
        "search": {"format": "search v1", "hypotheses": ["nj_symmetric"],
                   "ring": search.ring.name,
                   "verdicts": {k: v.to_dict()
                                for k, v in search.verdicts.items()}},
    }


def test_writer_equals_json_dumps_on_every_report_shape():
    shapes = _shapes()
    assert shapes["verify"]["corpus_skipped"]       # tuples among lists
    assert shapes["prop-fails"]["witness"] is not None
    assert shapes["prop-holds"]["witness"] is None
    for name, obj in shapes.items():
        assert _dumps(obj) == _oracle(obj), name
    verify = harness.RuleReport.from_dict(shapes["verify"])
    assert verify.to_json() == _oracle(verify.to_dict()) + "\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "M(2, Z(2))", "--json", "--no-cache"],
    ["radical", "T(2, Z(4))", "--json"],
    ["ideals", "Prod(Z(4), Z(2))", "--json"],
    ["prop", "nj_symmetric", "M(2, Z(2))", "--json"],
    ["search", "--hyp", "nj_symmetric", "--not", "symmetric", "--json"],
    ["verify", "--json", "--max-order", "8", "--rules", "R1,R24"]],
    ids=lambda argv: argv[0])
def test_printed_reports_are_json_dumps_of_themselves(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert out == _oracle(json.loads(out)) + "\n"


@pytest.mark.parametrize("obj", [
    {"s": "café ☃ \U0001f600", "ctl": "\x00\x1f\x7f\n\t\r\b\f",
     "q": '"quoted" \\back\\slash /'},
    {"é": 1, "a\"b": 2, "": 3, "\x00": [4]},
    {}, [], [[]], [{}], {"a": {}, "b": [], "c": [[], {}, [[{}]]]},
    [1, True, 2], [True, False], [0, None], [1, 1.5],
    [-1, 0, -(10 ** 40), 10 ** 40, 2 ** 63], (1, 2), ((1, "a"), ()),
    {"t": (3, (4,))}, {"witness": None, "holds": False},
    "plain", 7, -7, True, False, None],
    ids=lambda obj: repr(obj)[:30])
def test_writer_equals_json_dumps_on_edge_values(obj):
    assert _dumps(obj) == _oracle(obj)


class _Str(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("obj", [
    1.5, {"x": 0.1}, [1, 2.0], {2: "b", 1: "a"}, {True: 1, False: 0},
    {_Str("k"): 1}, [_Int(3)], {"v": _Str("s")}, float("inf")],
    ids=repr)
def test_writer_hands_other_values_to_json_dumps(obj):
    assert _dumps(obj) == _oracle(obj)


def test_writer_raises_as_json_dumps_does():
    for obj in ({"a": 1, 1: 2}, [object()], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            _oracle(obj)
        with pytest.raises(TypeError):
            _dumps(obj)
