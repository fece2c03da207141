import json
import os

import pytest

from ringlab import constructions as cons
from ringlab import exprs
from ringlab import harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import (MAX_ORDER, canonical_fingerprint, mask_from_bool,
                          mask_indices, verify_axioms)
from ringlab.constructions import matrix_ring, upper_triangular, zmod


@pytest.fixture(scope="module")
def corpus():
    return harness.default_corpus()


@pytest.fixture(scope="module")
def report(corpus):
    return harness.run_rules(corpus)


def test_corpus_size_and_no_skips(corpus):
    assert len(corpus) >= 30
    assert corpus.skipped == []


def test_corpus_contains_the_key_rings(corpus):
    fps = {canonical_fingerprint(R) for R in corpus}
    assert canonical_fingerprint(matrix_ring(zmod(2), 2)) in fps
    assert canonical_fingerprint(upper_triangular(zmod(2), 2)) in fps


def test_corpus_has_a_non_nj_ring(corpus):
    assert any(not props.check_property(R, "nj_symmetric").holds
               for R in corpus)


def test_corpus_deduplicated(corpus):
    fps = [canonical_fingerprint(R) for R in corpus]
    assert len(fps) == len(set(fps))


def test_corpus_rings_satisfy_axioms(corpus):
    for R in corpus:
        assert verify_axioms(R).ok, R.name


def test_corpus_entries_name_their_rings():
    texts = [e for e in harness.CORPUS if isinstance(e, str)]
    assert len(texts) == 29 and len(harness.CORPUS) == 33
    for text in texts:
        assert exprs.build(text).name == text
    # a skipped entry is reported under its name, so a builder's must match
    for name, build in (e for e in harness.CORPUS if not isinstance(e, str)):
        assert build(max_order=MAX_ORDER).name == name


def test_corpus_quotients_are_the_ones_r12_reads(monkeypatch):
    built = []
    coset_quotient = inv._coset_quotient

    def counting_quotient(R, ideal, name):
        built.append(name)
        return coset_quotient(R, ideal, name)
    monkeypatch.setattr(inv, "_coset_quotient", counting_quotient)
    monkeypatch.setattr(cons, "_coset_quotient", counting_quotient)
    corpus = harness.default_corpus()
    n = len(built)
    assert n and n == len(set(built))
    names = {e if isinstance(e, str) else e[0] for e in harness.CORPUS}
    by_name = {R.name: R for R in corpus}
    for R in (R for R in corpus if R.name in names):
        assert harness._rule_r12(R)[0] in ("pass", "vacuous")
        Q = inv._mod_jacobson(R)[0]
        assert by_name.get(Q.name, Q) is Q, Q.name
    assert len(built) == n                      # R12 built no quotient


def test_rule_catalog_ids_and_kinds():
    rules = harness.rule_catalog()
    assert [r.id for r in rules] == [f"R{i}" for i in range(1, 28)]
    kinds = {r.id: r.kind for r in rules}
    assert kinds["R2"] == "implication"
    assert kinds["R14"] == "equivalence"
    assert kinds["R24"] == "witness"


def test_run_rules_no_failures(report):
    assert report.failures() == []


def test_required_rules_non_vacuous(report):
    summary = report.summary()
    for rid in ("R5", "R12", "R13", "R14", "R15", "R16", "R24", "R25"):
        assert summary[rid] == "pass", (rid, summary[rid])


def test_agreement_rules_cover_whole_corpus(corpus, report):
    for rid in ("R1", "R22"):
        entries = [e for e in report.entries if e.rule_id == rid]
        assert len(entries) == len(corpus)
        assert all(e.status == "pass" for e in entries)


def test_r15_on_z4():
    rule = next(r for r in harness.rule_catalog() if r.id == "R15")
    status, detail = rule.check(zmod(4))
    assert status == "pass", detail
    assert props.check_property(upper_triangular(zmod(4), 2),
                                "nj_symmetric").holds


def test_report_json_round_trip(report):
    back = harness.RuleReport.from_dict(report.to_dict())
    assert back.to_json() == report.to_json()


def test_report_rejects_unknown_version(report):
    d = report.to_dict()
    d["format"] = "report v99"
    with pytest.raises(ValueError):
        harness.RuleReport.from_dict(d)


def test_search_finds_expected_separations(corpus):
    r = harness.search_counterexample(["nj_symmetric"], "symmetric", corpus)
    assert r.ring.name == "T(2, Z(2))"
    assert props.reverify_witness(r.ring, r.verdicts["symmetric"])

    r = harness.search_counterexample(["melt"], "nj_symmetric", corpus)
    assert r.ring.name == "M(2, Z(2))"
    assert props.reverify_witness(r.ring, r.verdicts["nj_symmetric"])

    r = harness.search_counterexample(["left_quasi_duo"], "symmetric", corpus)
    assert r.ring is not None
    assert props.reverify_witness(r.ring, r.verdicts["symmetric"])


def test_search_exhausts_when_no_counterexample_exists(corpus):
    r = harness.search_counterexample(["symmetric"], "nj_symmetric", corpus)
    assert r.exhausted
    assert r.examined == len(corpus)


def test_search_rejects_unknown_names(corpus):
    with pytest.raises(props.UnknownPropertyError):
        harness.search_counterexample(["njsym"], "symmetric", corpus)


def test_search_budget_extends_with_random_rings(corpus):
    n = len(corpus)
    r = harness.search_counterexample(["symmetric"], "nj_symmetric", corpus,
                                      budget=n + 5, seed=1)
    assert r.exhausted and r.examined == n + 5


def test_random_corpus_rings_are_valid():
    rings = harness.random_corpus(seed=5, count=8)
    assert len(rings) == 8
    for R in rings:
        assert verify_axioms(R).ok, R.name


def test_analyze_z4():
    out = harness.analyze(zmod(4))
    assert out["radicals"]["jacobson"] == [0, 2]
    assert out["properties"]["nj_symmetric"]["holds"] is True
    assert out["properties"]["symmetric"]["holds"] is True


def test_analyze_m2z2_carries_witness():
    out = harness.analyze(matrix_ring(zmod(2), 2))
    v = out["properties"]["nj_symmetric"]
    assert v["holds"] is False and v["witness"]


def test_analyze_zero_ring():
    out = harness.analyze(zmod(1))
    assert all(v["holds"] for v in out["properties"].values())


def test_analyze_uses_cache(tmp_path):
    from ringlab.cache import ReportCache
    cache = ReportCache(tmp_path)
    R = zmod(6)
    first = harness.analyze(R, cache=cache)
    assert cache.misses == 1
    # a freshly built ring with equal tables hits the same entry
    second = harness.analyze(cons.zmod(6), cache=cache)
    assert cache.hits == 1
    assert first == second


def test_cache_hit_reports_the_name_asked_about(tmp_path):
    from ringlab.cache import ReportCache
    cache = ReportCache(tmp_path)
    alias = cons.direct_product(zmod(2), zmod(1))
    assert alias.name == "Prod(Z(2), Z(1))"
    harness.analyze(alias, cache=cache)
    hit = harness.analyze(zmod(2), cache=cache)
    assert cache.hits == 1
    assert hit == harness.analyze(zmod(2))
    assert hit["ring"] == hit["radicals"]["ring"] == "Z(2)"


def test_r14_builds_each_corner_once(monkeypatch):
    R = upper_triangular(zmod(2), 2)
    built = []
    corner = cons.corner

    def counting_corner(R, e):
        built.append(e)
        return corner(R, e)
    monkeypatch.setattr(cons, "corner", counting_corner)
    assert harness._rule_r14(R) == ("pass", None)
    assert sorted(built) == sorted(set(built))
    assert len(built) == 5          # the nonzero idempotents of T(2, Z(2))


def test_r14_reuses_the_corners_the_corpus_built(monkeypatch):
    import gc
    import weakref
    corpus = harness.default_corpus()
    built = []
    corner = cons.corner

    def counting_corner(R, e):
        built.append(e)
        return corner(R, e)
    monkeypatch.setattr(cons, "corner", counting_corner)
    for R in corpus:
        if R.name == "T(2, Z(2))":
            assert harness._rule_r14(R) == ("pass", None)
    assert built == []
    # a corner keeps no reference to its ring, so the memo makes no cycle
    gc.disable()
    try:
        R = upper_triangular(zmod(2), 2)
        harness._corner(R, R.one)
        ref = weakref.ref(R)
        del R
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("rule", [harness._rule_r12, harness._rule_r13])
def test_quotient_rules_report_a_counterexample(rule, monkeypatch):
    # R/J(R) is NJ-symmetric; pretend R is not, so the fail branch runs
    R = upper_triangular(zmod(2), 2)
    check = props.check_property

    def check_with_fake_counterexample(S, name):
        if S is R and name == "nj_symmetric":
            return props.PropertyVerdict(name, False, {"a": 1})
        return check(S, name)
    monkeypatch.setattr(props, "check_property", check_with_fake_counterexample)
    status, detail = rule(R)
    assert status == "fail"
    assert detail["witness"] == {"a": 1}
    if rule is harness._rule_r13:
        assert detail["ideal"] == mask_indices(inv.upper_nilradical(R))


def test_r12_and_r13_share_one_quotient_by_j(monkeypatch):
    R = upper_triangular(zmod(2), 3)
    built = []
    coset_quotient = inv._coset_quotient

    def counting_quotient(R, ideal, name):
        built.append(mask_from_bool(ideal))
        return coset_quotient(R, ideal, name)
    monkeypatch.setattr(inv, "_coset_quotient", counting_quotient)
    monkeypatch.setattr(cons, "_coset_quotient", counting_quotient)
    assert harness._rule_r12(R)[0] == harness._rule_r13(R)[0] == "pass"
    assert built == [inv.jacobson_radical(R)]


def _stub_report(fp):
    """The least entry the cache reads as a report of fingerprint fp."""
    return {"format": "analysis v1", "fingerprint": fp, "radicals": {},
            "properties": {}}


def test_cache_ignores_corrupt_and_stale_entries(tmp_path):
    from ringlab.cache import ReportCache
    cache = ReportCache(tmp_path)
    fp = canonical_fingerprint(zmod(2))
    cache._path(fp).write_text("not json")
    assert cache.get(fp) is None
    report = _stub_report(fp)
    cache.put(fp, report)
    assert cache.get(fp) == report
    cache.put(fp, {"format": "analysis v0"})
    assert cache.get(fp) is None


def test_cache_entry_written_by_other_code_is_a_miss(tmp_path, monkeypatch):
    from ringlab import cache as cache_mod
    fp = canonical_fingerprint(zmod(2))
    report = _stub_report(fp)
    with monkeypatch.context() as m:
        m.setattr(cache_mod, "code_version", lambda: "0" * 64)
        cache_mod.ReportCache(tmp_path).put(fp, report)
    cache = cache_mod.ReportCache(tmp_path)
    assert cache.get(fp) is None and cache.misses == 1
    cache.put(fp, report)
    assert cache.get(fp) == report
    # the put replaced the other code's entry
    assert [p.name for p in tmp_path.iterdir()] == \
        [f"{fp}.{cache_mod.code_version()}.json"]


def test_cache_put_leaves_only_the_current_name_of_its_fingerprint(
        tmp_path, monkeypatch):
    from pathlib import Path
    from ringlab import cache as cache_mod
    fp = canonical_fingerprint(zmod(2))
    other = canonical_fingerprint(zmod(3))
    keep = [f"{fp}.writer.tmp",                 # a concurrent writer's file
            f"{other}.{'0' * 64}.json", f"{other}.json"]
    for name in keep + [f"{fp}.json", f"{fp}.{'0' * 64}.json",
                        f"{fp}.{'1' * 64}.json"]:
        (tmp_path / name).write_text("{}")
    real_glob = Path.glob

    def glob_with_vanished(self, pattern):
        yield from real_glob(self, pattern)
        # listed, then removed by another process before this put gets to it
        yield self / f"{fp}.{'2' * 64}.json"
    monkeypatch.setattr(Path, "glob", glob_with_vanished)
    cache = cache_mod.ReportCache(tmp_path)
    cache.put(fp, _stub_report(fp))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        keep + [cache._path(fp).name])
    assert cache.get(fp) == _stub_report(fp)


def test_code_version_is_a_digest_of_the_package_sources():
    from ringlab import cache as cache_mod
    v = cache_mod.code_version()
    assert len(v) == 64 and int(v, 16) >= 0
    assert cache_mod.code_version() is v        # taken once per process


def test_cache_writes_use_distinct_temporary_files(tmp_path, monkeypatch):
    from ringlab import cache as cache_mod
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        replace(src, dst)
    monkeypatch.setattr(cache_mod.os, "replace", recording_replace)
    cache = cache_mod.ReportCache(tmp_path)
    fp = canonical_fingerprint(zmod(3))
    cache.put(fp, {"format": "analysis v1", "n": 1})
    cache.put(fp, {"format": "analysis v1", "n": 2})
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(os.path.dirname(s) == str(tmp_path) for s in sources)
    assert not list(tmp_path.glob("*.tmp"))
    assert cache._path(fp).read_text() == json.dumps(
        {"format": "analysis v1", "n": 2}, indent=2, sort_keys=True) + "\n"


def test_failed_cache_write_leaves_no_temporary_file(tmp_path):
    from ringlab.cache import ReportCache
    cache = ReportCache(tmp_path)
    fp = canonical_fingerprint(zmod(3))
    with pytest.raises(TypeError):
        cache.put(fp, {"format": "analysis v1", "bad": object()})
    assert list(tmp_path.iterdir()) == []


def test_diagnostic_dump_contains_tables(corpus):
    entry = harness.RuleEntry("R2", "Z(4)",
                              canonical_fingerprint(zmod(4)), "fail",
                              {"conclusion": "nj_symmetric"})
    dump = harness.diagnostic_dump(corpus, entry)
    assert "ring v1 4" in dump
    assert "R2" in dump


def _counting(monkeypatch) -> dict:
    """Count the evaluations of every registered property."""
    counts = {"evaluations": 0}
    for name, check in list(props.PROPERTY_CHECKS.items()):
        def counted(R, check=check):
            counts["evaluations"] += 1
            return check(R)
        monkeypatch.setitem(props.PROPERTY_CHECKS, name, counted)
    return counts


def test_run_verdicts_change_no_byte_and_live_for_one_run(monkeypatch):
    # each run gets a fresh corpus, so ring memos carry nothing over; the
    # table memo must not either, or the second run would evaluate less
    counts = _counting(monkeypatch)
    runs = []
    for _ in range(2):
        counts["evaluations"] = 0
        text = harness.run_rules(harness.default_corpus()).to_json()
        runs.append((text, counts["evaluations"]))
        assert harness._run_verdicts is None
    assert runs[0] == runs[1]
    # without the table memo: the same bytes from more evaluations
    counts["evaluations"] = 0
    monkeypatch.setattr(harness, "_verdict", props.check_property)
    assert harness.run_rules(harness.default_corpus()).to_json() == runs[0][0]
    assert counts["evaluations"] > runs[0][1] > 0


def test_run_verdicts_are_dropped_when_a_rule_raises(monkeypatch):
    def boom(R):
        raise RuntimeError("rule failed")
    rule = harness.Rule("R0", "raises", "implication", True, boom)
    with pytest.raises(RuntimeError):
        harness.run_rules(harness.default_corpus(), [rule])
    assert harness._run_verdicts is None
