"""End-to-end acceptance checks.

Each test prints a single "criterion N ... : pass" line on success (visible
with pytest -s); a failure reads as the corresponding criterion being red.
Budgets: the whole verify run under 60 s, one order-81 NJ scan under 5 s.
"""

import json
import subprocess
import sys
import time

import pytest

from ringlab import constructions as cons
from ringlab import harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import (canonical_fingerprint, mask_contains,
                          mask_from_indices, mask_indices, verify_axioms)
from ringlab.constructions import matrix_index, matrix_ring, matrix_unit, zmod
from test_ideal_lattice import (OracleLatticeTruncated,
                               jacobson_via_maximal_left_ideals)


@pytest.fixture(scope="module")
def corpus():
    return harness.default_corpus()


def test_criterion_1_axiom_suite(corpus):
    for R in corpus:
        report = verify_axioms(R)
        assert report.ok, (R.name, report.axiom, report.witness)
    print("criterion 1 (axiom suite over default corpus): pass")


def test_criterion_2_witness_reproduction():
    # (a) the triple with abc = 0 but bac = E22 outside J, in M2(Z2)
    R = matrix_ring(zmod(2), 2)
    a = matrix_index(2, 2, [[1, 0], [1, 0]])
    b = matrix_unit(2, 2, 1, 1)
    c = matrix_index(2, 2, [[0, 1], [0, 1]])
    abc = R.mul[R.mul[a, b], c]
    bac = R.mul[R.mul[b, a], c]
    assert abc == R.zero
    assert bac == matrix_unit(2, 2, 1, 1)
    assert not mask_contains(inv.jacobson_radical(R), int(bac))
    assert not props.check_property(R, "nj_symmetric").holds

    # (b) in M2(Z3): y*x*x nilpotent, x*y*x outside J, J = 0
    S = matrix_ring(zmod(3), 2)
    x = matrix_unit(3, 2, 0, 1)
    y = matrix_index(3, 2, [[0, 0], [1, 1]])
    yxx = S.mul[S.mul[y, x], x]
    xyx = S.mul[S.mul[x, y], x]
    assert mask_contains(inv.nilpotents(S), int(yxx))
    assert inv.jacobson_radical(S) == mask_from_indices([S.zero])
    assert not mask_contains(inv.jacobson_radical(S), int(xyx))

    # (c) M2(Z2) is not GWS, yet every nilpotent squares to zero
    assert not props.check_property(R, "gws").holds
    nil = mask_indices(inv.nilpotents(R))
    assert all(R.mul[v, v] == R.zero for v in nil)

    # (d) exactly the 8 idempotents of the corner example
    expected = sorted(matrix_index(2, 2, m) for m in (
        [[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 0]],
        [[0, 0], [0, 1]], [[1, 1], [0, 0]], [[1, 0], [1, 0]],
        [[0, 1], [0, 1]], [[0, 0], [1, 1]]))
    assert mask_indices(inv.idempotents(R)) == expected
    print("criterion 2 (pinned witnesses in M2(Z2) and M2(Z3)): pass")


def test_criterion_3_rule_suite(corpus):
    report = harness.run_rules(corpus)
    assert report.failures() == []
    summary = report.summary()
    for rid in ("R1", "R22"):
        entries = [e for e in report.entries if e.rule_id == rid]
        assert len(entries) == len(corpus)
        assert all(e.status == "pass" for e in entries)
    for rid in ("R5", "R12", "R13", "R14", "R15", "R16", "R24", "R25"):
        assert summary[rid] == "pass", (rid, summary[rid])
    print("criterion 3 (rule suite, zero failures, required non-vacuity): pass")


def test_criterion_4_radical_oracle_equivalence(corpus):
    for R in corpus:
        try:
            via_lattice = jacobson_via_maximal_left_ideals(R)
        except OracleLatticeTruncated:
            continue
        assert via_lattice == inv.jacobson_radical(R), R.name
    print("criterion 4 (unit-criterion J = intersection of maximal left "
          "ideals): pass")


def test_criterion_5_separation_witnesses(corpus):
    hit = harness.search_counterexample(["nj_symmetric"], "symmetric", corpus)
    assert hit.ring is not None and hit.ring.name == "T(2, Z(2))"
    assert props.reverify_witness(hit.ring, hit.verdicts["symmetric"])

    hit = harness.search_counterexample(["melt"], "nj_symmetric", corpus)
    assert hit.ring is not None and hit.ring.name == "M(2, Z(2))"
    assert props.reverify_witness(hit.ring, hit.verdicts["nj_symmetric"])

    hit = harness.search_counterexample(["left_quasi_duo"], "symmetric",
                                        corpus)
    assert hit.ring is not None
    assert props.check_property(hit.ring, "left_quasi_duo").holds
    assert props.reverify_witness(hit.ring, hit.verdicts["symmetric"])
    print("criterion 5 (separation witnesses with raw-table "
          "re-verification): pass")


def test_criterion_6_equivalences_both_directions(corpus):
    from ringlab.core import SizeError

    checked = 0
    for R in corpus:
        base = props.check_property(R, "nj_symmetric").holds
        for k in (2, 3):
            for build in (cons.upper_triangular, cons.constant_diagonal):
                try:
                    D = build(R, k,
                              max_order=harness.DERIVED_SCAN_MAX_ORDER)
                except SizeError:
                    continue
                assert props.check_property(D, "nj_symmetric").holds == base, \
                    (R.name, D.name)
                checked += 1
        if base:
            for e in mask_indices(inv.idempotents(R)):
                if e == R.zero and R.order > 1:
                    continue
                C = cons.corner(R, e)
                assert props.check_property(C, "nj_symmetric").holds, \
                    (R.name, e)
    assert checked > 0

    # converse counterexample: all proper corners NJ, the full ring not
    R = matrix_ring(zmod(2), 2)
    assert not props.check_property(R, "nj_symmetric").holds
    for e in mask_indices(inv.idempotents(R)):
        if e in (R.zero, R.one):
            continue
        assert props.check_property(cons.corner(R, e), "nj_symmetric").holds
    print("criterion 6 (triangular/constant-diagonal/corner equivalences): "
          "pass")


def test_criterion_7_verify_json_thread_determinism():
    def run(threads):
        out = subprocess.run(
            [sys.executable, "-m", "ringlab.cli", "verify", "--json",
             "--threads", str(threads)],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out.stdout

    a = run(1)
    b = run(4)
    assert a == b
    json.loads(a)   # well-formed
    print("criterion 7 (verify --json byte-identical across --threads): pass")


def test_criterion_8_performance_floor(corpus):
    t0 = time.perf_counter()
    R = matrix_ring(zmod(3), 2)
    R._cache.pop("prop_nj_symmetric", None)
    props.check_property(R, "nj_symmetric")
    nj_elapsed = time.perf_counter() - t0
    assert nj_elapsed < 5.0, f"order-81 NJ scan took {nj_elapsed:.2f}s"

    fresh = harness.default_corpus()
    t0 = time.perf_counter()
    report = harness.run_rules(fresh)
    verify_elapsed = time.perf_counter() - t0
    assert report.failures() == []
    assert verify_elapsed < 60.0, f"verify took {verify_elapsed:.1f}s"
    print(f"criterion 8 (verify {verify_elapsed:.1f}s < 60s, order-81 NJ "
          f"{nj_elapsed:.2f}s < 5s): pass")
