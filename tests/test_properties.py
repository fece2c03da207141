import numpy as np
import pytest

from ringlab import constructions as cons
from ringlab import core
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import mask_contains
from ringlab.constructions import (constant_diagonal, direct_product,
                                   matrix_ring, matrix_unit, upper_triangular,
                                   zmod)


def holds(R, name):
    return props.check_property(R, name).holds


# -- frozen expectations for the standard small rings ------------------------

Z4 = zmod(4)
Z6 = zmod(6)
M2Z2 = matrix_ring(zmod(2), 2)
M2Z3 = matrix_ring(zmod(3), 2)
T2Z2 = upper_triangular(zmod(2), 2)
T2Z4 = upper_triangular(zmod(4), 2)


EXPECTED = {
    # (ring, property): holds?
    (Z4, "symmetric"): True,
    (Z4, "nj_symmetric"): True,
    (Z4, "j_clean"): True,
    (Z4, "j_quasipolar"): True,
    (Z4, "local"): True,
    (Z4, "regular"): False,
    (Z6, "j_clean"): False,
    (Z6, "j_quasipolar"): False,
    (Z6, "local"): False,
    (Z6, "regular"): True,
    (Z6, "strongly_regular"): True,
    (Z6, "semiperiodic"): True,
    (M2Z2, "nj_symmetric"): False,
    (M2Z2, "symmetric"): False,
    (M2Z2, "semicommutative"): False,
    (M2Z2, "weak_symmetric"): False,
    (M2Z2, "gws"): False,
    (M2Z2, "melt"): True,
    (M2Z2, "left_quasi_duo"): False,
    (M2Z2, "right_quasi_duo"): False,
    (M2Z2, "abelian"): False,
    (M2Z2, "regular"): True,
    (M2Z2, "strongly_regular"): False,
    (M2Z2, "exchange"): True,
    (M2Z2, "clean"): True,
    (M2Z2, "semiprime"): True,
    (M2Z2, "two_primal"): False,
    (M2Z2, "semiperiodic"): True,
    (M2Z3, "nj_symmetric"): False,
    (T2Z2, "nj_symmetric"): True,
    (T2Z2, "symmetric"): False,
    (T2Z2, "semicommutative"): False,
    (T2Z2, "left_quasi_duo"): True,
    (T2Z2, "abelian"): False,
    (T2Z4, "nj_symmetric"): True,
    (T2Z4, "gws"): True,
    (zmod(7), "domain"): True,
    (Z6, "domain"): False,
    (Z6, "reduced"): True,
    (Z4, "reduced"): False,
}


@pytest.mark.parametrize("ring,name,expected",
                         [(R, n, v) for (R, n), v in EXPECTED.items()],
                         ids=[f"{R.name}-{n}" for (R, n) in EXPECTED])
def test_expected_verdicts(ring, name, expected):
    v = props.check_property(ring, name)
    assert v.holds is expected
    if not v.holds:
        assert v.witness, "failing verdict must carry a witness"
        assert props.reverify_witness(ring, v)


def test_zero_ring_satisfies_everything():
    R = zmod(1)
    for name in props.PROPERTY_CHECKS:
        assert holds(R, name), name


def test_unknown_property_raises():
    with pytest.raises(props.UnknownPropertyError):
        props.check_property(Z4, "njsymmetric")


def test_property_names_are_stable():
    assert sorted(props.PROPERTY_CHECKS) == sorted([
        "symmetric", "semicommutative", "weak_symmetric", "gws",
        "nj_symmetric", "left_quasi_duo", "right_quasi_duo", "melt",
        "abelian", "clean", "j_clean", "exchange", "j_quasipolar", "local",
        "regular", "strongly_regular", "semiperiodic", "two_primal",
        "reduced", "semiprime", "domain", "commutative"])


def test_nj_witness_is_lexicographically_least_and_real():
    v = props.check_property(M2Z2, "nj_symmetric")
    a, b, c = v.witness["a"], v.witness["b"], v.witness["c"]
    nil = inv.nilpotents_bool(M2Z2)
    jac = inv.jacobson_bool(M2Z2)
    abc = M2Z2.mul[M2Z2.mul[a, b], c]
    bac = M2Z2.mul[M2Z2.mul[b, a], c]
    assert nil[abc] and not jac[bac]
    # determinism: repeated scans give the same witness
    M2Z2._cache.pop("prop_nj_symmetric", None)
    again = props.check_property(M2Z2, "nj_symmetric")
    assert again.witness == v.witness


def test_nj_formulations_agree_on_mixed_rings():
    for R in (Z4, Z6, M2Z2, M2Z3, T2Z2, T2Z4,
              direct_product(zmod(2), zmod(2)), constant_diagonal(zmod(4), 2)):
        forms = props.nj_symmetric_forms(R)
        assert len({w is None for w in forms}) == 1, R.name


def test_weak_symmetric_formulations_agree_on_mixed_rings():
    for R in (Z4, Z6, M2Z2, T2Z2, T2Z4):
        acb, bac = props.weak_symmetric_forms(R)
        assert (acb is None) == (bac is None), R.name


def test_standard_triple_breaks_nj_in_m2z2():
    a = cons.matrix_index(2, 2, [[1, 0], [1, 0]])
    b = matrix_unit(2, 2, 1, 1)
    c = cons.matrix_index(2, 2, [[0, 1], [0, 1]])
    abc = M2Z2.mul[M2Z2.mul[a, b], c]
    bac = M2Z2.mul[M2Z2.mul[b, a], c]
    assert abc == M2Z2.zero
    assert bac == matrix_unit(2, 2, 1, 1)
    assert not mask_contains(inv.jacobson_radical(M2Z2), int(bac))


def test_quasi_duo_witness_names_a_maximal_ideal():
    v = props.check_property(M2Z2, "left_quasi_duo")
    assert not v.holds
    ideal = v.witness["ideal"]
    masks = {tuple(inv.mask_indices(m)) for m in inv.maximal_left_ideals(M2Z2)}
    assert tuple(ideal) in masks


def test_melt_vacuous_on_m2z2():
    # no proper essential left ideal exists, so MELT holds trivially while
    # plain quasi-duo fails
    assert holds(M2Z2, "melt")
    assert not holds(M2Z2, "left_quasi_duo")


def test_local_means_unique_maximal_left_ideal():
    assert holds(Z4, "local")
    assert holds(zmod(9), "local")
    assert not holds(Z6, "local")
    assert not holds(M2Z2, "local")


def test_exchange_holds_on_finite_examples():
    for R in (Z4, Z6, M2Z2, T2Z2):
        assert holds(R, "exchange"), R.name


def test_semiperiodic_exponent_search_respects_parity():
    v = props.check_property(Z6, "semiperiodic")
    assert v.holds
    # commutative, so nothing lies outside J(R) union Z(R): holds vacuously
    S = cons.truncated_skew_poly(zmod(4), [0, 1, 2, 3], 2, hom_name="id")
    assert props.check_property(S, "semiperiodic").holds
    # a = 2 of M(2, Z(3)) has no two powers of opposite parity whose
    # difference is nilpotent
    got = props.check_property(M2Z3, "semiperiodic")
    assert (got.holds, got.witness) == (False, {"a": 2})
    assert props.reverify_witness(M2Z3, got)


def test_commutative_and_abelian():
    assert holds(Z6, "commutative")
    assert not holds(T2Z2, "commutative")
    assert holds(Z6, "abelian")
    assert not holds(M2Z2, "abelian")


def test_two_primal_matches_nilradical_comparison():
    assert holds(Z4, "two_primal")
    assert not holds(M2Z2, "two_primal")
    assert holds(T2Z2, "two_primal")


def test_all_verdicts_covers_registry():
    out = props.all_verdicts(Z4)
    assert set(out) == set(props.PROPERTY_CHECKS)
    assert all(isinstance(v, props.PropertyVerdict) for v in out.values())


def test_verdict_dict_excludes_timing():
    v = props.check_property(Z4, "nj_symmetric")
    d = v.to_dict()
    assert "elapsed" not in d
    assert d["name"] == "nj_symmetric"
    assert d["holds"] is True


# -- the registration contract -------------------------------------------------

def test_registry_keeps_its_order():
    # all_verdicts and the benchmark's metrics follow this order
    assert tuple(props.PROPERTY_CHECKS) == (
        "symmetric", "semicommutative", "weak_symmetric", "gws",
        "nj_symmetric", "left_quasi_duo", "right_quasi_duo", "melt",
        "abelian", "clean", "j_clean", "exchange", "j_quasipolar", "local",
        "regular", "strongly_regular", "semiperiodic", "two_primal",
        "reduced", "semiprime", "domain", "commutative")


@pytest.mark.parametrize("name", list(props.PROPERTY_CHECKS))
def test_zero_ring_is_reduced_through_either_entry_point(name):
    R = zmod(1)
    for v in (props.PROPERTY_CHECKS[name](R), props.check_property(R, name)):
        assert (v.name, v.holds, v.witness, v.method) == (
            name, True, None, "reduced")


def test_zero_ring_shortcut_skips_the_predicate(monkeypatch):
    monkeypatch.setattr(props, "PROPERTY_CHECKS", {})

    def explode(R):
        raise AssertionError(f"predicate ran on {R.name}")
    check = props._property("probe")(explode)
    assert props.PROPERTY_CHECKS == {"probe": check}
    v = check(zmod(1))
    assert (v.holds, v.witness, v.method) == (True, None, "reduced")
    with pytest.raises(AssertionError, match="Z\\(2\\)"):
        check(zmod(2))


def test_registered_functions_are_the_module_attributes():
    # the benchmark's tracer finds each entry by its module name
    for name, fn in props.PROPERTY_CHECKS.items():
        assert getattr(props, fn.__name__) is fn, name


@pytest.mark.parametrize("name", list(props.PROPERTY_CHECKS))
def test_registered_verdicts_carry_name_time_and_witness(name):
    v = props.PROPERTY_CHECKS[name](M2Z2)
    assert v.name == name and v.method == "exhaustive"
    assert v.elapsed > 0
    assert v.holds is (v.witness is None)
    assert v.holds is EXPECTED.get((M2Z2, name), v.holds)


# -- semiperiodic: the power-cycle window against the fixed 3n+2 walk ---------

def _semiperiodic_3n2(R):
    """The walk ringlab used before the power-cycle window, as the oracle:
    powers a^1 .. a^(3n+2) and every pair q > p with q - p odd."""
    import numpy as np
    n = R.order
    outside = ~(inv.jacobson_bool(R) | inv.center_bool(R))
    nil = inv.nilpotents_bool(R)
    neg = R.neg_table()
    qmax = 3 * n + 2
    t = np.arange(qmax)
    want = ((t[:, None] - t[None, :]) % 2 == 1) & (t[:, None] > t[None, :])
    for a in np.flatnonzero(outside):
        pw = np.empty(qmax, dtype=np.int32)
        cur = a
        for i in range(qmax):
            pw[i] = cur
            cur = int(R.mul[cur, a])
        if not (nil[R.add[pw[:, None], neg[pw][None, :]]] & want).any():
            return {"a": int(a)}
    return None


def test_semiperiodic_matches_the_3n2_walk():
    from ringlab import exprs, harness
    rings = (harness.default_corpus().rings
             + [R for seed in range(6) for R in harness.random_corpus(seed, 5)]
             + [exprs.build(e) for e in (   # the analyze-cached workload
                 "Z(4)", "Z(2)", "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))",
                 "M(2, Z(4))", "CD(3, Prod(Z(2), Z(2)))",
                 "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)", "T(2, Z(4))")])
    failing = 0
    for R in rings:
        if R.order == 1:
            continue
        want = _semiperiodic_3n2(R)
        assert props.is_semiperiodic(R).witness == want, R.name
        failing += want is not None
    assert failing > 0


# -- exchange, J-quasipolarity and semiperiodicity: blocks of a against ------
# -- the per-element loops they replace -------------------------------------

def _exchange_loop(R):
    """The per-a loop ringlab used before blocks of a, as the oracle."""
    n = R.order
    neg = R.neg_table()
    one_minus = R.add[R.one, neg]       # 1 - x, per element
    idem = np.flatnonzero(inv.idempotents_bool(R))
    for a in range(n):
        ra = np.zeros(n, dtype=bool)
        ra[R.mul[:, a]] = True
        r1a = np.zeros(n, dtype=bool)
        r1a[R.mul[:, one_minus[a]]] = True
        if not (ra[idem] & r1a[one_minus[idem]]).any():
            return {"a": a}
    return None


def _j_quasipolar_loop(R):
    """The per-a loop ringlab used before blocks of a, as the oracle."""
    idem = inv.idempotents_bool(R)
    jac = inv.jacobson_bool(R)
    eq = R.mul == R.mul.T
    for a in range(R.order):
        cm = np.flatnonzero(R.mul[a] == R.mul[:, a])
        dc = eq[:, cm].all(axis=1)
        f = np.flatnonzero(dc & idem)
        if not jac[R.add[a, f]].any():
            return {"a": a}
    return None


def _commuting_words(R, xs, commute):
    """Row i: bits{y : xs[i]*y = y*xs[i]}, or its complement, packed by
    _packed_rows.  The complement is taken before packing, so its bits past
    y = n - 1 stay zero."""
    def bits(rows):
        x = xs[rows]
        eq = R.mul.take(x, axis=0) == R.mul.take(x, axis=1).T
        return eq if commute else ~eq
    return props._packed_rows(len(xs), R.order, bits)


def _j_quasipolar_by_double_commutants(R):
    """The packed double-commutant scan ringlab used before the a^2 + a
    test, as the oracle: f is in the double commutant of a exactly when the
    packed row of a and the complemented row of f share no bit."""
    n = R.order
    idem = np.flatnonzero(inv.idempotents_bool(R))
    jac = inv.jacobson_bool(R)
    f_words = _commuting_words(R, idem, commute=False)
    for rows in props._a_blocks(n, 16 * (n + len(idem))):
        a_words = _commuting_words(R, np.arange(rows.start, rows.stop),
                                   commute=True)
        ok = (jac[R.add[rows][:, idem]]
              & ~props._bad_pairs(a_words, f_words)).any(axis=1)
        if not ok.all():
            return {"a": rows.start + int(np.argmin(ok))}
    return None


def _j_clean_by_sums(R):
    """The idempotent + radical sums ringlab used before the a^2 - a test,
    as the oracle."""
    reach = props._reachable_by_sums(R, inv.idempotents_bool(R),
                                     inv.jacobson_bool(R))
    return None if reach.all() else {"a": int(np.argmax(~reach))}


def _semiperiodic_loop(R):
    """The per-a power-cycle walk ringlab used before blocks of a."""
    outside = ~(inv.jacobson_bool(R) | inv.center_bool(R))
    nil = inv.nilpotents_bool(R)
    neg = R.neg_table()
    for a in np.flatnonzero(outside):
        pw, seen = [int(a)], {int(a)}        # pw[t] = a^(t+1)
        while (cur := int(R.mul[pw[-1], a])) not in seen:
            pw.append(cur)
            seen.add(cur)
        pw = np.array(pw + pw[pw.index(cur):])   # exponents 1 .. s+2k-1
        t = np.arange(len(pw))
        odd = (t[:, None] - t[None, :]) % 2 == 1
        if not (nil[R.add[pw[:, None], neg[pw][None, :]]] & odd).any():
            return {"a": int(a)}
    return None


Z2_8 = ("Prod(Prod(Prod(Z(2), Z(2)), Prod(Z(2), Z(2))), "
        "Prod(Prod(Z(2), Z(2)), Prod(Z(2), Z(2))))")
#: The analyze-cached workload, early and late witnesses, an order (81) that
#: is not a multiple of 64, and (Z(2))^8, whose 256 idempotents take several
#: _bad_pairs chunks.
PER_ELEMENT_RINGS = (
    "Z(4)", "Z(2)", "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))", "M(2, Z(4))",
    "CD(3, Prod(Z(2), Z(2)))", "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)",
    "T(2, Z(4))", "T(4, Z(2))", "M(2, Z(3))", "M(2, Z(5))",
    "Z(6)", Z2_8)

ORACLES = {"exchange": _exchange_loop, "j_quasipolar": _j_quasipolar_loop,
           "semiperiodic": _semiperiodic_loop}


@pytest.fixture(scope="module")
def per_element_rings():
    from ringlab import exprs, harness
    return [R for R in (
        harness.default_corpus().rings
        + [R for seed in range(6) for R in harness.random_corpus(seed, 5)]
        + [exprs.build(e) for e in PER_ELEMENT_RINGS]) if R.order > 1]


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64],
                         ids=["default", "64"])
def test_per_element_predicates_match_the_loops(per_element_rings, budget,
                                                monkeypatch):
    # at 64 bytes every block holds one a and every chunk one row, so the
    # block ramp, the cap and the early exits all run
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    failing = {name: 0 for name in ORACLES}
    for R in per_element_rings:
        for name, oracle in ORACLES.items():
            got = props.PROPERTY_CHECKS[name](R)
            want = oracle(R)
            assert got.witness == want, (R.name, name)
            if want is not None:
                failing[name] += 1
                assert props.reverify_witness(R, got), (R.name, name)
    assert failing["exchange"] == 0
    assert failing["j_quasipolar"] > 0 and failing["semiperiodic"] > 0


def test_j_element_tests_match_the_routes_they_replace(per_element_rings):
    # a^2 + a and a^2 - a in J(R) against the double commutant scan and the
    # sums e + j: the same least witness on every ring
    failing = {"j_quasipolar": 0, "j_clean": 0}
    for R in per_element_rings:
        for name, oracle in (("j_quasipolar",
                              _j_quasipolar_by_double_commutants),
                             ("j_clean", _j_clean_by_sums)):
            want = oracle(R)
            assert props.PROPERTY_CHECKS[name](R).witness == want, (R.name,
                                                                    name)
            failing[name] += want is not None
    assert all(failing.values())


def _commutative_by_transpose(R):
    """The least (a, b) of the whole table against its transpose."""
    bad = R.mul != R.mul.T
    if not bad.any():
        return None
    a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return {"a": int(a), "b": int(b)}


def test_commutative_from_the_center_matches_the_table_compare(
        per_element_rings):
    failing = 0
    for R in per_element_rings:
        want = _commutative_by_transpose(R)
        assert props.PROPERTY_CHECKS["commutative"](R).witness == want, \
            R.name
        failing += want is not None
    assert 0 < failing < len(per_element_rings)


def _trivial_idempotents(R):
    e = np.zeros(R.order, dtype=bool)
    e[[R.zero, R.one]] = True
    return e


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64],
                         ids=["default", "64"])
def test_exchange_over_the_trivial_idempotents(per_element_rings, budget,
                                               monkeypatch):
    # every finite ring is exchange, so only a smaller idempotent set makes
    # the witness branch run: over {0, 1}, a passes exactly when a or 1 - a
    # is a unit.  The scan is called itself: above order 256 the registered
    # check may answer from the verdict of R/J(R), memoized over every
    # idempotent by an earlier test
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(inv, "idempotents_bool", _trivial_idempotents)
    failing = 0
    for R in per_element_rings:
        units = inv.units_bool(R)
        bad = np.flatnonzero(~(units | units[R.add[R.one, R.neg_table()]]))
        want = {"a": int(bad[0])} if len(bad) else None
        assert _exchange_loop(R) == want, R.name
        assert props._exchange_scan(R) == want, R.name
        failing += want is not None
    assert failing > 0


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64],
                         ids=["default", "64"])
@pytest.mark.parametrize("expr", ["T(3, Z(2))", "M(2, Z(3))", "M(2, Z(4))",
                                  "Prod(T(3, Z(2)), Prod(Z(2), Z(2)))"])
def test_double_commutant_pairs_match_definition(expr, budget, monkeypatch):
    # In a finite ring the double commutant decides no j_quasipolar verdict:
    # if a + f is in J(R), so is a + e for the idempotent power e of -a,
    # which lies in the double commutant.  So the packed test is checked
    # here against the definition, on orders of one to four words a row.
    from ringlab import exprs
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    R = exprs.build(expr)
    idem = np.flatnonzero(inv.idempotents_bool(R))
    outside = props._bad_pairs(
        _commuting_words(R, np.arange(R.order), commute=True),
        _commuting_words(R, idem, commute=False))
    eq = R.mul == R.mul.T
    want = np.array([~eq[idem][:, eq[a]].all(axis=1) for a in range(R.order)])
    assert (outside == want).all()
    assert want.any() and not want.all()


def _verdict(name, a):
    return props.PropertyVerdict(name, False, {"a": a})


def test_per_element_recheck_accepts_the_witness_and_rejects_others():
    assert props.check_property(M2Z3, "j_quasipolar").witness == {"a": 1}
    assert props.reverify_witness(M2Z3, _verdict("j_quasipolar", 1))
    # f = 0 is central, so it lies in the double commutant of 0, and 0 + 0
    # is in J(R)
    assert not props.reverify_witness(M2Z3, _verdict("j_quasipolar", 0))
    # exchange holds, so no a is a witness
    for a in range(M2Z3.order):
        assert not props.reverify_witness(M2Z3, _verdict("exchange", a))
    assert props.reverify_witness(M2Z3, _verdict("semiperiodic", 2))
    # e11 is outside J(R) union Z(R), and e11^2 - e11 = 0
    e11 = matrix_unit(3, 2, 0, 0)
    assert not props.reverify_witness(M2Z3, _verdict("semiperiodic", e11))
    # -1 is central: its powers alternate -1, 1, and 1 - (-1) = 2 is a unit,
    # so only its membership in Z(R) keeps it from being a witness
    minus_one = cons.matrix_index(3, 2, [[2, 0], [0, 2]])
    assert not props._semiperiodic_at(M2Z3, minus_one)
    assert not props.reverify_witness(M2Z3,
                                      _verdict("semiperiodic", minus_one))
