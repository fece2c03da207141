"""Differential tests: the row-class triple scan against the per-a reference.

The reference below is the scan ringlab used before the packed planes:
one boolean n x n plane per a, built by integer gathers on the
multiplication table, scanned in lexicographic order.  It stays here as the
oracle for every triple form.  The scan's parts are checked against the
definitions too: the row classes against packed tables built from the
element sets, and the per-a hits against each form's boolean plane.
"""

from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringlab import core
from ringlab import harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import FiniteRing


# -- the slow reference --------------------------------------------------------

def _first_true(mask2d: np.ndarray) -> tuple[int, int]:
    flat = int(np.argmax(mask2d.reshape(-1)))
    i, j = np.unravel_index(flat, mask2d.shape)
    return int(i), int(j)


def _scan_triples(R: FiniteRing, plane: Callable[[int], np.ndarray],
                  roles=("a", "b", "c")) -> Optional[dict]:
    """First (a,b,c) with plane(a)[b,c] true, in lexicographic order."""
    for a in range(R.order):
        V = plane(a)
        if V.any():
            b, c = _first_true(V)
            return {roles[0]: a, roles[1]: b, roles[2]: c}
    return None


# Per-a product planes.  With mul the n x n table:
#   ABC[b,c] = (ab)c        BAC[b,c] = (ba)c
#   ACB[b,c] = (ac)b        CBA[b,c] = (cb)a
def _abc(R: FiniteRing, a: int) -> np.ndarray:
    return R.mul[R.mul[a]]


def _bac(R: FiniteRing, a: int) -> np.ndarray:
    return R.mul[R.mul[:, a]]


def _cba(R: FiniteRing, a: int) -> np.ndarray:
    return R.mul[:, a][R.mul.T]


def _semicommutative(R: FiniteRing) -> Optional[dict]:
    z = R.zero
    mul = R.mul
    for a in range(R.order):
        ab = mul[a]
        arb = mul[mul[a]]          # [r, b] = (ar)b
        bad_b = (ab == z) & (arb != z).any(axis=0)
        if bad_b.any():
            b = int(np.argmax(bad_b))
            r = int(np.argmax(arb[:, b] != z))
            return {"a": a, "b": b, "r": r}
    return None


def oracle_planes(R: FiniteRing) -> dict[str, tuple[Callable, ...]]:
    """Per-a witness planes [b, c] of the three-letter triple forms, in the
    order of TRIPLE_FORMS."""
    nil = inv.nilpotents_bool(R)
    jac = inv.jacobson_bool(R)
    z = R.zero
    return {
        "symmetric": (lambda a: (_abc(R, a) == z) & (_bac(R, a) != z),),
        "gws": (lambda a: (_abc(R, a) == z) & ~nil[_bac(R, a)],),
        "weak_symmetric": (
            lambda a: nil[_abc(R, a)] & ~nil[_abc(R, a).T],
            lambda a: nil[_abc(R, a)] & ~nil[_bac(R, a)]),
        "nj_symmetric": (
            lambda a: nil[_abc(R, a)] & ~jac[_bac(R, a)],
            lambda a: nil[_abc(R, a)] & ~jac[_abc(R, a).T],
            lambda a: nil[_abc(R, a)] & ~jac[_cba(R, a)]),
    }


def oracle_forms(R: FiniteRing) -> dict[str, tuple[Optional[dict], ...]]:
    """Witnesses of every triple form, in the order of TRIPLE_FORMS."""
    forms = {name: tuple(_scan_triples(R, plane) for plane in planes)
             for name, planes in oracle_planes(R).items()}
    forms["semicommutative"] = (_semicommutative(R),)
    return forms


# -- the comparison ------------------------------------------------------------

def _fresh(R: FiniteRing) -> FiniteRing:
    """The same tables with an empty memo, so every scan really runs."""
    return FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)


def assert_same_witnesses(R: FiniteRing) -> None:
    R = _fresh(R)
    expected = oracle_forms(R)
    assert set(expected) == set(props.TRIPLE_FORMS)
    for name, forms in expected.items():
        assert props._form_witnesses(R, name) == forms, (R.name, name)
    assert props.nj_symmetric_forms(R) == expected["nj_symmetric"], R.name
    assert props.weak_symmetric_forms(R) == expected["weak_symmetric"], R.name
    if R.order == 1:
        return
    for name, forms in expected.items():
        v = props.check_property(R, name)
        assert v.witness == forms[0], (R.name, name)
        assert v.holds is (forms[0] is None)
        if not v.holds:
            assert props.reverify_witness(R, v), (R.name, name)


_DEFAULT = harness.default_corpus().rings


@pytest.fixture(params=[None, 64], ids=["budget", "tiny-blocks"])
def block_bytes(request, monkeypatch):
    """The default block budget, and one so small most blocks hold one a."""
    if request.param is not None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", request.param)
    return request.param


def test_default_corpus_matches_oracle(block_bytes):
    for R in _DEFAULT:
        assert_same_witnesses(R)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corpus_rings_match_oracle(block_bytes, data):
    if data.draw(st.booleans(), label="from default corpus"):
        R = data.draw(st.sampled_from(_DEFAULT), label="ring")
    else:
        seed = data.draw(st.integers(0, 10_000), label="seed")
        count = data.draw(st.integers(1, 3), label="count")
        rings = harness.random_corpus(seed, count)
        if not rings:
            return
        R = data.draw(st.sampled_from(rings), label="ring")
    assert_same_witnesses(R)


def test_late_witness_in_a_later_block():
    # order 1024 with witnesses at a = 64: several blocks at the default
    # budget, so the block walk and its offsets are exercised
    from ringlab import exprs
    R = exprs.build("Prod(M(2, Z(2)), T(2, Z(4)))")
    assert core._row_blocks(R.order, 8 * R.order)[0].stop < 64
    nil = inv.nilpotents_bool(R)
    jac = inv.jacobson_bool(R)
    want = _scan_triples(R, lambda a: nil[_abc(R, a)] & ~jac[_bac(R, a)])
    assert props.nj_symmetric_forms(R)[0] == want == {"a": 64, "b": 64,
                                                      "c": 128}


@pytest.mark.parametrize("expr", ["M(2, Z(2))",
                                  "Prod(M(2, Z(2)), T(2, Z(4)))"])
def test_failing_rings_match_oracle_in_every_form(expr, monkeypatch):
    # rings where the acb and cba forms have witnesses to compare
    from ringlab import exprs
    R = exprs.build(expr)
    planes = oracle_planes(R)
    want = {name: tuple(_scan_triples(R, plane) for plane in planes[name])
            for name in ("weak_symmetric", "nj_symmetric")}
    assert None not in want["weak_symmetric"] + want["nj_symmetric"]
    for budget in (core._BLOCK_BYTES, 64):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        S = _fresh(R)
        assert props.weak_symmetric_forms(S) == want["weak_symmetric"]
        assert props.nj_symmetric_forms(S) == want["nj_symmetric"]


# -- the least (b, c) of a witness plane ---------------------------------------

#: Rings beyond the default corpus whose acb, cba and ab forms have
#: witnesses, up to order 1024, where a plane takes many row chunks.
_WITNESS_RINGS = ("Prod(M(2, Z(2)), T(2, Z(4)))", "M(2, Z(4))", "M(2, Z(5))",
                  "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))",
                  "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)")


def _flat_index_bc(R: FiniteRing, form, a: int) -> tuple[int, int]:
    """The least (b, c) of a's plane through _form_plane's flat index."""
    idx = np.arange(R.order)
    return _first_true(props._form_plane(R, form, a, idx[:, None], idx))


def test_least_bc_matches_flat_index_plane(monkeypatch):
    from ringlab import exprs
    rings = _DEFAULT + [exprs.build(e) for e in _WITNESS_RINGS]
    # witnesses at the default budget, then the same planes one row a chunk
    cases = [(R, form, w) for R in rings
             for name, forms in props.TRIPLE_FORMS.items()
             for form, w in zip(forms, props._form_witnesses(R, name))
             if w is not None]
    monkeypatch.setattr(core, "_BLOCK_BYTES", 64)
    for R, form, w in cases:
        a, b, c = (w[r] for r in form.roles)
        want = _flat_index_bc(R, form, a)
        assert (b, c) == want == props._least_bc(R, form, a), (R.name, form)
    # every form of TRIPLE_FORMS has a witness on some ring
    assert {form for _, form, _ in cases} == {
        f for forms in props.TRIPLE_FORMS.values() for f in forms}


def test_least_bc_of_a_plane_without_witness_raises():
    # in Z(2), a = 0 has abc = bac = 0 for every (b, c): no symmetric witness
    from ringlab import exprs
    with pytest.raises(props.InternalCheckError, match="a=0"):
        props._least_bc(exprs.build("Z(2)"),
                        props.TRIPLE_FORMS["symmetric"][0], 0)


# -- the scan plan -------------------------------------------------------------

#: The definitional planes [b, c] of each product, and its element sets.
_PRODUCTS = {"abc": _abc, "bac": _bac, "cba": _cba,
             "acb": lambda R, a: _abc(R, a).T,
             "ab": lambda R, a: np.broadcast_to(R.mul[a][:, None],
                                                (R.order, R.order))}
_SETS = {"zero": lambda R: np.arange(R.order) == R.zero,
         "nonzero": lambda R: np.arange(R.order) != R.zero,
         "nil": inv.nilpotents_bool,
         "not_nil": lambda R: ~inv.nilpotents_bool(R),
         "not_jac": lambda R: ~inv.jacobson_bool(R)}


def test_every_plan_packs_both_terms_along_one_letter():
    for name, forms in props.TRIPLE_FORMS.items():
        for form in forms:
            premise, conclusion = props._scan_plan(form)
            assert premise.along == conclusion.along != "a", (name, form)
            for term, reading in zip((form.premise, form.conclusion),
                                     (premise, conclusion)):
                set_name, word = term
                assert reading.name == set_name
                # a product is rotated only inside a set that rotation keeps
                if reading.word != word:
                    assert set_name in ("nil", "not_nil")
                    assert reading.word in {word[i:] + word[:i]
                                            for i in range(1, len(word))}


def _definition_table(R: FiniteRing, reading) -> np.ndarray:
    """The reading's packed table from its definition, padded to whole
    64-bit words: row y holds bits{x : y*x in S}, or bits{x : x*y in S}
    for a column table, bit j of byte k being x = 8k + j."""
    products = R.mul.T if reading.column else R.mul
    packed = np.packbits(_SETS[reading.name](R)[products], axis=1,
                         bitorder="little")
    out = np.zeros((R.order, -(-R.order // 64) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out


def _plan_readings():
    return [reading for forms in props.TRIPLE_FORMS.values()
            for form in forms for reading in props._scan_plan(form)]


def assert_classes_reproduce_tables(R: FiniteRing) -> None:
    R = _fresh(R)
    for reading in _plan_readings():
        rows, cls = props._row_classes(R, reading)
        want = _definition_table(R, reading)
        assert (rows[cls].view(np.uint8) == want).all(), (R.name, reading)
        if rows.shape[1] > 1:       # rows of one word keep identity classes
            assert len(np.unique(want, axis=0)) == len(rows), R.name


def _definition_plane(R: FiniteRing, form, a: int) -> np.ndarray:
    """The form's witness plane [b, c] of a, from the definitions."""
    (p_set, p_word), (q_set, q_word) = form.premise, form.conclusion
    return (_SETS[p_set](R)[_PRODUCTS[p_word](R, a)]
            & _SETS[q_set](R)[_PRODUCTS[q_word](R, a)])


def assert_hits_match_definition(R: FiniteRing) -> None:
    R = _fresh(R)
    for forms in props.TRIPLE_FORMS.values():
        for form in forms:
            starts, hits = zip(*props._block_hits(R, form))
            assert starts == tuple(
                rows.start for rows in core._row_blocks(R.order, 8 * R.order))
            want = [_definition_plane(R, form, a).any()
                    for a in range(R.order)]
            assert np.concatenate(hits).tolist() == want, (R.name, form)


_SCANNED = (_DEFAULT + [R for seed in (0, 1, 2)
                        for R in harness.random_corpus(seed, 4)])


def test_row_classes_reproduce_packed_tables(block_bytes):
    for R in _SCANNED:
        assert_classes_reproduce_tables(R)


def test_block_hits_match_definition(block_bytes):
    for R in _SCANNED:
        assert_hits_match_definition(R)


#: Orders that are not multiples of 8 or 64, one word a row and more.
_ODD_ORDERS = ("Z(3)", "Z(12)", "M(2, Z(3))", "Prod(Z(5), T(2, Z(3)))")


@pytest.mark.parametrize("expr", _ODD_ORDERS)
def test_tables_of_odd_orders(expr, block_bytes):
    from ringlab import exprs
    R = exprs.build(expr)
    n = R.order
    blocks = props._column_blocks(n)
    if n <= 64:
        # one word a row: the column tables are packed down the columns at
        # once, as the blocked shifted lookups would pack them
        assert_small_column_tables_match_shifted_lookups(R)
    elif block_bytes is not None:
        # a budget too small for 8 rows still packs 8 rows a block, and the
        # last block is shorter
        assert {b.stop - b.start for b in blocks[:-1]} == {8}
        assert blocks[-1].stop - blocks[-1].start == n % 8
    assert_classes_reproduce_tables(R)


def assert_small_column_tables_match_shifted_lookups(R: FiniteRing) -> None:
    R = _fresh(R)
    assert R.order <= 64
    for name in ("zero", "nil", "not_jac", "nonzero", "not_nil"):
        got = props._word_table(R, name, True)
        want = props._shifted_columns(R.mul, props._members(R, name))
        assert got.dtype == want.dtype and np.array_equal(got, want), \
            (R.name, name)


def test_small_column_tables_match_shifted_lookups(block_bytes):
    for R in _SCANNED:
        if R.order <= 64:
            assert_small_column_tables_match_shifted_lookups(R)


#: The rings of perfbench's scan-ladder workload, orders 256 to 1024.
_SCAN_LADDER = ("Prod(T(3, Z(2)), Z(4))", "Prod(WSC(0), Z(8))",
                "Prod(Z(32), Z(32))", "Prod(M(2, Z(2)), T(2, Z(4)))")


def test_zero_row_tables_match_the_one_hot_gather():
    from ringlab import exprs
    for R in _DEFAULT + [exprs.build(e) for e in _SCAN_LADDER]:
        n = R.order
        one_hot = np.arange(n) == R.zero
        want = props._packed_rows(n, n,
                                  lambda rows: one_hot.take(R.mul[rows]))
        assert np.array_equal(props._word_table(R, "zero", False), want), \
            R.name


def test_complement_sets_share_classes(block_bytes):
    # a complement's table is its set's with each bit flipped up to x = n - 1
    # and the bits past it clear, under the same classes
    from ringlab import exprs
    for expr in _ODD_ORDERS:
        R = _fresh(exprs.build(expr))
        n = R.order
        for name, base in props._COMPLEMENTS.items():
            for column in (False, True):
                (rows, cls), (base_rows, base_cls) = (
                    props._row_classes(R, props._Reading(s, "abc", column))
                    for s in (name, base))
                assert cls is base_cls
                bits, base_bits = (np.unpackbits(r.view(np.uint8), axis=1,
                                                 bitorder="little")
                                   for r in (rows, base_rows))
                assert (bits[:, :n] == 1 - base_bits[:, :n]).all(), expr
                assert not bits[:, n:].any(), (expr, name, column)


def test_bad_pairs_in_several_chunks(monkeypatch):
    # two words per row and a budget of one row of classes per chunk, so
    # the chunk loop of _bad_pairs runs once per premise class
    from ringlab import exprs
    R = exprs.build("M(2, Z(3))")
    monkeypatch.setattr(core, "_BLOCK_BYTES", 64)
    for reading in _plan_readings():
        rows, _ = props._row_classes(R, reading)
        assert rows.shape[1] == 2
    for forms in props.TRIPLE_FORMS.values():
        for form in forms:
            (p_rows, _), (q_rows, _) = (props._row_classes(R, r)
                                        for r in props._scan_plan(form))
            assert len(p_rows) > 1
            bits = [np.unpackbits(r.view(np.uint8), axis=1).astype(bool)
                    for r in (p_rows, q_rows)]
            want = (bits[0][:, None] & bits[1][None]).any(axis=2)
            assert (props._bad_pairs(p_rows, q_rows) == want).all()
    assert_hits_match_definition(R)


# -- the J-saturated predicates on R/J(R) --------------------------------------

def _scans(R: FiniteRing, name: str) -> tuple[Optional[dict], ...]:
    """The packed scan of R, each form on its own."""
    return tuple(props._first_witness(R, f) for f in props.TRIPLE_FORMS[name])


def assert_lift_matches_scan(R: FiniteRing) -> None:
    R = _fresh(R)
    routed = [name for name, forms in props.TRIPLE_FORMS.items()
              if props._quotient_route(R, forms) is not None]
    # the route is chosen by the forms' element sets
    assert routed == ["weak_symmetric", "nj_symmetric"], R.name
    for name in routed:
        assert props._form_witnesses(R, name) == _scans(R, name), \
            (R.name, name)


def test_lift_matches_scan_on_small_rings(block_bytes, monkeypatch):
    # every ring with J != 0 is routed once the order bound is 0
    monkeypatch.setattr(props, "_SCAN_MAX_ORDER", 0)
    lifted = [R for R in _SCANNED if inv._mod_jacobson(R)[1] is not None]
    assert len(lifted) > 20
    for R in lifted:
        assert_lift_matches_scan(R)


@pytest.mark.parametrize("expr", ["Prod(M(2, Z(2)), T(2, Z(4)))",
                                  "T(4, Z(2))", "Prod(T(3, Z(2)), Z(4))"])
def test_lift_matches_scan_at_the_bound(expr):
    from ringlab import exprs
    R = _fresh(exprs.build(expr))
    for name in ("weak_symmetric", "nj_symmetric"):
        assert props._form_witnesses(R, name) == _scans(_fresh(R), name), \
            (expr, name)


def _refuse_row_classes_of(R: FiniteRing, monkeypatch) -> None:
    """Make building row classes of R, not of another ring, fail."""
    row_classes = props._row_classes

    def not_of_R(S, reading):
        if S is R:
            raise AssertionError(f"row classes of {reading} built on R")
        return row_classes(S, reading)
    monkeypatch.setattr(props, "_row_classes", not_of_R)


def _refuse_lifts(monkeypatch) -> None:
    def no_lift(*args):
        raise AssertionError("lifted from R/J(R)")
    monkeypatch.setattr(props, "_lifted_witness", no_lift)


def test_routed_ring_builds_no_row_classes(monkeypatch):
    from ringlab import exprs
    R = _fresh(exprs.build("Prod(M(2, Z(2)), T(2, Z(4)))"))
    want = {name: _scans(_fresh(R), name)
            for name in ("weak_symmetric", "nj_symmetric")}
    _refuse_row_classes_of(R, monkeypatch)
    for name, forms in want.items():
        assert None not in forms
        assert props._form_witnesses(R, name) == forms
        v = props.check_property(R, name)
        assert v.witness == forms[0] and props.reverify_witness(R, v)


@pytest.mark.parametrize("expr, names, holds", [
    # J = 0 above the bound: a ring with J = 0 on which NJ-symmetry holds
    # is a product of fields, which is commutative and not scanned
    ("M(2, Z(5))", ("weak_symmetric", "nj_symmetric"), False),
    # a field factor leaves a product non-commutative
    ("Prod(M(2, Z(3)), Z(5))", tuple(props.TRIPLE_FORMS), False),
    # J != 0 at the bound
    ("Prod(T(3, Z(2)), Z(4))", ("weak_symmetric", "nj_symmetric"), True),
    # zero premises on a ring whose J-saturated predicates are routed:
    # "nonzero" is not J-saturated, and gws passes only one way, from R/J(R)
    # to R, while R/J(R) = M_2(F_2) x ... has a gws witness
    ("Prod(M(2, Z(2)), T(2, Z(4)))", ("symmetric", "semicommutative", "gws"),
     False),
])
def test_scanned_rings_and_predicates(expr, names, holds, monkeypatch):
    from ringlab import exprs
    R = _fresh(exprs.build(expr))
    _refuse_lifts(monkeypatch)
    assert not inv.center_bool(R).all()
    for name in names:
        assert props._quotient_route(R, props.TRIPLE_FORMS[name]) is None
        v = props.check_property(R, name)
        assert v.holds is holds, (expr, name)
        assert holds or props.reverify_witness(R, v)


def test_rule_suite_rings_are_scanned():
    # R12 and R13 compare a scan of R with one of R/J(R)
    assert harness.DERIVED_SCAN_MAX_ORDER <= props._SCAN_MAX_ORDER
    assert max(R.order for R in _DEFAULT) <= props._SCAN_MAX_ORDER


# -- commutative rings ---------------------------------------------------------

def assert_commutative_route_matches_scan(R: FiniteRing, monkeypatch) -> None:
    """R's forms are settled without row classes of R and without a lift,
    and give the packed scan's witnesses."""
    R = _fresh(R)
    assert inv.center_bool(R).all(), R.name
    want = {name: _scans(_fresh(R), name) for name in props.TRIPLE_FORMS}
    with monkeypatch.context() as m:
        _refuse_row_classes_of(R, m)
        _refuse_lifts(m)
        for name, forms in want.items():
            assert props._form_witnesses(R, name) == forms, (R.name, name)
            assert props.check_property(R, name).holds


def test_commutative_route_matches_scan_on_small_rings(monkeypatch):
    # every commutative ring is routed once the order bound is 0
    monkeypatch.setattr(props, "_SCAN_MAX_ORDER", 0)
    commutative = [R for R in _SCANNED if inv.center_bool(R).all()]
    assert len(commutative) > 10
    for R in commutative:
        assert_commutative_route_matches_scan(R, monkeypatch)


@pytest.mark.parametrize("expr", ["Prod(Z(32), Z(32))", "Prod(Z(31), Z(29))"])
def test_commutative_route_at_the_bound(expr, monkeypatch):
    # J != 0 and J = 0 (a product of fields)
    from ringlab import exprs
    R = exprs.build(expr)
    assert R.order > props._SCAN_MAX_ORDER
    assert_commutative_route_matches_scan(R, monkeypatch)


# -- properties that pass from R/J(R) up to R ----------------------------------

#: The scans the one-sided route skips, as its oracles.
_ONE_SIDED_SCANS = {
    "gws": lambda R: props._first_witness(R, props.TRIPLE_FORMS["gws"][0]),
    "clean": props._clean_scan,
    "exchange": props._exchange_scan,
}


def _record_routes(monkeypatch) -> list:
    """The (ring, property) pairs that R/J(R) settles from now on."""
    settled = []
    holds_mod_jacobson = props._holds_mod_jacobson

    def record(R, name):
        held = holds_mod_jacobson(R, name)
        if held:
            settled.append((R.name, name))
        return held
    monkeypatch.setattr(props, "_holds_mod_jacobson", record)
    return settled


def test_one_sided_route_matches_scan_on_small_rings(monkeypatch):
    # once the order bound is 0, every ring with J(R) != 0 whose R/J(R) has
    # the property is settled there.  The other zero-premise predicates
    # read "nonzero", which is not J-saturated, and must keep the scan's
    # witnesses.  No corpus ring with J(R) != 0 fails gws, so two are added
    # whose R/J(R) has a witness and that are scanned.
    from ringlab import exprs
    monkeypatch.setattr(props, "_SCAN_MAX_ORDER", 0)
    settled = _record_routes(monkeypatch)
    rings = (_DEFAULT + [R for seed in range(6)
                         for R in harness.random_corpus(seed, 30)]
             + [exprs.build(e)
                for e in ("M(2, Z(4))", "Prod(M(2, Z(2)), Z(4))")])
    failing = []
    for R in rings:
        for name, scan in _ONE_SIDED_SCANS.items():
            want = scan(_fresh(R))
            assert props.check_property(_fresh(R), name).witness == want, \
                (R.name, name)
            if want is not None and inv._mod_jacobson(R)[1] is not None:
                failing.append(name)
        for name in ("symmetric", "semicommutative"):
            assert props._form_witnesses(_fresh(R), name) == \
                _scans(_fresh(R), name), (R.name, name)
    assert {name for _, name in settled} == set(_ONE_SIDED_SCANS), settled
    assert "gws" in failing


def _refuse_scans_of(R: FiniteRing, monkeypatch) -> None:
    """Make scanning R, not another ring, for clean or exchange fail."""
    for attr in ("_clean_scan", "_exchange_scan"):
        def not_of_R(S, scan=getattr(props, attr), attr=attr):
            if S is R:
                raise AssertionError(f"{attr} ran on R")
            return scan(S)
        monkeypatch.setattr(props, attr, not_of_R)


@pytest.mark.parametrize("expr, settled, gws", [
    # J != 0 and R/J(R) has all three
    ("Prod(WSC(0), Z(8))", ("gws", "clean", "exchange"), None),
    # R/J(R) = M_2(F_2) x ... has a gws witness, so R is scanned for R's
    # least one
    ("Prod(M(2, Z(2)), T(2, Z(4)))", ("clean", "exchange"),
     {"a": 64, "b": 192, "c": 320}),
    # J = 0: nothing to pass up from
    ("M(2, Z(5))", (), {"a": 1, "b": 6, "c": 29}),
])
def test_one_sided_route_at_the_bound(expr, settled, gws, monkeypatch):
    from ringlab import exprs
    R = _fresh(exprs.build(expr))
    assert R.order > props._SCAN_MAX_ORDER
    assert (inv._mod_jacobson(R)[1] is None) is (not settled)
    want = {name: scan(_fresh(R)) for name, scan in _ONE_SIDED_SCANS.items()}
    assert want["gws"] == gws
    with monkeypatch.context() as m:
        if "gws" in settled:
            _refuse_row_classes_of(R, m)
        if "clean" in settled:
            _refuse_scans_of(R, m)
        routed = _record_routes(m)
        for name in _ONE_SIDED_SCANS:
            v = props.check_property(R, name)
            assert v.witness == want[name], (expr, name)
            assert v.holds or props.reverify_witness(R, v)
    assert [name for _, name in routed] == list(settled)
