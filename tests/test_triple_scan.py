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
        monkeypatch.setattr(props, "_BLOCK_BYTES", request.param)
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
    assert props._row_chunks(R.order)[0].stop < 64
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
    for budget in (props._BLOCK_BYTES, 64):
        monkeypatch.setattr(props, "_BLOCK_BYTES", budget)
        S = _fresh(R)
        assert props.weak_symmetric_forms(S) == want["weak_symmetric"]
        assert props.nj_symmetric_forms(S) == want["nj_symmetric"]


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
                rows.start for rows in props._row_chunks(R.order))
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
        # one word a row: the whole column table is one block
        assert blocks == [slice(0, n)]
    elif block_bytes is not None:
        # a budget too small for 8 rows still packs 8 rows a block, and the
        # last block is shorter
        assert {b.stop - b.start for b in blocks[:-1]} == {8}
        assert blocks[-1].stop - blocks[-1].start == n % 8
    assert_classes_reproduce_tables(R)


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
    monkeypatch.setattr(props, "_BLOCK_BYTES", 64)
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
