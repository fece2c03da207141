"""Differential tests: the packed triple scan against the per-a reference.

The reference below is the scan ringlab used before the packed planes:
one boolean n x n plane per a, built by integer gathers on the
multiplication table, scanned in lexicographic order.  It stays here as the
oracle for every triple form.
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


def oracle_forms(R: FiniteRing) -> dict[str, tuple[Optional[dict], ...]]:
    """Witnesses of every triple form, in the order of TRIPLE_FORMS."""
    nil = inv.nilpotents_bool(R)
    jac = inv.jacobson_bool(R)
    z = R.zero
    return {
        "symmetric": (_scan_triples(
            R, lambda a: (_abc(R, a) == z) & (_bac(R, a) != z)),),
        "semicommutative": (_semicommutative(R),),
        "gws": (_scan_triples(
            R, lambda a: (_abc(R, a) == z) & ~nil[_bac(R, a)]),),
        "weak_symmetric": (
            _scan_triples(R, lambda a: nil[_abc(R, a)] & ~nil[_abc(R, a).T]),
            _scan_triples(R, lambda a: nil[_abc(R, a)] & ~nil[_bac(R, a)])),
        "nj_symmetric": (
            _scan_triples(R, lambda a: nil[_abc(R, a)] & ~jac[_bac(R, a)]),
            _scan_triples(R, lambda a: nil[_abc(R, a)] & ~jac[_abc(R, a).T]),
            _scan_triples(R, lambda a: nil[_abc(R, a)] & ~jac[_cba(R, a)])),
    }


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
    """The default block budget, and one so small each block holds 8 a."""
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
    assert props._block_size(R.order) < 64
    nil = inv.nilpotents_bool(R)
    jac = inv.jacobson_bool(R)
    want = _scan_triples(R, lambda a: nil[_abc(R, a)] & ~jac[_bac(R, a)])
    assert props.nj_symmetric_forms(R)[0] == want == {"a": 64, "b": 64,
                                                      "c": 128}


@pytest.mark.parametrize("rows,cols", [(8, 8), (13, 21), (64, 40), (3, 1)])
def test_transpose8_matches_boolean_transpose(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    B = rng.random((2, 8 * -(-rows // 8), 8 * -(-cols // 8))) < 0.4
    B[:, rows:, :] = False
    B[:, :, cols:] = False
    packed = np.packbits(B, axis=-1, bitorder="little")    # [k, row, byte]
    k, r, m = packed.shape
    words = np.ascontiguousarray(
        packed.reshape(k, r // 8, 8, m).transpose(0, 1, 3, 2))
    words = props._transpose8(words.view("<u8")[..., 0])   # [k, rb, cb]
    out = words.view(np.uint8).reshape(k, r // 8, m, 8).transpose(0, 2, 3, 1)
    out = np.unpackbits(out.reshape(k, 8 * m, r // 8), axis=-1,
                        bitorder="little")
    assert (out == B.transpose(0, 2, 1)).all()
