"""uint16 tables against the int32 tables they replaced.

Every table of a ring is uint16, and numpy keeps ``uint16 * int`` in uint16,
wrapping past 65,535.  So each product of table values that indexes a flat
table (``_op``'s x * width + y, ``_holds``' x * n + y, ``_left_multiples``'
v * b + i, ``_product_rows``' left * n + right) is widened to intp.  Two
oracles check that none wraps:

* ``int32_oracle.json`` holds, per ring, the fingerprint and the SHA-256 of
  every verdict and witness, of the witnesses of every triple form and of
  the radical report, as the int32 tables gave them.  ``_report`` wrote it
  from the int32 tables; recorded again from uint16 ones it would check
  nothing;
* the definitions, evaluated on int64 copies of the tables: the witness
  planes of every triple form, the left multiples of the exchange scan and
  the fingerprint's ``<i4`` bytes.

Z(257) is the least order whose x * n + y passes 65,535; M(1, Z(257))
multiplies through ``_op`` at width 257; M(2, Z(5)) has J = 0, so exchange
scans R itself; T(4, Z(2)) and Prod(M(2, Z(2)), T(2, Z(4))) are built at
order 1024 by ``_product_rows`` and by ``_fold``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ringlab import constructions as cons, core, exprs, harness
from ringlab import invariants as inv, properties as props

ORACLE = Path(__file__).with_name("int32_oracle.json")

WIDE = ["Z(257)", "T(4, Z(2))", "Prod(M(2, Z(2)), T(2, Z(4)))",
        "M(1, Z(257))", "M(2, Z(5))"]


def _rings():
    return (harness.default_corpus().rings
            + [R for seed in range(6) for R in harness.random_corpus(seed, 30)]
            + [exprs.build(e) for e in WIDE])


@pytest.fixture(scope="module")
def rings():
    return _rings()


@pytest.fixture(scope="module")
def wide_rings():
    return [exprs.build(e) for e in WIDE]


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _report(R) -> dict:
    return {
        "ring": R.name, "order": R.order,
        "fingerprint": core.canonical_fingerprint(R),
        "verdicts": _sha256([v.to_dict()
                             for v in props.all_verdicts(R).values()]),
        "forms": _sha256({name: props._form_witnesses(R, name)
                          for name in props.TRIPLE_FORMS}),
        "radical": _sha256(inv.radical_report(R).to_dict()),
    }


def test_every_table_is_uint16(rings):
    for R in rings:
        Q, _ = inv._mod_jacobson(R)
        for table in (R.add, R.mul, Q.add, Q.mul):
            assert table.dtype == np.uint16, R.name
            assert table.flags.c_contiguous and not table.flags.writeable


def test_bimodule_tables_are_uint16():
    R = exprs.build("Z(4)")
    M = cons.ring_bimodule(R)
    for B in (M, cons.zero_bimodule(R, R),
              cons.parse_bimodule(cons.serialize_bimodule(M, 4, 4))):
        for table in (B.add, B.left_act, B.right_act, B.internal_mul):
            assert table.dtype == np.uint16


@pytest.mark.parametrize("value", [3, (1 << 16) - 1])
def test_uint16_entries_out_of_range_raise(value):
    R = exprs.build("Z(3)")
    add = R.add.copy()
    add[1, 2] = value
    with pytest.raises(core.StructureError,
                       match="^add table entry out of range$"):
        core.FiniteRing(add, R.mul, R.zero, R.one)


def test_reports_match_the_int32_tables(rings):
    want = json.loads(ORACLE.read_text())
    assert [w["ring"] for w in want] == [R.name for R in rings]
    for R, pinned in zip(rings, want):
        assert _report(R) == pinned, R.name
        for v in props.all_verdicts(R).values():
            # each witness, plugged back into its definition
            assert v.holds or props.reverify_witness(R, v), (R.name, v.name)


def _int64_product(mul, word, val):
    x = val[word[0]]
    for ch in word[1:]:
        x = mul[x, val[ch]]
    return x


def test_witness_planes_match_int64_tables(wide_rings):
    # every (b, c) at the least, a middle and the greatest a, where products
    # x with x * n past 65,535 abound
    for R in wide_rings:
        mul, n = R.mul.astype(np.int64), R.order
        b, c = np.arange(n)[:, None], np.arange(n)[None, :]
        for forms in props.TRIPLE_FORMS.values():
            for form in forms:
                for a in (0, n // 2, n - 1):
                    val = {"a": a, "b": b, "c": c}
                    want = np.ones((n, n), dtype=bool)
                    for name, word in (form.premise, form.conclusion):
                        want &= props._members(R, name)[
                            _int64_product(mul, word, val)]
                    got = props._form_plane(R, form, a, b, c)
                    assert np.array_equal(np.broadcast_to(got, (n, n)),
                                          want), (R.name, form, a)


def test_left_multiples_match_int64_tables(wide_rings):
    for R in wide_rings:
        n = R.order
        xs = np.concatenate([np.arange(n), np.arange(n)[::-1]])    # b = 2n
        want = np.zeros((n, 2 * n), dtype=bool)
        want[R.mul.astype(np.int64)[:, xs], np.arange(2 * n)] = True
        assert np.array_equal(props._left_multiples(R, xs), want), R.name


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64, 1],
                         ids=["default", "64", "1"])
def test_fingerprint_hashes_i4_bytes_of_int64_tables(wide_rings, budget,
                                                     monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    for R in wide_rings:
        h = hashlib.sha256(f"ring-fp-v1 {R.order} {R.zero} {R.one}".encode())
        for table in (R.add, R.mul):
            h.update(table.astype(np.int64).astype("<i4").tobytes())
        S = core.FiniteRing(R.add, R.mul, R.zero, R.one)
        assert core.canonical_fingerprint(S) == h.hexdigest(), R.name


if __name__ == "__main__":
    # python tests/test_uint16_tables.py --record, with int32 tables only
    import sys
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_uint16_tables.py --record")
    ORACLE.write_text("[\n" + ",\n".join(json.dumps(_report(R))
                                          for R in _rings()) + "\n]\n")
