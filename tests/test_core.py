import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlab import cli, core
from ringlab.constructions import direct_product, matrix_ring, zmod
from ringlab.exprs import build


def test_zmod_tables_are_read_only():
    R = zmod(5)
    with pytest.raises(ValueError):
        R.add[0, 0] = 1
    with pytest.raises(ValueError):
        R.mul[0, 0] = 1


def test_structure_validation_rejects_bad_tables():
    with pytest.raises(core.StructureError):
        core.FiniteRing(add=np.array([[0, 1], [1, 0]]),
                        mul=np.array([[0, 0], [0, 9]]), zero=0, one=1)
    with pytest.raises(core.StructureError):
        core.FiniteRing(add=np.array([[0, 1]]),
                        mul=np.array([[0, 0], [0, 1]]), zero=0, one=1)


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("value", [-1, -(1 << 31), 3, 1 << 30, (1 << 31) - 1])
def test_table_entries_out_of_range_raise(table, value):
    # negative entries and entries >= n each name the table they are in
    R = zmod(3)
    tables = {"add": R.add.copy(), "mul": R.mul.copy()}
    tables[table][1, 2] = value
    with pytest.raises(core.StructureError,
                       match=f"^{table} table entry out of range$"):
        core.FiniteRing(tables["add"], tables["mul"], R.zero, R.one)


def _serial_fingerprint(R):
    """The digest of R's tables hashed on this thread, from a fresh copy."""
    S = core.FiniteRing(R.add.copy(), R.mul.copy(), R.zero, R.one)
    core._memoize_fingerprint(S)
    return S._fingerprint


def _hasher_threads(monkeypatch):
    """The thread of each hash the CLI's fingerprint helper runs."""
    threads = []
    memoize = cli._memoize_fingerprint

    def record(R):
        threads.append(threading.current_thread())
        memoize(R)
    monkeypatch.setattr(cli, "_memoize_fingerprint", record)
    return threads


@pytest.mark.parametrize("expr", [
    "Prod(M(2, Z(2)), T(2, Z(4)))", "Prod(WSC(0), Z(8))", "T(4, Z(2))",
    "SkewTrunc(Z(2), id, 10)",
    # order 512, the least order hashed on a thread: the corner at (1, 1, 0)
    "Corner(Prod(Prod(Z(16), Z(32)), Z(2)), 66)"])
def test_pipelined_digests_equal_the_serial_digest(expr, monkeypatch):
    threads = _hasher_threads(monkeypatch)
    R = build(expr)
    assert R.order >= 512 and R._fingerprint is None
    result, fingerprint = cli._with_fingerprint(R, lambda: "work")
    assert result == "work"
    assert fingerprint == _serial_fingerprint(R) == R._fingerprint
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
    assert not threads[0].is_alive()


def test_small_rings_hash_inline(monkeypatch):
    # below the threshold no thread starts, before or during the work
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Recorded)
    R = build("Prod(Z(16), Z(16))")
    assert R.add.nbytes + R.mul.nbytes < cli.HASH_THREAD_BYTES
    before = threading.active_count()
    result, fingerprint = cli._with_fingerprint(R, threading.active_count)
    assert (result, started) == (before, [])
    assert fingerprint == _serial_fingerprint(R)


def test_size_cap():
    with pytest.raises(core.SizeError):
        zmod(core.MAX_ORDER + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_axioms_exhaustive_on_residue_rings(n):
    report = core.verify_axioms(zmod(n))
    assert report.ok, (report.axiom, report.witness)


def test_axioms_catch_broken_associativity():
    R = zmod(4)
    mul = R.mul.copy()
    mul[2, 3] = 1   # 2*3 = 2 in Z4; poison one cell
    broken = core.FiniteRing(add=R.add.copy(), mul=mul,
                             zero=0, one=1, name="broken")
    report = core.verify_axioms(broken)
    assert not report.ok
    assert report.axiom in ("multiplicative associativity",
                            "left distributivity", "right distributivity")
    a, b, c = report.witness
    # the witness triple must actually exhibit some broken triple law
    assert (mul[mul[a, b], c] != mul[a, mul[b, c]]
            or mul[a, R.add[b, c]] != R.add[mul[a, b], mul[a, c]]
            or mul[R.add[b, c], a] != R.add[mul[b, a], mul[c, a]])


def test_axioms_identity_failure_reported_before_associativity():
    R = zmod(4)
    mul = R.mul.copy()
    mul[1, 1] = 0
    broken = core.FiniteRing(add=R.add.copy(), mul=mul,
                             zero=0, one=1, name="broken")
    report = core.verify_axioms(broken)
    assert not report.ok
    assert report.axiom == "multiplicative identity"
    assert report.witness == (1,)


def exhaustive_axioms(R: core.FiniteRing) -> core.AxiomReport:
    """The ring axioms checked on every pair and every triple: the oracle
    for ``verify_axioms``, which decides the triple laws on generators."""
    n = R.order
    add, mul = R.add, R.mul
    idx = np.arange(n)
    bad = add[R.zero] != idx
    if bad.any():
        return core.AxiomReport(False, "additive identity",
                                (int(np.argmax(bad)),))
    bad = add != add.T
    if bad.any():
        return core.AxiomReport(False, "additive commutativity",
                                core._first_true(bad))
    bad = ~(add == R.zero).any(axis=1)
    if bad.any():
        return core.AxiomReport(False, "additive inverse",
                                (int(np.argmax(bad)),))
    bad = (mul[R.one] != idx) | (mul[:, R.one] != idx)
    if bad.any():
        return core.AxiomReport(False, "multiplicative identity",
                                (int(np.argmax(bad)),))
    laws = [
        ("additive associativity", lambda a: add[add[a]] != add[a][add]),
        ("multiplicative associativity",
         lambda a: mul[mul[a]] != mul[a][mul]),
        ("left distributivity",
         lambda a: mul[a][add] != add[mul[a][:, None], mul[a][None, :]]),
        ("right distributivity",
         lambda a: mul[:, a][add] != add[mul[:, a][:, None],
                                         mul[:, a][None, :]]),
    ]
    for axiom, bad_at in laws:
        for a in range(n):
            bad = bad_at(a)
            if bad.any():
                return core.AxiomReport(False, axiom,
                                        (a,) + core._first_true(bad))
    return core.AxiomReport(True)


def _poisoned(R, table, i, j, value):
    tables = {"add": R.add.copy(), "mul": R.mul.copy()}
    tables[table][i, j] = value
    return core.FiniteRing(**tables, zero=R.zero, one=R.one, name="poisoned")


def test_axioms_pass_and_catch_a_poisoned_cell():
    R = matrix_ring(zmod(3), 2)
    assert core.verify_axioms(R).ok
    broken = _poisoned(R, "mul", 5, 7, (R.mul[5, 7] + 1) % R.order)
    report = core.verify_axioms(broken)
    assert not report.ok
    assert report == exhaustive_axioms(broken)


POISONED_BASES = ["Z(4)", "Z(6)", "Z(9)", "Prod(Z(2), Z(2))", "T(2, Z(2))",
                  "SkewTrunc(Z(2), id, 3)", "M(2, Z(2))", "CD(2, Z(4))",
                  "Prod(Z(4), Z(2))", "T(2, Z(3))"]


def test_axioms_match_the_exhaustive_check_on_poisoned_tables():
    # one cell of one table changed at a time; a changed add cell on the
    # diagonal keeps + commutative, so those reach the triple laws too
    rng = np.random.default_rng(18)
    reached = set()
    for k in range(1200):
        R = build(POISONED_BASES[k % len(POISONED_BASES)])
        n = R.order
        table = ("mul", "add")[k % 2]
        i = int(rng.integers(n))
        j = i if table == "add" and k % 4 == 1 else int(rng.integers(n))
        old = int(getattr(R, table)[i, j])
        broken = _poisoned(R, table, i, j, (old + 1 + rng.integers(n - 1)) % n)
        got, want = core.verify_axioms(broken), exhaustive_axioms(broken)
        assert got == want, (R.name, table, i, j)
        reached.add(want.axiom)
    assert {"additive associativity", "multiplicative associativity",
            "left distributivity"} <= reached
    # a changed cell never breaks right distributivity alone, nor
    # associativity while both distributive laws hold; these rings do
    for R, law in ((_near_ring(False), "left distributivity"),
                   (_near_ring(True), "right distributivity"),
                   (_nonassociative_algebra(), "multiplicative associativity")):
        assert core.verify_axioms(R) == exhaustive_axioms(R)
        assert exhaustive_axioms(R).axiom == law


def _nonassociative_algebra() -> core.FiniteRing:
    """The Z(2)-algebra on 1, x, y with x*x = y, x*y = 1 and y*x = y*y = 0,
    element bits (1, x, y): distributive, but (xx)x = 0 while x(xx) = 1."""
    basis = np.array([[1, 2, 4], [2, 4, 1], [4, 0, 0]])
    mul = np.zeros((8, 8), dtype=int)
    for i in range(3):
        for j in range(3):
            both = (np.arange(8)[:, None] >> i & 1) & (np.arange(8) >> j & 1)
            mul ^= both * basis[i, j]
    xor = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    return core.FiniteRing(xor, mul, 0, 1)


def _near_ring(opposite: bool) -> core.FiniteRing:
    """The maps of Z(2) to itself under pointwise + and composition (or
    composition the other way round): associative, with identity, but
    distributive on one side only.  Map m sends 0 to m >> 1 and 1 to m & 1."""
    value = np.array([[m >> 1, m & 1] for m in range(4)])
    compose = 2 * value[:, value[:, 0]] + value[:, value[:, 1]]
    xor = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    return core.FiniteRing(xor, compose.T if opposite else compose, 0, 1)


def test_fingerprint_ignores_name_and_labels():
    R = zmod(6)
    renamed = core.FiniteRing(add=R.add.copy(), mul=R.mul.copy(),
                              zero=0, one=1, name="whatever",
                              labels=[str(i) for i in range(6)])
    assert core.canonical_fingerprint(R) == core.canonical_fingerprint(renamed)


def test_fingerprint_distinguishes_rings_of_equal_order():
    # Z4 and Z2 x Z2 share an order but not an addition table
    assert (core.canonical_fingerprint(zmod(4))
            != core.canonical_fingerprint(direct_product(zmod(2), zmod(2))))


@pytest.mark.parametrize("R", [zmod(1), zmod(7), matrix_ring(zmod(2), 2)],
                         ids=lambda R: R.name)
def test_serialization_round_trip(R):
    text = core.serialize_ring(R)
    back = core.parse_ring(text)
    assert back.order == R.order
    assert back.zero == R.zero and back.one == R.one
    assert back.name == R.name
    assert np.array_equal(back.add, R.add)
    assert np.array_equal(back.mul, R.mul)
    assert core.serialize_ring(back) == text


def test_serialization_escapes_names():
    R = zmod(2)
    odd = core.FiniteRing(add=R.add.copy(), mul=R.mul.copy(),
                          zero=0, one=1, name='say "hi" \\ there')
    assert core.parse_ring(core.serialize_ring(odd)).name == odd.name


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        core.parse_ring('ring v2 1 0 0 "x"\n0\n0\n')


def test_hom_detects_non_homomorphism():
    Z4, Z2 = zmod(4), zmod(2)
    good = core.RingHom(domain=Z4, codomain=Z2, map=np.array([0, 1, 0, 1]))
    assert good.is_hom()
    assert core.mask_indices(good.kernel()) == [0, 2]
    bad = core.RingHom(domain=Z4, codomain=Z2, map=np.array([0, 1, 1, 1]))
    assert not bad.is_hom()
    assert bad.violation() is not None


def test_mask_helpers_round_trip():
    mask = core.mask_from_indices([0, 3, 5])
    assert core.mask_indices(mask) == [0, 3, 5]
    assert core.mask_size(mask) == 3
    assert core.mask_contains(mask, 3)
    assert not core.mask_contains(mask, 1)
    arr = core.mask_to_bool(mask, 6)
    assert core.mask_from_bool(arr) == mask


@given(st.lists(st.booleans(), max_size=200))
@settings(max_examples=60, deadline=None)
def test_mask_from_bool_matches_the_bit_loop(bits):
    # the packed conversion against the per-bit loop it replaced
    arr = np.array(bits, dtype=bool)
    want = 0
    for i in np.flatnonzero(arr):
        want |= 1 << int(i)
    assert core.mask_from_bool(arr) == want


@given(st.lists(st.booleans(), max_size=200))
@settings(max_examples=60, deadline=None)
def test_mask_to_bool_matches_the_bit_loop(bits):
    # the unpacked conversion against the per-bit loop it replaced
    want = np.array(bits, dtype=bool)
    mask = 0
    for i in np.flatnonzero(want):
        mask |= 1 << int(i)
    got = core.mask_to_bool(mask, len(bits))
    assert got.dtype == bool and got.shape == want.shape
    assert (got == want).all()
    got[:] = True                   # callers fill in the result
    with pytest.raises(IndexError):
        core.mask_to_bool(mask | 1 << len(bits), len(bits))


@given(st.integers(min_value=1, max_value=30), st.data())
@settings(max_examples=40, deadline=None)
def test_power_respects_exponent_addition(n, data):
    R = zmod(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    i = data.draw(st.integers(min_value=0, max_value=6))
    j = data.draw(st.integers(min_value=0, max_value=6))
    lhs = core.power(R, a, i + j)
    rhs = R.mul[core.power(R, a, i), core.power(R, a, j)]
    assert lhs == rhs


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_sub_matches_addition_inverse(n):
    R = zmod(n)
    for a in range(n):
        for b in range(n):
            assert R.add[core.sub(R, a, b), b] == a
