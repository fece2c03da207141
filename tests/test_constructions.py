import numpy as np
import pytest

from ringlab import constructions as cons
from ringlab import core, invariants as inv
from ringlab.core import canonical_fingerprint, mask_from_indices, mask_indices


def same_tables(A, B):
    return canonical_fingerprint(A) == canonical_fingerprint(B)


def test_zmod_arithmetic():
    R = cons.zmod(6)
    assert R.add[4, 5] == 3
    assert R.mul[4, 5] == 2
    assert R.zero == 0 and R.one == 1
    assert R.name == "Z(6)"


def test_zmod_one_is_zero_ring():
    R = cons.zmod(1)
    assert R.order == 1 and R.zero == R.one


def test_matrix_ring_basics():
    R = cons.matrix_ring(cons.zmod(2), 2)
    assert R.order == 16
    e12 = cons.matrix_unit(2, 2, 0, 1)
    e21 = cons.matrix_unit(2, 2, 1, 0)
    assert R.mul[e12, e21] == cons.matrix_unit(2, 2, 0, 0)
    assert R.mul[e21, e12] == cons.matrix_unit(2, 2, 1, 1)
    # noncommutative
    assert (R.mul != R.mul.T).any()


def test_matrix_index_round_trip():
    for idx in (0, 5, 11, 15):
        assert cons.matrix_index(2, 2, cons.matrix_entries(2, 2, idx)) == idx


def test_one_by_one_matrices_reproduce_base():
    R = cons.zmod(6)
    assert same_tables(cons.matrix_ring(R, 1), R)
    assert same_tables(cons.upper_triangular(R, 1), R)
    assert same_tables(cons.constant_diagonal(R, 1), R)


def test_upper_triangular_order_and_shape():
    T = cons.upper_triangular(cons.zmod(2), 2)
    assert T.order == 8
    T3 = cons.upper_triangular(cons.zmod(2), 3)
    assert T3.order == 64
    assert cons.constant_diagonal(cons.zmod(2), 3).order == 16


def test_product_with_zero_ring_reproduces_base():
    R = cons.zmod(5)
    assert same_tables(cons.direct_product(R, cons.zmod(1)), R)


def test_product_index_layout():
    P = cons.direct_product(cons.zmod(4), cons.zmod(3))
    a = cons.product_index(3, 2, 1)
    b = cons.product_index(3, 3, 2)
    assert P.add[a, b] == cons.product_index(3, 1, 0)
    assert P.mul[a, b] == cons.product_index(3, 2, 2)


def _ix_direct_product(R1, R2):
    # the index-gather build that the broadcast one replaced
    n2 = R2.order
    i1 = np.arange(R1.order * n2) // n2
    i2 = np.arange(R1.order * n2) % n2
    return (R1.add[np.ix_(i1, i1)] * n2 + R2.add[np.ix_(i2, i2)],
            R1.mul[np.ix_(i1, i1)] * n2 + R2.mul[np.ix_(i2, i2)])


def test_direct_product_matches_index_gather_build():
    from ringlab import harness
    rings = [R for R in harness.default_corpus().rings if R.order <= 16]
    for R1 in rings:
        for R2 in rings:
            P = cons.direct_product(R1, R2)
            add, mul = _ix_direct_product(R1, R2)
            assert (P.add == add).all() and (P.mul == mul).all(), P.name
            assert P.zero == R1.zero * R2.order + R2.zero
            assert P.one == R1.one * R2.order + R2.one


def _fold_4d(A, B):
    # the four-axis broadcast that the long-axis one replaced above 64 pairs
    n = len(A) * len(B)
    return (A[:, None, :, None] * len(B) + B[None, :, None, :]).reshape(n, n)


def test_fold_matches_the_four_axis_broadcast():
    rng = np.random.default_rng(19)
    sizes = (1, 2, 3, 4, 7, 8, 9, 16, 31, 64)
    for na in sizes:
        for nb in sizes:
            A = rng.integers(0, na, (na, na), dtype=np.int32)
            B = rng.integers(0, nb, (nb, nb), dtype=np.int32)
            got, want = cons._fold(A, B), _fold_4d(A, B)
            assert got.dtype == want.dtype == np.int32
            assert np.array_equal(got, want), (na, nb)


def test_quotient_of_z8_by_four_matches_z4():
    Z8 = cons.zmod(8)
    Q, pi = cons.quotient(Z8, mask_from_indices([0, 4]))
    assert same_tables(Q, cons.zmod(4))
    assert pi.is_hom() and pi.is_surjective()
    assert mask_indices(pi.kernel()) == [0, 4]


def test_quotient_by_full_ring_is_zero_ring():
    R = cons.zmod(6)
    Q, _ = cons.quotient(R, mask_from_indices(range(6)))
    assert Q.order == 1


def test_quotient_rejects_non_ideal():
    R = cons.zmod(6)
    with pytest.raises(inv.NotAnIdealError):
        cons.quotient(R, mask_from_indices([0, 1]))


def test_quotient_by_zero_reproduces_tables():
    R = cons.upper_triangular(cons.zmod(2), 2)
    Q, _ = cons.quotient(R, mask_from_indices([R.zero]))
    assert same_tables(Q, R)


def test_corner_at_one_is_whole_ring():
    R = cons.matrix_ring(cons.zmod(2), 2)
    assert same_tables(cons.corner(R, R.one), R)


def test_corner_at_e11_is_base_field():
    R = cons.matrix_ring(cons.zmod(2), 2)
    e11 = cons.matrix_unit(2, 2, 0, 0)
    C = cons.corner(R, e11)
    assert same_tables(C, cons.zmod(2))


def test_corner_requires_idempotent():
    R = cons.matrix_ring(cons.zmod(2), 2)
    e12 = cons.matrix_unit(2, 2, 0, 1)
    with pytest.raises(cons.NotIdempotentError):
        cons.corner(R, e12)


def test_subring_generated():
    R = cons.matrix_ring(cons.zmod(2), 2)
    e11 = cons.matrix_unit(2, 2, 0, 0)
    e12 = cons.matrix_unit(2, 2, 0, 1)
    S = cons.subring_generated(R, mask_from_indices([e11, e12]))
    # upper triangular matrices: 8 of them
    assert S.order == 8


def subring_closure(R, seed_mask):
    """The unital subring a seed set generates, by all-pairs sums and
    products: the oracle for ``subring_generated``."""
    members = core.mask_to_bool(seed_mask, R.order)
    members[[R.zero, R.one]] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[np.ix_(idx, idx)].ravel()] = True
        new[R.neg_table()[idx]] = True
        if (new == members).all():
            return core.mask_from_bool(members)
        members = new


def test_generated_subrings_match_the_all_pairs_closure():
    from ringlab import exprs, harness
    rng = np.random.default_rng(18)
    rings = (harness.default_corpus().rings
             + [exprs.build(e) for e in ("M(2, Z(4))", "M(3, Z(2))")])
    orders = set()
    for R in rings:
        for size in (1, 1, 2, 3):
            seed = mask_from_indices(rng.integers(R.order, size=size).tolist())
            S = cons.subring_generated(R, seed)
            carrier = np.array(mask_indices(subring_closure(R, seed)))
            assert S.order == len(carrier), R.name
            # the subring's tables are R's, renumbered along the carrier
            block = np.ix_(carrier, carrier)
            assert (carrier[S.add] == R.add[block]).all(), R.name
            assert (carrier[S.mul] == R.mul[block]).all(), R.name
            assert carrier[S.zero] == R.zero and carrier[S.one] == R.one
            orders.add((R.order, S.order))
    assert any(s not in (1, r) for r, s in orders)


def test_formal_triangular_matches_upper_triangular():
    Z2 = cons.zmod(2)
    T = cons.formal_triangular(Z2, Z2, cons.ring_bimodule(Z2))
    assert same_tables(T, cons.upper_triangular(Z2, 2))


def test_trivial_morita_offdiagonal_products_vanish():
    Z2 = cons.zmod(2)
    S = cons.trivial_morita(Z2, Z2, cons.ring_bimodule(Z2),
                            cons.ring_bimodule(Z2))
    assert S.order == 16
    assert core.verify_axioms(S).ok
    # two pure-M elements multiply to zero: the context products vanish
    m = 4   # index of (0, 1, 0, 0) in the (a, m, p, b) layout
    assert S.mul[m, m] == S.zero


def test_dorroh_extension_tables():
    Z4 = cons.zmod(4)
    ideal = cons.ideal_bimodule(Z4, mask_from_indices([0, 2]))
    ext = cons.dorroh(Z4, ideal)
    assert ext.ring.order == 8
    assert ext.quasi_regular
    assert core.verify_axioms(ext.ring).ok


def test_dorroh_by_zero_module_reproduces_base():
    Z4 = cons.zmod(4)
    ext = cons.dorroh(Z4, cons.zero_bimodule(Z4, Z4))
    assert same_tables(ext.ring, Z4)


def test_skew_poly_relation_x_r_equals_psi_r_x():
    # psi = coordinate swap on Z2 x Z2
    base = cons.direct_product(cons.zmod(2), cons.zmod(2))
    idx = np.arange(4)
    psi = (idx % 2) * 2 + idx // 2
    S = cons.truncated_skew_poly(base, psi, 2, hom_name="swap")
    assert S.order == 16
    assert core.verify_axioms(S).ok
    r = cons.poly_index(4, [2, 0], 2)        # constant (1, 0)
    x = cons.poly_index(4, [0, 1], 2)
    xr = S.mul[x, r]
    rx = S.mul[r, x]
    assert xr == cons.poly_index(4, [0, int(psi[2])], 2)
    assert xr != rx


def test_skew_poly_nilpotent_generator():
    S = cons.truncated_skew_poly(cons.zmod(2), np.arange(2), 3, hom_name="id")
    x = cons.poly_index(2, [0, 1, 0], 3)
    x2 = S.mul[x, x]
    assert x2 == cons.poly_index(2, [0, 0, 1], 3)
    assert S.mul[x2, x] == S.zero


def test_skew_poly_rejects_non_automorphism():
    with pytest.raises(cons.NotAHomomorphismError):
        cons.truncated_skew_poly(cons.zmod(4), np.array([0, 3, 2, 1]), 2)


def test_weak_symmetric_component_block_ring():
    R = cons.example_weak_symmetric_component(0)
    assert R.order == 64
    assert core.verify_axioms(R).ok
    with pytest.raises(core.SizeError):
        cons.example_weak_symmetric_component(1, max_order=512)


def test_bimodule_validation_catches_broken_action():
    Z2 = cons.zmod(2)
    M = cons.ring_bimodule(Z2)
    bad = cons.Bimodule(add=M.add.copy(),
                        left_act=np.array([[0, 0], [0, 0]]),
                        right_act=M.right_act.copy(),
                        internal_mul=M.internal_mul.copy())
    with pytest.raises(cons.BimoduleLawError):
        bad.validate(Z2, Z2)


@pytest.mark.parametrize("table, message", [
    ("add", "carrier addition not associative"),
    ("internal_mul", "internal mul not associative")])
def test_bimodule_validation_catches_a_poisoned_carrier_law(table, message):
    # 2Z4 inside Z(8) as a (Z8, Z8)-bimodule and general ring; a changed
    # diagonal cell keeps the carrier's addition commutative with inverses
    Z8 = cons.zmod(8)
    M = cons.ideal_bimodule(Z8, mask_from_indices([0, 2, 4, 6]))
    M.validate(Z8, Z8, require_internal=True)
    poisoned = getattr(M, table).copy()
    poisoned[1, 1] = {"add": 0, "internal_mul": 1}[table]
    bad = cons.Bimodule(**{"add": M.add, "left_act": M.left_act,
                           "right_act": M.right_act,
                           "internal_mul": M.internal_mul, table: poisoned})
    with pytest.raises(cons.BimoduleLawError, match=message) as e:
        bad.validate(Z8, Z8, require_internal=True)
    a, b, c = e.value.witness
    add, mul = bad.add, bad.internal_mul
    assert (add[add[a, b], c] != add[a, add[b, c]]
            or mul[mul[a, b], c] != mul[a, mul[b, c]])


@pytest.mark.parametrize("table, value", [
    ("add", 2), ("left_act", -1), ("right_act", 5), ("internal_mul", -2)])
def test_bimodule_rejects_entries_off_the_carrier(table, value):
    M = cons.ring_bimodule(cons.zmod(2))
    tables = {name: getattr(M, name).astype(np.int64) for name in
              ("add", "left_act", "right_act", "internal_mul")}
    tables[table][0, 0] = value
    with pytest.raises(core.StructureError, match="out of range"):
        cons.Bimodule(**tables)


def test_bimodule_serialization_round_trip():
    M = cons.ring_bimodule(cons.zmod(3))
    text = cons.serialize_bimodule(M, 3, 3)
    back = cons.parse_bimodule(text)
    assert np.array_equal(back.add, M.add)
    assert np.array_equal(back.left_act, M.left_act)
    assert np.array_equal(back.right_act, M.right_act)
    assert np.array_equal(back.internal_mul, M.internal_mul)
    assert cons.serialize_bimodule(back, 3, 3) == text


def test_size_cap_respected_by_constructors():
    with pytest.raises(core.SizeError):
        cons.matrix_ring(cons.zmod(16), 3)
    with pytest.raises(core.SizeError):
        cons.upper_triangular(cons.zmod(9), 2, max_order=100)


@pytest.mark.parametrize("build", [
    lambda: cons.matrix_ring(cons.zmod(3), 2),
    lambda: cons.upper_triangular(cons.zmod(4), 2),
    lambda: cons.constant_diagonal(cons.zmod(2), 3),
    lambda: cons.direct_product(cons.zmod(4), cons.zmod(6)),
    lambda: cons.formal_triangular(cons.zmod(2), cons.zmod(2),
                                   cons.ring_bimodule(cons.zmod(2))),
])
def test_constructions_satisfy_ring_axioms(build):
    assert core.verify_axioms(build()).ok


# -- labels are built on first read -------------------------------------------

@pytest.mark.parametrize("build", [cons.matrix_ring, cons.upper_triangular],
                         ids=["M(2, Z(4))", "T(2, Z(4))"])
def test_matrix_labels_are_built_on_first_read(build, monkeypatch):
    calls = []
    eager = cons._matrix_labels

    def counted(*args):
        calls.append(args)
        return eager(*args)
    monkeypatch.setattr(cons, "_matrix_labels", counted)
    R = build(cons.zmod(4), 2)
    assert calls == []
    labels = R.labels
    assert R.labels is labels and len(calls) == 1
    assert labels == eager(*calls[0])


def test_corner_by_label_reads_the_labels():
    from ringlab import exprs
    C = exprs.build('Corner(M(2, Z(2)), "[1 0; 0 0]")')
    assert C.order == 2


def test_label_callable_of_wrong_count_raises_on_read():
    Z3 = cons.zmod(3)
    R = core.FiniteRing(Z3.add, Z3.mul, 0, 1, labels=lambda: ["0", "1"])
    with pytest.raises(core.StructureError, match="label count"):
        R.labels
