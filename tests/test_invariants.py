import numpy as np
import pytest

from ringlab import constructions as cons
from ringlab import core
from ringlab import invariants as inv
from ringlab.core import (FiniteRing, mask_from_bool, mask_from_indices,
                          mask_indices, mask_size, mask_to_bool)
from ringlab.constructions import (matrix_ring, matrix_unit, upper_triangular,
                                   zmod)
from test_ideal_lattice import jacobson_via_maximal_left_ideals

# -- helpers used only by these tests ------------------------------------------


def left_ideal_generated(R: FiniteRing, S: int) -> int:
    """Close a subset under addition and left multiples."""
    members = mask_to_bool(S, R.order)
    members[R.zero] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[:, idx].ravel()] = True
        if (new == members).all():
            return mask_from_bool(members)
        members = new


def commutant(R: FiniteRing, a: int) -> int:
    return mask_from_bool(R.mul[a] == R.mul[:, a])


def double_commutant(R: FiniteRing, a: int) -> int:
    cm = np.flatnonzero(R.mul[a] == R.mul[:, a])
    eq = R.mul == R.mul.T
    return mask_from_bool(eq[:, cm].all(axis=1))


def left_annihilator(R: FiniteRing, a: int) -> int:
    return mask_from_bool(R.mul[:, a] == R.zero)


def right_annihilator(R: FiniteRing, a: int) -> int:
    return mask_from_bool(R.mul[a] == R.zero)


# -- tests ---------------------------------------------------------------------


def test_units_of_z6():
    assert mask_indices(inv.units(zmod(6))) == [1, 5]


def test_units_of_matrix_ring():
    # GL2(F2) has 6 elements
    assert mask_size(inv.units(matrix_ring(zmod(2), 2))) == 6


def _units_two_sided(R):
    # the two-sided test xy = yx = 1 that the one-sided test replaced
    E = R.mul == R.one
    return (E & E.T).any(axis=1)


def test_units_match_the_two_sided_test():
    from ringlab import exprs, harness
    def agree(R):
        return (inv.units_bool(R) == _units_two_sided(R)).all()

    for R in (harness.default_corpus().rings
              + [R for s in range(6) for R in harness.random_corpus(s, 30)]):
        assert agree(R), R.name
    # built one at a time, so at most one order-4096 ring is alive
    for expr in ("T(3, Z(4))", "M(2, Z(8))", "T(4, Z(2))", "M(2, Z(5))",
                 "WSC(1)"):
        assert agree(exprs.build(expr)), expr


# the one comparison of the whole table that each one's row blocks replaced
WHOLE_PLANE = {
    "units_bool": (inv.units_bool, lambda R: (R.mul == R.one).any(axis=1)),
    "neg_table": (FiniteRing.neg_table,
                  lambda R: np.argmax(R.add == R.zero, axis=1)),
}


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64, 1])
@pytest.mark.parametrize("name", WHOLE_PLANE)
def test_row_blocks_match_the_whole_plane(name, budget, monkeypatch):
    from ringlab import exprs, harness
    blocked, whole = WHOLE_PLANE[name]
    rings = (harness.default_corpus().rings
             + [R for s in range(3) for R in harness.random_corpus(s, 30)]
             + [exprs.build("Prod(M(2, Z(2)), T(2, Z(4)))"),
                exprs.build("M(2, Z(5))")])
    if budget == core._BLOCK_BYTES:
        # 256 rows a block, 16 blocks
        rings.append(exprs.build("T(3, Z(4))"))
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    for R in rings:
        R = FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)
        got = blocked(R)
        assert (got == whole(R)).all(), R.name
        assert got.dtype == (bool if name == "units_bool" else np.int32)


def test_nilpotents_of_z4():
    assert mask_indices(inv.nilpotents(zmod(4))) == [0, 2]


def _nilpotents_by_powers(R):
    # the n-step power walk that repeated squaring replaced
    idx = np.arange(R.order)
    cur = idx.copy()
    nil = np.zeros(R.order, dtype=bool)
    for _ in range(R.order):
        cur = R.mul[cur, idx]
        nil |= cur == R.zero
    return nil


def test_nilpotents_match_the_power_walk():
    from ringlab import harness
    rings = (harness.default_corpus().rings
             + [R for seed in (0, 1, 2) for R in harness.random_corpus(seed, 30)]
             + [zmod(1), zmod(2)])
    for R in rings:
        assert (inv.nilpotents_bool(R) == _nilpotents_by_powers(R)).all(), R.name


def test_nilpotency_index():
    S = cons.truncated_skew_poly(zmod(2), [0, 1], 3, hom_name="id")
    x = cons.poly_index(2, [0, 1, 0], 3)
    assert inv.nilpotency_index(S, x) == 3
    assert inv.nilpotency_index(S, S.zero) == 1
    assert inv.nilpotency_index(S, S.one) is None


def test_idempotents_of_z6():
    assert mask_indices(inv.idempotents(zmod(6))) == [0, 1, 3, 4]


def test_idempotent_census_of_m2z2():
    # 0, 1, the two diagonal units, and four rank-one projectors
    R = matrix_ring(zmod(2), 2)
    expected = sorted([
        cons.matrix_index(2, 2, m) for m in (
            [[0, 0], [0, 0]], [[1, 0], [0, 1]],
            [[1, 0], [0, 0]], [[0, 0], [0, 1]],
            [[1, 1], [0, 0]], [[1, 0], [1, 0]],
            [[0, 1], [0, 1]], [[0, 0], [1, 1]],
        )])
    assert mask_indices(inv.idempotents(R)) == expected


def test_center_of_matrix_ring_is_scalars():
    R = matrix_ring(zmod(3), 2)
    scalars = sorted(cons.matrix_index(3, 2, [[a, 0], [0, a]])
                     for a in range(3))
    assert mask_indices(inv.center(R)) == scalars


def test_jacobson_radical_values():
    assert mask_indices(inv.jacobson_radical(zmod(4))) == [0, 2]
    assert mask_indices(inv.jacobson_radical(matrix_ring(zmod(3), 2))) == [0]
    T = upper_triangular(zmod(2), 2)
    e12 = cons.triangular_index(2, 2, [[0, 1], [0, 0]])
    assert mask_indices(inv.jacobson_radical(T)) == sorted([T.zero, e12])


def _jacobson_all_rows(R):
    # the formula that the nilpotent rows replaced: x is in J(R) when 1 - r*x
    # is a unit for every r, tested for every x, rows r taken in blocks
    n = R.order
    quasi = inv.units_bool(R)[R.add[R.one][R.neg_table()]]
    step = max(1, core._BLOCK_BYTES // (9 * n))
    j = np.ones(n, dtype=bool)
    for r0 in range(0, n, step):
        j &= quasi[R.mul[r0:r0 + step]].all(axis=0)
    return j


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64])
def test_jacobson_over_nilpotent_rows_matches_all_rows(budget, monkeypatch):
    from ringlab import exprs, harness
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    # the nilpotents of M(2, Z(2)) x T(2, Z(4)) are more than J(R), so the
    # rows left out are not the only ones that could fail
    wide = exprs.build("Prod(M(2, Z(2)), T(2, Z(4)))")
    assert inv.nilpotents_bool(wide).sum() > inv.jacobson_bool(wide).sum()
    for R in (harness.default_corpus().rings
              + [R for s in range(6) for R in harness.random_corpus(s, 30)]
              + [wide]):
        R = FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)
        assert (inv.jacobson_bool(R) == _jacobson_all_rows(R)).all(), R.name


def test_coset_representatives_in_row_blocks_are_the_least(monkeypatch):
    # at a 64-byte budget each block holds one or two rows x; x's class must
    # still be numbered by the least element of x + J, read from the whole
    # n x |J| plane
    from ringlab import exprs
    for expr in ("T(3, Z(2))", "SkewTrunc(Z(2), id, 5)",
                 "Prod(M(2, Z(2)), T(2, Z(4)))"):
        R = exprs.build(expr)
        J = inv.jacobson_radical(R)
        least = R.add[:, mask_indices(J)].min(axis=1)
        Q, proj = inv._coset_quotient(R, J, "Q")
        monkeypatch.setattr(core, "_BLOCK_BYTES", 64)
        Q64, proj64 = inv._coset_quotient(R, J, "Q")
        monkeypatch.undo()
        first = np.unique(proj64, return_index=True)[1]
        assert (first[proj64] == least).all(), expr
        assert (proj64 == proj).all(), expr
        assert (Q64.add == Q.add).all() and (Q64.mul == Q.mul).all(), expr


def test_jacobson_equals_intersection_of_maximal_left_ideals():
    for R in (zmod(6), zmod(8), matrix_ring(zmod(2), 2),
              upper_triangular(zmod(3), 2)):
        assert jacobson_via_maximal_left_ideals(R) == \
            inv.jacobson_radical(R)


def test_left_ideal_lattices():
    assert len(inv.all_left_ideals(zmod(4)).ideals) == 3
    assert len(inv.all_left_ideals(matrix_ring(zmod(2), 2)).ideals) == 5
    assert len(inv.all_left_ideals(zmod(6)).ideals) == 4


def test_right_ideals_differ_from_left_in_triangular_ring():
    T = upper_triangular(zmod(2), 2)
    left = set(inv.all_left_ideals(T).ideals)
    right = set(inv.all_right_ideals(T).ideals)
    assert left != right


def test_two_sided_ideals_of_m2z2_are_trivial():
    R = matrix_ring(zmod(2), 2)
    two = inv.all_two_sided_ideals(R).ideals
    assert sorted(mask_size(m) for m in two) == [1, 16]


def test_maximal_left_ideals_of_z6():
    got = {tuple(mask_indices(m)) for m in inv.maximal_left_ideals(zmod(6))}
    assert got == {(0, 3), (0, 2, 4)}


def test_lattice_cap_truncates():
    R = matrix_ring(zmod(2), 2)
    lat = inv.all_left_ideals(R, cap=2)
    assert lat.truncated


def test_ideal_violation_witnesses():
    R = zmod(6)
    w = inv.left_ideal_violation(R, mask_from_indices([0, 1]))
    assert w is not None
    assert inv.left_ideal_violation(R, mask_from_indices([0, 2, 4])) is None
    T = upper_triangular(zmod(2), 2)
    e11 = cons.triangular_index(2, 2, [[1, 0], [0, 0]])
    left_only = left_ideal_generated(R=T, S=mask_from_indices([e11]))
    assert inv.two_sided_ideal_violation(T, left_only) is not None


def test_ideal_closures():
    R = zmod(12)
    assert mask_indices(left_ideal_generated(R, mask_from_indices([8]))) \
        == [0, 4, 8]
    assert mask_indices(
        inv.two_sided_ideal_generated(R, mask_from_indices([9, 8]))) \
        == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


def test_nilradicals_of_commutative_rings_match():
    for n in (4, 6, 8, 9, 12):
        R = zmod(n)
        assert inv.lower_nilradical(R) == inv.upper_nilradical(R) \
            == inv.nilpotents(R)


def test_nilradicals_of_m2z2():
    # simple ring: prime radical and upper nilradical are both zero even
    # though nonzero nilpotents exist
    R = matrix_ring(zmod(2), 2)
    assert mask_indices(inv.lower_nilradical(R)) == [0]
    assert mask_indices(inv.upper_nilradical(R)) == [0]
    assert mask_size(inv.nilpotents(R)) > 1


def test_nilradical_ordering_in_triangular_ring():
    T = upper_triangular(zmod(4), 2)
    low = inv.lower_nilradical(T)
    up = inv.upper_nilradical(T)
    jac = inv.jacobson_radical(T)
    assert low & up == low
    assert up & jac == up


def test_essential_left_ideals():
    R = zmod(12)
    # J = {0, 6}, so the socle {x : 6x = 0} is the even residues
    assert inv._socle(R) == mask_from_indices([0, 2, 4, 6, 8, 10])
    assert inv.is_essential_left_ideal(R, mask_from_indices([0, 2, 4, 6, 8, 10]))
    assert not inv.is_essential_left_ideal(R, mask_from_indices([0, 4, 8]))


def test_essential_left_ideal_rejects_a_non_ideal():
    # the left ideal check runs before the socle test: 1 + 1 leaves {0, 1}
    R = zmod(12)
    with pytest.raises(inv.NotAnIdealError) as err:
        inv.is_essential_left_ideal(R, mask_from_indices([0, 1]))
    assert err.value.witness == ("add", 1, 1)
    # {0, E11} of M2(Z2) is an additive subgroup; E21 * E11 = E21 leaves it
    M = matrix_ring(zmod(2), 2)
    e11, e21 = matrix_unit(2, 2, 0, 0), matrix_unit(2, 2, 1, 0)
    with pytest.raises(inv.NotAnIdealError) as err:
        inv.is_essential_left_ideal(M, mask_from_indices([M.zero, e11]))
    assert err.value.witness == ("left-mul", e21, e11)


def test_annihilators():
    R = zmod(6)
    assert mask_indices(left_annihilator(R, 2)) \
        == [0, 3]
    assert mask_indices(right_annihilator(R, 3)) \
        == [0, 2, 4]


def test_commutant_and_double_commutant():
    R = matrix_ring(zmod(2), 2)
    e11 = matrix_unit(2, 2, 0, 0)
    comm = commutant(R, e11)
    # diagonal matrices commute with e11
    assert mask_size(comm) == 4
    dc = double_commutant(R, e11)
    assert dc & comm == dc


def test_radical_report_round_trip():
    rep = inv.radical_report(zmod(12))
    back = inv.RadicalReport.from_dict(rep.to_dict())
    assert back == rep
    assert back.to_dict() == rep.to_dict()


def test_radical_report_rejects_unknown_version():
    d = inv.radical_report(zmod(2)).to_dict()
    d["format"] = "radical v9"
    with pytest.raises(ValueError):
        inv.RadicalReport.from_dict(d)


def test_ring_with_cached_lattices_is_freed_without_the_collector():
    import gc
    import weakref
    gc.disable()
    try:
        # J != 0 caches R/J on R; J = 0 caches nothing that points back at R
        for build in (upper_triangular, matrix_ring):
            R = build(zmod(2), 2)
            inv.radical_report(R)
            inv.maximal_left_ideals(R)
            inv.maximal_right_ideals(R)
            for lattice in (inv.all_left_ideals, inv.all_right_ideals,
                            inv.all_two_sided_ideals):
                assert len(lattice(R)) > 1
            ref = weakref.ref(R)
            del R
            assert ref() is None
    finally:
        gc.enable()


# -- additive generators, and the center and ideals they decide ----------------


def ideal_closure(R: FiniteRing, S: int) -> int:
    """Close a subset under addition and left and right multiples of every
    element: the oracle for ``two_sided_ideal_generated``."""
    members = mask_to_bool(S, R.order)
    members[R.zero] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[:, idx].ravel()] = True
        new[R.mul[idx, :].ravel()] = True
        if (new == members).all():
            return mask_from_bool(members)
        members = new


def subgroup_closure(R: FiniteRing, S: int) -> int:
    """The additive subgroup a subset generates, by all-pairs sums."""
    members = mask_to_bool(S, R.order)
    members[R.zero] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        if (new == members).all():
            return mask_from_bool(members)
        members = new


def _generator_rings():
    from ringlab import exprs, harness
    from test_ideal_lattice import ANALYZE_CACHED
    scan_ladder = ["Prod(T(3, Z(2)), Z(4))", "Prod(WSC(0), Z(8))",
                   "Prod(Z(32), Z(32))", "Prod(M(2, Z(2)), T(2, Z(4)))"]
    return (harness.default_corpus().rings
            + [exprs.build(e) for e in ANALYZE_CACHED + scan_ladder])


GENERATOR_RINGS = _generator_rings()


@pytest.mark.parametrize("extra", [None, "Z(1)", "T(3, Z(4))",
                                   "SkewTrunc(Z(2), id, 12)"])
def test_center_matches_the_whole_table_compare(extra):
    from ringlab import exprs
    rings = GENERATOR_RINGS if extra is None else [exprs.build(extra)]
    for R in rings:
        want = (R.mul == R.mul.T).all(axis=1)
        assert (inv.center_bool(R) == want).all(), R.name


def test_additive_generators_are_least_first_and_few():
    for R in GENERATOR_RINGS + [zmod(1), zmod(7)]:
        gens = inv._additive_generators(R).tolist()
        assert len(gens) <= R.order.bit_length() - 1, R.name      # log2 n
        span = 1 << R.zero
        for g in gens:
            outside = [x for x in range(R.order) if not (span >> x) & 1]
            assert g == outside[0], R.name
            span = subgroup_closure(R, span | 1 << g)
        assert span == (1 << R.order) - 1, R.name


def test_generated_ideals_match_the_all_pairs_closure():
    rng = np.random.default_rng(18)
    proper = 0
    for R in GENERATOR_RINGS:
        if R.order > 256:
            continue
        for size in (1, 1, 2, 3):
            S = mask_from_indices(rng.integers(R.order, size=size).tolist())
            got = inv.two_sided_ideal_generated(R, S)
            assert got == ideal_closure(R, S), R.name
            proper += got != (1 << R.order) - 1
    assert proper > 20
