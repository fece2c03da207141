"""Differential tests: the coordinate-ring builder against the cell loop.

The reference below is how ringlab tabulated its coordinate rings before
``constructions._coord_build``: an explicit list of element tuples and a
Python double loop that looks up every sum and product cell by cell.  It
stays here as the oracle for all eight constructions that use the builder.
"""

import gc
import itertools
import threading

import numpy as np
import pytest

from ringlab import constructions as cons
from ringlab import core
from ringlab import harness
from ringlab.core import FiniteRing, RingError, canonical_fingerprint


# -- the slow reference --------------------------------------------------------

def _build(elements, add_fn, mul_fn, zero, one, name, labels=None):
    """Tabulate a ring from element values and python operation functions."""
    n = len(elements)
    index = {v: i for i, v in enumerate(elements)}
    add = np.empty((n, n), dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    for i, x in enumerate(elements):
        arow, mrow = add[i], mul[i]
        for j, y in enumerate(elements):
            arow[j] = index[add_fn(x, y)]
            mrow[j] = index[mul_fn(x, y)]
    return FiniteRing(add, mul, index[zero], index[one], name=name,
                      labels=labels)


def _mat_ops(R, k):
    addL, mulL, zero = R.add.tolist(), R.mul.tolist(), R.zero

    def mat_add(A, B):
        return tuple(tuple(addL[A[i][j]][B[i][j]] for j in range(k))
                     for i in range(k))

    def mat_mul(A, B):
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = zero
                for t in range(k):
                    acc = addL[acc][mulL[A[i][t]][B[t][j]]]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    return mat_add, mat_mul


def _matrix_build(R, k, elements, name):
    base = R.labels or [str(i) for i in range(R.order)]
    labels = ["[" + "; ".join(" ".join(base[v] for v in row) for row in mat)
              + "]" for mat in elements]
    zero = tuple((R.zero,) * k for _ in range(k))
    one = tuple(tuple(R.one if i == j else R.zero for j in range(k))
                for i in range(k))
    return _build(elements, *_mat_ops(R, k), zero, one, name=name,
                  labels=labels)


def ref_matrix_ring(R, k):
    elements = [tuple(tuple(row) for row in zip(*[iter(flat)] * k))
                for flat in itertools.product(range(R.order), repeat=k * k)]
    return _matrix_build(R, k, elements, f"M({k}, {R.name})")


def ref_upper_triangular(R, k):
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    elements = []
    for vals in itertools.product(range(R.order), repeat=len(positions)):
        mat = [[R.zero] * k for _ in range(k)]
        for (i, j), v in zip(positions, vals):
            mat[i][j] = v
        elements.append(tuple(tuple(row) for row in mat))
    return _matrix_build(R, k, elements, f"T({k}, {R.name})")


def ref_constant_diagonal(R, k):
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    elements = []
    for vals in itertools.product(range(R.order), repeat=len(positions) + 1):
        a, rest = vals[0], vals[1:]
        mat = [[a if i == j else R.zero for j in range(k)] for i in range(k)]
        for (i, j), v in zip(positions, rest):
            mat[i][j] = v
        elements.append(tuple(tuple(row) for row in mat))
    return _matrix_build(R, k, elements, f"CD({k}, {R.name})")


def ref_formal_triangular(R1, R2, M):
    a1, aM, a2 = R1.add.tolist(), M.add.tolist(), R2.add.tolist()
    m1, m2 = R1.mul.tolist(), R2.mul.tolist()
    la, ra = M.left_act.tolist(), M.right_act.tolist()
    elements = list(itertools.product(range(R1.order), range(M.order),
                                      range(R2.order)))

    def add_fn(x, y):
        return (a1[x[0]][y[0]], aM[x[1]][y[1]], a2[x[2]][y[2]])

    def mul_fn(x, y):
        return (m1[x[0]][y[0]], aM[la[x[0]][y[1]]][ra[x[1]][y[2]]],
                m2[x[2]][y[2]])

    return _build(elements, add_fn, mul_fn,
                  (R1.zero, M.zero, R2.zero), (R1.one, M.zero, R2.one),
                  name=f"Tri({R1.name}, {R2.name}, {M.name})")


def ref_trivial_morita(R1, R2, M, P):
    a1, a2 = R1.add.tolist(), R2.add.tolist()
    aM, aP = M.add.tolist(), P.add.tolist()
    m1, m2 = R1.mul.tolist(), R2.mul.tolist()
    laM, raM = M.left_act.tolist(), M.right_act.tolist()
    laP, raP = P.left_act.tolist(), P.right_act.tolist()
    elements = list(itertools.product(range(R1.order), range(M.order),
                                      range(P.order), range(R2.order)))

    def add_fn(x, y):
        return (a1[x[0]][y[0]], aM[x[1]][y[1]], aP[x[2]][y[2]],
                a2[x[3]][y[3]])

    def mul_fn(x, y):
        return (m1[x[0]][y[0]],
                aM[laM[x[0]][y[1]]][raM[x[1]][y[3]]],
                aP[raP[x[2]][y[0]]][laP[x[3]][y[2]]],
                m2[x[3]][y[3]])

    return _build(elements, add_fn, mul_fn,
                  (R1.zero, M.zero, P.zero, R2.zero),
                  (R1.one, M.zero, P.zero, R2.one),
                  name=f"Morita({R1.name}, {R2.name}, {M.name}, {P.name})")


def ref_dorroh(R, A):
    aR, aA = R.add.tolist(), A.add.tolist()
    mR = R.mul.tolist()
    la, ra = A.left_act.tolist(), A.right_act.tolist()
    im = A.internal_mul.tolist()
    zA = A.zero
    elements = list(itertools.product(range(R.order), range(A.order)))

    def add_fn(x, y):
        return (aR[x[0]][y[0]], aA[x[1]][y[1]])

    def mul_fn(x, y):
        return (mR[x[0]][y[0]],
                aA[aA[la[x[0]][y[1]]][ra[x[1]][y[0]]]][im[x[1]][y[1]]])

    ring = _build(elements, add_fn, mul_fn, (R.zero, zA), (R.one, zA),
                  name=f"Dorroh({R.name}, {A.name})")
    quasi = all(
        any(aA[aA[a][w]][im[a][w]] == zA for w in range(A.order))
        for a in range(A.order))
    return cons.DorrohExtension(ring, quasi)


def ref_truncated_skew_poly(R, psi, k, hom_name=""):
    pows = [np.arange(R.order, dtype=np.int32)]
    for _ in range(1, k):
        pows.append(np.asarray(psi)[pows[-1]])
    powsL = [p.tolist() for p in pows]
    addL, mulL = R.add.tolist(), R.mul.tolist()
    elements = list(itertools.product(range(R.order), repeat=k))

    def add_fn(x, y):
        return tuple(addL[a][b] for a, b in zip(x, y))

    def mul_fn(x, y):
        out = [R.zero] * k
        for i in range(k):
            xi = x[i]
            if xi == R.zero:
                continue
            pw = powsL[i]
            for j in range(k - i):
                out[i + j] = addL[out[i + j]][mulL[xi][pw[y[j]]]]
        return tuple(out)

    zero = (R.zero,) * k
    one = (R.one,) + (R.zero,) * (k - 1)
    return _build(elements, add_fn, mul_fn, zero, one,
                  name=f"SkewTrunc({R.name}, {hom_name or 'psi'}, {k})")


def ref_example_weak_symmetric_component(n):
    k = n + 2
    D = ref_truncated_skew_poly(cons.zmod(2), np.arange(2), k, hom_name="id")
    x_multiples = [i for i, tup in enumerate(
        itertools.product(range(2), repeat=k)) if tup[0] == 0]
    addL, mulL = D.add.tolist(), D.mul.tolist()
    elements = [(a, b, c, d)
                for a in range(D.order) for b in x_multiples
                for c in x_multiples for d in range(D.order)]

    def add_fn(X, Y):
        return tuple(addL[u][v] for u, v in zip(X, Y))

    def mul_fn(X, Y):
        a, b, c, d = X
        p, q, r, s = Y
        return (addL[mulL[a][p]][mulL[b][r]],
                addL[mulL[a][q]][mulL[b][s]],
                addL[mulL[c][p]][mulL[d][r]],
                addL[mulL[c][q]][mulL[d][s]])

    z = D.zero
    return _build(elements, add_fn, mul_fn, (z, z, z, z),
                  (D.one, z, z, D.one), name=f"WSC({n})")


def assert_same_ring(got, want):
    assert got.name == want.name
    assert got.zero == want.zero and got.one == want.one
    assert np.array_equal(got.add, want.add)
    assert np.array_equal(got.mul, want.mul)
    assert got.labels == want.labels


# -- the cases ------------------------------------------------------------------

Z = {n: cons.zmod(n) for n in range(1, 7)}
BASES = list(Z.values()) + [cons.direct_product(Z[2], Z[2]),
                            cons.matrix_ring(Z[2], 2)]
SHAPES = {
    "M": (cons.matrix_ring, ref_matrix_ring, lambda k: k * k),
    "T": (cons.upper_triangular, ref_upper_triangular,
          lambda k: k * (k + 1) // 2),
    "CD": (cons.constant_diagonal, ref_constant_diagonal,
           lambda k: k * (k - 1) // 2 + 1),
    "SkewTrunc": (
        lambda R, k: cons.truncated_skew_poly(R, np.arange(R.order), k,
                                              hom_name="id"),
        lambda R, k: ref_truncated_skew_poly(R, np.arange(R.order), k, "id"),
        lambda k: k),
}
CASES = [pytest.param(shape, R, k, id=f"{shape}-{R.name}-{k}")
         for shape, (_, _, width) in SHAPES.items()
         for R in BASES for k in (1, 2, 3) if R.order ** width(k) <= 256]


def _bimodule_cases():
    """(R1, R2, M) triples: every bimodule the default corpus and rules use."""
    z2, z4 = Z[2], Z[4]
    m2z2 = BASES[-1]
    to_z2 = np.arange(4) % 2
    cases = [(R, R, cons.ring_bimodule(R)) for R in BASES if R.order <= 6]
    cases += [
        (z4, z2, cons.hom_bimodule(z2, to_z2, np.arange(2), name="Z2")),
        (z2, z4, cons.hom_bimodule(z2, np.arange(2), to_z2, name="Z2")),
        (z4, z4, harness.two_z4_bimodule()),
        (z2, z2, harness.two_z4_over_z2_bimodule()),
        (z2, Z[3], cons.zero_bimodule(z2, Z[3])),
        (m2z2, z2, cons.zero_bimodule(m2z2, z2)),
        (m2z2, m2z2, cons.zero_bimodule(m2z2, m2z2)),
        (z4, z4, cons.ideal_bimodule(z4, 0b0101)),
    ]
    return cases


def _dual(R1, R2, M):
    """A (R2, R1)-bimodule to pair with M in a Morita context."""
    if M.order == 1:
        return cons.zero_bimodule(R2, R1)
    if R1 is R2:
        return M
    if R2.order < R1.order:     # M is R2 acted on through R1 -> R2
        return cons.hom_bimodule(R2, np.arange(R2.order),
                                 np.arange(R1.order) % R2.order,
                                 name=M.name)
    return cons.hom_bimodule(R1, np.arange(R2.order) % R1.order,
                             np.arange(R1.order), name=M.name)


@pytest.mark.parametrize("shape, R, k", CASES)
def test_matrix_shapes_and_skew_match_reference(shape, R, k):
    new, ref, _ = SHAPES[shape]
    assert_same_ring(new(R, k), ref(R, k))


def test_swap_skew_poly_matches_reference():
    P = BASES[6]
    swap = np.array([0, 2, 1, 3])
    for k in (1, 2, 3, 4):
        assert_same_ring(cons.truncated_skew_poly(P, swap, k, hom_name="swap"),
                         ref_truncated_skew_poly(P, swap, k, "swap"))


@pytest.mark.parametrize("case", range(len(_bimodule_cases())))
def test_bimodule_constructions_match_reference(case):
    R1, R2, M = _bimodule_cases()[case]
    assert_same_ring(cons.formal_triangular(R1, R2, M),
                     ref_formal_triangular(R1, R2, M))
    P = _dual(R1, R2, M)
    if R1.order * M.order * P.order * R2.order <= 256:
        assert_same_ring(cons.trivial_morita(R1, R2, M, P),
                         ref_trivial_morita(R1, R2, M, P))
    if R1 is R2 and M.internal_mul is not None:
        got, want = cons.dorroh(R1, M), ref_dorroh(R1, M)
        assert_same_ring(got.ring, want.ring)
        assert got.quasi_regular == want.quasi_regular


@pytest.mark.parametrize("n", [0, 1])
def test_weak_symmetric_component_matches_reference(n):
    assert_same_ring(cons.example_weak_symmetric_component(n),
                     ref_example_weak_symmetric_component(n))


REFERENCES = {
    "matrix_ring": lambda R, k, max_order=None: ref_matrix_ring(R, k),
    "upper_triangular": lambda R, k, max_order=None: ref_upper_triangular(R, k),
    "constant_diagonal":
        lambda R, k, max_order=None: ref_constant_diagonal(R, k),
    "formal_triangular":
        lambda R1, R2, M, max_order=None: ref_formal_triangular(R1, R2, M),
    "trivial_morita": lambda R1, R2, M, P, max_order=None:
        ref_trivial_morita(R1, R2, M, P),
    "dorroh": lambda R, A, max_order=None: ref_dorroh(R, A),
    "truncated_skew_poly": lambda R, psi, k, max_order=None, hom_name="":
        ref_truncated_skew_poly(R, psi, k, hom_name),
    "example_weak_symmetric_component":
        lambda n, max_order=None: ref_example_weak_symmetric_component(n),
}


def _corpus_digest(rings):
    return [(R.name, canonical_fingerprint(R), R.labels) for R in rings]


def _with_references(build):
    with pytest.MonkeyPatch.context() as m:
        for name, ref in REFERENCES.items():
            m.setattr(cons, name, ref)
        return build()


def test_default_corpus_matches_reference():
    # no default ring exceeds order 256, so the references, which build
    # whatever they are given, meet no size cap here
    want = _with_references(harness.default_corpus)
    got = harness.default_corpus()
    assert max(R.order for R in got) <= 256
    assert _corpus_digest(got) == _corpus_digest(want)
    assert got.skipped == want.skipped == []


@pytest.mark.parametrize("seed", range(6))
def test_random_corpus_matches_reference(seed):
    want = _with_references(lambda: harness.random_corpus(seed, 12))
    got = harness.random_corpus(seed, 12)
    assert len(got) == 12
    assert _corpus_digest(got) == _corpus_digest(want)


def _each_construction():
    """(name, build, reference) for all eight constructions, over bases
    whose orders are not all powers of two."""
    z2, z3, z4 = Z[2], Z[3], Z[4]
    swap = np.array([0, 2, 1, 3])
    two_z4 = harness.two_z4_bimodule()
    z3_over_z3 = cons.ring_bimodule(z3)
    z2_over_z4 = cons.hom_bimodule(z2, np.arange(4) % 2, np.arange(2),
                                   name="Z2")
    z2_under_z4 = cons.hom_bimodule(z2, np.arange(2), np.arange(4) % 2,
                                    name="Z2")
    return [
        ("M", lambda: cons.matrix_ring(z3, 2), lambda: ref_matrix_ring(z3, 2)),
        ("T", lambda: cons.upper_triangular(z3, 2),
         lambda: ref_upper_triangular(z3, 2)),
        ("CD", lambda: cons.constant_diagonal(z2, 3),
         lambda: ref_constant_diagonal(z2, 3)),
        ("WSC", lambda: cons.example_weak_symmetric_component(0),
         lambda: ref_example_weak_symmetric_component(0)),
        ("SkewTrunc",
         lambda: cons.truncated_skew_poly(BASES[6], swap, 3, hom_name="swap"),
         lambda: ref_truncated_skew_poly(BASES[6], swap, 3, "swap")),
        ("Tri", lambda: cons.formal_triangular(z3, z3, z3_over_z3),
         lambda: ref_formal_triangular(z3, z3, z3_over_z3)),
        ("Morita",
         lambda: cons.trivial_morita(z4, z2, z2_over_z4, z2_under_z4),
         lambda: ref_trivial_morita(z4, z2, z2_over_z4, z2_under_z4)),
        ("Dorroh", lambda: cons.dorroh(z4, two_z4).ring,
         lambda: ref_dorroh(z4, two_z4).ring),
    ]


def test_one_row_blocks_give_the_same_tables(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1)
    for name, build, ref in _each_construction():
        assert_same_ring(build(), ref())


def test_blocks_of_part_of_a_coordinate_give_the_same_tables(monkeypatch):
    # product rows are folded in blocks of 6 rows of order 81, two left rows
    # against a right run of 3 or part of a left row against a right run of
    # 9, and of 2 rows of order 256, part of a right run of 4 or 16
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 15)
    for name, build, ref in _each_construction() + [
            ("M(2, Z(4))", lambda: cons.matrix_ring(Z[4], 2),
             lambda: ref_matrix_ring(Z[4], 2))]:
        assert_same_ring(build(), ref())


def test_builds_leave_no_cyclic_garbage():
    # a build's temporaries, the addition table's flat view among them, are
    # freed by reference counting when it returns; a reference cycle, such
    # as a nested function that calls itself, keeps them until the
    # collector runs
    cases = _each_construction()
    gc.collect()
    gc.disable()
    try:
        for name, build, _ in cases:
            build()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def _shifted_z4():
    """Z4 with element x renamed (x + 2) % 4, so that zero is element 2."""
    z4 = Z[4]
    new = (np.arange(4) + 2) % 4
    add, mul = np.empty((4, 4), dtype=int), np.empty((4, 4), dtype=int)
    add[new[:, None], new] = new[z4.add]
    mul[new[:, None], new] = new[z4.mul]
    return FiniteRing(add, mul, int(new[0]), int(new[1]), name="Z4'",
                      labels=[str(int(x)) for x in np.argsort(new)])


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 1],
                         ids=["default", "1"])
def test_a_base_whose_zero_is_not_element_0(budget, monkeypatch):
    # zero sits at position 2 of every coordinate, so no fold may take a
    # run's first row for its zero part, in blocks of any size
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    R = _shifted_z4()
    assert R.zero == 2 and R.one == 3
    ident = np.arange(4)
    ring = cons.ring_bimodule(R)
    pairs = [
        (cons.matrix_ring(R, 2), ref_matrix_ring(R, 2)),
        (cons.upper_triangular(R, 2), ref_upper_triangular(R, 2)),
        (cons.constant_diagonal(R, 3), ref_constant_diagonal(R, 3)),
        (cons.truncated_skew_poly(R, ident, 3, hom_name="id"),
         ref_truncated_skew_poly(R, ident, 3, "id")),
        (cons.formal_triangular(R, R, ring), ref_formal_triangular(R, R, ring)),
        (cons.dorroh(R, ring).ring, ref_dorroh(R, ring).ring),
    ]
    for got, want in pairs:
        assert_same_ring(got, want)
        assert got.zero != 0


def test_value_off_its_carrier_raises():
    z4 = Z[4]

    def coordwise_mul(X, Y):
        return [z4.mul[x, y] for x, y in zip(X, Y)]
    # coordinate 1 ranges over {0, 1}, which Z4's addition leaves: 1 + 1 = 2
    with pytest.raises(RingError, match="a sum leaves the carrier of "
                                        "coordinate 1"):
        cons._coord_build([range(4), range(2)], [z4.add] * 2, coordwise_mul,
                          [0, 0], [1, 1], name="bad")
    # {0, 2} is closed, but 1 falls in a gap of it
    with pytest.raises(RingError, match="one leaves the carrier"):
        cons._coord_build([[0, 2]], [z4.add], coordwise_mul, [0], [1],
                          name="bad")


def test_a_failing_large_build_starts_no_thread(monkeypatch):
    # a build of 512 elements hashes nothing: a product that leaves the
    # carrier raises its RingError with no thread started
    z8 = cons.zmod(8)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Recorded)
    before = threading.active_count()

    def off_carrier(X, Y):
        return [x + y * 0 + 8 for x, y in zip(X, Y)]
    with pytest.raises(RingError, match="a product leaves the carrier"):
        cons._coord_build([range(8)] * 3, [z8.add] * 3, off_carrier,
                          [0] * 3, [1] * 3, name="bad")
    assert started == [] and threading.active_count() == before


@pytest.mark.parametrize("k", [6, 8, 64])
def test_more_zero_ring_coordinates_than_numpy_axes(k):
    # M(k, Z(1)) has k * k coordinates of one value each; numpy arrays
    # take at most 64 axes
    assert_same_ring(cons.matrix_ring(Z[1], k), ref_matrix_ring(Z[1], k))


def test_one_value_coordinates_between_wide_ones():
    z2 = Z[2]

    def coordwise_mul(X, Y):
        return [z2.mul[x, y] for x, y in zip(X, Y)]
    k = 72
    R = cons._coord_build([range(2)] + [[0]] * k + [range(2)],
                          [z2.add] * (k + 2), coordwise_mul, [0] * (k + 2),
                          [1] + [0] * k + [1], name="Z(2) x Z(2)")
    want = cons.direct_product(z2, z2)
    assert (R.zero, R.one) == (want.zero, want.one)
    assert np.array_equal(R.add, want.add)
    assert np.array_equal(R.mul, want.mul)


def test_triangular_order_4096_products():
    z4 = Z[4]
    T = cons.upper_triangular(z4, 3)
    assert T.order == 4096
    positions = [(i, j) for i in range(3) for j in range(i, 3)]

    def entries(idx):
        digits = []
        for _ in positions:
            digits.append(idx % 4)
            idx //= 4
        grid = [[0] * 3 for _ in range(3)]
        for (i, j), v in zip(positions, reversed(digits)):
            grid[i][j] = v
        return grid

    rng = np.random.default_rng(7)
    for a, b in rng.integers(0, 4096, size=(300, 2)):
        A, B = entries(int(a)), entries(int(b))
        prod = [[sum(A[i][t] * B[t][j] for t in range(3)) % 4
                 for j in range(3)] for i in range(3)]
        total = [[(A[i][j] + B[i][j]) % 4 for j in range(3)]
                 for i in range(3)]
        assert T.mul[a, b] == cons.triangular_index(4, 3, prod)
        assert T.add[a, b] == cons.triangular_index(4, 3, total)
    assert T.labels[cons.triangular_index(4, 3, entries(1234))] == \
        "[" + "; ".join(" ".join(str(v) for v in row)
                        for row in entries(1234)) + "]"


#: canonical_fingerprint of rings above order 256, where the cell loop is
#: too slow to serve as the oracle, recorded from the tables of the cell-by-
#: cell formula evaluation that preceded the distributive fill; that of
#: SkewTrunc(Z(2), id, 12), twelve radix-2 coordinates and the deepest
#: cut at order 4096, from the coordinate-by-coordinate fill before the fold.
TABLE_PINS = {
    "T(3, Z(4))":
        "140d3e4f1f6e8284679ad5459f611357d47654ae157c93c1f66387318f141b06",
    "M(2, Z(8))":
        "a8e5fc9cb44f32a199b6e8c34aafa25442871c0c8531e3d22400f2310667572f",
    "WSC(1)":
        "1e87790cd7c6929c97028d9832c820501c61bc7e505c69c4c9d00e9add64d7f7",
    "T(4, Z(2))":
        "6b98e85058975b0b70475b0fd501bb6563b90e00c61556c640094c76e0e48ac0",
    "M(2, Z(5))":
        "8b9d64f8ce1da588bb8c935812e57779b83719331f96094fa5c6085c9dc26f7d",
    "CD(3, Z(5))":
        "0c2ebe8d48d98adb38b92e7d1e1025b7888a47ef9db6d440d5295cb75a6770d9",
    "SkewTrunc(Z(4), id, 5)":
        "dd628137e9a03f2497ccbca8e78a11ef98cb71c56a7a5bf96496bfb694d42dc0",
    "SkewTrunc(Prod(Z(2), Z(2)), swap, 5)":
        "5fe7de077a60521eee8385852d0bebb1492b2b7bc34567c2a95d99695b3b052e",
    "Tri(Z(9), Z(9), Z(9))":
        "8132fcf3bae2237fbfaa5d66c675ae9e6a575597325abff9f69bb31e31bb782c",
    "SkewTrunc(Z(2), id, 12)":
        "c7eb26c3c37d4f62f4a73e4f70415cd566f6d4f9cbbb680f118bb5e385bbf267",
}


def _pinned_ring(name):
    if name.startswith("Tri("):
        z9 = cons.zmod(9)
        return cons.formal_triangular(z9, z9, cons.ring_bimodule(z9))
    from ringlab import exprs
    return exprs.build(name)


@pytest.mark.parametrize("name", TABLE_PINS)
def test_tables_above_order_256_match_their_pins(name):
    R = _pinned_ring(name)
    assert R.name == name and R.order > 256
    assert canonical_fingerprint(R) == TABLE_PINS[name]
