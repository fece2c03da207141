"""Differential tests: the coordinate-ring builder against the cell loop.

The reference below is how ringlab tabulated its coordinate rings before
``constructions._coord_build``: an explicit list of element tuples and a
Python double loop that looks up every sum and product cell by cell.  It
stays here as the oracle for all eight constructions that use the builder.
"""

import itertools

import numpy as np
import pytest

from ringlab import constructions as cons
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_corpus_matches_reference(seed):
    want = _with_references(lambda: harness.random_corpus(seed, 12))
    got = harness.random_corpus(seed, 12)
    assert len(got) == 12
    assert _corpus_digest(got) == _corpus_digest(want)


def test_one_row_blocks_give_the_same_tables(monkeypatch):
    builds = [lambda: cons.upper_triangular(Z[3], 2),
              lambda: cons.constant_diagonal(Z[2], 3),
              lambda: cons.example_weak_symmetric_component(0),
              lambda: cons.dorroh(Z[4], harness.two_z4_bimodule()).ring]
    wide = [b() for b in builds]
    monkeypatch.setattr(cons, "_BLOCK_BYTES", 1)
    for build, want in zip(builds, wide):
        assert_same_ring(build(), want)


def test_value_off_its_carrier_raises():
    z4 = Z[4]
    # coordinate 1 ranges over {0, 1}, which Z4's addition leaves: 1 + 1 = 2
    with pytest.raises(RingError, match="a sum leaves the carrier of "
                                        "coordinate 1"):
        cons._coord_build([range(4), range(2)], cons._coordwise([z4.add] * 2),
                          cons._coordwise([z4.mul] * 2), [0, 0], [1, 1],
                          name="bad")
    # {0, 2} is closed, but 1 falls in a gap of it
    with pytest.raises(RingError, match="one leaves the carrier"):
        cons._coord_build([[0, 2]], cons._coordwise([z4.add]),
                          cons._coordwise([z4.mul]), [0], [1], name="bad")


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
