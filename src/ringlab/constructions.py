"""Ring constructions: residue rings, matrix rings, quotients, corners,
formal triangular / Morita / Dorroh extensions, truncated skew polynomials.

Every construction returns a fresh immutable FiniteRing whose ``name`` is a
display expression.  Identity-like cases (corner at 1, product with the zero
ring, quotient by {0}, ...) reproduce the input tables exactly under the
canonical element ordering, so table comparison suffices in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (MAX_ORDER, FiniteRing, RingError, RingHom, SizeError,
                   StructureError, mask_from_bool, mask_indices, mask_to_bool)
from .invariants import NotAnIdealError, two_sided_ideal_violation


class NotIdempotentError(RingError):
    pass


class NotAHomomorphismError(RingError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BimoduleLawError(RingError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _check_order(n: int, max_order: int, what: str) -> None:
    if n > max_order:
        raise SizeError(f"{what} would have order {n} > max order {max_order}")


def _build(elements: list, add_fn: Callable, mul_fn: Callable, zero, one,
           name: str, labels: Optional[Sequence[str]] = None) -> FiniteRing:
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


# ---------------------------------------------------------------------------
# Base rings
# ---------------------------------------------------------------------------

def zmod(n: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """The residue ring Z/nZ; zmod(1) is the zero ring."""
    if n < 1:
        raise ValueError("order must be positive")
    _check_order(n, max_order, "Z(n)")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    one = 1 % n
    return FiniteRing(add, mul, 0, one, name=f"Z({n})",
                      labels=[str(i) for i in range(n)])


# ---------------------------------------------------------------------------
# Matrix-shaped constructions
#
# Internally matrices are tuples of row tuples of base-ring indices; the
# base tables are converted to python lists once per construction, which
# keeps the double loop in _build fast.
# ---------------------------------------------------------------------------

def _mat_ops(R: FiniteRing, k: int):
    addL = R.add.tolist()
    mulL = R.mul.tolist()
    zero = R.zero

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


def _identity_matrix(R: FiniteRing, k: int):
    return tuple(tuple(R.one if i == j else R.zero for j in range(k))
                 for i in range(k))


def _zero_matrix(R: FiniteRing, k: int):
    return tuple((R.zero,) * k for _ in range(k))


def _matrix_labels(R: FiniteRing, elements) -> list[str]:
    base = R.labels or [str(i) for i in range(R.order)]
    return ["[" + "; ".join(" ".join(base[v] for v in row) for row in mat)
            + "]" for mat in elements]


def matrix_ring(R: FiniteRing, k: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """Full k x k matrix ring over R."""
    if k < 1:
        raise ValueError("matrix size must be positive")
    _check_order(R.order ** (k * k), max_order, f"M({k}, {R.name})")
    elements = [tuple(tuple(row) for row in
                      zip(*[iter(flat)] * k))
                for flat in itertools.product(range(R.order), repeat=k * k)]
    mat_add, mat_mul = _mat_ops(R, k)
    return _build(elements, mat_add, mat_mul, _zero_matrix(R, k),
                  _identity_matrix(R, k), name=f"M({k}, {R.name})",
                  labels=_matrix_labels(R, elements))


def matrix_index(base_order: int, k: int, entries) -> int:
    """Element index of a k x k matrix given row-major base-ring indices."""
    flat = [entries[i][j] for i in range(k) for j in range(k)]
    idx = 0
    for v in flat:
        idx = idx * base_order + int(v)
    return idx


def matrix_entries(base_order: int, k: int, index: int) -> list[list[int]]:
    flat = []
    for _ in range(k * k):
        flat.append(index % base_order)
        index //= base_order
    flat.reverse()
    return [flat[i * k:(i + 1) * k] for i in range(k)]


def matrix_unit(base_order: int, k: int, i: int, j: int, value: int = 1) -> int:
    entries = [[0] * k for _ in range(k)]
    entries[i][j] = value
    return matrix_index(base_order, k, entries)


def upper_triangular(R: FiniteRing, k: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """The ring of k x k upper triangular matrices over R."""
    if k < 1:
        raise ValueError("matrix size must be positive")
    _check_order(R.order ** (k * (k + 1) // 2), max_order, f"T({k}, {R.name})")
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    elements = []
    for vals in itertools.product(range(R.order), repeat=len(positions)):
        mat = [[R.zero] * k for _ in range(k)]
        for (i, j), v in zip(positions, vals):
            mat[i][j] = v
        elements.append(tuple(tuple(row) for row in mat))
    mat_add, mat_mul = _mat_ops(R, k)
    return _build(elements, mat_add, mat_mul, _zero_matrix(R, k),
                  _identity_matrix(R, k), name=f"T({k}, {R.name})",
                  labels=_matrix_labels(R, elements))


def triangular_index(base_order: int, k: int, entries) -> int:
    """Element index in upper_triangular for a k x k entry grid."""
    idx = 0
    for i in range(k):
        for j in range(i, k):
            idx = idx * base_order + int(entries[i][j])
    return idx


def constant_diagonal(R: FiniteRing, k: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """Upper triangular matrices with a single repeated diagonal entry."""
    if k < 1:
        raise ValueError("matrix size must be positive")
    _check_order(R.order ** (k * (k - 1) // 2 + 1), max_order,
                 f"CD({k}, {R.name})")
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    elements = []
    for vals in itertools.product(range(R.order), repeat=len(positions) + 1):
        a, rest = vals[0], vals[1:]
        mat = [[a if i == j else R.zero for j in range(k)] for i in range(k)]
        for (i, j), v in zip(positions, rest):
            mat[i][j] = v
        elements.append(tuple(tuple(row) for row in mat))
    mat_add, mat_mul = _mat_ops(R, k)
    return _build(elements, mat_add, mat_mul, _zero_matrix(R, k),
                  _identity_matrix(R, k), name=f"CD({k}, {R.name})",
                  labels=_matrix_labels(R, elements))


def direct_product(R1: FiniteRing, R2: FiniteRing,
                   max_order: int = MAX_ORDER) -> FiniteRing:
    _check_order(R1.order * R2.order, max_order,
                 f"Prod({R1.name}, {R2.name})")
    n2 = R2.order
    n = R1.order * n2
    i1 = np.arange(n) // n2
    i2 = np.arange(n) % n2
    add = R1.add[np.ix_(i1, i1)] * n2 + R2.add[np.ix_(i2, i2)]
    mul = R1.mul[np.ix_(i1, i1)] * n2 + R2.mul[np.ix_(i2, i2)]
    return FiniteRing(add, mul, R1.zero * n2 + R2.zero,
                      R1.one * n2 + R2.one,
                      name=f"Prod({R1.name}, {R2.name})")


def product_index(R2_order: int, a: int, b: int) -> int:
    return a * R2_order + b


# ---------------------------------------------------------------------------
# Quotients, corners, subrings
# ---------------------------------------------------------------------------

def quotient(R: FiniteRing, ideal_mask: int,
             ideal_name: Optional[str] = None) -> tuple[FiniteRing, RingHom]:
    """R / I with canonical least-index coset representatives.

    Returns the quotient ring and the projection homomorphism.
    """
    v = two_sided_ideal_violation(R, ideal_mask)
    if v is not None:
        raise NotAnIdealError(f"not a two-sided ideal: closure fails at {v}", v)
    members = np.array(mask_indices(ideal_mask), dtype=np.intp)
    rep_of = R.add[:, members].min(axis=1)
    reps = np.unique(rep_of)
    lut = np.full(R.order, -1, dtype=np.int32)
    lut[reps] = np.arange(len(reps))
    qadd = lut[rep_of[R.add[np.ix_(reps, reps)]]]
    qmul = lut[rep_of[R.mul[np.ix_(reps, reps)]]]
    spec = ideal_name if ideal_name is not None else \
        "gen(" + ",".join(str(i) for i in mask_indices(ideal_mask)) + ")"
    Q = FiniteRing(qadd, qmul, int(lut[rep_of[R.zero]]),
                   int(lut[rep_of[R.one]]),
                   name=f"Quo({R.name}, {spec})")
    proj = RingHom(R, Q, lut[rep_of])
    return Q, proj


def corner(R: FiniteRing, e: int) -> FiniteRing:
    """The corner ring eRe for an idempotent e (identity element e)."""
    if int(R.mul[e, e]) != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    if e == R.zero and R.order > 1:
        raise NotIdempotentError("corner at zero is not a unital ring")
    carrier = np.unique(R.mul[R.mul[e], e])
    lut = np.full(R.order, -1, dtype=np.int32)
    lut[carrier] = np.arange(len(carrier))
    add = lut[R.add[np.ix_(carrier, carrier)]]
    mul = lut[R.mul[np.ix_(carrier, carrier)]]
    return FiniteRing(add, mul, int(lut[R.zero]), int(lut[e]),
                      name=f"Corner({R.name}, {e})")


def subring_generated(R: FiniteRing, seed_mask: int) -> FiniteRing:
    """Smallest unital subring containing the seed set."""
    members = mask_to_bool(seed_mask, R.order)
    members[R.zero] = True
    members[R.one] = True
    neg = R.neg_table()
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[np.ix_(idx, idx)].ravel()] = True
        new[neg[idx]] = True
        if (new == members).all():
            break
        members = new
    carrier = np.flatnonzero(members)
    lut = np.full(R.order, -1, dtype=np.int32)
    lut[carrier] = np.arange(len(carrier))
    add = lut[R.add[np.ix_(carrier, carrier)]]
    mul = lut[R.mul[np.ix_(carrier, carrier)]]
    seed = ",".join(str(i) for i in mask_indices(seed_mask))
    return FiniteRing(add, mul, int(lut[R.zero]), int(lut[R.one]),
                      name=f"Sub({R.name}, [{seed}])")


# ---------------------------------------------------------------------------
# Bimodules
# ---------------------------------------------------------------------------

@dataclass
class Bimodule:
    """An (R1,R2)-bimodule by explicit tables, optionally a general ring.

    ``add`` is the abelian-group table of the carrier, ``left_act`` is
    |R1| x m, ``right_act`` is m x |R2|, and ``internal_mul`` (when present)
    makes the carrier a general ring, as Dorroh extensions require.
    """

    add: np.ndarray
    left_act: np.ndarray
    right_act: np.ndarray
    internal_mul: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        self.add = np.ascontiguousarray(self.add, dtype=np.int32)
        self.left_act = np.ascontiguousarray(self.left_act, dtype=np.int32)
        self.right_act = np.ascontiguousarray(self.right_act, dtype=np.int32)
        if self.internal_mul is not None:
            self.internal_mul = np.ascontiguousarray(self.internal_mul,
                                                     dtype=np.int32)
        m = self.order
        if self.add.shape != (m, m):
            raise StructureError("bimodule add table is not square")
        if self.left_act.ndim != 2 or self.left_act.shape[1] != m:
            raise StructureError("left action table has wrong width")
        if self.right_act.ndim != 2 or self.right_act.shape[0] != m:
            raise StructureError("right action table has wrong height")
        if self.internal_mul is not None and self.internal_mul.shape != (m, m):
            raise StructureError("internal mul table is not square")

    @property
    def order(self) -> int:
        return self.add.shape[0]

    @property
    def zero(self) -> int:
        idx = np.arange(self.order)
        for z in range(self.order):
            if (self.add[z] == idx).all():
                return z
        raise BimoduleLawError("carrier has no additive identity")

    def validate(self, R1: FiniteRing, R2: FiniteRing,
                 require_internal: bool = False) -> None:
        """Check the bimodule laws; raises BimoduleLawError with a witness."""
        m = self.order
        add, la, ra = self.add, self.left_act, self.right_act
        if la.shape[0] != R1.order:
            raise StructureError("left action height != |R1|")
        if ra.shape[1] != R2.order:
            raise StructureError("right action width != |R2|")
        idx = np.arange(m)
        z = self.zero
        if (add != add.T).any():
            raise BimoduleLawError("carrier addition not commutative")
        bad = ~(add == z).any(axis=1)
        if bad.any():
            raise BimoduleLawError("carrier element with no inverse",
                                   (int(np.argmax(bad)),))
        for a in range(m):
            if (add[add[a]] != add[a][add]).any():
                raise BimoduleLawError("carrier addition not associative", (a,))
        # biadditivity
        for r in range(R1.order):
            row = la[r]
            if (row[add] != add[row[:, None], row[None, :]]).any():
                raise BimoduleLawError("left action not additive in m", (r,))
        if (la[R1.add] != add[la[:, None, :], la[None, :, :]]).any():
            raise BimoduleLawError("left action not additive in r")
        for s in range(R2.order):
            col = ra[:, s]
            if (col[add] != add[col[:, None], col[None, :]]).any():
                raise BimoduleLawError("right action not additive in m", (s,))
        if (ra[:, R2.add] != add[ra[:, :, None], ra[:, None, :]]).any():
            raise BimoduleLawError("right action not additive in s")
        # associativity of the actions
        for r in range(R1.order):
            if (la[R1.mul[r]] != la[r][la]).any():
                raise BimoduleLawError("left action not associative", (r,))
        for s in range(R2.order):
            if (ra[:, R2.mul[s]] != ra[ra[:, s], :]).any():
                raise BimoduleLawError("right action not associative", (s,))
        for r in range(R1.order):
            if (ra[la[r], :] != la[r][ra]).any():
                raise BimoduleLawError("actions not compatible", (r,))
        # unital actions (modules over unital rings are unital here)
        if (la[R1.one] != idx).any():
            raise BimoduleLawError("left action not unital")
        if (ra[:, R2.one] != idx).any():
            raise BimoduleLawError("right action not unital")
        if require_internal:
            imul = self.internal_mul
            if imul is None:
                raise BimoduleLawError("internal multiplication required")
            for a in range(m):
                if (imul[imul[a]] != imul[a][imul]).any():
                    raise BimoduleLawError("internal mul not associative", (a,))
                row = imul[a]
                if (row[add] != add[row[:, None], row[None, :]]).any():
                    raise BimoduleLawError("internal mul not left distributive",
                                           (a,))
                col = imul[:, a]
                if (col[add] != add[col[:, None], col[None, :]]).any():
                    raise BimoduleLawError(
                        "internal mul not right distributive", (a,))
            # Dorroh compatibility: (aw)r = a(wr), (ar)w = a(rw), (ra)w = r(aw)
            for r in range(R1.order):
                if (ra[imul, r] != imul[:, ra[:, r]]).any():
                    raise BimoduleLawError("(aw)r != a(wr)", (r,))
                if (imul[ra[:, r], :] != imul[:, la[r]]).any():
                    raise BimoduleLawError("(ar)w != a(rw)", (r,))
                if (imul[la[r], :] != la[r][imul]).any():
                    raise BimoduleLawError("(ra)w != r(aw)", (r,))


def zero_bimodule(R1: FiniteRing, R2: FiniteRing) -> Bimodule:
    return Bimodule(add=np.zeros((1, 1)), left_act=np.zeros((R1.order, 1)),
                    right_act=np.zeros((1, R2.order)),
                    internal_mul=np.zeros((1, 1)), name="0")


def ring_bimodule(R: FiniteRing) -> Bimodule:
    """R as an (R,R)-bimodule over itself, with internal multiplication."""
    return Bimodule(add=R.add, left_act=R.mul, right_act=R.mul,
                    internal_mul=R.mul, name=R.name)


def hom_bimodule(S: FiniteRing, f1: np.ndarray, f2: np.ndarray,
                 internal: bool = False, name: str = "") -> Bimodule:
    """S as a bimodule with actions through index maps f1: R1->S, f2: R2->S."""
    f1 = np.asarray(f1, dtype=np.intp)
    f2 = np.asarray(f2, dtype=np.intp)
    return Bimodule(add=S.add, left_act=S.mul[f1, :], right_act=S.mul[:, f2],
                    internal_mul=S.mul if internal else None,
                    name=name or S.name)


def ideal_bimodule(R: FiniteRing, ideal_mask: int, name: str = "") -> Bimodule:
    """A two-sided ideal of R as an (R,R)-bimodule that is a general ring."""
    v = two_sided_ideal_violation(R, ideal_mask)
    if v is not None:
        raise NotAnIdealError(f"not a two-sided ideal: {v}", v)
    members = np.array(mask_indices(ideal_mask), dtype=np.intp)
    lut = np.full(R.order, -1, dtype=np.int32)
    lut[members] = np.arange(len(members))
    return Bimodule(
        add=lut[R.add[np.ix_(members, members)]],
        left_act=lut[R.mul[:, members]],
        right_act=lut[R.mul[members, :]],
        internal_mul=lut[R.mul[np.ix_(members, members)]],
        name=name or f"ideal[{','.join(str(i) for i in mask_indices(ideal_mask))}]")


# ---------------------------------------------------------------------------
# Bimodule-based ring constructions
# ---------------------------------------------------------------------------

def formal_triangular(R1: FiniteRing, R2: FiniteRing, M: Bimodule,
                      max_order: int = MAX_ORDER) -> FiniteRing:
    """The formal triangular matrix ring with blocks R1, M, R2."""
    M.validate(R1, R2)
    n = R1.order * M.order * R2.order
    _check_order(n, max_order, f"Tri({R1.name}, {R2.name}, {M.name})")
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


def trivial_morita(R1: FiniteRing, R2: FiniteRing, M: Bimodule, P: Bimodule,
                   max_order: int = MAX_ORDER) -> FiniteRing:
    """Generalized 2x2 matrix ring with zero context products MP = PM = 0."""
    M.validate(R1, R2)
    P.validate(R2, R1)
    n = R1.order * M.order * P.order * R2.order
    _check_order(n, max_order,
                 f"Morita({R1.name}, {R2.name}, {M.name}, {P.name})")
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


@dataclass
class DorrohExtension:
    ring: FiniteRing
    #: whether every a in A has w with a + w + aw = 0 (checked by brute force)
    quasi_regular: bool


def dorroh(R: FiniteRing, A: Bimodule, max_order: int = MAX_ORDER) -> DorrohExtension:
    """The ideal extension of R by the general ring A on the carrier R + A."""
    A.validate(R, R, require_internal=True)
    n = R.order * A.order
    _check_order(n, max_order, f"Dorroh({R.name}, {A.name})")
    aR, aA = R.add.tolist(), A.add.tolist()
    mR = R.mul.tolist()
    la, ra = A.left_act.tolist(), A.right_act.tolist()
    im = A.internal_mul.tolist()
    zA = A.zero
    elements = list(itertools.product(range(R.order), range(A.order)))

    def add_fn(x, y):
        return (aR[x[0]][y[0]], aA[x[1]][y[1]])

    def mul_fn(x, y):
        # (r,a)(s,w) = (rs, rw + as + aw)
        return (mR[x[0]][y[0]],
                aA[aA[la[x[0]][y[1]]][ra[x[1]][y[0]]]][im[x[1]][y[1]]])

    ring = _build(elements, add_fn, mul_fn, (R.zero, zA), (R.one, zA),
                  name=f"Dorroh({R.name}, {A.name})")
    quasi = all(
        any(aA[aA[a][w]][im[a][w]] == zA for w in range(A.order))
        for a in range(A.order))
    return DorrohExtension(ring, quasi)


# ---------------------------------------------------------------------------
# Truncated skew polynomial rings
# ---------------------------------------------------------------------------

def truncated_skew_poly(R: FiniteRing, psi, k: int,
                        max_order: int = MAX_ORDER,
                        hom_name: str = "") -> FiniteRing:
    """Polynomials of degree < k with x*r = psi(r)*x and x**k = 0.

    ``psi`` is a per-element index map (array) or a RingHom on R.  The
    truncation keeps the construction finite; the ideal (x) is nil.
    """
    if k < 1:
        raise ValueError("truncation degree must be >= 1")
    if isinstance(psi, RingHom):
        hom = psi
    else:
        hom = RingHom(R, R, np.asarray(psi, dtype=np.int32))
    v = hom.violation()
    if v is not None:
        raise NotAHomomorphismError(f"psi is not a ring endomorphism: {v}", v)
    _check_order(R.order ** k, max_order, f"SkewTrunc({R.name}, ., {k})")
    # psi^i tables for twisting coefficients past x^i
    pows = [np.arange(R.order, dtype=np.int32)]
    for _ in range(1, k):
        pows.append(hom.map[pows[-1]])
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
    label = hom_name or "psi"
    return _build(elements, add_fn, mul_fn, zero, one,
                  name=f"SkewTrunc({R.name}, {label}, {k})")


def poly_index(base_order: int, coeffs: Sequence[int], k: int) -> int:
    """Element index of sum(coeffs[i] * x^i) in truncated_skew_poly."""
    coeffs = list(coeffs) + [0] * (k - len(coeffs))
    idx = 0
    for c in coeffs:
        idx = idx * base_order + int(c)
    return idx


# ---------------------------------------------------------------------------
# The generalized matrix ring with nilpotent off-diagonal blocks
# ---------------------------------------------------------------------------

def example_weak_symmetric_component(n: int,
                                     max_order: int = MAX_ORDER) -> FiniteRing:
    """Block subring of M2(D) with D = F2[x]/(x^(n+2)) and off-diagonal xD."""
    if n < 0:
        raise ValueError("component index must be >= 0")
    k = n + 2
    D = truncated_skew_poly(zmod(2), np.arange(2), k, hom_name="id")
    # tuple slot i holds the coefficient of x^i, so slot 0 is the constant
    x_multiples = [i for i, tup in enumerate(
        itertools.product(range(2), repeat=k)) if tup[0] == 0]
    order = (D.order ** 2) * (len(x_multiples) ** 2)
    _check_order(order, max_order, f"WSC({n})")
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


# ---------------------------------------------------------------------------
# Bimodule text records: `bimodule v1`
# ---------------------------------------------------------------------------

def serialize_bimodule(M: Bimodule, r1_order: int, r2_order: int) -> str:
    has_internal = 1 if M.internal_mul is not None else 0
    lines = [f"bimodule v1 {M.order} {r1_order} {r2_order} {has_internal}"]
    for table in (M.add, M.left_act, M.right_act):
        for row in table:
            lines.append(" ".join(str(int(x)) for x in row))
    if M.internal_mul is not None:
        for row in M.internal_mul:
            lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_bimodule(text: str) -> Bimodule:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty bimodule record")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "bimodule" or head[1] != "v1":
        raise ValueError(f"bad bimodule header: {lines[0]!r}")
    m, n1, n2, has_internal = (int(head[2]), int(head[3]), int(head[4]),
                               int(head[5]))
    expect = m + n1 + m + (m if has_internal else 0)
    if len(lines) != 1 + expect:
        raise ValueError(f"expected {expect} table rows, got {len(lines) - 1}")
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    pos = 0
    add = np.array(rows[pos:pos + m]); pos += m
    left = np.array(rows[pos:pos + n1]); pos += n1
    right = np.array(rows[pos:pos + m]); pos += m
    internal = np.array(rows[pos:pos + m]) if has_internal else None
    return Bimodule(add=add, left_act=left, right_act=right,
                    internal_mul=internal)
