"""Ring constructions: residue rings, matrix rings, quotients, corners,
formal triangular / Morita / Dorroh extensions, truncated skew polynomials.

Every construction returns a fresh immutable FiniteRing whose ``name`` is a
display expression.  Identity-like cases (corner at 1, product with the zero
ring, quotient by {0}, ...) reproduce the input tables exactly under the
canonical element ordering, so table comparison suffices in tests.

Matrix-shaped rings (M, T, CD, WSC), Tri, Morita, Dorroh and SkewTrunc are
coordinate rings: an element is a tuple of coordinates, each an index into a
base table's carrier; sums are coordinatewise and each coordinate of a
product is a formula of base-table lookups.  ``_coord_build`` folds both
tables from those of two runs of coordinates, as ``direct_product`` folds
its factors', evaluating the product formula only on single-coordinate
elements: the product row of (l, r) is the sum of the rows of l and of r.
The tables equal the formula's because every construction here is
distributive: base rings are rings, bimodules are validated and skew maps
are checked endomorphisms.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import core
from .core import (MAX_ORDER, TABLE_MAX_ORDER, BadArgumentError, FiniteRing,
                   Labels, RingError, RingHom, SizeError, StructureError,
                   _narrowed, _renumbering, _span, _triple_law_violation,
                   mask_indices, mask_to_bool)
from .invariants import (NotAnIdealError, _coset_quotient,
                         two_sided_ideal_violation)


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
    """Refuse an order past max_order, or past what a uint16 table indexes
    whatever max_order is, before any table is allocated."""
    if n > max_order:
        raise SizeError(f"{what} would have order {n} > max order {max_order}")
    if n > TABLE_MAX_ORDER:
        raise SizeError(f"{what} would have order {n} > {TABLE_MAX_ORDER}, "
                        "the most a uint16 table indexes")


def _check_power(base: int, coords: int, max_order: int, what: str) -> None:
    """_check_order for base ** coords without forming a huge power.

    Over the zero ring the order stays 1 however many coordinates there
    are, but each costs work, so more than max_order of them are refused.
    """
    if base == 1 and coords > max_order:
        raise SizeError(f"{what} would have {coords} coordinates > max order "
                        f"{max_order}")
    if base > 1 and coords > max_order.bit_length() + 64:
        # base ** coords >= 2 ** coords, far past max_order
        raise SizeError(f"{what} would have order {base}**{coords} > max "
                        f"order {max_order}")
    _check_order(base ** coords, max_order, what)


#: Folds of at most this many pairs broadcast in four axes, in three numpy
#: calls: there the long-axis broadcast's six calls cost more than its
#: longer inner loops save.
_FOLD_4D_MAX = 64


def _fold(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The table of the pairs (a, b), numbered a * len(B) + b, whose entry
    at ((a, b), (a', b')) is the pair (A[a, a'], B[b, b']).

    Row (a, b) is A's row a, each entry times len(B) repeated len(B) times,
    plus B's row b tiled len(A) times: one broadcast whose last axis runs
    along a whole row, where a four-axis one runs along rows of B.  Entries
    stay in A's and B's dtype: the largest, (na - 1) nb + nb - 1, is below
    the order n, which uint16 holds."""
    na, nb = len(A), len(B)
    n = na * nb
    if n <= _FOLD_4D_MAX:
        return (A[:, None, :, None] * nb + B[None, :, None, :]).reshape(n, n)
    tiled = np.repeat(B[:, None, :], na, axis=1).reshape(nb, n)
    return (np.repeat(A * nb, nb, axis=1)[:, None, :] + tiled).reshape(n, n)


def _cut(radices: Sequence[int]) -> int:
    """Where to cut a run of coordinates into two runs of about sqrt as many
    elements each: the halves' own tables, |A|^2 + |B|^2 cells, and their
    product rows, (|A| + |B|) n cells, are least when the halves balance."""
    heads = list(itertools.accumulate(radices, operator.mul))
    return 1 + min(range(len(radices) - 1),
                   key=lambda h: max(heads[h], heads[-1] // heads[h]))


# The folds recurse through module functions: a nested function that calls
# itself is a reference cycle, which would keep each build's temporaries
# until the cyclic collector ran.
def _sum_table(sums: list) -> np.ndarray:
    """The addition table of a run of coordinates, from each one's."""
    if len(sums) == 1:
        return sums[0]
    h = _cut([len(s) for s in sums])
    return _fold(_sum_table(sums[:h]), _sum_table(sums[h:]))


def _product_rows(rows: list, flat: np.ndarray) -> np.ndarray:
    """The product rows of the elements zero off a run of coordinates, from
    each coordinate's, by the flat addition table.

    The element (l, r) of the run's two halves is (l, 0) + (0, r), so its
    row is the sum of theirs, one gather in the addition table a cell."""
    if len(rows) == 1:
        return rows[0]
    h = _cut([len(r) for r in rows])
    left, right = _product_rows(rows[:h], flat), _product_rows(rows[h:], flat)
    n = left.shape[1]
    out = np.empty((len(left), len(right), n), dtype=np.uint16)
    # a quarter of the block budget at 10 bytes a cell (the intp sum of two
    # rows and the gathered values) keeps the intp sum under glibc's default
    # 128 KiB mmap threshold
    step = max(1, core._BLOCK_BYTES // (4 * 10 * n))
    bl, br = max(1, step // len(right)), min(step, len(right))
    for l0 in range(0, len(left), bl):
        for r0 in range(0, len(right), br):
            # intp: left * n + right passes 65,535 above order 256
            out[l0:l0 + bl, r0:r0 + br] = flat.take(np.multiply(
                left[l0:l0 + bl, None], n, dtype=np.intp) + right[r0:r0 + br])
    return out.reshape(-1, n)


def _coord_build(carriers: Sequence, adds: Sequence[np.ndarray],
                 mul_fn: Callable, zero: Sequence[int], one: Sequence[int],
                 name: str, labels: Labels = None) -> FiniteRing:
    """Tabulate a ring whose elements are tuples of coordinate values.

    Coordinate c takes its values in ``carriers[c]`` (base-table indices)
    and adds them by the table ``adds[c]``.  Element i is the i-th tuple of
    ``itertools.product(*carriers)``, i.e. a mixed-radix vector of carrier
    positions, first coordinate most significant.  ``mul_fn(X, Y)`` gets
    each operand as a list of per-coordinate value arrays, a column of
    rows against all elements as a row, and returns the product's
    per-coordinate value arrays, made by gathers on the base tables.  A
    value outside its coordinate's carrier raises RingError.

    Both tables are folded from those of two runs of the coordinates, each
    folded alike down to single coordinates: every element is its left
    part plus its right part.  The addition table is the ``_fold`` of the
    runs' addition tables.  ``mul_fn`` is evaluated only on the
    single-coordinate elements, zero at every coordinate but one, and the
    product row of (l, r) is the sum of the rows of l and of r.  The result
    equals the table of ``mul_fn`` on all pairs when the construction
    satisfies (x + y) b = x b + y b, as the callers' inputs guarantee: base
    rings are rings, bimodules pass ``Bimodule.validate`` and skew maps are
    checked endomorphisms.
    """
    carriers = [np.asarray(c, dtype=np.uint16) for c in carriers]
    radices = [len(c) for c in carriers]
    k, n = len(radices), math.prod(radices)
    strides = [math.prod(radices[c + 1:]) for c in range(k)]
    # lut[v] is the position of v in its carrier, or -1 off it; values
    # above the carrier clip onto the last slot, which is off it.  sums[c]
    # holds the positions of the sums of coordinate c.  Coordinates with
    # equal carriers share a lut, and with equal add tables too, sums
    luts, sums, lut_of, sums_of = [], [], {}, {}
    for c, (carrier, table) in enumerate(zip(carriers, adds)):
        key = carrier.tobytes()
        if key not in lut_of:
            lut = np.full(int(carrier.max()) + 2, -1, dtype=np.int32)
            lut[carrier] = np.arange(len(carrier))
            lut_of[key] = lut
        luts.append(lut_of[key])
        if (key, id(table)) not in sums_of:
            s = luts[c].take(table[carrier[:, None], carrier], mode="clip")
            if s.min() < 0:
                raise RingError(
                    f"{name}: a sum leaves the carrier of coordinate {c}")
            sums_of[key, id(table)] = s.astype(np.uint16)
        sums.append(sums_of[key, id(table)])

    # numpy takes at most 64 axes, but a zero ring gives matrix rings up to
    # max order coordinates of radix 1; only the others are raveled
    wide = [c for c in range(k) if radices[c] > 1]

    def index(coords, what: str):
        pos = [lut.take(v, mode="clip") for lut, v in zip(luts, coords)]
        try:
            if any(pos[c].min() < 0 for c in range(k) if radices[c] == 1):
                raise ValueError
            if not wide:
                return np.intp(0)
            return np.ravel_multi_index([pos[c] for c in wide],
                                        [radices[c] for c in wide])
        except ValueError:
            c = next(c for c, p in enumerate(pos) if p.min() < 0)
            raise RingError(f"{name}: {what} leaves the carrier of "
                            f"coordinate {c}") from None

    zero_at, one_at = int(index(zero, "zero")), int(index(one, "one"))
    if not wide:        # the zero ring: its one sum and product are zero
        return FiniteRing([[0]], [[0]], zero_at, one_at, name=name,
                          labels=labels)
    add = _sum_table([sums[c] for c in wide])
    # the single-coordinate elements of the wide coordinates, those of
    # wide[w] in rows starts[w]:starts[w + 1], as value columns, and their
    # product rows against every element.  A coordinate of radix 1 holds
    # only zero's value, so its single element is zero and adds nothing
    starts = [0, *itertools.accumulate(radices[c] for c in wide)]
    singles = np.repeat(np.asarray(zero, dtype=np.uint16)[:, None],
                        starts[-1], 1)
    for w, c in enumerate(wide):
        singles[c, starts[w]:starts[w + 1]] = carriers[c]
    cols = [carrier.take(np.arange(n) // s % q)[None, :]
            for carrier, s, q in zip(carriers, strides, radices)]
    prods = np.empty((starts[-1], n), dtype=np.uint16)
    # 8 bytes a cell for each coordinate and for the element indices
    for rows in core._row_blocks(starts[-1], 8 * n * (k + 1)):
        xs = [v[rows, None] for v in singles]
        prods[rows] = index(mul_fn(xs, cols), "a product")
    mul = _product_rows([prods[a:b] for a, b in zip(starts, starts[1:])],
                        add.ravel())
    return FiniteRing(add, mul, zero_at, one_at, name=name, labels=labels)


def _op(T: np.ndarray) -> Callable:
    """``T[x, y]`` on broadcast index arrays, as one flat gather."""
    flat, width = T.ravel(), T.shape[1]
    return lambda x, y: flat.take(np.multiply(x, width, dtype=np.intp) + y)


# ---------------------------------------------------------------------------
# Base rings
# ---------------------------------------------------------------------------

def zmod(n: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """The residue ring Z/nZ; zmod(1) is the zero ring."""
    if n < 1:
        raise BadArgumentError("order must be positive")
    _check_order(n, max_order, "Z(n)")
    idx = np.arange(n, dtype=np.uint32)     # i * j < 2**32 up to order 2**16
    add = ((idx[:, None] + idx) % n).astype(np.uint16)
    mul = ((idx[:, None] * idx) % n).astype(np.uint16)
    one = 1 % n
    return FiniteRing(add, mul, 0, one, name=f"Z({n})",
                      labels=[str(i) for i in range(n)])


# ---------------------------------------------------------------------------
# Matrix-shaped constructions
#
# A k x k shape lists, per coordinate, the grid cells it fills; every other
# cell holds zero.  Sums are coordinatewise and products are matrix products
# over the entry grids, one gather per nonzero term, on whole blocks of rows
# at once (see _coord_build).
# ---------------------------------------------------------------------------

def _matrix_mul(R: FiniteRing, k: int, cells: list) -> Callable:
    """The matrix product on entry grids of the given shape over R.

    Cell (i, j) of a coordinate is the sum over t of X[i][t] * Y[t][j] in
    order of t; terms with a zero cell are left out, as they add zero.
    """
    add, mul = _op(R.add), _op(R.mul)

    def grid(X):
        g = [[None] * k for _ in range(k)]
        for x, cs in zip(X, cells):
            for i, j in cs:
                g[i][j] = x
        return g

    def mul_fn(X, Y):
        gx, gy = grid(X), grid(Y)
        out = []
        for (i, j), *_ in cells:
            acc = None
            for t in range(k):
                if gx[i][t] is not None and gy[t][j] is not None:
                    term = mul(gx[i][t], gy[t][j])
                    acc = term if acc is None else add(acc, term)
            out.append(acc)
        return out

    return mul_fn


def _matrix_one(R: FiniteRing, cells: list) -> list[int]:
    return [R.one if i == j else R.zero for (i, j), *_ in cells]


def _matrix_shaped(R: FiniteRing, k: int, cells: list, name: str) -> FiniteRing:
    """The ring of k x k matrices of a shape, every entry ranging over R."""
    return _coord_build([range(R.order)] * len(cells),
                        [R.add] * len(cells),
                        _matrix_mul(R, k, cells), [R.zero] * len(cells),
                        _matrix_one(R, cells), name=name,
                        labels=lambda: _matrix_labels(R, k, cells))


def _matrix_labels(R: FiniteRing, k: int, cells: list) -> list[str]:
    base = R.labels or [str(i) for i in range(R.order)]
    out = []
    for vals in itertools.product(range(R.order), repeat=len(cells)):
        mat = [[R.zero] * k for _ in range(k)]
        for v, cs in zip(vals, cells):
            for i, j in cs:
                mat[i][j] = v
        out.append("[" + "; ".join(" ".join(base[v] for v in row)
                                   for row in mat) + "]")
    return out


def matrix_ring(R: FiniteRing, k: int, max_order: int = MAX_ORDER) -> FiniteRing:
    """Full k x k matrix ring over R."""
    if k < 1:
        raise BadArgumentError("matrix size must be positive")
    _check_power(R.order, k * k, max_order, f"M({k}, {R.name})")
    cells = [[(i, j)] for i in range(k) for j in range(k)]
    return _matrix_shaped(R, k, cells, f"M({k}, {R.name})")


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
        raise BadArgumentError("matrix size must be positive")
    _check_power(R.order, k * (k + 1) // 2, max_order,
                 f"T({k}, {R.name})")
    cells = [[(i, j)] for i in range(k) for j in range(i, k)]
    return _matrix_shaped(R, k, cells, f"T({k}, {R.name})")


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
        raise BadArgumentError("matrix size must be positive")
    _check_power(R.order, k * (k - 1) // 2 + 1, max_order,
                 f"CD({k}, {R.name})")
    cells = [[(i, i) for i in range(k)]] + [
        [(i, j)] for i in range(k) for j in range(i + 1, k)]
    return _matrix_shaped(R, k, cells, f"CD({k}, {R.name})")


def direct_product(R1: FiniteRing, R2: FiniteRing,
                   max_order: int = MAX_ORDER) -> FiniteRing:
    _check_order(R1.order * R2.order, max_order,
                 f"Prod({R1.name}, {R2.name})")
    n2 = R2.order
    return FiniteRing(_fold(R1.add, R2.add), _fold(R1.mul, R2.mul),
                      R1.zero * n2 + R2.zero, R1.one * n2 + R2.one,
                      name=f"Prod({R1.name}, {R2.name})")


def product_index(R2_order: int, a: int, b: int) -> int:
    return a * R2_order + b


def _swap_map(n: int) -> np.ndarray:
    """The coordinate-swap automorphism of Prod(R, R) with |R| = n."""
    idx = np.arange(n * n)
    return (idx % n) * n + idx // n


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
    spec = ideal_name if ideal_name is not None else \
        "gen(" + ",".join(str(i) for i in mask_indices(ideal_mask)) + ")"
    Q, proj = _coset_quotient(R, mask_to_bool(ideal_mask, R.order),
                              f"Quo({R.name}, {spec})")
    return Q, RingHom(R, Q, proj)


def corner(R: FiniteRing, e: int) -> FiniteRing:
    """The corner ring eRe for an idempotent e (identity element e)."""
    if int(R.mul[e, e]) != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    if e == R.zero and R.order > 1:
        raise NotIdempotentError("corner at zero is not a unital ring")
    # the sorted elements of eRe, by a count, not by np.unique, which
    # imports numpy.ma on its first call
    carrier = np.flatnonzero(np.bincount(R.mul[R.mul[e], e],
                                         minlength=R.order))
    return _restrict(R, carrier, e,
                     f"Corner({R.name}, {e})")


def subring_generated(R: FiniteRing, seed_mask: int) -> FiniteRing:
    """Smallest unital subring containing the seed set: the additive span
    of 1 and the seed, grown by products of two generators until none is new."""
    members, gens = _span(R.add, np.arange(R.order) == R.zero,
                          [R.one] + mask_indices(seed_mask))
    while True:
        members, new = _span(R.add, members, R.mul[np.ix_(gens, gens)].flat)
        if not new:
            break
        gens += new
    seed = ",".join(str(i) for i in mask_indices(seed_mask))
    return _restrict(R, np.flatnonzero(members), R.one,
                     f"Sub({R.name}, [{seed}])")


def _restrict(R: FiniteRing, carrier: np.ndarray, one: int,
              name: str) -> FiniteRing:
    """R's tables on a sorted carrier closed under them, renumbered 0..k-1."""
    lut = _renumbering(R.order, carrier)
    block = np.ix_(carrier, carrier)
    return FiniteRing(lut[R.add[block]], lut[R.mul[block]], int(lut[R.zero]),
                      int(lut[one]), name=name)


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
        self.add = np.asarray(self.add)
        self.left_act = np.asarray(self.left_act)
        self.right_act = np.asarray(self.right_act)
        if self.internal_mul is not None:
            self.internal_mul = np.asarray(self.internal_mul)
        m = self.order
        if self.add.shape != (m, m):
            raise StructureError("bimodule add table is not square")
        if self.left_act.ndim != 2 or self.left_act.shape[1] != m:
            raise StructureError("left action table has wrong width")
        if self.right_act.ndim != 2 or self.right_act.shape[0] != m:
            raise StructureError("right action table has wrong height")
        if self.internal_mul is not None and self.internal_mul.shape != (m, m):
            raise StructureError("internal mul table is not square")
        for key in ("add", "left_act", "right_act", "internal_mul"):
            table = getattr(self, key)
            if table is not None and table.size:
                setattr(self, key, _narrowed(table, m, "bimodule"))

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
        imul = self.internal_mul
        if (add != add.T).any():
            raise BimoduleLawError("carrier addition not commutative")
        bad = ~(add == z).any(axis=1)
        if bad.any():
            raise BimoduleLawError("carrier element with no inverse",
                                   (int(np.argmax(bad)),))
        if require_internal and imul is None:
            raise BimoduleLawError("internal multiplication required")
        hit = _triple_law_violation(
            add, imul if require_internal else np.full((m, m), z), z)
        if hit is not None:
            raise BimoduleLawError({
                "additive associativity": "carrier addition not associative",
                "multiplicative associativity": "internal mul not associative",
                "left distributivity": "internal mul not left distributive",
                "right distributivity": "internal mul not right distributive",
            }[hit[0]], hit[1])
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
    lut = _renumbering(R.order, members)
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
    M1, M2 = _op(R1.mul), _op(R2.mul)
    AM, LA, RA = _op(M.add), _op(M.left_act), _op(M.right_act)

    def mul_fn(X, Y):
        (r, m, s), (r2, m2, s2) = X, Y
        return [M1(r, r2), AM(LA(r, m2), RA(m, s2)), M2(s, s2)]

    return _coord_build([range(R1.order), range(M.order), range(R2.order)],
                        [R1.add, M.add, R2.add], mul_fn,
                        [R1.zero, M.zero, R2.zero], [R1.one, M.zero, R2.one],
                        name=f"Tri({R1.name}, {R2.name}, {M.name})")


def trivial_morita(R1: FiniteRing, R2: FiniteRing, M: Bimodule, P: Bimodule,
                   max_order: int = MAX_ORDER) -> FiniteRing:
    """Generalized 2x2 matrix ring with zero context products MP = PM = 0."""
    M.validate(R1, R2)
    P.validate(R2, R1)
    n = R1.order * M.order * P.order * R2.order
    _check_order(n, max_order,
                 f"Morita({R1.name}, {R2.name}, {M.name}, {P.name})")
    M1, M2 = _op(R1.mul), _op(R2.mul)
    AM, LAM, RAM = _op(M.add), _op(M.left_act), _op(M.right_act)
    AP, LAP, RAP = _op(P.add), _op(P.left_act), _op(P.right_act)

    def mul_fn(X, Y):
        (r, m, p, s), (r2, m2, p2, s2) = X, Y
        return [M1(r, r2), AM(LAM(r, m2), RAM(m, s2)),
                AP(RAP(p, r2), LAP(s, p2)), M2(s, s2)]

    return _coord_build(
        [range(R1.order), range(M.order), range(P.order), range(R2.order)],
        [R1.add, M.add, P.add, R2.add], mul_fn,
        [R1.zero, M.zero, P.zero, R2.zero], [R1.one, M.zero, P.zero, R2.one],
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
    MR, AA, LA, RA, IM = (_op(T) for T in (R.mul, A.add, A.left_act,
                                            A.right_act, A.internal_mul))
    zA = A.zero

    def mul_fn(X, Y):
        # (r,a)(s,w) = (rs, rw + as + aw)
        (r, a), (s, w) = X, Y
        return [MR(r, s), AA(AA(LA(r, w), RA(a, s)), IM(a, w))]

    ring = _coord_build([range(R.order), range(A.order)],
                        [R.add, A.add], mul_fn, [R.zero, zA],
                        [R.one, zA], name=f"Dorroh({R.name}, {A.name})")
    quasi = bool((A.add[A.add, A.internal_mul] == zA).any(axis=1).all())
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
        raise BadArgumentError("truncation degree must be >= 1")
    if isinstance(psi, RingHom):
        hom = psi
    else:
        hom = RingHom(R, R, np.asarray(psi, dtype=np.int32))
    v = hom.violation()
    if v is not None:
        raise NotAHomomorphismError(f"psi is not a ring endomorphism: {v}", v)
    _check_power(R.order, k, max_order, f"SkewTrunc({R.name}, ., {k})")
    # psi^i tables for twisting coefficients past x^i
    pows = [np.arange(R.order, dtype=np.int32)]
    for _ in range(1, k):
        pows.append(hom.map[pows[-1]])
    add, mul = _op(R.add), _op(R.mul)

    def mul_fn(X, Y):
        # coefficient d of the product: sum over i of x_i * psi^i(y_(d-i))
        out = []
        for d in range(k):
            acc = mul(X[0], Y[d])
            for i in range(1, d + 1):
                acc = add(acc, mul(X[i], pows[i][Y[d - i]]))
            out.append(acc)
        return out

    label = hom_name or "psi"
    return _coord_build([range(R.order)] * k, [R.add] * k, mul_fn,
                        [R.zero] * k, [R.one] + [R.zero] * (k - 1),
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
        raise BadArgumentError("component index must be >= 0")
    # two diagonal entries from D, of order 2^(n+2), and two off-diagonal
    # ones from xD, of order 2^(n+1)
    _check_power(2, 4 * n + 6, max_order, f"WSC({n})")
    k = n + 2
    D = truncated_skew_poly(zmod(2), np.arange(2), k, hom_name="id")
    # the constant coefficient is the leading digit of an element of D, so
    # the multiples of x are its first half
    x_multiples = range(D.order // 2)
    cells = [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]]
    return _coord_build([range(D.order), x_multiples, x_multiples,
                         range(D.order)], [D.add] * 4,
                        _matrix_mul(D, 2, cells), [D.zero] * 4,
                        _matrix_one(D, cells), name=f"WSC({n})")


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
