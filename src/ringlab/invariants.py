"""Element sets and ideal-theoretic structure of a finite ring.

Units, nilpotents, idempotents, center, Jacobson radical, one-sided ideal
lattices, maximal/essential ideals, and the nilradicals.  All results are
subset masks (see ``core``); computations are memoized on the ring object,
which is immutable.

A finite ring is Artinian, so J(R) is nilpotent and R/J(R) is semisimple.
Hence the lower nilradical, the upper nilradical and J(R) are one ideal,
and every maximal one-sided ideal of R contains J(R): it is the preimage of
a maximal one-sided ideal of R/J(R).  Each one-sided ideal of the
semisimple R/J(R) is generated by an idempotent, so it is cyclic.  The
nilradicals are therefore read off J(R), and the maximal ideals off the
cyclic one-sided ideals of R/J(R), through one memoized projection; only
the lattice functions join ideals into lattices.

Two more facts of Artinian rings keep R's own cyclic ideals out of the
ideal-theoretic checks.  The left socle is {x : J(R)x = 0}; it is
essential, and every nonzero left ideal contains a minimal one, so a left
ideal is essential exactly when it contains the socle.  And a one-sided
ideal containing J(R) is two-sided exactly when its image in R/J(R) is, so
two-sidedness of a maximal ideal is decided on the small R/J(R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core
from .core import (BadArgumentError, FiniteRing, RingError, _first_true,
                   _renumbering, _span, mask_contains, mask_from_bool,
                   mask_from_indices, mask_indices, mask_to_bool)

DEFAULT_LATTICE_CAP = 20000


class NotAnIdealError(RingError):
    """A mask fails an ideal closure property; carries a witness pair."""

    def __init__(self, message: str, witness: Optional[tuple] = None):
        super().__init__(message)
        self.witness = witness


def _cached(R: FiniteRing, key: str, compute: Callable):
    if key not in R._cache:
        R._cache[key] = compute()
    return R._cache[key]


# ---------------------------------------------------------------------------
# Element sets (boolean-vector internals, mask-valued public API)
# ---------------------------------------------------------------------------

def units_bool(R: FiniteRing) -> np.ndarray:
    """x has a right inverse: some xy = 1.  A finite ring is
    Dedekind-finite, so xy = 1 already gives yx = 1.  The rows of R.mul
    are compared with one in blocks within ``core._BLOCK_BYTES``, so the
    boolean plane of the whole table is never held."""
    def compute():
        n = R.order
        u = np.empty(n, dtype=bool)
        for rows in core._row_blocks(n, n):     # one bool a cell
            u[rows] = (R.mul[rows] == R.one).any(axis=1)
        u.setflags(write=False)
        return u
    return _cached(R, "units_b", compute)


def units(R: FiniteRing) -> int:
    return mask_from_bool(units_bool(R))


def nilpotents_bool(R: FiniteRing) -> np.ndarray:
    """x has some power 0.  Each squaring reads x*x for every x at once,
    as one flat gather of the diagonal cells of R.mul at x."""
    def compute():
        # x^1 .. x^(m-1) are distinct and nonzero when x^m is the first zero
        # power, so m <= n: x is nilpotent iff x^(2^k) = 0 for 2^k >= n
        n = R.order
        flat = R.mul.ravel()
        cur = np.arange(n)
        for _ in range((n - 1).bit_length()):
            # cell (x, x) is flat index x*(n + 1); intp, as it passes uint16
            cur = flat.take(np.multiply(cur, n + 1, dtype=np.intp))
        nil = cur == R.zero
        nil.setflags(write=False)
        return nil
    return _cached(R, "nilp_b", compute)


def nilpotents(R: FiniteRing) -> int:
    return mask_from_bool(nilpotents_bool(R))


def nilpotency_index(R: FiniteRing, a: int) -> Optional[int]:
    """Least k >= 1 with a**k = 0, or None if a is not nilpotent."""
    cur = a
    for k in range(1, R.order + 1):
        if cur == R.zero:
            return k
        cur = int(R.mul[cur, a])
    return None


def idempotents_bool(R: FiniteRing) -> np.ndarray:
    def compute():
        idx = np.arange(R.order)
        e = R.mul[idx, idx] == idx
        e.setflags(write=False)
        return e
    return _cached(R, "idem_b", compute)


def idempotents(R: FiniteRing) -> int:
    return mask_from_bool(idempotents_bool(R))


def _additive_generators(R: FiniteRing) -> np.ndarray:
    """R's additive generators, least first: each is the least element
    outside the subgroup its predecessors generate."""
    idx = np.arange(R.order)
    return _cached(R, "add_gens", lambda: np.array(
        _span(R.add, idx == R.zero, idx)[1], dtype=np.intp))


def center_bool(R: FiniteRing) -> np.ndarray:
    def compute():
        # x commutes with all of R once it commutes with its generators
        g = _additive_generators(R)
        c = (R.mul[:, g] == R.mul[g].T).all(axis=1)
        c.setflags(write=False)
        return c
    return _cached(R, "center_b", compute)


def center(R: FiniteRing) -> int:
    return mask_from_bool(center_bool(R))


def jacobson_bool(R: FiniteRing) -> np.ndarray:
    """J(R) = {x in N(R) : x*r in N(R) for every r}.

    In a finite ring J(R) is nil, and a right ideal all of whose elements
    are nilpotent lies in J(R).  So x is in J(R) exactly when xR, which
    holds x = x*1, is nil: only the nilpotent x are tested, each on its own
    contiguous row of R.mul against ``nilpotents_bool``.  Those rows are
    taken in blocks within ``core._BLOCK_BYTES``, so their plane of x*r is
    never held whole.
    """
    def compute():
        n = R.order
        nil = nilpotents_bool(R)
        rows = np.flatnonzero(nil)
        j = np.zeros(n, dtype=bool)
        # a uint16 row, numpy's intp copy of it and a bool a cell
        for block in core._row_blocks(len(rows), 11 * n):
            x = rows[block]
            j[x] = nil.take(R.mul[x]).all(axis=1)
        j.setflags(write=False)
        return j
    return _cached(R, "jac_b", compute)


def jacobson_radical(R: FiniteRing) -> int:
    return mask_from_bool(jacobson_bool(R))


# ---------------------------------------------------------------------------
# Ideal generation and lattices
# ---------------------------------------------------------------------------

def two_sided_ideal_generated(R: FiniteRing, S: int) -> int:
    """Close a subset under addition and left and right multiples: its
    additive span, grown by g*r and r*g for its generators g and R's
    additive generators r until none is new."""
    r = _additive_generators(R)
    members, gens = _span(R.add, np.arange(R.order) == R.zero, mask_indices(S))
    while True:
        members, new = _span(R.add, members, np.append(
            R.mul[np.ix_(gens, r)], R.mul[np.ix_(r, gens)]))
        if not new:
            return mask_from_bool(members)
        gens += new


def subgroup_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    """Witness that mask is not an additive subgroup, or None."""
    if not mask_contains(mask, R.zero):
        return ("zero", R.zero)
    b = mask_to_bool(mask, R.order)
    idx = np.flatnonzero(b)
    sums = R.add[np.ix_(idx, idx)]
    bad = ~b[sums]
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return ("add", int(idx[i]), int(idx[j]))
    return None


def _right_escape(mul: np.ndarray, inside: np.ndarray,
                  least_r_first: bool = False) -> Optional[tuple]:
    """First (m, r), m in the set, with m*r outside it under table ``mul``
    (under the opposite ring's table R.mul.T, m*r reads r*m): the least m
    and then the least r, or the least r and then the least m."""
    members = np.flatnonzero(inside)
    bad = ~inside[mul[members]]
    if not bad.any():
        return None
    if least_r_first:
        r, i = _first_true(bad.T)
    else:
        i, r = _first_true(bad)
    return int(members[i]), r


def left_ideal_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    v = subgroup_violation(R, mask)
    if v is not None:
        return v
    hit = _right_escape(R.mul.T, mask_to_bool(mask, R.order),
                        least_r_first=True)
    return None if hit is None else ("left-mul", hit[1], hit[0])


def two_sided_ideal_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    v = left_ideal_violation(R, mask)
    if v is not None:
        return v
    hit = _right_escape(R.mul, mask_to_bool(mask, R.order))
    return None if hit is None else ("right-mul", *hit)


@dataclass
class IdealLattice:
    """All (one- or two-sided) ideals of a ring, as masks, join-closed.

    It holds no reference to its ring: the ring caches it, and a reference
    back would put every ring with a lattice in a cycle.
    """

    ideals: list = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.ideals)


def _cyclic_left_ideals(R: FiniteRing, opposite: bool) -> list[int]:
    """Sorted distinct Ra of R, or of its opposite ring (the aR of R)."""
    def compute():
        n = R.order
        mul = R.mul.T if opposite else R.mul     # opposite ring: a*b = b*a
        cyclic = set()
        for a in core._row_blocks(n, 8 * n):     # an intp index a cell
            cols = mul[:, a]            # row a of block is True at each r*a
            block = np.zeros((cols.shape[1], n), dtype=bool)
            block[np.arange(cols.shape[1]), cols] = True
            cyclic.update(mask_from_bool(row) for row in block)
        return sorted(cyclic)
    return _cached(R, f"cyclic_left_{opposite}", compute)


def _join_lattice(R: FiniteRing, opposite: bool, cap: int) -> IdealLattice:
    """The left ideals of R, or of its opposite ring (the right ideals of R).

    Every left ideal is a sum of cyclic ones, so joining each ideal found
    with every cyclic ideal reaches the whole lattice.  Past ``cap`` ideals
    the lattice is returned truncated.
    """
    if cap < 1:
        raise BadArgumentError(f"lattice cap must be >= 1, got {cap}")
    gens = _cyclic_left_ideals(R, opposite)
    if len(gens) > cap:
        return IdealLattice(gens[:cap], True)
    gen_idx = [np.array(mask_indices(g), dtype=np.intp) for g in gens]
    ideals = set(gens)
    work = list(gens)
    while work:
        m = work.pop()
        m_idx = np.array(mask_indices(m), dtype=np.intp)
        for g, g_idx in zip(gens, gen_idx):
            if g | m == m or m | g == g:
                continue  # comparable: join is the larger one, already present
            summed = np.zeros(R.order, dtype=bool)
            summed[R.add[m_idx[:, None], g_idx]] = True
            j = mask_from_bool(summed)
            if j not in ideals:
                if len(ideals) >= cap:
                    return IdealLattice(sorted(ideals), True)
                ideals.add(j)
                work.append(j)
    return IdealLattice(sorted(ideals), False)


def all_left_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> IdealLattice:
    return _cached(R, f"left_lattice_{cap}",
                   lambda: _join_lattice(R, False, cap))


def all_right_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> IdealLattice:
    return _cached(R, f"right_lattice_{cap}",
                   lambda: _join_lattice(R, True, cap))


def all_two_sided_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> IdealLattice:
    """The left ideals closed under right multiplication; truncated
    exactly when the left lattice under the same ``cap`` is."""
    def compute():
        left = all_left_ideals(R, cap)
        return IdealLattice(
            [m for m in left.ideals
             if _right_escape(R.mul, mask_to_bool(m, R.order)) is None],
            left.truncated)
    return _cached(R, f"two_sided_lattice_{cap}", compute)


def _coset_quotient(R: FiniteRing, ideal: np.ndarray,
                    name: str) -> tuple[FiniteRing, np.ndarray]:
    """R / I with least-index coset representatives, and the projection
    table; ``ideal`` is I's boolean vector, and the caller vouches that I
    is a two-sided ideal.

    + is commutative, so x's representative, the least of x + I, is the
    least j + x over the members j: for every x at once, the minimum of
    R.add's contiguous rows at I's members.  Those rows are read in blocks
    within ``core._BLOCK_BYTES``, so the |I| x n plane is never held whole."""
    members = np.flatnonzero(ideal)
    first, *rest = core._row_blocks(len(members), 2 * R.order)  # uint16 cells
    rep_of = R.add[members[first]].min(axis=0)
    for rows in rest:
        np.minimum(rep_of, R.add[members[rows]].min(axis=0), out=rep_of)
    # x represents its coset exactly when it is the least of x + I; read
    # so, not by np.unique, which imports numpy.ma on its first call
    reps = np.flatnonzero(rep_of == np.arange(R.order))
    proj = _renumbering(R.order, reps)[rep_of]
    Q = FiniteRing(proj[R.add[np.ix_(reps, reps)]],
                   proj[R.mul[np.ix_(reps, reps)]],
                   int(proj[R.zero]), int(proj[R.one]), name=name)
    return Q, proj


def _mod_jacobson(R: FiniteRing) -> tuple[FiniteRing, Optional[np.ndarray]]:
    """R/J(R) and the projection table, memoized; (R, None) when J = 0."""
    def compute():
        J = jacobson_bool(R)
        if J.sum() == 1:
            return None      # R itself: caching R on R would be a cycle
        return _coset_quotient(R, J, f"Quo({R.name}, J)")
    hit = _cached(R, "mod_J", compute)
    return (R, None) if hit is None else hit


def _maximal_one_sided(R: FiniteRing, opposite: bool) -> list[int]:
    """Maximal left (right) ideals: those of R/J(R), pulled back to R.

    The one-sided ideals of R/J(R) are all cyclic, so its maximal ones are
    the maximal proper members of its cyclic ideals.
    """
    Q, proj = _mod_jacobson(R)
    full = (1 << Q.order) - 1
    proper = [m for m in _cyclic_left_ideals(Q, opposite) if m != full]
    maximal = [m for m in proper
               if not any(m != o and m | o == o for o in proper)]
    if proj is None:
        return maximal
    return sorted(mask_from_bool(mask_to_bool(m, Q.order)[proj])
                  for m in maximal)


def maximal_left_ideals(R: FiniteRing) -> list[int]:
    """Sorted masks."""
    return _cached(R, "max_left", lambda: _maximal_one_sided(R, False))


def maximal_right_ideals(R: FiniteRing) -> list[int]:
    """Sorted masks."""
    return _cached(R, "max_right", lambda: _maximal_one_sided(R, True))


def _two_sided_mod_jacobson(R: FiniteRing, ideal_mask: int,
                            opposite: bool) -> bool:
    """A left (right, if ``opposite``) ideal containing J(R) is two-sided:
    decided on its image in R/J(R), whose preimage it is."""
    Q, proj = _mod_jacobson(R)
    if proj is None:
        inside = mask_to_bool(ideal_mask, R.order)
    else:
        inside = np.zeros(Q.order, dtype=bool)
        inside[proj[mask_to_bool(ideal_mask, R.order)]] = True
    return _right_escape(Q.mul.T if opposite else Q.mul, inside) is None


def _socle(R: FiniteRing) -> int:
    """The left socle {x : J(R)x = 0}, memoized; rows of J(R) are taken in
    blocks within ``core._BLOCK_BYTES``."""
    def compute():
        n = R.order
        jac = np.flatnonzero(jacobson_bool(R))
        soc = np.ones(n, dtype=bool)
        for rows in core._row_blocks(len(jac), 3 * n):  # uint16 + bool a cell
            soc &= (R.mul[jac[rows]] == R.zero).all(axis=0)
        return mask_from_bool(soc)
    return _cached(R, "socle", compute)


def is_essential_left_ideal(R: FiniteRing, L: int) -> bool:
    """L meets every nonzero left ideal nontrivially.

    Every nonzero left ideal contains a minimal one, and the minimal ones
    span the socle, so L is essential exactly when it contains the socle.
    """
    v = left_ideal_violation(R, L)
    if v is not None:
        raise NotAnIdealError("not a left ideal", v)
    return _socle(R) & ~L == 0


# ---------------------------------------------------------------------------
# Nilradicals
# ---------------------------------------------------------------------------

def lower_nilradical(R: FiniteRing) -> int:
    """Intersection of all prime two-sided ideals.

    It lies in the upper nilradical, which lies in J(R); and J(R), being
    nilpotent in a finite ring, lies in every prime ideal.  So all three
    are J(R).
    """
    return jacobson_radical(R)


def upper_nilradical(R: FiniteRing) -> int:
    """Largest nil two-sided ideal: J(R), as ``lower_nilradical`` shows."""
    return jacobson_radical(R)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass
class RadicalReport:
    ring_name: str
    order: int
    units: int
    nilpotents: int
    idempotents: int
    center: int
    jacobson: int
    lower_nil: int
    upper_nil: int

    VERSION = "radical v1"
    #: The fields written as lists of element indices, in to_dict's order.
    SETS = ("units", "nilpotents", "idempotents", "center", "jacobson",
            "lower_nil", "upper_nil")

    def to_dict(self) -> dict:
        return {"format": self.VERSION, "ring": self.ring_name,
                "order": self.order,
                **{key: mask_indices(getattr(self, key)) for key in self.SETS}}

    @classmethod
    def from_dict(cls, d: dict) -> "RadicalReport":
        if d.get("format") != cls.VERSION:
            raise ValueError(f"unsupported radical report format: {d.get('format')}")
        return cls(ring_name=d["ring"], order=d["order"],
                   **{key: mask_from_indices(d[key]) for key in cls.SETS})

    @classmethod
    def is_dict(cls, d) -> bool:
        """Whether d has exactly the keys and value types to_dict writes (a
        bool is not an int here)."""
        return (type(d) is dict
                and d.keys() == {"format", "ring", "order", *cls.SETS}
                and d["format"] == cls.VERSION
                and type(d["ring"]) is str and type(d["order"]) is int
                and all(type(d[key]) is list
                        and set(map(type, d[key])) <= {int}
                        for key in cls.SETS))


def radical_report(R: FiniteRing) -> RadicalReport:
    return RadicalReport(
        ring_name=R.name, order=R.order,
        units=units(R), nilpotents=nilpotents(R),
        idempotents=idempotents(R), center=center(R),
        jacobson=jacobson_radical(R),
        lower_nil=lower_nilradical(R),
        upper_nil=upper_nilradical(R),
    )
