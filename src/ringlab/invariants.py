"""Element sets and ideal-theoretic structure of a finite ring.

Units, nilpotents, idempotents, center, Jacobson radical, one-sided ideal
lattices, maximal/essential ideals, and the nilradicals.  All results are
subset masks (see ``core``); computations are memoized on the ring object,
which is immutable.

A finite ring is Artinian, so J(R) is nilpotent and R/J(R) is semisimple.
Hence the lower nilradical, the upper nilradical and J(R) are one ideal,
and every maximal one-sided ideal of R contains J(R): it is the preimage of
a maximal one-sided ideal of R/J(R).  The nilradicals are therefore read
off J(R), and the maximal ideals off the (usually tiny) lattices of R/J(R),
which one memoized projection serves; only the lattice functions build the
lattices of R itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (FiniteRing, LatticeTruncatedError, RingError, _first_true,
                   mask_contains, mask_from_bool, mask_from_indices,
                   mask_indices, mask_to_bool)

DEFAULT_LATTICE_CAP = 20000
_BLOCK_BYTES = 1 << 20      # bound on one block's temporaries


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
    def compute():
        E = R.mul == R.one
        u = (E & E.T).any(axis=1)
        u.setflags(write=False)
        return u
    return _cached(R, "units_b", compute)


def units(R: FiniteRing) -> int:
    return mask_from_bool(units_bool(R))


def nilpotents_bool(R: FiniteRing) -> np.ndarray:
    def compute():
        # x^1 .. x^(m-1) are distinct and nonzero when x^m is the first zero
        # power, so m <= n: x is nilpotent iff x^(2^k) = 0 for 2^k >= n
        cur = np.arange(R.order)
        for _ in range((R.order - 1).bit_length()):
            cur = R.mul[cur, cur]
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


def center_bool(R: FiniteRing) -> np.ndarray:
    def compute():
        c = (R.mul == R.mul.T).all(axis=1)
        c.setflags(write=False)
        return c
    return _cached(R, "center_b", compute)


def center(R: FiniteRing) -> int:
    return mask_from_bool(center_bool(R))


def jacobson_bool(R: FiniteRing) -> np.ndarray:
    """x is quasi-regular for every left multiple: 1 - r*x a unit for all r.

    Rows r are taken in blocks within ``_BLOCK_BYTES``, so the n x n plane
    of 1 - r*x is never held whole.
    """
    def compute():
        n = R.order
        # quasi[y]: 1 - y is a unit
        quasi = units_bool(R)[R.add[R.one][R.neg_table()]]
        step = max(1, _BLOCK_BYTES // (9 * n))     # intp index + bool per cell
        j = np.ones(n, dtype=bool)
        for r0 in range(0, n, step):
            j &= quasi[R.mul[r0:r0 + step]].all(axis=0)
        j.setflags(write=False)
        return j
    return _cached(R, "jac_b", compute)


def jacobson_radical(R: FiniteRing) -> int:
    return mask_from_bool(jacobson_bool(R))


# ---------------------------------------------------------------------------
# Ideal generation and lattices
# ---------------------------------------------------------------------------

def two_sided_ideal_generated(R: FiniteRing, S: int) -> int:
    """Close a subset under addition and left and right multiples."""
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
        step = max(1, _BLOCK_BYTES // (8 * n))   # intp index of one block
        cyclic = set()
        for a0 in range(0, n, step):             # row a of block: True at r*a
            cols = mul[:, a0:a0 + step]
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


def _maximal_members(lattice: IdealLattice, full: int) -> list[int]:
    if lattice.truncated:
        raise LatticeTruncatedError(
            "ideal lattice truncated; raise the cap to enumerate maximal ideals")
    proper = [m for m in lattice.ideals if m != full]
    out = []
    for m in proper:
        if not any(m != o and (m | o) == o for o in proper):
            out.append(m)
    return sorted(out)


def _full_mask(R: FiniteRing) -> int:
    return (1 << R.order) - 1


def _coset_quotient(R: FiniteRing, ideal_mask: int,
                    name: str) -> tuple[FiniteRing, np.ndarray]:
    """R / I with least-index coset representatives, and the projection
    table; the caller vouches that ``ideal_mask`` is a two-sided ideal."""
    members = np.array(mask_indices(ideal_mask), dtype=np.intp)
    rep_of = R.add[:, members].min(axis=1)
    reps = np.unique(rep_of)
    lut = np.full(R.order, -1, dtype=np.int32)
    lut[reps] = np.arange(len(reps))
    proj = lut[rep_of]
    Q = FiniteRing(proj[R.add[np.ix_(reps, reps)]],
                   proj[R.mul[np.ix_(reps, reps)]],
                   int(proj[R.zero]), int(proj[R.one]), name=name)
    return Q, proj


def _mod_jacobson(R: FiniteRing) -> tuple[FiniteRing, Optional[np.ndarray]]:
    """R/J(R) and the projection table, memoized; (R, None) when J = 0."""
    def compute():
        J = jacobson_radical(R)
        if J == 1 << R.zero:
            return None      # R itself: caching R on R would be a cycle
        return _coset_quotient(R, J, f"Quo({R.name}, J)")
    hit = _cached(R, "mod_J", compute)
    return (R, None) if hit is None else hit


def _maximal_one_sided(R: FiniteRing, opposite: bool, cap: int) -> list[int]:
    """Maximal left (right) ideals: those of R/J(R), pulled back to R."""
    Q, proj = _mod_jacobson(R)
    lattice = (all_right_ideals if opposite else all_left_ideals)(Q, cap)
    maximal = _maximal_members(lattice, _full_mask(Q))
    if proj is None:
        return maximal
    return sorted(mask_from_bool(mask_to_bool(m, Q.order)[proj])
                  for m in maximal)


def maximal_left_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Sorted masks; ``cap`` bounds the lattice of R/J(R), not of R."""
    return _cached(R, f"max_left_{cap}",
                   lambda: _maximal_one_sided(R, False, cap))


def maximal_right_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    """Sorted masks; ``cap`` bounds the lattice of R/J(R), not of R."""
    return _cached(R, f"max_right_{cap}",
                   lambda: _maximal_one_sided(R, True, cap))


def is_essential_left_ideal(R: FiniteRing, L: int) -> bool:
    """L meets every nonzero left ideal nontrivially.

    Cyclic ideals suffice: any nonzero left ideal contains a nonzero Ra,
    and Ra is nonzero exactly when a is, since a = 1a lies in it.
    """
    v = left_ideal_violation(R, L)
    if v is not None:
        raise NotAnIdealError("not a left ideal", v)
    zero = 1 << R.zero
    return all(L & g & ~zero for g in _cyclic_left_ideals(R, False)
               if g != zero)


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

    def to_dict(self) -> dict:
        return {
            "format": self.VERSION,
            "ring": self.ring_name,
            "order": self.order,
            "units": mask_indices(self.units),
            "nilpotents": mask_indices(self.nilpotents),
            "idempotents": mask_indices(self.idempotents),
            "center": mask_indices(self.center),
            "jacobson": mask_indices(self.jacobson),
            "lower_nil": mask_indices(self.lower_nil),
            "upper_nil": mask_indices(self.upper_nil),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RadicalReport":
        if d.get("format") != cls.VERSION:
            raise ValueError(f"unsupported radical report format: {d.get('format')}")
        return cls(
            ring_name=d["ring"], order=d["order"],
            units=mask_from_indices(d["units"]),
            nilpotents=mask_from_indices(d["nilpotents"]),
            idempotents=mask_from_indices(d["idempotents"]),
            center=mask_from_indices(d["center"]),
            jacobson=mask_from_indices(d["jacobson"]),
            lower_nil=mask_from_indices(d["lower_nil"]),
            upper_nil=mask_from_indices(d["upper_nil"]),
        )


def radical_report(R: FiniteRing) -> RadicalReport:
    return RadicalReport(
        ring_name=R.name, order=R.order,
        units=units(R), nilpotents=nilpotents(R),
        idempotents=idempotents(R), center=center(R),
        jacobson=jacobson_radical(R),
        lower_nil=lower_nilradical(R),
        upper_nil=upper_nilradical(R),
    )
