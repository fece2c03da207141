"""Element sets and ideal-theoretic structure of a finite ring.

Units, nilpotents, idempotents, center, Jacobson radical, commutants,
annihilators, one-sided ideal lattices, maximal/essential ideals, and the
nilradicals.  All results are subset masks (see ``core``); computations are
memoized on the ring object, which is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (FiniteRing, LatticeTruncatedError, RingError, _first_true,
                   mask_contains, mask_from_bool, mask_from_indices,
                   mask_indices, mask_size, mask_to_bool)

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
        n = R.order
        idx = np.arange(n)
        cur = idx.copy()
        nil = np.zeros(n, dtype=bool)
        for _ in range(n):  # powers cycle within n steps (pigeonhole)
            cur = R.mul[cur, idx]
            nil |= cur == R.zero
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
    """x is quasi-regular for every left multiple: 1 - r*x a unit for all r."""
    def compute():
        neg = R.neg_table()
        one_row = R.add[R.one]
        V = one_row[neg[R.mul]]          # V[r, x] = 1 - r*x
        j = units_bool(R)[V].all(axis=0)
        j.setflags(write=False)
        return j
    return _cached(R, "jac_b", compute)


def jacobson_radical(R: FiniteRing) -> int:
    return mask_from_bool(jacobson_bool(R))


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


# ---------------------------------------------------------------------------
# Ideal generation and lattices
# ---------------------------------------------------------------------------

def _closure_bool(R: FiniteRing, seed: np.ndarray, right: bool) -> np.ndarray:
    """Close a subset under addition, left and, if asked, right multiples."""
    members = seed.copy()
    members[R.zero] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[:, idx].ravel()] = True
        if right:
            new[R.mul[idx, :].ravel()] = True
        if (new == members).all():
            return members
        members = new


def left_ideal_generated(R: FiniteRing, S: int) -> int:
    return mask_from_bool(
        _closure_bool(R, mask_to_bool(S, R.order), right=False))


def two_sided_ideal_generated(R: FiniteRing, S: int) -> int:
    return mask_from_bool(
        _closure_bool(R, mask_to_bool(S, R.order), right=True))


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


def left_ideal_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    v = subgroup_violation(R, mask)
    if v is not None:
        return v
    b = mask_to_bool(mask, R.order)
    idx = np.flatnonzero(b)
    prods = R.mul[:, idx]
    bad = ~b[prods]
    if bad.any():
        r, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return ("left-mul", int(r), int(idx[i]))
    return None


def _right_escape(mul: np.ndarray, inside: np.ndarray) -> Optional[tuple]:
    """First (m, r), m in the set, with m*r outside it under table ``mul``
    (under the opposite ring's table R.mul.T, m*r reads r*m)."""
    members = np.flatnonzero(inside)
    bad = ~inside[mul[members]]
    if not bad.any():
        return None
    i, r = _first_true(bad)
    return int(members[i]), r


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


def maximal_left_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    def compute():
        return _maximal_members(all_left_ideals(R, cap), _full_mask(R))
    return _cached(R, f"max_left_{cap}", compute)


def maximal_right_ideals(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> list[int]:
    def compute():
        return _maximal_members(all_right_ideals(R, cap), _full_mask(R))
    return _cached(R, f"max_right_{cap}", compute)


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


def jacobson_via_maximal_left_ideals(R: FiniteRing,
                                     cap: int = DEFAULT_LATTICE_CAP) -> int:
    """Test oracle: J(R) as the intersection of all maximal left ideals."""
    acc = _full_mask(R)
    for m in maximal_left_ideals(R, cap):
        acc &= m
    return acc


# ---------------------------------------------------------------------------
# Nilradicals
# ---------------------------------------------------------------------------

def _is_prime_ideal(R: FiniteRing, P: int) -> bool:
    """P prime iff for all a, b outside P some a*r*b stays outside P."""
    if P == _full_mask(R):
        return False
    inP = mask_to_bool(P, R.order)
    out = np.flatnonzero(~inP)
    for a in out:
        arb = R.mul[R.mul[a]][:, out]    # [r, j] = (a*r) * out[j]
        ok_b = (~inP[arb]).any(axis=0)
        if not ok_b.all():
            return False
    return True


def lower_nilradical(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> int:
    """Intersection of all prime two-sided ideals."""
    def compute():
        lattice = all_two_sided_ideals(R, cap)
        if lattice.truncated:
            raise LatticeTruncatedError("two-sided ideal lattice truncated")
        acc = _full_mask(R)
        for P in lattice.ideals:
            if _is_prime_ideal(R, P):
                acc &= P
        return acc
    return _cached(R, f"lower_nil_{cap}", compute)


def upper_nilradical(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> int:
    """Largest nil two-sided ideal (join of all nil ideals)."""
    def compute():
        lattice = all_two_sided_ideals(R, cap)
        if lattice.truncated:
            raise LatticeTruncatedError("two-sided ideal lattice truncated")
        nil = nilpotents_bool(R)
        best = 1 << R.zero
        for m in lattice.ideals:
            if nil[mask_indices(m)].all():
                # sum of nil ideals is nil, so candidates are totally joined
                # inside the lattice; the largest one wins.
                if mask_size(m) > mask_size(best):
                    best = m
        return best
    return _cached(R, f"upper_nil_{cap}", compute)


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


def radical_report(R: FiniteRing, cap: int = DEFAULT_LATTICE_CAP) -> RadicalReport:
    return RadicalReport(
        ring_name=R.name, order=R.order,
        units=units(R), nilpotents=nilpotents(R),
        idempotents=idempotents(R), center=center(R),
        jacobson=jacobson_radical(R),
        lower_nil=lower_nilradical(R, cap),
        upper_nil=upper_nilradical(R, cap),
    )
