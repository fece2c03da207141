"""Differential tests: the one left-ideal join against the per-side builders.

The reference below is how ringlab built its lattices before every lattice
went through one join of cyclic left ideals: an ``np.isin`` mask per cyclic
ideal on each side, two-sided cyclic ideals grown by a closure fixpoint, and
``np.isin`` joins.  It stays here as the oracle for the three lattices and
for everything read from them: maximal ideals, the nilradicals, essential
left ideals and the quasi-duo and MELT witnesses.
"""

from typing import Optional

import numpy as np
import pytest

from ringlab import exprs, harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import (FiniteRing, mask_from_bool, mask_indices,
                          mask_size, mask_to_bool)

# -- the slow reference --------------------------------------------------------


def _closure_bool(R: FiniteRing, seed: np.ndarray) -> np.ndarray:
    """Close a subset under addition and both multiplications."""
    members = seed.copy()
    members[R.zero] = True
    while True:
        idx = np.flatnonzero(members)
        new = members.copy()
        new[R.add[np.ix_(idx, idx)].ravel()] = True
        new[R.mul[:, idx].ravel()] = True
        new[R.mul[idx, :].ravel()] = True
        if (new == members).all():
            return members
        members = new


def _isin_mask(R: FiniteRing, values) -> int:
    return mask_from_bool(np.isin(np.arange(R.order), values))


def _join(R: FiniteRing, cyclic_masks: list, cap: int) -> tuple:
    gens = sorted(set(cyclic_masks))
    if len(gens) > cap:
        return gens[:cap], True
    gen_idx = [np.array(mask_indices(g), dtype=np.intp) for g in gens]
    ideals = set(gens)
    work = list(gens)
    while work:
        m = work.pop()
        m_idx = np.array(mask_indices(m), dtype=np.intp)
        for g, g_idx in zip(gens, gen_idx):
            if g | m == m or m | g == g:
                continue
            j = _isin_mask(R, R.add[np.ix_(m_idx, g_idx)])
            if j not in ideals:
                if len(ideals) >= cap:
                    return sorted(ideals), True
                ideals.add(j)
                work.append(j)
    return sorted(ideals), False


_CYCLIC = {}                             # id(ring) -> cyclic ideals per side


def oracle_lattices(R: FiniteRing, cap: int) -> dict:
    n = R.order
    if id(R) not in _CYCLIC:             # the slow part, once per ring
        _CYCLIC[id(R)] = {
            "left": [_isin_mask(R, R.mul[:, a]) for a in range(n)],
            "right": [_isin_mask(R, R.mul[a, :]) for a in range(n)],
            "two_sided": [
                mask_from_bool(_closure_bool(R, mask_to_bool(1 << a, n)))
                for a in range(n)]}
    return {side: _join(R, cyclic, cap)
            for side, cyclic in _CYCLIC[id(R)].items()}


def _maximal(ideals: list, full: int) -> list:
    proper = [m for m in ideals if m != full]
    return sorted(m for m in proper
                  if not any(m != o and m | o == o for o in proper))


def _essential(R: FiniteRing, L: int) -> bool:
    nonzero = ~(1 << R.zero)
    return all(L & _isin_mask(R, R.mul[:, a]) & nonzero
               for a in range(R.order) if a != R.zero)


def _escape(R: FiniteRing, ideal_mask: int, right_mult: bool) -> Optional[dict]:
    b = mask_to_bool(ideal_mask, R.order)
    members = mask_indices(ideal_mask)
    prods = R.mul[members, :] if right_mult else R.mul[:, members].T
    bad = ~b[prods]
    if bad.any():
        i, r = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return {"ideal": members, "m": members[i], "r": int(r)}
    return None


def _right_mul_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    w = _escape(R, mask, right_mult=True)
    return None if w is None else ("right-mul", w["m"], w["r"])


def _first_witness(R: FiniteRing, ideals: list, right_mult: bool,
                   essential_only: bool = False) -> Optional[dict]:
    for m in ideals:
        if essential_only and not _essential(R, m):
            continue
        w = _escape(R, m, right_mult)
        if w is not None:
            return w
    return None


# -- the comparison ------------------------------------------------------------

def _fresh(R: FiniteRing) -> FiniteRing:
    """The same tables with an empty memo, so every lattice really builds."""
    return FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)


def assert_same_structure(R: FiniteRing) -> None:
    """Everything read from the lattices at the default cap."""
    want = oracle_lattices(R, inv.DEFAULT_LATTICE_CAP)
    R = _fresh(R)
    full = (1 << R.order) - 1
    got = {"left": inv.all_left_ideals(R), "right": inv.all_right_ideals(R),
           "two_sided": inv.all_two_sided_ideals(R)}
    for side, (ideals, truncated) in want.items():
        assert not truncated
        assert (got[side].ideals, got[side].truncated) == (ideals, False), \
            (R.name, side)
    max_left = _maximal(want["left"][0], full)
    max_right = _maximal(want["right"][0], full)
    assert inv.maximal_left_ideals(R) == max_left, R.name
    assert inv.maximal_right_ideals(R) == max_right, R.name
    for m in max_left:
        assert inv.is_essential_left_ideal(R, m) is _essential(R, m), R.name
    for m in want["left"][0]:
        assert inv.two_sided_ideal_violation(R, m) == \
            _right_mul_violation(R, m), R.name

    two = want["two_sided"][0]
    lower = full
    for P in two:
        if inv._is_prime_ideal(R, P):
            lower &= P
    nil = inv.nilpotents_bool(R)
    upper = max((m for m in two if nil[mask_indices(m)].all()),
                key=mask_size)
    assert inv.lower_nilradical(R) == lower, R.name
    assert inv.upper_nilradical(R) == upper, R.name

    if R.order == 1:
        return
    for name, w in (
            ("left_quasi_duo", _first_witness(R, max_left, True)),
            ("right_quasi_duo", _first_witness(R, max_right, False)),
            ("melt", _first_witness(R, max_left, True, essential_only=True))):
        v = props.check_property(R, name)
        assert (v.holds, v.witness) == (w is None, w), (R.name, name)


def assert_truncation_rule(R: FiniteRing, cap: int) -> bool:
    """At any cap: the one-sided lattices are the oracle's, and the
    two-sided lattice is truncated exactly when the left one is and equals
    the oracle whenever it is not."""
    want = oracle_lattices(R, cap)
    R = _fresh(R)
    left = inv.all_left_ideals(R, cap)
    right = inv.all_right_ideals(R, cap)
    two = inv.all_two_sided_ideals(R, cap)
    assert (left.ideals, left.truncated) == want["left"], (R.name, cap)
    assert (right.ideals, right.truncated) == want["right"], (R.name, cap)
    assert two.truncated is left.truncated, (R.name, cap)
    if not two.truncated:
        assert (two.ideals, False) == want["two_sided"], (R.name, cap)
    else:
        assert set(two.ideals) <= set(left.ideals)
    return left.truncated


# the rings of the benchmark's analyze-cached workload
ANALYZE_CACHED = ["Z(4)", "Z(2)", "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))",
                  "M(2, Z(4))", "CD(3, Prod(Z(2), Z(2)))",
                  "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)", "T(2, Z(4))"]

RINGS = (harness.default_corpus().rings
         + [R for seed in (0, 1, 2) for R in harness.random_corpus(seed, 4)]
         + [exprs.build(e) for e in ANALYZE_CACHED])
CAPS = (1, 2, 3, 5, 8, 13)


@pytest.fixture(params=[None, 1], ids=["budget", "one-row-blocks"])
def block_bytes(request, monkeypatch):
    """The default block budget, and one so small each block is one row."""
    if request.param is not None:
        monkeypatch.setattr(inv, "_BLOCK_BYTES", request.param)
    return request.param


def test_lattices_and_what_is_read_from_them_match_oracle(block_bytes):
    for R in RINGS:
        assert_same_structure(R)


def test_capped_lattices_follow_the_truncation_rule(block_bytes):
    truncated = 0
    for R in RINGS:
        for cap in CAPS:
            truncated += assert_truncation_rule(R, cap)
    assert truncated > 0


def test_two_sided_lattice_of_m2z2_at_cap_2_is_truncated():
    # M2(Z2) has 5 left ideals and 2 two-sided ones; cap 2 truncates the
    # left lattice, so the two-sided lattice filtered from it is truncated
    R = exprs.build("M(2, Z(2))")
    two = inv.all_two_sided_ideals(R, cap=2)
    assert two.truncated and two.ideals == [1 << R.zero]
    assert len(inv.all_two_sided_ideals(R, cap=5).ideals) == 2
