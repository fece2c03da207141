"""Differential tests: the fast routes to ideals and radicals against the
slow ones they replaced.

The first reference below is how ringlab built its lattices before every
lattice went through one join of cyclic left ideals: an ``np.isin`` mask per
cyclic ideal on each side, two-sided cyclic ideals grown by a closure
fixpoint, and ``np.isin`` joins.  The second is how it read the radicals and
maximal ideals off R's own lattices before it read them off J(R) and the
lattices of R/J(R): the nilradicals from the two-sided lattice (prime ideals
by ``_is_prime_ideal``), the maximal one-sided ideals from the full one-sided
lattices, and J(R) as their intersection.  The third is how it read the
maximal ideals off R/J(R) before it took them from R/J(R)'s cyclic ideals:
the maximal members of R/J(R)'s joined lattices, pulled back.  All three
stay here as the oracle for the lattices and for everything read from them:
maximal ideals, the nilradicals, essential left ideals and the quasi-duo and
MELT witnesses.  The fourth is how the quasi-duo, MELT and R10 checks ran
before they read the socle and R/J(R): essentiality from R's cyclic left
ideals, and an escape scan on R of every maximal ideal.
"""

from typing import Optional

import numpy as np
import pytest

from ringlab import core, exprs, harness
from ringlab import invariants as inv
from ringlab import properties as props
from ringlab.core import (FiniteRing, mask_from_bool, mask_indices, mask_size,
                          mask_to_bool)


class OracleLatticeTruncated(Exception):
    """A lattice the oracle reads maximal ideals from hit its cap."""


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


def _essential(R: FiniteRing, L: int, cyclic_left: list) -> bool:
    """L meets every nonzero one of the cyclic left ideals Ra."""
    zero = 1 << R.zero
    return all(L & g & ~zero for g in cyclic_left if g != zero)


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


def _first_witness(R: FiniteRing, ideals: list,
                   right_mult: bool) -> Optional[dict]:
    for m in ideals:
        w = _escape(R, m, right_mult)
        if w is not None:
            return w
    return None


# -- the full-lattice route to radicals and maximal ideals -------------------


def _is_prime_ideal(R: FiniteRing, P: int) -> bool:
    """P prime iff for all a, b outside P some a*r*b stays outside P."""
    if P == (1 << R.order) - 1:
        return False
    inP = mask_to_bool(P, R.order)
    out = np.flatnonzero(~inP)
    for a in out:
        arb = R.mul[R.mul[a]][:, out]    # [r, j] = (a*r) * out[j]
        if not (~inP[arb]).any(axis=0).all():
            return False
    return True


def lattice_lower_nilradical(R: FiniteRing, two_sided: list) -> int:
    """Intersection of the prime ideals among all two-sided ideals."""
    acc = (1 << R.order) - 1
    for P in two_sided:
        if _is_prime_ideal(R, P):
            acc &= P
    return acc


def lattice_upper_nilradical(R: FiniteRing, two_sided: list) -> int:
    """The largest nil ideal among all two-sided ideals."""
    nil = inv.nilpotents_bool(R)
    return max((m for m in two_sided if nil[mask_indices(m)].all()),
               key=mask_size)


def full_lattice_maximal_ideals(R: FiniteRing, side: str,
                                cap: int = inv.DEFAULT_LATTICE_CAP) -> list:
    """The maximal members of R's own left or right lattice."""
    build = inv.all_left_ideals if side == "left" else inv.all_right_ideals
    lattice = build(R, cap)
    if lattice.truncated:
        raise OracleLatticeTruncated(f"{side} ideal lattice truncated")
    return _maximal(lattice.ideals, (1 << R.order) - 1)


def joined_quotient_maximal_ideals(R: FiniteRing, side: str) -> list:
    """The maximal members of R/J(R)'s joined left or right lattice, pulled
    back to R."""
    Q, proj = inv._mod_jacobson(R)
    maximal = full_lattice_maximal_ideals(Q, side)
    if proj is None:
        return maximal
    return sorted(mask_from_bool(mask_to_bool(m, Q.order)[proj])
                  for m in maximal)


def jacobson_via_maximal_left_ideals(R: FiniteRing,
                                     cap: int = inv.DEFAULT_LATTICE_CAP) -> int:
    """J(R) as the intersection of all maximal left ideals of R's lattice."""
    acc = (1 << R.order) - 1
    for m in full_lattice_maximal_ideals(R, "left", cap):
        acc &= m
    return acc


def _left_ideal_violation(R: FiniteRing, mask: int) -> Optional[tuple]:
    """The left ideal check with its own left-multiplication scan."""
    v = inv.subgroup_violation(R, mask)
    if v is not None:
        return v
    b = mask_to_bool(mask, R.order)
    idx = np.flatnonzero(b)
    bad = ~b[R.mul[:, idx]]
    if bad.any():
        r, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return ("left-mul", int(r), int(idx[i]))
    return None


def _jacobson_whole(R: FiniteRing) -> np.ndarray:
    """J(R) from the whole n x n plane of 1 - r*x at once."""
    V = R.add[R.one][R.neg_table()[R.mul]]
    return inv.units_bool(R)[V].all(axis=0)


# -- the comparison ------------------------------------------------------------

def _fresh(R: FiniteRing) -> FiniteRing:
    """The same tables with an empty memo, so every lattice really builds."""
    return FiniteRing(R.add, R.mul, R.zero, R.one, name=R.name)


def assert_same_structure(R: FiniteRing) -> tuple:
    """Everything read from the lattices at the default cap; returns how
    many left ideals are essential and how many are not."""
    want = oracle_lattices(R, inv.DEFAULT_LATTICE_CAP)
    cyclic_left = _CYCLIC[id(R)]["left"]
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
    # pulled back from R/J(R)'s cyclic ideals against the maximal members
    # of R's lattices and of R/J(R)'s lattices
    assert inv.maximal_left_ideals(R) == max_left \
        == full_lattice_maximal_ideals(R, "left") \
        == joined_quotient_maximal_ideals(_fresh(R), "left"), R.name
    assert inv.maximal_right_ideals(R) == max_right \
        == full_lattice_maximal_ideals(R, "right") \
        == joined_quotient_maximal_ideals(_fresh(R), "right"), R.name
    essential = [m for m in want["left"][0]
                 if _essential(R, m, cyclic_left)]
    for m in want["left"][0]:
        # the socle test, against every left ideal, not only maximal ones
        assert inv.is_essential_left_ideal(R, m) is (m in essential), R.name
        assert inv.two_sided_ideal_violation(R, m) == \
            _right_mul_violation(R, m), R.name

    two = want["two_sided"][0]
    jac = inv.jacobson_radical(R)
    assert jac == jacobson_via_maximal_left_ideals(R), R.name
    assert inv.lower_nilradical(R) == lattice_lower_nilradical(R, two) \
        == jac, R.name
    assert inv.upper_nilradical(R) == lattice_upper_nilradical(R, two) \
        == jac, R.name

    if R.order > 1:
        for name, w in (
                ("left_quasi_duo", _first_witness(R, max_left, True)),
                ("right_quasi_duo", _first_witness(R, max_right, False)),
                ("melt", _first_witness(R, [m for m in max_left
                                            if m in essential], True))):
            v = props.check_property(R, name)
            assert (v.holds, v.witness) == (w is None, w), (R.name, name)
    return len(essential), len(want["left"][0]) - len(essential)


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


def _relabelled(R: FiniteRing, seed: int) -> FiniteRing:
    """R with its elements renumbered by a seeded permutation."""
    p = np.random.default_rng(seed).permutation(R.order)
    add, mul = np.empty_like(R.add), np.empty_like(R.mul)
    add[np.ix_(p, p)] = p[R.add]
    mul[np.ix_(p, p)] = p[R.mul]
    return FiniteRing(add, mul, int(p[R.zero]), int(p[R.one]),
                      name=f"relabelled({R.name}, {seed})")


# in every constructed ring above, the maximal ideals of R/J pulled back in
# lattice order already come out sorted as masks of R; in these renumbered
# rings they do not, so the sort after the pull-back is tested
RINGS = (harness.default_corpus().rings
         + [R for seed in (0, 1, 2) for R in harness.random_corpus(seed, 4)]
         + [exprs.build(e) for e in ANALYZE_CACHED]
         + [_relabelled(exprs.build(e), 0)
            for e in ("Z(12)", "T(3, Z(2))", "WSC(0)")])
CAPS = (1, 2, 3, 5, 8, 13)


@pytest.fixture(params=[None, 1], ids=["budget", "one-row-blocks"])
def block_bytes(request, monkeypatch):
    """The default block budget, and one so small each block is one row."""
    if request.param is not None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", request.param)
    return request.param


def test_lattices_and_what_is_read_from_them_match_oracle(block_bytes):
    counts = [assert_same_structure(R) for R in RINGS]
    assert all(sum(c) for c in zip(*counts))     # both kinds of ideal occur


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


_LATTICE_KEYS = ("left_lattice_", "right_lattice_", "two_sided_lattice_")


def _lattice_keys(R: FiniteRing) -> list:
    return [k for k in R._cache if k.startswith(_LATTICE_KEYS)]


@pytest.mark.parametrize("expr", ["T(3, Z(2))", "WSC(0)", "T(2, Z(4))",
                                  "M(2, Z(2))"])
def test_analyze_and_radical_report_build_no_lattice_of_the_ring(expr,
                                                               monkeypatch):
    # the maximal ideals come from R/J(R)'s cyclic ideals (R/J = R when
    # J = 0, as in M(2, Z(2))): no lattice of R or of R/J(R) is joined
    def no_join(*args):
        raise AssertionError("a lattice was joined")
    monkeypatch.setattr(inv, "_join_lattice", no_join)
    R = exprs.build(expr)
    inv.radical_report(R)
    inv.maximal_left_ideals(R)
    inv.maximal_right_ideals(R)
    Q, _ = inv._mod_jacobson(R)
    assert not _lattice_keys(R) and not _lattice_keys(Q)
    harness.analyze(R)
    assert not _lattice_keys(R) and not _lattice_keys(Q)


def _power_of_z2(k: int) -> str:
    return "Z(2)" if k == 1 else f"Prod(Z(2), {_power_of_z2(k - 1)})"


@pytest.mark.parametrize("opposite", [False, True], ids=["left", "right"])
def test_cyclic_ideals_of_r_mod_j_are_its_whole_lattice(opposite):
    # R/J(R) is semisimple: each one-sided ideal is generated by an
    # idempotent, so the cyclic ideals are all of them, at most |R/J| many
    lattice = inv.all_right_ideals if opposite else inv.all_left_ideals
    for R in RINGS + [exprs.build(e) for e in (
            "M(3, Z(2))", "Prod(M(2, Z(2)), Z(2))", _power_of_z2(8))]:
        Q, _ = inv._mod_jacobson(_fresh(R))
        cyclic = inv._cyclic_left_ideals(Q, opposite)
        joined = lattice(Q)
        assert (cyclic, False) == (joined.ideals, joined.truncated), R.name
        assert len(cyclic) <= Q.order, R.name


def _additive_subgroup(R: FiniteRing, a: int) -> int:
    """The additive subgroup generated by a."""
    mask, cur = 1 << R.zero, a
    while not mask >> cur & 1:
        mask |= 1 << cur
        cur = int(R.add[cur, a])
    return mask


def test_left_ideal_violation_matches_its_own_scan():
    import random
    rnd = random.Random(0)
    left_mul = 0
    for R in RINGS:
        n = R.order
        candidates = (inv.all_left_ideals(R).ideals
                      + inv.all_right_ideals(R).ideals
                      + [_additive_subgroup(R, a) for a in range(n)]
                      + [rnd.getrandbits(n) | 1 << R.zero for _ in range(8)]
                      + [rnd.getrandbits(n) for _ in range(8)])
        for mask in candidates:
            want = _left_ideal_violation(R, mask)
            assert inv.left_ideal_violation(R, mask) == want, (R.name, mask)
            left_mul += want is not None and want[0] == "left-mul"
    assert left_mul > 100


def test_blocked_jacobson_matches_whole_array(block_bytes):
    for R in RINGS + [exprs.build("T(4, Z(2))")]:
        got = inv.jacobson_bool(_fresh(R))
        assert (got == _jacobson_whole(R)).all(), R.name


# -- the routes on R that the socle and R/J(R) replaced ------------------------
#
# essentiality from R's own cyclic left ideals, and an escape scan on R of
# every maximal ideal


def _essential_by_cyclic_ideals(R: FiniteRing, L: int) -> bool:
    return _essential(R, L, inv._cyclic_left_ideals(R, False))


def _rule_r10_on_r(R: FiniteRing):
    if not props.check_property(R, "nj_symmetric").holds:
        return "vacuous", None
    non_essential = [m for m in inv.maximal_left_ideals(R)
                     if not _essential_by_cyclic_ideals(R, m)]
    if not non_essential:
        return "vacuous", None
    w = _first_witness(R, non_essential, right_mult=True)
    return ("pass", None) if w is None else ("fail", {"witness": w})


def _on_r(R: FiniteRing) -> dict:
    left = inv.maximal_left_ideals(R)
    return {
        "left_quasi_duo": _first_witness(R, left, True),
        "right_quasi_duo": _first_witness(R, inv.maximal_right_ideals(R),
                                          False),
        "melt": _first_witness(
            R, [m for m in left if _essential_by_cyclic_ideals(R, m)], True)}


ON_R_RINGS = ANALYZE_CACHED + ["T(4, Z(2))", "M(2, Z(3))", "M(2, Z(4))",
                               "M(2, Z(5))", "Z(6)", "Prod(M(2, Z(4)), Z(4))"]


@pytest.fixture(scope="module")
def wide_rings():
    return (harness.default_corpus().rings
            + [R for seed in range(6) for R in harness.random_corpus(seed, 30)]
            + [exprs.build(e) for e in ON_R_RINGS])


@pytest.mark.parametrize("budget", [core._BLOCK_BYTES, 64])
def test_socle_and_r_mod_j_match_the_routes_on_r(wide_rings, budget,
                                                 monkeypatch):
    # at 64 bytes the socle, J(R) and the cyclic ideals take one row of
    # R.mul a block
    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
    failing = dict.fromkeys(("left_quasi_duo", "right_quasi_duo", "melt",
                             "R10"), 0)
    for R in wide_rings:
        R = _fresh(R)
        for m in inv.maximal_left_ideals(R):
            assert inv.is_essential_left_ideal(R, m) is \
                _essential_by_cyclic_ideals(R, m), R.name
        if R.order == 1:
            continue
        for name, want in _on_r(R).items():
            v = props.PROPERTY_CHECKS[name](R)
            assert (v.holds, v.witness) == (want is None, want), (R.name,
                                                                  name)
            failing[name] += want is not None
        want = _rule_r10_on_r(R)
        assert harness._rule_r10(R) == want, R.name
        failing["R10"] += want[0] == "pass"
    # R10 never fails: it counts the rings where it applies
    assert all(failing.values()), failing
