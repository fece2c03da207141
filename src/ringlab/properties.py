"""Ring-class predicates, registered by name in ``PROPERTY_CHECKS``.

A predicate returns its failure witness, or None when the property holds.
Scans iterate (a, b, c) lexicographically, so the witness is the
lexicographically least one, re-checkable from the raw tables.  Each
predicate is stated once, under ``@_property(name)``: the registered
function times the call, settles the zero ring without running the
predicate, and makes the witness a PropertyVerdict.

The triple predicates (symmetric, semicommutative, gws, weak_symmetric,
nj_symmetric) are written once, in ``TRIPLE_FORMS``: a triple is a witness
when a premise and a conclusion both hold, each a membership test of one
product of a, b and c in an element set (zero, nilpotent, outside J(R),
...).  That table drives both the scan and ``reverify_witness``.  A scan
decides each form in two steps:

* the least a, from the row classes of bit-packed tables.  Per element
  set S a row table holds, for every y, bits{x : y*x in S} and a column
  table bits{x : x*y in S}.  The plane of a product over all (b, c) is
  made of table rows: (ba)c in S is row mul[b, a] of the row table, c(ba)
  in S row mul[b, a] of the column table, both packed along c.  A
  nilpotent product may also be rotated, since xy is nilpotent exactly
  when yx is ((yx)^(k+1) = y(xy)^k x): abc nilpotent is read as (ca)b,
  packed along b like (ac)b.  ``_scan_plan`` reads both terms of a form
  packed along the same letter, so row t of a's plane is the AND of one
  premise row and one conclusion row.  A table has few distinct rows: the
  ring memoizes them with the class of each y, one AND per pair of classes
  says which pairs share a bit, and each (a, t) looks up its pair, n^2
  lookups per form.  Blocks of a, as many as fit a fixed byte budget, are
  tested at once and the first block with a hit gives the least a.
  Both tables are read along rows of R.mul: a column table is packed from
  blocks of rows x, 8 rows to a byte.  The complement of a set (nonzero,
  not nilpotent) has its set's table with every bit flipped, so it shares
  the set's classes instead of sorting a table of its own.
* the least (b, c), from the boolean plane of that a, evaluated on the
  tables directly, so every witness is the one a plain scan finds.  A
  packed hit that the boolean plane does not confirm raises
  InternalCheckError.

Exchange and semiperiodicity ask one question per element a and take a in
blocks of 1, 4, 16, ... up to the same byte budget: column scatters of
R.mul for exchange and one power walk per block for semiperiodicity.
J-quasipolarity and J-cleanness are one lookup per element, whether
a^2 + a, or a^2 - a, lies in J(R).  ``reverify_witness`` checks their
witnesses at that a alone, from the definition.

The quasi-duo and MELT checks decide each maximal ideal on R/J(R) and
scan R only for the first ideal that is one-sided, for its least (m, r).
MELT keeps the maximal left ideals that contain the socle.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (FiniteRing, RingError, _first_true, mask_indices,
                   mask_to_bool)
from . import invariants as inv


class InternalCheckError(RingError):
    """Two provably-equivalent formulations disagreed: an implementation bug."""


class UnknownPropertyError(RingError):
    pass


@dataclass
class PropertyVerdict:
    name: str
    holds: bool
    witness: Optional[dict] = None
    elapsed: float = 0.0
    method: str = "exhaustive"

    def to_dict(self) -> dict:
        # elapsed deliberately excluded: machine reports must be
        # byte-identical across runs and thread counts
        return {"name": self.name, "holds": self.holds,
                "witness": self.witness, "method": self.method}


#: Every registered property by name, in registration order.
PROPERTY_CHECKS: dict[str, Callable[[FiniteRing], PropertyVerdict]] = {}


def _property(name: str):
    """Register a predicate, which returns its least witness or None.

    The registered function times the call, holds on the zero ring without
    running the predicate ("reduced"), and makes the witness a verdict.
    """
    def register(find_witness: Callable[[FiniteRing], Optional[dict]]):
        @functools.wraps(find_witness)
        def check(R: FiniteRing) -> PropertyVerdict:
            t0 = time.perf_counter()
            reduced = R.order == 1      # the zero ring has every property
            witness = None if reduced else find_witness(R)
            return PropertyVerdict(name, witness is None, witness,
                                   time.perf_counter() - t0,
                                   "reduced" if reduced else "exhaustive")
        PROPERTY_CHECKS[name] = check
        return check
    return register


# ---------------------------------------------------------------------------
# Triple predicates: one table of (premise, conclusion) forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleForm:
    """(a, b, c) is a witness when both terms hold.

    A term (S, p) holds when the product p lies in the element set S; p is
    bracketed from the left, so "bac" is (ba)c and "ab" ignores c.  ``roles``
    names a, b and c in the witness.
    """
    premise: tuple[str, str]
    conclusion: tuple[str, str]
    roles: tuple[str, str, str] = ("a", "b", "c")


#: Each triple predicate fails exactly when its forms have a witness.  The
#: first form gives the verdict's witness and is the one re-verified; the
#: others are equivalent formulations that must agree with it.
TRIPLE_FORMS: dict[str, tuple[TripleForm, ...]] = {
    # abc = 0 implies bac = 0
    "symmetric": (TripleForm(("zero", "abc"), ("nonzero", "bac")),),
    # ab = 0 implies aRb = 0
    "semicommutative": (TripleForm(("zero", "ab"), ("nonzero", "acb"),
                                   ("a", "b", "r")),),
    # abc = 0 implies bac nilpotent
    "gws": (TripleForm(("zero", "abc"), ("not_nil", "bac")),),
    # abc nilpotent implies acb (equivalently bac) nilpotent
    "weak_symmetric": (TripleForm(("nil", "abc"), ("not_nil", "acb")),
                       TripleForm(("nil", "abc"), ("not_nil", "bac"))),
    # abc nilpotent implies bac (equivalently acb, cba) in J(R)
    "nj_symmetric": (TripleForm(("nil", "abc"), ("not_jac", "bac")),
                     TripleForm(("nil", "abc"), ("not_jac", "acb")),
                     TripleForm(("nil", "abc"), ("not_jac", "cba"))),
}

_SETS: dict[str, Callable[[FiniteRing], np.ndarray]] = {
    "zero": lambda R: np.arange(R.order) == R.zero,
    "nil": inv.nilpotents_bool,
    "not_jac": lambda R: ~inv.jacobson_bool(R),
}

#: Element sets that are the complement of another.  Their tables are the
#: other's with every bit flipped, row for row, so they share its classes.
_COMPLEMENTS = {"nonzero": "zero", "not_nil": "nil"}

#: Bytes of temporaries per block of a scan.
_BLOCK_BYTES = 1 << 18

#: Element sets that a rotated product stays in: xy is nilpotent exactly
#: when yx is, since (yx)^(k+1) = y(xy)^k x.
_ROTATION_INVARIANT = frozenset({"nil", "not_nil"})


def _members(R: FiniteRing, name: str) -> np.ndarray:
    """The element set as a boolean vector, memoized on the ring."""
    def compute():
        if name in _COMPLEMENTS:
            members = ~_members(R, _COMPLEMENTS[name])
        else:
            members = _SETS[name](R)
        members.setflags(write=False)
        return members
    return inv._cached(R, f"set_{name}", compute)


def _holds(R: FiniteRing, term: tuple[str, str], a, b, c):
    """The term at (a, b, c); numpy arrays broadcast to a plane.  Each
    product x*y is read from the flattened table at x*n + y."""
    name, word = term
    val = {"a": a, "b": b, "c": c}
    x = val[word[0]]
    for ch in word[1:]:
        x = R.mul.take(x * R.order + val[ch])
    return _members(R, name)[x]


def _form_plane(R: FiniteRing, form: TripleForm, a, b, c):
    """Whether (a, b, c) is a witness of the form; arrays broadcast."""
    return (_holds(R, form.premise, a, b, c)
            & _holds(R, form.conclusion, a, b, c))


@dataclass(frozen=True)
class _Reading:
    """A term as a scan reads it: ``word`` is the term's product or, for a
    rotation-invariant set, a rotation of it, read as (xy)z through the row
    table or as x(yz) through the column table."""
    name: str
    word: str
    column: bool

    @property
    def along(self) -> str:
        """The letter the table packs the term's planes along."""
        return self.word[0] if self.column else self.word[-1]


def _readings(term: tuple[str, str]) -> list[_Reading]:
    """Every reading of the term not packed along a; row tables first."""
    name, word = term
    words = [word]
    if name in _ROTATION_INVARIANT:
        words += [word[i:] + word[:i] for i in range(1, len(word))]
    return [r for column in (False, True) for w in words
            if (r := _Reading(name, w, column)).along != "a"]


@functools.cache
def _scan_plan(form: TripleForm) -> tuple[_Reading, _Reading]:
    """Readings of the premise and conclusion packed along one letter.

    The conclusion's first reading fixes the letter and the premise takes
    its first reading along it: readings come through the row table before
    the column table, the written product before its rotations.
    """
    for q in _readings(form.conclusion):
        for p in _readings(form.premise):
            if p.along == q.along:
                return p, q
    raise AssertionError(f"no common packing for {form}")


def _row_chunks(n: int, count: Optional[int] = None) -> list[slice]:
    """Row slices of a count x n gather (n x n by default) whose intp index
    fits _BLOCK_BYTES."""
    count = n if count is None else count
    step = max(1, _BLOCK_BYTES // (8 * n))
    return [slice(r, min(r + step, count)) for r in range(0, count, step)]


def _packed_rows(count: int, n: int,
                 bits: Callable[[slice], np.ndarray]) -> np.ndarray:
    """The count x n boolean table whose rows are bits(rows), taken in row
    chunks, in little-endian uint64 words: bit j of byte k is x = 8k + j,
    and the bits past x = n - 1 are zero."""
    out = np.zeros((count, -(-n // 64)), dtype="<u8")
    raw = out.view(np.uint8)
    for rows in _row_chunks(n, count):
        raw[rows, :-(-n // 8)] = np.packbits(bits(rows), axis=1,
                                             bitorder="little")
    return out


def _column_blocks(n: int) -> list[slice]:
    """Row slices of R.mul that a column table is packed from: the whole
    table when a row is one 64-bit word, else heights that are multiples
    of 8 whose lookups fit _BLOCK_BYTES.  A block of h rows makes lookups
    of h/8 rows at a time, each through an intp index into a uint8 array
    beside a uint8 accumulator: 10 bytes a cell."""
    step = n if n <= 64 else 8 * max(1, _BLOCK_BYTES // (10 * n))
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


def _word_table(R: FiniteRing, name: str, column: bool) -> np.ndarray:
    """Row y holds bits{x : y*x in S}, packed by _packed_rows, or for the
    column table bits{x : x*y in S}, in the same layout.

    A column table is read along rows of R.mul, not down its columns.  Byte
    k of row y is the OR over j < 8 of bit j set when x = 8k + j has x*y in
    S: for a block of rows x, lookup j reads rows x = j, j + 8, ... of the
    block in a copy of S shifted left by j, and the ORed bytes, one row per
    k, are written transposed into the block's bytes of every row y.
    """
    members = _members(R, name)
    n = R.order
    if not column:
        return _packed_rows(n, n, lambda rows: members.take(R.mul[rows]))
    shifted = members.astype(np.uint8) << np.arange(8, dtype=np.uint8)[:, None]
    out = np.zeros((n, -(-n // 64)), dtype="<u8")
    raw = out.view(np.uint8)
    for rows in _column_blocks(n):
        acc = shifted[0].take(R.mul[rows.start:rows.stop:8])
        for j in range(1, 8):
            x = R.mul[rows.start + j:rows.stop:8]
            acc[:len(x)] |= shifted[j].take(x)
        raw[:, rows.start // 8:rows.start // 8 + len(acc)] = acc.T
    return out


def _row_classes(R: FiniteRing,
                 reading: _Reading) -> tuple[np.ndarray, np.ndarray]:
    """(U, cls): the reading's table is U[cls], row for row.

    The rows of U are distinct: a lexicographic sort of the words puts
    equal rows side by side, and a compare of neighbours numbers them.  A
    table of one word per row is its own U, with cls the identity, since
    sorting it costs more than its classes would save.  The complement of
    a set takes the classes of its set's table: U flipped, with the bits
    past x = n - 1 cleared, and the same cls.
    """
    def compute():
        n = R.order
        if reading.name in _COMPLEMENTS:
            rows, cls = _row_classes(
                R, replace(reading, name=_COMPLEMENTS[reading.name]))
            rows = ~rows
            if n % 64:
                rows[:, -1] &= np.uint64((1 << n % 64) - 1)
            rows.setflags(write=False)
            return rows, cls
        rows = _word_table(R, reading.name, reading.column)
        if rows.shape[1] == 1:
            cls = np.arange(n, dtype=np.min_scalar_type(n - 1))
        else:
            order = np.lexsort(rows.T)
            rows = rows[order]
            new = np.ones(n, dtype=bool)
            np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
            ids = np.cumsum(new) - 1
            cls = np.empty(n, dtype=np.min_scalar_type(ids[-1]))
            cls[order] = ids
            rows = rows[new]
        rows.setflags(write=False)
        cls.setflags(write=False)
        return rows, cls
    side = "col" if reading.column else "row"
    return inv._cached(R, f"{side}classes_{reading.name}", compute)


def _bad_pairs(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """bad[i, j]: rows p_rows[i] and q_rows[j] share a set bit.

    Rows i are taken in chunks whose AND fits _BLOCK_BYTES; the words of a
    row run along the middle axis, so ``any`` ORs whole rows of j at once.
    """
    bad = np.empty((len(p_rows), len(q_rows)), dtype=bool)
    q_words = np.ascontiguousarray(q_rows.T)
    step = max(1, _BLOCK_BYTES // q_rows.nbytes)
    for i in range(0, len(p_rows), step):
        (p_rows[i:i + step, :, None] & q_words).any(axis=1,
                                                     out=bad[i:i + step])
    return bad


def _plane_keys(R: FiniteRing, reading: _Reading, keys: np.ndarray,
                rows: slice) -> np.ndarray:
    """keys[y] for the row y that row t of the reading's plane of a reads,
    for a in rows: [a, t], t running over the third letter, or [a, 1] for a
    two-letter product, which does not depend on it."""
    rest = reading.word.replace(reading.along, "")     # the table's row index
    if rest == "a":
        return keys[rows, None]
    if rest[0] == "a":
        return keys.take(R.mul[rows])
    return keys.take(R.mul[:, rows]).T


def _block_hits(R: FiniteRing, form: TripleForm):
    """(a0, hits) per block of a: hits[i] says whether a = a0 + i has a
    witness of the form.

    Row t of a's packed plane is the AND of a premise row and a conclusion
    row, and whether it has a set bit depends only on the classes of the
    two rows: each (a, t) looks up its pair of classes in ``_bad_pairs``.
    Rows of one word are their own classes, so each (a, t) ANDs the two
    words instead.
    """
    p, q = _scan_plan(form)
    p_rows, p_cls = _row_classes(R, p)
    q_rows, q_cls = _row_classes(R, q)
    if p_rows.shape[1] == 1:
        for rows in _row_chunks(R.order):
            yield rows.start, (_plane_keys(R, p, p_rows[:, 0], rows)
                               & _plane_keys(R, q, q_rows[:, 0], rows)
                               ).any(axis=1)
        return
    bad = _bad_pairs(p_rows, q_rows).ravel()
    # bad's flat index, split into a premise part and a conclusion part
    key = np.min_scalar_type(bad.size - 1)
    p_keys = np.multiply(p_cls, len(q_rows), dtype=key)
    q_keys = q_cls.astype(key, copy=False)
    for rows in _row_chunks(R.order):
        pair = (_plane_keys(R, p, p_keys, rows)
                + _plane_keys(R, q, q_keys, rows))
        yield rows.start, bad.take(pair).any(axis=1)


def _first_witness(R: FiniteRing, form: TripleForm) -> Optional[dict]:
    """The lexicographically least witness of the form, or None.

    The first block with a hit gives the least a; the boolean plane of
    that a gives the least (b, c).
    """
    for a0, hits in _block_hits(R, form):
        if hits.any():
            a = a0 + int(np.argmax(hits))
            return dict(zip(form.roles, (a, *_least_bc(R, form, a))))
    return None


def _least_bc(R: FiniteRing, form: TripleForm, a: int) -> tuple[int, int]:
    """The least (b, c) on the boolean plane of a, read in row chunks."""
    idx = np.arange(R.order)
    for rows in _row_chunks(R.order):
        plane = _form_plane(R, form, a, idx[rows, None], idx)
        if plane.any():
            b, c = _first_true(plane)
            return rows.start + b, c
    raise InternalCheckError(
        f"packed and boolean planes disagree on {R.name} at a={a}: {form}")


def _form_witnesses(R: FiniteRing, name: str) -> tuple[Optional[dict], ...]:
    """The least witness of each form, memoized: the rule suite asks for
    the forms of a ring and for its verdict."""
    def compute():
        forms = TRIPLE_FORMS[name]
        # classes before the first block: building the tables (J(R) above
        # all) takes the largest temporaries of a scan, and freed before any
        # block exists they leave no holes under the blocks that would raise
        # peak memory
        for f in forms:
            for reading in _scan_plan(f):
                _row_classes(R, reading)
        return tuple(_first_witness(R, f) for f in forms)
    return inv._cached(R, f"forms_{name}", compute)


def _triple_verdict(R: FiniteRing, name: str,
                    witnesses: tuple[Optional[dict], ...]) -> Optional[dict]:
    """The first form's witness; all forms must agree."""
    if len({w is None for w in witnesses}) != 1:
        forms = " ".join(f"{f.conclusion[1]}={w}" for f, w in
                         zip(TRIPLE_FORMS[name], witnesses))
        raise InternalCheckError(
            f"{name} formulations disagree on {R.name}: {forms}")
    return witnesses[0]


# ---------------------------------------------------------------------------
# Zero-annihilation symmetry conditions
# ---------------------------------------------------------------------------

@_property("symmetric")
def is_symmetric(R: FiniteRing) -> Optional[dict]:
    """abc = 0 implies bac = 0."""
    return _triple_verdict(R, "symmetric", _form_witnesses(R, "symmetric"))


@_property("semicommutative")
def is_semicommutative(R: FiniteRing) -> Optional[dict]:
    """ab = 0 implies aRb = 0."""
    return _triple_verdict(R, "semicommutative",
                           _form_witnesses(R, "semicommutative"))


def weak_symmetric_forms(R: FiniteRing) -> tuple[Optional[dict], Optional[dict]]:
    """Witnesses for the two weak-symmetry formulations (acb / bac)."""
    return _form_witnesses(R, "weak_symmetric")


@_property("weak_symmetric")
def is_weak_symmetric(R: FiniteRing) -> Optional[dict]:
    """abc nilpotent implies acb nilpotent (equivalently bac nilpotent)."""
    return _triple_verdict(R, "weak_symmetric", weak_symmetric_forms(R))


@_property("gws")
def is_gws(R: FiniteRing) -> Optional[dict]:
    """abc = 0 implies bac nilpotent."""
    return _triple_verdict(R, "gws", _form_witnesses(R, "gws"))


def nj_symmetric_forms(R: FiniteRing) -> tuple[Optional[dict], ...]:
    """Witnesses for the three equivalent formulations (bac / acb / cba)."""
    return _form_witnesses(R, "nj_symmetric")


@_property("nj_symmetric")
def is_nj_symmetric(R: FiniteRing) -> Optional[dict]:
    """abc nilpotent implies bac in the Jacobson radical.

    All three equivalent formulations (bac, acb, cba) are evaluated and must
    agree; disagreement is an implementation bug.
    """
    return _triple_verdict(R, "nj_symmetric", nj_symmetric_forms(R))


# ---------------------------------------------------------------------------
# Ideal-theoretic conditions
# ---------------------------------------------------------------------------

def _two_sided_witness(R: FiniteRing, ideal_mask: int,
                       right_mult: bool) -> Optional[dict]:
    """First (m, r) with m*r (or r*m) escaping the one-sided ideal."""
    hit = inv._right_escape(R.mul if right_mult else R.mul.T,
                            mask_to_bool(ideal_mask, R.order))
    if hit is None:
        return None
    return {"ideal": mask_indices(ideal_mask), "m": hit[0], "r": hit[1]}


def _first_one_sided(R: FiniteRing, ideals: list,
                     right_mult: bool) -> Optional[dict]:
    """The witness of the first of ``ideals`` (left ideals, or right ones
    when not ``right_mult``, each containing J(R)) that is not two-sided.

    Each ideal is decided on R/J(R); only the first that fails there is
    scanned on R, for its least (m, r).
    """
    for m in ideals:
        if inv._two_sided_mod_jacobson(R, m, opposite=not right_mult):
            continue
        w = _two_sided_witness(R, m, right_mult)
        if w is None:
            raise InternalCheckError(f"{R.name}: an ideal is two-sided in "
                                     "R but not modulo J(R)")
        return w
    return None


@_property("left_quasi_duo")
def is_left_quasi_duo(R: FiniteRing) -> Optional[dict]:
    """Every maximal left ideal is two-sided."""
    return _first_one_sided(R, inv.maximal_left_ideals(R), right_mult=True)


@_property("right_quasi_duo")
def is_right_quasi_duo(R: FiniteRing) -> Optional[dict]:
    """Every maximal right ideal is two-sided."""
    return _first_one_sided(R, inv.maximal_right_ideals(R), right_mult=False)


@_property("melt")
def is_melt(R: FiniteRing) -> Optional[dict]:
    """Every maximal essential left ideal is two-sided; a maximal left
    ideal is essential when it contains the socle."""
    socle = inv._socle(R)
    return _first_one_sided(
        R, [m for m in inv.maximal_left_ideals(R) if socle & ~m == 0],
        right_mult=True)


# ---------------------------------------------------------------------------
# Idempotents, units and the Jacobson radical
# ---------------------------------------------------------------------------

def _reachable_by_sums(R: FiniteRing, left: np.ndarray,
                       right: np.ndarray) -> np.ndarray:
    """Boolean vector of elements expressible as l + r, l in left, r in right."""
    li = np.flatnonzero(left)
    ri = np.flatnonzero(right)
    out = np.zeros(R.order, dtype=bool)
    if len(li) and len(ri):
        out[R.add[np.ix_(li, ri)].ravel()] = True
    return out


@_property("abelian")
def is_abelian(R: FiniteRing) -> Optional[dict]:
    """All idempotents are central."""
    idem = inv.idempotents_bool(R)
    central = inv.center_bool(R)
    bad = idem & ~central
    if bad.any():
        e = int(np.argmax(bad))
        r = int(np.argmax(R.mul[e] != R.mul[:, e]))
        return {"e": e, "r": r}
    return None


@_property("clean")
def is_clean(R: FiniteRing) -> Optional[dict]:
    """Every element is idempotent + unit."""
    reach = _reachable_by_sums(R, inv.idempotents_bool(R), inv.units_bool(R))
    if reach.all():
        return None
    return {"a": int(np.argmax(~reach))}


def _least_outside_j(R: FiniteRing, x: np.ndarray) -> Optional[dict]:
    """{"a": the least a with x[a] outside J(R)}, or None."""
    out = ~inv.jacobson_bool(R)[x]
    return {"a": int(np.argmax(out))} if out.any() else None


# In a finite ring some power x^m of each x is idempotent, and when x is
# idempotent modulo J(R), x^m - x lies in J(R).  So x is idempotent modulo
# J(R) exactly when x - e is in J(R) for an idempotent e, and e can be a
# power of x.  That makes both J tests below one lookup per element.

@_property("j_clean")
def is_j_clean(R: FiniteRing) -> Optional[dict]:
    """Every element is idempotent + radical element.

    Some e + j is a exactly when a^2 - a is in J(R): e + j is idempotent
    modulo J(R), and conversely the idempotent power e of a has a - e in
    J(R).
    """
    sq = R.mul.diagonal()
    return _least_outside_j(R, R.add[sq, R.neg_table()])


# Exchange is decided, and semiperiodicity below, on blocks of a at once.
# Blocks start at one a and grow fourfold up to what fits _BLOCK_BYTES, so
# an early witness costs few elements and a full scan few blocks; the first
# a of the first block that fails is the witness.

def _a_blocks(count: int, item_bytes: int):
    """Slices of range(count) of 1, 4, 16, ... items, each at most the
    number of item_bytes that fit _BLOCK_BYTES (and at least one)."""
    cap = max(1, _BLOCK_BYTES // item_bytes)
    start, size = 0, 1
    while start < count:
        stop = min(start + size, count)
        yield slice(start, stop)
        start, size = stop, min(4 * size, cap)


def _one_minus(R: FiniteRing) -> np.ndarray:
    """1 - x, per element."""
    return R.add[R.one, R.neg_table()]


def _left_multiples(R: FiniteRing, xs: np.ndarray) -> np.ndarray:
    """Column i: which elements lie in R*xs[i], the values in column xs[i]
    of R.mul, scattered from row chunks of R.mul within _BLOCK_BYTES."""
    out = np.zeros((R.order, len(xs)), dtype=bool)
    at = np.arange(len(xs), dtype=np.int32)
    for rows in _row_chunks(len(xs), R.order):
        flat = R.mul[rows].take(xs, axis=1)
        flat *= len(xs)
        flat += at              # out[v, i] is out.ravel()[v*b + i], b <= 2n
        out.ravel()[flat] = True
    return out


@_property("exchange")
def is_exchange(R: FiniteRing) -> Optional[dict]:
    """Every a has an idempotent e with e in Ra and 1-e in R(1-a).

    Every finite ring is semiperfect, hence exchange (Nicholson 1977), so
    this scans every pair {a, 1 - a}; the witness is kept as a check.
    """
    one_minus = _one_minus(R)
    idem = np.flatnonzero(inv.idempotents_bool(R))
    # e works for a exactly when 1 - e works for 1 - a, so a fails exactly
    # when 1 - a does, and the least a that fails is the lesser of its pair
    lesser = np.flatnonzero(np.arange(R.order) <= one_minus)
    for rows in _a_blocks(len(lesser), 4 * R.order):
        a = lesser[rows]
        both = _left_multiples(R, np.concatenate([a, one_minus[a]]))
        ok = (both[idem, :len(a)] & both[one_minus[idem], len(a):]).any(axis=0)
        if not ok.all():
            return {"a": int(a[np.argmin(ok)])}
    return None


def _exchange_at(R: FiniteRing, a: int) -> bool:
    """Whether some idempotent e has e in Ra and 1-e in R(1-a)."""
    one_minus = _one_minus(R)
    ra = set(R.mul[:, a].tolist())
    r1a = set(R.mul[:, one_minus[a]].tolist())
    return any(e in ra and int(one_minus[e]) in r1a
               for e in np.flatnonzero(inv.idempotents_bool(R)).tolist())


@_property("j_quasipolar")
def is_j_quasipolar(R: FiniteRing) -> Optional[dict]:
    """Every a has an idempotent f in its double commutant with a + f in J.

    Such an f exists exactly when a^2 + a is in J(R): a + f in J(R) makes
    -a idempotent modulo J(R), and conversely the idempotent power f of -a
    lies in the double commutant and has a + f in J(R).
    """
    sq = R.mul.diagonal()
    return _least_outside_j(R, R.add[sq, np.arange(R.order)])


def _j_quasipolar_at(R: FiniteRing, a: int) -> bool:
    """Whether some idempotent f commutes with everything that commutes
    with a and has a + f in J(R)."""
    comm_a = R.mul[a] == R.mul[:, a]
    jac = inv.jacobson_bool(R)
    return any(jac[R.add[a, f]] and (R.mul[f] == R.mul[:, f])[comm_a].all()
               for f in np.flatnonzero(inv.idempotents_bool(R)).tolist())


@_property("local")
def is_local(R: FiniteRing) -> Optional[dict]:
    """Exactly one maximal left ideal."""
    ms = inv.maximal_left_ideals(R)
    if len(ms) == 1:
        return None
    return {"ideals": [mask_indices(m) for m in ms[:2]]}


# ---------------------------------------------------------------------------
# Regularity and periodicity
# ---------------------------------------------------------------------------

@_property("regular")
def is_regular(R: FiniteRing) -> Optional[dict]:
    """a in aRa for every a."""
    for a in range(R.order):
        if not (R.mul[R.mul[a], a] == a).any():
            return {"a": a}
    return None


@_property("strongly_regular")
def is_strongly_regular(R: FiniteRing) -> Optional[dict]:
    """a in a^2 R for every a."""
    for a in range(R.order):
        if not (R.mul[R.mul[a, a]] == a).any():
            return {"a": a}
    return None


def _power_windows(R: FiniteRing,
                   a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pw, valid): pw[t, i] = a[i]^(t+1) where valid[t, i], which holds for
    t < s+2k-1 when the powers of a[i] first repeat at a^(s+k) = a^s; the
    rest of the column is padding.

    The powers of the whole block are walked at once, one gather per
    exponent.  first[i, x] is the exponent at which x first appeared among
    the powers of a[i]; once a[i] has repeated, every later power was seen
    before, so the walk ends at the first exponent that no a[i] sees first.
    """
    b, n = len(a), R.order
    first = np.zeros(b * n, dtype=np.min_scalar_type(n + 1))
    at = np.arange(0, b * n, n)         # first[i, x] is first[at[i] + x]
    first[at + a] = 1
    walk, seen = [a], []                # seen[j][i]: first[i, a[i]^(j+2)]
    while not seen or np.count_nonzero(seen[-1]) < b:
        cur = R.mul[walk[-1], a]
        where = at + cur
        seen.append(first[where])
        first[where] = len(walk) + 1    # overwrites only repeated a[i]
        walk.append(cur)
    seen = np.array(seen)
    cols = np.arange(b)
    rep = np.argmax(seen != 0, axis=0)
    t = rep + 2                         # s + k
    k = t - seen[rep, cols]
    e = np.arange((t + k).max() - 1)[:, None]
    # from a^(s+k) on, the powers repeat with period k
    src = np.where(e < t - 1, e, np.minimum(e - k, len(walk) - 1))
    return np.array(walk)[src, cols], e < t + k - 1


@_property("semiperiodic")
def is_semiperiodic(R: FiniteRing) -> Optional[dict]:
    """a^q - a^p nilpotent, q - p odd, for each a outside J(R) union Z(R).

    The powers a, a^2, ... first repeat at a^(s+k) = a^s (preperiod s,
    period k), and from a^s on they repeat with period 2k without changing
    the parity of the exponent, so exponents 1 .. s+2k-1 already give every
    (power, parity) pair.  a^q - a^p is nilpotent exactly when a^p - a^q
    is, so it is enough to take q even and p odd.  A block of a takes its
    windows from ``_power_windows`` and tests every such pair in one padded
    plane, in chunks of a within _BLOCK_BYTES.
    """
    outside = np.flatnonzero(~(inv.jacobson_bool(R) | inv.center_bool(R)))
    nil = inv.nilpotents_bool(R)
    neg = R.neg_table()
    for rows in _a_blocks(len(outside), 8 * R.order):
        pw, valid = _power_windows(R, outside[rows])
        q, minus_p = pw[1::2, None], neg[pw[None, 0::2]]   # q even, p odd
        pair = valid[1::2, None] & valid[None, 0::2]
        for sub in _row_chunks(q.shape[0] * minus_p.shape[1], pw.shape[1]):
            ok = (nil[R.add[q[..., sub], minus_p[..., sub]]]
                  & pair[..., sub]).any(axis=(0, 1))
            if not ok.all():
                return {"a": int(outside[rows][sub][np.argmin(ok)])}
    return None


def _semiperiodic_at(R: FiniteRing, a: int) -> bool:
    """Whether a^q - a^p is nilpotent for some exponents q - p odd."""
    pw = [a]
    while (cur := int(R.mul[pw[-1], a])) not in pw:
        pw.append(cur)
    pw = np.array(pw + pw[pw.index(cur):])   # exponents 1 .. s+2k-1
    t = np.arange(len(pw))
    odd = (t[:, None] - t[None, :]) % 2 == 1
    diff = R.add[pw[:, None], R.neg_table()[pw][None, :]]
    return bool((inv.nilpotents_bool(R)[diff] & odd).any())


# ---------------------------------------------------------------------------
# Radical comparison and commutativity
# ---------------------------------------------------------------------------

@_property("two_primal")
def is_2_primal(R: FiniteRing) -> Optional[dict]:
    """N(R) equals the lower nilradical."""
    lower = inv.lower_nilradical(R)
    bad = inv.nilpotents_bool(R).copy()
    for i in mask_indices(lower):
        bad[i] = False
    if bad.any():
        return {"a": int(np.argmax(bad))}
    return None


@_property("reduced")
def is_reduced(R: FiniteRing) -> Optional[dict]:
    nil = inv.nilpotents_bool(R)
    bad = nil.copy()
    bad[R.zero] = False
    if bad.any():
        return {"a": int(np.argmax(bad))}
    return None


@_property("semiprime")
def is_semiprime(R: FiniteRing) -> Optional[dict]:
    """aRa = 0 implies a = 0."""
    for a in range(R.order):
        if a == R.zero:
            continue
        if (R.mul[R.mul[a], a] == R.zero).all():
            return {"a": a}
    return None


@_property("domain")
def is_domain(R: FiniteRing) -> Optional[dict]:
    zd = R.mul == R.zero
    zd[R.zero, :] = False
    zd[:, R.zero] = False
    if zd.any():
        a, b = _first_true(zd)
        return {"a": a, "b": b}
    return None


@_property("commutative")
def is_commutative(R: FiniteRing) -> Optional[dict]:
    """The least a outside the memoized center, and the least b that a
    does not commute with."""
    outside = ~inv.center_bool(R)
    if not outside.any():
        return None
    a = int(np.argmax(outside))
    return {"a": a, "b": int(np.argmax(R.mul[a] != R.mul[:, a]))}


# ---------------------------------------------------------------------------
# Lookup and witness re-verification
# ---------------------------------------------------------------------------

def check_property(R: FiniteRing, name: str) -> PropertyVerdict:
    try:
        fn = PROPERTY_CHECKS[name]
    except KeyError:
        raise UnknownPropertyError(f"unknown property: {name!r}") from None
    return inv._cached(R, f"prop_{name}", lambda: fn(R))


def all_verdicts(R: FiniteRing) -> dict[str, PropertyVerdict]:
    return {name: check_property(R, name) for name in PROPERTY_CHECKS}


def reverify_witness(R: FiniteRing, v: PropertyVerdict) -> bool:
    """Plug a failure witness back into the definitional formula."""
    if v.holds or v.witness is None:
        return False
    w = v.witness
    mul = R.mul
    nil = inv.nilpotents_bool(R)
    jac = inv.jacobson_bool(R)
    z = R.zero
    name = v.name
    if name == "commutative":
        return mul[w["a"], w["b"]] != mul[w["b"], w["a"]]
    if name in TRIPLE_FORMS:
        form = TRIPLE_FORMS[name][0]
        return bool(_form_plane(R, form, *(w[r] for r in form.roles)))
    if name in ("left_quasi_duo", "melt"):
        ideal = set(w["ideal"])
        return w["m"] in ideal and int(mul[w["m"], w["r"]]) not in ideal
    if name == "right_quasi_duo":
        ideal = set(w["ideal"])
        return w["m"] in ideal and int(mul[w["r"], w["m"]]) not in ideal
    if name == "abelian":
        e, r = w["e"], w["r"]
        return mul[e, e] == e and mul[e, r] != mul[r, e]
    if name == "reduced":
        return bool(nil[w["a"]] and w["a"] != z)
    if name == "domain":
        a, b = w["a"], w["b"]
        return a != z and b != z and mul[a, b] == z
    if name == "semiprime":
        a = w["a"]
        return a != z and bool((mul[mul[a], a] == z).all())
    if name == "clean":
        reach = _reachable_by_sums(R, inv.idempotents_bool(R),
                                   inv.units_bool(R))
        return not reach[w["a"]]
    if name == "j_clean":
        reach = _reachable_by_sums(R, inv.idempotents_bool(R), jac)
        return not reach[w["a"]]
    if name == "exchange":
        return not _exchange_at(R, w["a"])
    if name == "j_quasipolar":
        return not _j_quasipolar_at(R, w["a"])
    if name == "semiperiodic":
        a = w["a"]
        return not (jac[a] or inv.center_bool(R)[a]
                    or _semiperiodic_at(R, a))
    # remaining witnesses assert nonexistence over an element-indexed search;
    # re-running the per-element check is the faithful recheck
    fresh = PROPERTY_CHECKS[name](R)
    return (not fresh.holds) and fresh.witness == v.witness
