"""Finite unital rings as explicit operation tables.

Elements of a ring of order n are the dense indices 0..n-1; addition and
multiplication are n x n lookup tables.  Everything downstream (radicals,
predicates, the rule harness) works against this one representation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

#: Hard cap on ring order accepted from constructions.  Keeps the table
#: memory bounded; raise at your own risk.
MAX_ORDER = 4096

#: Bound on one row block's temporaries, here and in ``invariants``.
_BLOCK_BYTES = 1 << 20


class RingError(Exception):
    """Base class for all ringlab errors."""


class StructureError(RingError):
    """Malformed tables (wrong shape, out-of-range entries).

    Distinct from an axiom violation: a structurally broken table cannot
    even be interpreted as a binary operation.
    """


class SizeError(RingError):
    """A construction would exceed the maximum supported order."""


class BadArgumentError(RingError, ValueError):
    """A size, degree, index, cap or budget is below its least allowed value,
    or a rule id or corpus line names nothing ringlab knows."""


# ---------------------------------------------------------------------------
# Subset masks
#
# A subset of ring elements is a Python int used as a bit-vector: bit i set
# iff element i is a member.  Ints are hashable (ideal dedup), support O(1)
# membership, and convert cheaply to numpy boolean arrays for vector scans.
# ---------------------------------------------------------------------------

def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def mask_indices(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_contains(mask: int, i: int) -> bool:
    return bool((mask >> int(i)) & 1)


def mask_from_bool(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(),
                          "little")


def mask_to_bool(mask: int, n: int) -> np.ndarray:
    mask = int(mask)
    if mask >> n:
        raise IndexError(f"mask has members outside 0..{n - 1}")
    raw = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def mask_size(mask: int) -> int:
    return int(mask).bit_count()


#: Element names, or a zero-argument callable that makes them on first read.
Labels = Union[Sequence[str], Callable[[], Sequence[str]], None]


class FiniteRing:
    """A finite associative unital ring given by explicit tables.

    Immutable after construction; all tables are read-only numpy arrays.
    ``labels`` is a sequence of element names, or a zero-argument callable
    that makes it when ``labels`` is first read.  Values memoized in
    ``_cache``, and the labels, are computed without a lock, so threads
    sharing a ring may compute one of them twice.  One such thread is the
    CLI's fingerprint hasher (``cli._with_fingerprint``): it fills
    ``_fingerprint`` beside the main thread's work on the ring the command
    prints, and the main thread reads the digest only after joining it.
    The CLI also fills ``_fingerprint`` from its expression index, before
    any thread starts, so that a ring it has printed before is not hashed.
    A ring never starts a thread of its own.
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "_labels", "name",
                 "_neg", "_fingerprint", "_cache", "__weakref__")

    def __init__(self, add, mul, zero: int, one: int, name: str = "",
                 labels: Labels = None):
        add = np.ascontiguousarray(add, dtype=np.int32)
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        if add.ndim != 2 or add.shape[0] != add.shape[1]:
            raise StructureError(f"add table is not square: shape {add.shape}")
        n = add.shape[0]
        if n == 0:
            raise StructureError("empty carrier")
        if mul.shape != (n, n):
            raise StructureError(
                f"mul table shape {mul.shape} does not match order {n}")
        # a negative entry reads as 2**31 or more without its sign
        if add.view(np.uint32).max() >= n:
            raise StructureError("add table entry out of range")
        if mul.view(np.uint32).max() >= n:
            raise StructureError("mul table entry out of range")
        if not (0 <= zero < n) or not (0 <= one < n):
            raise StructureError("zero/one index out of range")
        if zero == one and n > 1:
            raise StructureError("zero == one in a ring of order > 1")
        add.setflags(write=False)
        mul.setflags(write=False)
        self.order = n
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.name = name
        self._labels = labels if callable(labels) else self._checked(labels)
        self._neg = None
        self._fingerprint = None
        self._cache = {}

    def __repr__(self) -> str:
        return f"FiniteRing({self.name or '?'}, order={self.order})"

    def _checked(self, labels: Optional[Sequence[str]]) -> Optional[list]:
        if labels is not None and len(labels) != self.order:
            raise StructureError("label count does not match order")
        return None if labels is None else list(labels)

    @property
    def labels(self) -> Optional[list[str]]:
        """Element names, or None when elements are named by index."""
        labels = self._labels
        if callable(labels):
            labels = self._labels = self._checked(labels())
        return labels

    def elements(self) -> range:
        return range(self.order)

    def neg_table(self) -> np.ndarray:
        """Per-element additive inverse, as a lookup vector.  The rows of
        the sum table are compared with zero in blocks within
        ``_BLOCK_BYTES``, so the boolean plane of the whole table is never
        held."""
        if self._neg is None:
            n = self.order
            step = max(1, _BLOCK_BYTES // n)    # one bool per cell
            neg = np.empty(n, dtype=np.int32)
            for i in range(0, n, step):
                neg[i:i + step] = np.argmax(self.add[i:i + step] == self.zero,
                                            axis=1)
            neg.setflags(write=False)
            self._neg = neg
        return self._neg

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def same_tables(self, other: "FiniteRing") -> bool:
        """Table-level equality (not isomorphism)."""
        return (self.order == other.order and self.zero == other.zero
                and self.one == other.one
                and bool(np.array_equal(self.add, other.add))
                and bool(np.array_equal(self.mul, other.mul)))


def neg(R: FiniteRing, a: int) -> int:
    return int(R.neg_table()[a])


def sub(R: FiniteRing, a: int, b: int) -> int:
    return int(R.add[a, R.neg_table()[b]])


def power(R: FiniteRing, a: int, k: int) -> int:
    """a**k with a**0 = 1."""
    if k < 0:
        raise ValueError("negative exponent")
    acc = R.one
    for _ in range(k):
        acc = int(R.mul[acc, a])
    return acc


@dataclass
class AxiomReport:
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _first_true(mask2d: np.ndarray) -> tuple:
    """Lexicographically least True coordinate of a boolean array."""
    flat = int(np.argmax(mask2d.reshape(-1)))
    return tuple(int(x) for x in np.unravel_index(flat, mask2d.shape))


def _span(add: np.ndarray, members: np.ndarray,
          candidates: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Grow the additive subgroup ``members`` by each candidate outside it,
    in order, by one gather of h + k*g; returns the span and the candidates
    taken.  The walk through g's multiples k*g ends at its first repeat, so a
    table that is not a group still ends."""
    members, gens = members.copy(), []
    candidates = np.asarray(candidates, dtype=np.intp)
    while len(candidates := candidates[~members[candidates]]):
        g = m = int(candidates[0])
        gens.append(g)
        multiples = {m}
        while (m := int(add[m, g])) not in multiples:
            multiples.add(m)
        members[add[np.ix_(np.flatnonzero(members), list(multiples))]] = True
    return members, gens


#: The triple laws in report order: where the tables break each at (a, b, c).
_TRIPLE_LAWS = {
    "additive associativity":
        lambda add, mul, a, b, c: add[add[a, b], c] != add[a, add[b, c]],
    "multiplicative associativity":
        lambda add, mul, a, b, c: mul[mul[a, b], c] != mul[a, mul[b, c]],
    "left distributivity":
        lambda add, mul, a, b, c: mul[a, add[b, c]] != add[mul[a, b], mul[a, c]],
    "right distributivity":
        lambda add, mul, a, b, c: mul[add[b, c], a] != add[mul[b, a], mul[c, a]],
}


def _triple_law_violation(add: np.ndarray, mul: np.ndarray,
                          zero: int) -> Optional[tuple[str, tuple]]:
    """The first broken triple law and its least witness (a, b, c), or None,
    for an ``add`` already commutative with identity ``zero`` and inverses.
    Additive generators G decide the laws: the g with (x + y) + g =
    x + (y + g) for all x, y are closed under +, and so, once + associates,
    are the c of each distributive law; under both, (ab)c - a(bc) is
    additive in each letter, so G^3 decides it.  Only a table that breaks a
    law is scanned on every triple, for the witness."""
    idx = np.arange(add.shape[0])
    x, y = idx[:, None], idx[None, :]
    g = np.array(_span(add, idx == zero, idx)[1], dtype=np.intp)
    if not (any(_TRIPLE_LAWS[law](add, mul, x, y, c).any() for law in (
            "additive associativity", "left distributivity",
            "right distributivity") for c in g)
            or _TRIPLE_LAWS["multiplicative associativity"](
                add, mul, g[:, None, None], g[None, :, None], g).any()):
        return None
    for law, bad_at in _TRIPLE_LAWS.items():
        for a in idx:
            bad = bad_at(add, mul, a, x, y)
            if bad.any():
                return law, (int(a),) + _first_true(bad)


def verify_axioms(R: FiniteRing) -> AxiomReport:
    """Check the ring axioms exactly, returning the first violated axiom
    with its lexicographically least witness.  The triple axioms
    (associativity, distributivity) are decided by ``_triple_law_violation``.
    """
    n = R.order
    add, mul = R.add, R.mul
    idx = np.arange(n)

    # Identities first: a broken identity should be named as such even when
    # it also breaks associativity downstream.
    bad = add[R.zero] != idx
    if bad.any():
        return AxiomReport(False, "additive identity", (int(np.argmax(bad)),))
    bad = add != add.T
    if bad.any():
        return AxiomReport(False, "additive commutativity", _first_true(bad))
    bad = ~(add == R.zero).any(axis=1)
    if bad.any():
        return AxiomReport(False, "additive inverse", (int(np.argmax(bad)),))
    bad = (mul[R.one] != idx) | (mul[:, R.one] != idx)
    if bad.any():
        return AxiomReport(False, "multiplicative identity",
                           (int(np.argmax(bad)),))
    hit = _triple_law_violation(add, mul, R.zero)
    return AxiomReport(True) if hit is None else AxiomReport(False, *hit)


def canonical_fingerprint(R: FiniteRing) -> str:
    """Deterministic digest of the tables (not isomorphism-invariant).

    Equal tables give equal digests; labels and the display name do not
    contribute.
    """
    if R._fingerprint is None:
        _memoize_fingerprint(R)
    return R._fingerprint


def _memoize_fingerprint(R: FiniteRing) -> None:
    """Hash R's tables into ``R._fingerprint``.

    The CLI runs this on a second thread, under its private name: the
    outside-in tracer of ``perfbench/tracing.py`` wraps public functions
    only, and its spans assume one thread.
    """
    h = hashlib.sha256(f"ring-fp-v1 {R.order} {R.zero} {R.one}".encode())
    # hash the table buffers in place: a copy of each is 4 n^2 bytes
    h.update(np.ascontiguousarray(R.add, dtype="<i4"))
    h.update(np.ascontiguousarray(R.mul, dtype="<i4"))
    R._fingerprint = h.hexdigest()


# ---------------------------------------------------------------------------
# Ring homomorphisms
# ---------------------------------------------------------------------------

@dataclass
class RingHom:
    """A ring homomorphism given by its per-element value table."""

    domain: FiniteRing
    codomain: FiniteRing
    map: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.map, dtype=np.int32)
        if m.shape != (self.domain.order,):
            raise StructureError("hom table length does not match domain")
        if m.min() < 0 or m.max() >= self.codomain.order:
            raise StructureError("hom table entry out of range")
        m.setflags(write=False)
        self.map = m

    def __call__(self, a: int) -> int:
        return int(self.map[a])

    def violation(self) -> Optional[tuple]:
        """First witness that this is not a homomorphism, or None."""
        f = self.map
        if f[self.domain.one] != self.codomain.one:
            return ("one", self.domain.one)
        bad = f[self.domain.add] != self.codomain.add[f[:, None], f[None, :]]
        if bad.any():
            return ("add",) + _first_true(bad)
        bad = f[self.domain.mul] != self.codomain.mul[f[:, None], f[None, :]]
        if bad.any():
            return ("mul",) + _first_true(bad)
        return None

    def is_hom(self) -> bool:
        return self.violation() is None

    def is_surjective(self) -> bool:
        return len(set(self.map.tolist())) == self.codomain.order

    def kernel(self) -> int:
        return mask_from_bool(self.map == self.codomain.zero)


# ---------------------------------------------------------------------------
# Serialization: the `ring v1` text record
# ---------------------------------------------------------------------------

def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(s: str) -> str:
    if len(s) < 2 or s[0] != '"' or s[-1] != '"':
        raise ValueError("expected quoted name")
    out, i, body = [], 0, s[1:-1]
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def serialize_ring(R: FiniteRing) -> str:
    """Write a ring as a `ring v1` text record (bit-exact round trip)."""
    lines = [f"ring v1 {R.order} {R.zero} {R.one} {_quote(R.name)}"]
    for table in (R.add, R.mul):
        for row in table:
            lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_ring(text: str) -> FiniteRing:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty ring record")
    head = lines[0].split(None, 5)
    if len(head) < 5 or head[0] != "ring" or head[1] != "v1":
        raise ValueError(f"bad ring header: {lines[0]!r}")
    n = int(head[2])
    zero = int(head[3])
    one = int(head[4])
    name = _unquote(head[5].strip()) if len(head) > 5 else ""
    if len(lines) != 1 + 2 * n:
        raise ValueError(f"expected {2 * n} table rows, got {len(lines) - 1}")
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    add = np.array(rows[:n], dtype=np.int32)
    mul = np.array(rows[n:], dtype=np.int32)
    return FiniteRing(add, mul, zero, one, name=name)
