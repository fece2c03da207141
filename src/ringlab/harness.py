"""Machine-checkable rule catalog over a corpus of small finite rings.

Each structural fact about NJ-symmetric rings and its neighbors is encoded
as a rule (implication, equivalence, or witness exhibit) and evaluated over
the default corpus; a failing rule always means an implementation bug.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import (MAX_ORDER, BadArgumentError, FiniteRing, SizeError,
                   canonical_fingerprint, mask_contains, mask_from_indices,
                   mask_indices, serialize_ring)
from . import constructions as cons
from . import exprs
from . import invariants as inv
from . import properties as props

#: Largest derived ring (T_k, CD_k of a corpus ring) the equivalence rules
#: will scan; keeps the full verify run inside its time budget.
DERIVED_SCAN_MAX_ORDER = 256


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    rings: list
    skipped: list = field(default_factory=list)   # (name, reason)

    def __iter__(self):
        return iter(self.rings)

    def __len__(self):
        return len(self.rings)


def _z2_over_z4_bimodule(z4_left: bool = True) -> cons.Bimodule:
    """Z2 as a (Z4, Z2)-bimodule, or a (Z2, Z4)-bimodule when ``z4_left``
    is false; Z4 acts through reduction mod 2."""
    mod2, same = np.arange(4) % 2, np.arange(2)
    left, right = (mod2, same) if z4_left else (same, mod2)
    return cons.hom_bimodule(cons.zmod(2), left, right, name="Z2")


def two_z4_bimodule() -> cons.Bimodule:
    """The ideal 2Z4 of Z(4) as a (Z4,Z4)-bimodule and general ring."""
    return cons.ideal_bimodule(cons.zmod(4), mask_from_indices([0, 2]),
                               name="2Z4")


def two_z4_over_z2_bimodule() -> cons.Bimodule:
    """2Z4 as a (Z2,Z2)-bimodule (0 acts as zero, 1 as identity)."""
    return cons.Bimodule(
        add=np.array([[0, 1], [1, 0]]),
        left_act=np.array([[0, 0], [0, 1]]),
        right_act=np.array([[0, 0], [0, 1]]),
        internal_mul=np.zeros((2, 2), dtype=int),
        name="2Z4/Z2")


#: The default corpus's base rings, in output order.  A string is a
#: construction expression, built by ``exprs.build`` and named by itself.  A
#: (name, builder) pair is a ring whose bimodule the expression language
#: takes only from a file; its builder gets the size cap.
CORPUS = [
    "Z(1)", "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(7)", "Z(8)", "Z(9)",
    "Z(12)", "Z(16)",
    "M(2, Z(2))", "M(2, Z(3))",
    "T(2, Z(2))", "T(2, Z(3))", "T(2, Z(4))", "T(3, Z(2))",
    "CD(2, Z(2))", "CD(3, Z(2))", "CD(2, Z(4))", "CD(3, Z(4))",
    "Prod(Z(2), Z(3))", "Prod(Z(4), Z(2))", "Prod(Z(2), Z(2))",
    "WSC(0)",
    ("Dorroh(Z(4), 2Z4)", lambda max_order: cons.dorroh(
        cons.zmod(4), two_z4_bimodule(), max_order=max_order).ring),
    ("Morita(Z(2), Z(2), Z(2), Z(2))", lambda max_order: cons.trivial_morita(
        cons.zmod(2), cons.zmod(2), cons.ring_bimodule(cons.zmod(2)),
        cons.ring_bimodule(cons.zmod(2)), max_order=max_order)),
    ("Tri(Z(2), Z(2), Z(2))", lambda max_order: cons.formal_triangular(
        cons.zmod(2), cons.zmod(2), cons.ring_bimodule(cons.zmod(2)),
        max_order=max_order)),
    ("Tri(Z(4), Z(2), Z2)", lambda max_order: cons.formal_triangular(
        cons.zmod(4), cons.zmod(2), _z2_over_z4_bimodule(),
        max_order=max_order)),
    "SkewTrunc(Z(2), id, 2)", "SkewTrunc(Z(2), id, 3)",
    "SkewTrunc(Z(4), id, 2)", "SkewTrunc(Prod(Z(2), Z(2)), swap, 2)",
]


def default_corpus(max_order: int = MAX_ORDER) -> Corpus:
    """The deterministic ring list every catalog rule is evaluated on.

    The base rings of ``CORPUS`` that fit ``max_order``, then the corners at
    every nonzero idempotent of each, then the quotient of each by J (which
    is both nilradicals), deduplicated by fingerprint.  A base ring over the
    cap is skipped under its name.
    """
    bases: list[FiniteRing] = []
    skipped: list[tuple[str, str]] = []
    for entry in CORPUS:
        name, build = ((entry, partial(exprs.build, entry))
                       if isinstance(entry, str) else entry)
        try:
            bases.append(build(max_order=max_order))
        except SizeError as e:
            skipped.append((name, str(e)))
    corners = [_corner(R, e) for R in bases
               for e in mask_indices(inv.idempotents(R))
               if e != R.zero or R.order == 1]
    # R itself when J = 0, which the deduplication drops
    quotients = [inv._mod_jacobson(R)[0] for R in bases]
    first = {}                      # fingerprint -> first ring with it
    for R in bases + corners + quotients:
        first.setdefault(canonical_fingerprint(R), R)
    return Corpus(list(first.values()), skipped)


def _corner(R: FiniteRing, e: int) -> FiniteRing:
    """``cons.corner(R, e)`` memoized on R; a corner holds no reference to R."""
    return inv._cached(R, f"corner_{e}", lambda: cons.corner(R, e))


def random_corpus(seed: int, count: int,
                  max_order: int = MAX_ORDER) -> list[FiniteRing]:
    """Seeded random compositions of constructions over small bases."""
    import random
    rng = random.Random(seed)
    pool = [cons.zmod(n) for n in (2, 3, 4, 5, 6, 8, 9)]
    # one construction per op; the op is drawn from these names
    ops = {
        "prod": lambda A, B: cons.direct_product(A, B, max_order=max_order),
        "t2": lambda A, B: cons.upper_triangular(A, 2, max_order=max_order),
        "cd2": lambda A, B: cons.constant_diagonal(A, 2, max_order=max_order),
        "skew": lambda A, B: cons.truncated_skew_poly(
            A, np.arange(A.order), 2, max_order=max_order, hom_name="id"),
        "tri": lambda A, B: cons.formal_triangular(
            A, A, cons.ring_bimodule(A), max_order=max_order),
        "dorroh_nil": lambda A, B: cons.dorroh(
            A, cons.ideal_bimodule(A, inv.upper_nilradical(A)),
            max_order=max_order).ring,
    }
    out = []
    guard = 0
    while len(out) < count and guard < count * 20:
        guard += 1
        op = rng.choice(list(ops))
        A = rng.choice(pool)
        B = rng.choice(pool)
        try:
            R = ops[op](A, B)
        except SizeError:
            continue
        if R.order <= DERIVED_SCAN_MAX_ORDER:
            out.append(R)
    return out


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass
class Rule:
    id: str
    description: str
    kind: str                       # implication | equivalence | witness
    per_ring: bool
    check: Callable                 # per_ring: (ring)->(status, detail)
                                    # else:     ()->(status, detail)


@dataclass
class RuleEntry:
    rule_id: str
    ring_name: str
    fingerprint: str
    status: str                     # pass | fail | vacuous | skipped
    detail: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"rule": self.rule_id, "ring": self.ring_name,
                "fingerprint": self.fingerprint, "status": self.status,
                "detail": self.detail}


@dataclass
class RuleReport:
    entries: list
    corpus_skipped: list = field(default_factory=list)

    VERSION = "report v1"

    def summary(self) -> dict:
        out: dict[str, str] = {}
        order = {"fail": 3, "pass": 2, "skipped": 1, "vacuous": 0}
        for e in self.entries:
            cur = out.get(e.rule_id)
            if cur is None or order[e.status] > order[cur]:
                out[e.rule_id] = e.status
        return out

    def failures(self) -> list:
        return [e for e in self.entries if e.status == "fail"]

    def to_dict(self) -> dict:
        return {"format": self.VERSION,
                "entries": [e.to_dict() for e in self.entries],
                "summary": self.summary(),
                "corpus_skipped": [list(s) for s in self.corpus_skipped]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "RuleReport":
        if d.get("format") != cls.VERSION:
            raise ValueError(f"unsupported report format: {d.get('format')}")
        entries = [RuleEntry(e["rule"], e["ring"], e["fingerprint"],
                             e["status"], e.get("detail"))
                   for e in d["entries"]]
        return cls(entries, [tuple(s) for s in d.get("corpus_skipped", [])])

    def table(self) -> str:
        lines = []
        width = max((len(e.rule_id) for e in self.entries), default=4)
        for rid, status in sorted(self.summary().items(),
                                  key=lambda kv: int(kv[0][1:])):
            lines.append(f"{rid:<{width}}  {status}")
        return "\n".join(lines)


#: Verdicts by (table fingerprint, property) while ``run_rules`` runs.  A
#: suite meets the same tables in many ring objects (corners, R/J(R),
#: derived rings), each with its own memo; this decides each table once.
#: None outside a run, so no run reuses the work of another.
_run_verdicts: Optional[dict] = None


def _verdict(R: FiniteRing, name: str) -> props.PropertyVerdict:
    if _run_verdicts is None:
        return props.check_property(R, name)
    key = (canonical_fingerprint(R), name)
    if key not in _run_verdicts:
        _run_verdicts[key] = props.check_property(R, name)
    return _run_verdicts[key]


def _holds(R: FiniteRing, name: str) -> bool:
    return _verdict(R, name).holds


def _implication(rule_id, description, hyp_names, concl_names,
                 structural_hyp=None):
    """Rule: conjunction of named hypotheses implies named conclusions."""

    def check(R: FiniteRing):
        if not all(_holds(R, h) for h in hyp_names):
            return "vacuous", None
        if structural_hyp is not None and not structural_hyp(R):
            return "vacuous", None
        for c in concl_names:
            v = _verdict(R, c)
            if not v.holds:
                return "fail", {"conclusion": c, "witness": v.witness}
        return "pass", None

    return Rule(rule_id, description, "implication", True, check)


def _nil_index_at_most_two(R: FiniteRing) -> bool:
    nil = inv.nilpotents_bool(R)
    idx = np.flatnonzero(nil)
    return bool((R.mul[idx, idx] == R.zero).all())


def _forms_agree(rule_id, description, forms, detail):
    """Rule: the formulations of one property, each scanned on its own,
    agree; ``detail`` names their witnesses on a fail."""

    def check(R: FiniteRing):
        witnesses = forms(R)
        if len({w is None for w in witnesses}) == 1:
            return "pass", None
        return "fail", detail(*witnesses)

    return Rule(rule_id, description, "equivalence", True, check)


def _rule_r10(R: FiniteRing):
    if not _holds(R, "nj_symmetric"):
        return "vacuous", None
    socle = inv._socle(R)
    non_essential = [m for m in inv.maximal_left_ideals(R) if socle & ~m]
    if not non_essential:
        return "vacuous", None
    w = props._first_one_sided(R, non_essential, right_mult=True)
    return ("pass", None) if w is None else ("fail", {"witness": w})


def _rule_r12(R: FiniteRing):
    Q, _ = inv._mod_jacobson(R)
    if not _holds(Q, "nj_symmetric"):
        return "vacuous", None
    v = _verdict(R, "nj_symmetric")
    if v.holds:
        return "pass", None
    return "fail", {"witness": v.witness}


def _rule_r13(R: FiniteRing):
    status, detail = _rule_r12(R)    # N*(R) = J(R) in a finite ring
    if status == "fail":
        detail["ideal"] = mask_indices(inv.upper_nilradical(R))
    return status, detail


def _rule_r14(R: FiniteRing):
    lhs = _holds(R, "nj_symmetric")
    corners_nj = []
    for e in mask_indices(inv.idempotents(R)):
        if e == R.zero and R.order > 1:
            continue
        ok = _holds(_corner(R, e), "nj_symmetric")
        if lhs and not ok:
            return "fail", {"direction": "ring->corner", "e": e}
        corners_nj.append(ok)
    # converse: all corners NJ (e = 1 gives R itself) implies R NJ
    if all(corners_nj) and not lhs:
        return "fail", {"direction": "corners->ring"}
    return "pass", None


def _equiv_under_construction(rule_id, description, builder, ks):
    """NJ-symmetry transfers both ways across a matrix-shaped construction."""

    def check(R: FiniteRing):
        lhs = None                  # decided once some derived ring fits
        for k in ks:
            try:
                D = builder(R, k, max_order=DERIVED_SCAN_MAX_ORDER)
            except SizeError:
                continue
            if lhs is None:
                lhs = _holds(R, "nj_symmetric")
            rhs = _holds(D, "nj_symmetric")
            if lhs != rhs:
                return "fail", {"k": k, "base": lhs, "derived": rhs}
        if lhs is None:
            return "skipped", {"reason": "all derived rings exceed scan bound"}
        return "pass", None

    return Rule(rule_id, description, "equivalence", True, check)


def _transfers(rule_id, description, samples, keys=("ring", "components")):
    """Rule: a construction is NJ-symmetric iff its components all are.

    ``samples()`` yields (ring, components, unmet), where ``unmet`` names a
    hypothesis of the construction that the sample fails, or is None.
    """

    def check():
        for S, parts, unmet in samples():
            if unmet is not None:
                return "fail", {"sample": S.name,
                                "reason": f"{unmet} hypothesis expected"}
            lhs = _holds(S, "nj_symmetric")
            rhs = all(_holds(P, "nj_symmetric") for P in parts)
            if lhs != rhs:
                return "fail", {"sample": S.name, keys[0]: lhs, keys[1]: rhs}
        return "pass", None

    return Rule(rule_id, description, "equivalence", False, check)


def _morita_samples():
    z2, z3, z4 = cons.zmod(2), cons.zmod(3), cons.zmod(4)
    m2z2 = cons.matrix_ring(z2, 2)
    for R1, R2, M, P in [
        (z2, z2, cons.ring_bimodule(z2), cons.ring_bimodule(z2)),
        (z2, z3, cons.zero_bimodule(z2, z3), cons.zero_bimodule(z3, z2)),
        (z4, z2, _z2_over_z4_bimodule(), _z2_over_z4_bimodule(False)),
        (m2z2, z2, cons.zero_bimodule(m2z2, z2), cons.zero_bimodule(z2, m2z2)),
    ]:
        yield cons.trivial_morita(R1, R2, M, P), (R1, R2), None


def _triangular_samples():
    z2, z4 = cons.zmod(2), cons.zmod(4)
    m2z2 = cons.matrix_ring(z2, 2)
    for R1, R2, M in [
        (z2, z2, cons.ring_bimodule(z2)),
        (z4, z2, _z2_over_z4_bimodule()),
        (z4, z4, cons.ring_bimodule(z4)),
        (m2z2, z2, cons.zero_bimodule(m2z2, z2)),
    ]:
        yield cons.formal_triangular(R1, R2, M), (R1, R2), None


def _dorroh_samples():
    z2, z4 = cons.zmod(2), cons.zmod(4)
    m2z2 = cons.matrix_ring(z2, 2)
    for R, A in [
        (z4, two_z4_bimodule()),
        (z2, two_z4_over_z2_bimodule()),
        (m2z2, cons.zero_bimodule(m2z2, m2z2)),
    ]:
        ext = cons.dorroh(R, A)
        yield ext.ring, (R,), None if ext.quasi_regular else "quasi-regularity"


def _rule_r23(R: FiniteRing):
    if not _holds(R, "nj_symmetric"):
        return "vacuous", None
    jac = inv.jacobson_bool(R)
    neg = R.neg_table()
    one_minus = R.add[R.one, neg]
    for e in mask_indices(inv.idempotents(R)):
        f = int(one_minus[e])
        er = R.mul[e]                       # e*r over r
        erf = R.mul[er, f]                  # e*r*(1-e)
        fre = R.mul[R.mul[f], e]            # (1-e)*r*e
        if not (jac[erf].all() and jac[fre].all()):
            r = int(np.argmax(~(jac[erf] & jac[fre])))
            return "fail", {"e": e, "r": r}
    return "pass", None


def _rule_r24():
    R = cons.matrix_ring(cons.zmod(2), 2)
    a = cons.matrix_index(2, 2, [[1, 0], [1, 0]])   # E11 + E21
    b = cons.matrix_unit(2, 2, 1, 1)                # E22
    c = cons.matrix_index(2, 2, [[0, 1], [0, 1]])   # E12 + E22
    abc = int(R.mul[R.mul[a, b], c])
    bac = int(R.mul[R.mul[b, a], c])
    jac = inv.jacobson_radical(R)
    ok = (abc == R.zero and bac == b and not mask_contains(jac, bac)
          and not _holds(R, "nj_symmetric"))
    if ok:
        return "pass", {"a": a, "b": b, "c": c}
    return "fail", {"abc": abc, "bac": bac}


def _rule_r25():
    R = cons.matrix_ring(cons.zmod(3), 2)
    x = cons.matrix_unit(3, 2, 0, 1)                      # E12
    y = cons.matrix_index(3, 2, [[0, 0], [1, 1]])         # E21 + E22
    yxx = int(R.mul[R.mul[y, x], x])
    xyx = int(R.mul[R.mul[x, y], x])
    jac = inv.jacobson_radical(R)
    nil = inv.nilpotents_bool(R)
    ok = (bool(nil[yxx]) and not mask_contains(jac, xyx)
          and jac == mask_from_indices([R.zero]))
    if ok:
        return "pass", {"x": x, "y": y}
    return "fail", {"yxx": yxx, "xyx": xyx, "J": mask_indices(jac)}


def _rule_r26():
    R = cons.matrix_ring(cons.zmod(2), 2)
    gws = _verdict(R, "gws")
    if gws.holds:
        return "fail", {"reason": "expected GWS to fail"}
    if not _nil_index_at_most_two(R):
        return "fail", {"reason": "expected nilpotents of square zero"}
    return "pass", {"gws_witness": gws.witness}


def _rule_r27():
    R = cons.matrix_ring(cons.zmod(2), 2)
    if _holds(R, "nj_symmetric"):
        return "fail", {"reason": "expected full ring to fail"}
    for e in mask_indices(inv.idempotents(R)):
        if e in (R.zero, R.one):
            continue
        C = cons.corner(R, e)
        if not _holds(C, "nj_symmetric"):
            return "fail", {"e": e}
    return "pass", None


def rule_catalog() -> list[Rule]:
    rules = [
        _forms_agree("R1", "the three NJ-symmetry formulations agree",
                     props.nj_symmetric_forms, lambda *w: {"forms": list(w)}),
        _implication("R2", "symmetric implies NJ-symmetric",
                     ["symmetric"], ["nj_symmetric"]),
        _implication("R3", "semicommutative implies NJ-symmetric",
                     ["semicommutative"], ["nj_symmetric"]),
        _implication("R4", "weak symmetric implies NJ-symmetric",
                     ["weak_symmetric"], ["nj_symmetric"]),
        _implication("R5", "one-sided quasi-duo implies NJ-symmetric",
                     [], ["nj_symmetric"],
                     structural_hyp=lambda R: (_holds(R, "left_quasi_duo")
                                               or _holds(R, "right_quasi_duo"))),
        _implication("R6", "abelian J-clean implies NJ-symmetric",
                     ["abelian", "j_clean"], ["nj_symmetric"]),
        _implication("R7", "abelian J-quasipolar implies NJ-symmetric",
                     ["abelian", "j_quasipolar"], ["nj_symmetric"]),
        _implication("R8", "GWS with nilpotency index <= 2 implies NJ-symmetric",
                     ["gws"], ["nj_symmetric"],
                     structural_hyp=_nil_index_at_most_two),
        _implication("R9", "NJ-symmetric MELT implies left quasi-duo",
                     ["nj_symmetric", "melt"], ["left_quasi_duo"]),
        Rule("R10", "in an NJ-symmetric ring, non-essential maximal left "
             "ideals are two-sided", "implication", True, _rule_r10),
        _implication("R11", "NJ-symmetric exchange implies clean and quasi-duo",
                     ["nj_symmetric", "exchange"],
                     ["clean", "left_quasi_duo", "right_quasi_duo"]),
        Rule("R12", "R/J NJ-symmetric implies R NJ-symmetric",
             "implication", True, _rule_r12),
        Rule("R13", "R/I NJ-symmetric for a nil ideal I implies R NJ-symmetric",
             "implication", True, _rule_r13),
        Rule("R14", "NJ-symmetry is equivalent to NJ-symmetry of all corners",
             "equivalence", True, _rule_r14),
        _equiv_under_construction(
            "R15", "NJ-symmetry transfers both ways to upper triangular rings",
            cons.upper_triangular, (2, 3)),
        _equiv_under_construction(
            "R16", "NJ-symmetry transfers both ways to constant-diagonal rings",
            cons.constant_diagonal, (2, 3)),
        _transfers("R17", "a trivial Morita context ring is NJ-symmetric iff "
                   "both diagonal components are", _morita_samples),
        _transfers("R18", "a formal triangular matrix ring is NJ-symmetric "
                   "iff both diagonal components are", _triangular_samples),
        _transfers("R19", "a Dorroh extension with quasi-regular module is "
                   "NJ-symmetric iff the base ring is", _dorroh_samples,
                   ("extension", "base")),
        Rule("R20", "NJ-symmetric semiperiodic implies R/J reduced",
             "implication", True,
             lambda R: _quotient_conclusion(R, "reduced")),
        Rule("R21", "NJ-symmetric semiperiodic implies R/J commutative",
             "implication", True,
             lambda R: _quotient_conclusion(R, "commutative")),
        _forms_agree("R22", "the two weak-symmetry formulations agree",
                     props.weak_symmetric_forms,
                     lambda acb, bac: {"acb": acb, "bac": bac}),
        Rule("R23", "in NJ-symmetric rings e*r*(1-e) and (1-e)*r*e lie in J",
             "implication", True, _rule_r23),
        Rule("R24", "the standard triple breaks NJ-symmetry in M2(Z2)",
             "witness", False, _rule_r24),
        Rule("R25", "in M2(Z3): y*x*x nilpotent, x*y*x outside J, J = 0",
             "witness", False, _rule_r25),
        Rule("R26", "M2(Z2) is not GWS and its nilpotents square to zero",
             "witness", False, _rule_r26),
        Rule("R27", "all proper corners of M2(Z2) are NJ-symmetric, "
             "the ring is not", "witness", False, _rule_r27),
    ]
    return rules


def _quotient_conclusion(R: FiniteRing, concl: str):
    if not (_holds(R, "nj_symmetric") and _holds(R, "semiperiodic")):
        return "vacuous", None
    Q, _ = inv._mod_jacobson(R)
    v = _verdict(Q, concl)
    if v.holds:
        return "pass", None
    return "fail", {"conclusion": concl, "witness": v.witness}


def run_rules(corpus: Corpus, rules: Optional[list] = None) -> RuleReport:
    """Evaluate every rule on every applicable corpus ring, in order."""
    global _run_verdicts
    if rules is None:
        rules = rule_catalog()
    entries = []
    _run_verdicts = {}
    try:
        for rule in rules:
            if not rule.per_ring:
                status, detail = rule.check()
                entries.append(RuleEntry(rule.id, "-", "-", status, detail))
                continue
            for R in corpus.rings:
                status, detail = rule.check(R)
                entries.append(RuleEntry(rule.id, R.name,
                                         canonical_fingerprint(R),
                                         status, detail))
    finally:
        _run_verdicts = None
    # canonical order: catalog order, then corpus order
    return RuleReport(entries, corpus_skipped=list(corpus.skipped))


def diagnostic_dump(corpus: Corpus, entry: RuleEntry) -> str:
    """Ring serialization + witness for a failing rule entry."""
    parts = [f"rule {entry.rule_id} FAILED on {entry.ring_name}",
             f"detail: {entry.detail}"]
    for R in corpus.rings:
        if canonical_fingerprint(R) == entry.fingerprint:
            parts.append(serialize_ring(R))
            break
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Counterexample search and full analysis
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    ring: Optional[FiniteRing]
    verdicts: Optional[dict] = None
    examined: int = 0

    @property
    def exhausted(self) -> bool:
        return self.ring is None


def search_counterexample(hypotheses: list, negated_conclusion: str,
                          corpus: Optional[Corpus] = None,
                          budget: Optional[int] = None, seed: int = 0,
                          max_order: int = MAX_ORDER) -> SearchResult:
    """First corpus ring satisfying the hypotheses but not the conclusion.

    If the budget exceeds the corpus size, seeded random constructions fill
    the remainder.  ``max_order`` caps the default corpus and the fill.
    """
    for name in list(hypotheses) + [negated_conclusion]:
        if name not in props.PROPERTY_CHECKS:
            raise props.UnknownPropertyError(f"unknown property: {name!r}")
    if corpus is None:
        corpus = default_corpus(max_order)
    rings = list(corpus.rings)
    if budget is None:
        budget = len(rings)
    if budget < 0:
        raise BadArgumentError(f"search budget must be >= 0, got {budget}")
    if budget > len(rings):
        rings.extend(random_corpus(seed, budget - len(rings), max_order))
    examined = 0
    for R in rings[:budget]:
        examined += 1
        if not all(_holds(R, h) for h in hypotheses):
            continue
        v = props.check_property(R, negated_conclusion)
        if not v.holds:
            verdicts = {h: props.check_property(R, h)
                        for h in hypotheses}
            verdicts[negated_conclusion] = v
            return SearchResult(R, verdicts, examined)
    return SearchResult(None, None, examined)


def _is_report(entry: dict) -> bool:
    """Whether a cached entry has exactly the keys and value types of the
    report ``analyze`` writes: the radicals and every property's verdict."""
    verdicts = entry.get("properties")
    return (entry.keys() == {"format", "ring", "order", "fingerprint",
                             "radicals", "properties"}
            and type(entry["ring"]) is str and type(entry["order"]) is int
            and inv.RadicalReport.is_dict(entry["radicals"])
            and type(verdicts) is dict
            and verdicts.keys() == props.PROPERTY_CHECKS.keys()
            and all(props.PropertyVerdict.is_dict(v) and v["name"] == name
                    for name, v in verdicts.items()))


def analyze(R: FiniteRing, cache=None) -> dict:
    """Full report: radicals plus every property verdict.

    ``cache`` is an optional ReportCache; results are keyed by the table
    fingerprint and carry the caller's ring name, so cache hits and misses
    agree.
    """
    fp = canonical_fingerprint(R)
    if cache is not None:
        hit = cache.get(fp, valid=_is_report)
        if hit is not None:
            # the key is the tables alone, so equal tables under another
            # name hit: the report names the ring it was asked about
            hit["ring"] = hit["radicals"]["ring"] = R.name
            return hit
    report = {
        "format": "analysis v1",
        "ring": R.name,
        "order": R.order,
        "fingerprint": fp,
        "radicals": inv.radical_report(R).to_dict(),
        "properties": {name: props.check_property(R, name).to_dict()
                       for name in sorted(props.PROPERTY_CHECKS)},
    }
    if cache is not None:
        cache.put(fp, report)
    return report
