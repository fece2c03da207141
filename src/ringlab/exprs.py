"""Construction-expression language: Z(4), M(2, Z(2)), Quo(Z(8), gen(4)), ...

Small recursive-descent parser over a tokenizer; error messages carry
1-based byte offsets into the input. Evaluation turns the syntax tree into
a FiniteRing, resolving ideal specs (J, Nstar, Nlower, gen(...)), corner
elements (index or label), skew maps (id, swap, table file) and bimodule
files on the way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import MAX_ORDER, FiniteRing, mask_from_indices
from . import constructions as cons
from . import invariants as inv


class ExprError(ValueError):
    """Parse or evaluation failure, with a 1-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass
class Ident:
    name: str
    offset: int


@dataclass
class Node:
    name: str
    args: list = field(default_factory=list)
    offset: int = 0


_TOKEN_RE = re.compile(r"""
    \s+
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<punct>[(),\[\]])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos + 1)
        if m.lastgroup == "int":
            try:
                value = int(m.group())
            except ValueError:          # past int()'s digit limit
                raise ExprError("integer literal too long", pos + 1) from None
            tokens.append(("int", value, pos + 1))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos + 1))
        elif m.lastgroup == "str":
            body = m.group()[1:-1]
            body = re.sub(r'\\(.)', r'\1', body)
            tokens.append(("str", body, pos + 1))
        elif m.lastgroup == "punct":
            tokens.append((m.group(), m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


#: Deepest constructor nesting accepted.  Parser and evaluator recurse once
#: per level, so this keeps them far inside Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            what = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ExprError(f"expected {kind!r}, found {what}", tok[2])
        self.i += 1
        return tok

    def parse_expr(self):
        kind, value, offset = self.peek()
        if kind == "int":
            self.i += 1
            return value
        if kind == "str":
            self.i += 1
            return value
        if kind == "[":
            return self.parse_list()
        name = self.take("name")
        if self.peek()[0] != "(":
            return Ident(name[1], name[2])
        self.take("(")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"nested deeper than {MAX_DEPTH} calls", name[2])
        args = []
        if self.peek()[0] != ")":
            args.append(self.parse_expr())
            while self.peek()[0] == ",":
                self.take(",")
                args.append(self.parse_expr())
        self.take(")")
        self.depth -= 1
        return Node(name[1], args, name[2])

    def parse_list(self):
        self.take("[")
        items = []
        if self.peek()[0] != "]":
            items.append(self.take("int")[1])
            while self.peek()[0] == ",":
                self.take(",")
                items.append(self.take("int")[1])
        self.take("]")
        return items


def parse(text: str) -> Node:
    p = _Parser(text)
    tree = p.parse_expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ExprError(f"unexpected trailing {tok[1]!r}", tok[2])
    if not isinstance(tree, Node):
        off = tree.offset if isinstance(tree, Ident) else 1
        raise ExprError("expected a constructor call", off)
    return tree


def _reads_files(node) -> bool:
    """Whether a parsed tree has a string argument.  Strings name bimodule
    and skew-map files, whose contents the text does not fix; corner labels
    are strings too and are counted alike."""
    if isinstance(node, str):
        return True
    return isinstance(node, Node) and any(map(_reads_files, node.args))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_ARITY = {"Z": 1, "M": 2, "T": 2, "CD": 2, "Prod": 2, "Quo": 2, "Corner": 2,
          "Tri": 3, "Morita": 4, "Dorroh": 2, "SkewTrunc": 3, "WSC": 1,
          "Sub": 2}


def _want(node: Node, i: int, kinds: tuple, what: str):
    if i >= len(node.args) or not isinstance(node.args[i], kinds):
        raise ExprError(f"{node.name} expects {what} as argument {i + 1}",
                        node.offset)
    return node.args[i]


def _ideal_mask(R: FiniteRing, spec, offset: int) -> tuple[int, str]:
    if isinstance(spec, Ident):
        if spec.name == "J":
            return inv.jacobson_radical(R), "J"
        if spec.name == "Nstar":
            return inv.upper_nilradical(R), "Nstar"
        if spec.name == "Nlower":
            return inv.lower_nilradical(R), "Nlower"
        raise ExprError(f"unknown ideal spec {spec.name!r}", spec.offset)
    if isinstance(spec, Node) and spec.name == "gen":
        gens = []
        for a in spec.args:
            if not isinstance(a, int):
                raise ExprError("gen(...) takes element indices", spec.offset)
            if not 0 <= a < R.order:
                raise ExprError(f"element index {a} out of range", spec.offset)
            gens.append(a)
        mask = inv.two_sided_ideal_generated(R, mask_from_indices(gens))
        label = "gen(" + ", ".join(str(g) for g in gens) + ")"
        return mask, label
    raise ExprError("ideal spec must be J, Nstar, Nlower or gen(...)", offset)


def _element_index(R: FiniteRing, spec, offset: int) -> int:
    if isinstance(spec, int):
        if not 0 <= spec < R.order:
            raise ExprError(f"element index {spec} out of range", offset)
        return spec
    if isinstance(spec, str):
        if R.labels is not None and spec in R.labels:
            return R.labels.index(spec)
        raise ExprError(f"no element labeled {spec!r}", offset)
    raise ExprError("element spec must be an index or a quoted label", offset)


def _load_bimodule(path: str, offset: int) -> cons.Bimodule:
    try:
        with open(path) as f:
            return cons.parse_bimodule(f.read())
    except OSError as e:
        raise ExprError(f"cannot read bimodule file {path!r}: {e}", offset)
    except ValueError as e:
        raise ExprError(f"bad bimodule file {path!r}: {e}", offset)


def _skew_map(R: FiniteRing, first: Optional[int], spec,
              offset: int) -> tuple[np.ndarray, str]:
    """The map of a SkewTrunc over R; ``first`` is the order of R's first
    factor when R is written as a Prod, else None."""
    if isinstance(spec, Ident) and spec.name == "id":
        return np.arange(R.order), "id"
    if isinstance(spec, Ident) and spec.name == "swap":
        # coordinate swap of a direct product with equal-order factors
        if first is None:
            raise ExprError("swap needs a Prod(...) base ring", spec.offset)
        if first * first != R.order:
            raise ExprError("swap needs equal-order factors", spec.offset)
        return cons._swap_map(first), "swap"
    if isinstance(spec, str):
        try:
            with open(spec) as f:
                values = [int(tok) for tok in f.read().split()]
        except (OSError, ValueError) as e:
            raise ExprError(f"cannot read map file {spec!r}: {e}", offset)
        if len(values) != R.order:
            raise ExprError(f"map file {spec!r} has {len(values)} entries, "
                            f"expected {R.order}", offset)
        return np.asarray(values), spec
    raise ExprError("ring map must be id, swap or a table file path", offset)


def _product(node: Node, max_order: int) -> tuple[FiniteRing, int]:
    """A Prod's ring and its first factor's order, each factor evaluated
    once."""
    A, B = (evaluate(_want(node, i, (Node,), "a ring expression"), max_order)
            for i in (0, 1))
    return cons.direct_product(A, B, max_order=max_order), A.order


def evaluate(node: Node, max_order: int = MAX_ORDER) -> FiniteRing:
    name = node.name
    if name not in _ARITY:
        raise ExprError(f"unknown constructor {name!r}", node.offset)
    if len(node.args) != _ARITY[name]:
        raise ExprError(f"{name} takes {_ARITY[name]} argument(s), "
                        f"got {len(node.args)}", node.offset)

    def sub(i: int) -> FiniteRing:
        arg = _want(node, i, (Node,), "a ring expression")
        return evaluate(arg, max_order)

    if name == "Z":
        n = _want(node, 0, (int,), "a positive integer")
        return cons.zmod(n, max_order=max_order)
    if name == "WSC":
        n = _want(node, 0, (int,), "a nonnegative integer")
        return cons.example_weak_symmetric_component(n, max_order=max_order)
    if name in ("M", "T", "CD"):
        k = _want(node, 0, (int,), "a matrix size")
        R = sub(1)
        fn = {"M": cons.matrix_ring, "T": cons.upper_triangular,
              "CD": cons.constant_diagonal}[name]
        return fn(R, k, max_order=max_order)
    if name == "Prod":
        return _product(node, max_order)[0]
    if name == "Quo":
        R = sub(0)
        mask, label = _ideal_mask(R, node.args[1], node.offset)
        return cons.quotient(R, mask, ideal_name=label)[0]
    if name == "Corner":
        R = sub(0)
        e = _element_index(R, node.args[1], node.offset)
        return cons.corner(R, e)
    if name == "Sub":
        R = sub(0)
        seed = _want(node, 1, (list,), "an element list like [0, 1]")
        for a in seed:
            if not 0 <= a < R.order:
                raise ExprError(f"element index {a} out of range", node.offset)
        return cons.subring_generated(R, mask_from_indices(seed))
    if name == "Tri":
        R1, R2 = sub(0), sub(1)
        path = _want(node, 2, (str,), "a bimodule file path")
        return cons.formal_triangular(R1, R2, _load_bimodule(path, node.offset),
                                      max_order=max_order)
    if name == "Morita":
        R1, R2 = sub(0), sub(1)
        mp = _want(node, 2, (str,), "a bimodule file path")
        pp = _want(node, 3, (str,), "a bimodule file path")
        return cons.trivial_morita(R1, R2, _load_bimodule(mp, node.offset),
                                   _load_bimodule(pp, node.offset),
                                   max_order=max_order)
    if name == "Dorroh":
        R = sub(0)
        path = _want(node, 1, (str,), "a bimodule file path")
        return cons.dorroh(R, _load_bimodule(path, node.offset),
                           max_order=max_order).ring
    if name == "SkewTrunc":
        base = _want(node, 0, (Node,), "a ring expression")
        if base.name == "Prod" and len(base.args) == _ARITY["Prod"]:
            R, first = _product(base, max_order)
        else:       # a Prod of the wrong arity raises its own error here
            R, first = evaluate(base, max_order), None
        k = _want(node, 2, (int,), "a truncation degree")
        psi, label = _skew_map(R, first, node.args[1], node.offset)
        return cons.truncated_skew_poly(R, psi, k, max_order=max_order,
                                        hom_name=label)
    raise AssertionError(name)


def build(text: str, max_order: int = MAX_ORDER) -> FiniteRing:
    """Parse and evaluate a construction expression."""
    return evaluate(parse(text), max_order=max_order)
