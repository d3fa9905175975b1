"""Multilinear F_2 formulas and their series-parallel graph encoding.

A formula is built from constants, variables x_i (1-indexed), sums and
products over F_2.  The smart constructors fold constants only; they
never cancel symbolic subterms, so Sum(x1, x1) stays a real two-branch
term and encodes to a real parallel gadget.

The graph encoding follows the series-parallel scheme: an atomic factor
becomes s -> mid (edge weighted by the factor) -> t (weight 1), products
share a junction vertex between the factors, sums share both endpoints.
Internal vertices are numbered in order: left internals, then the
junction (for products), then right internals.  The closure adds a
weight-1 edge t -> s and weight-1 self-loops on every vertex except s,
after which the determinant of the resulting matrix family equals the
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


class Formula:
    """Base class; use the module constructors to build instances."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Formula):
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("constants are 0 or 1")


@dataclass(frozen=True)
class Variable(Formula):
    index: int  # 1-based

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variables are numbered from 1")


@dataclass(frozen=True)
class Sum(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Product(Formula):
    left: Formula
    right: Formula


def sum_of(left: Formula, right: Formula) -> Formula:
    """Sum with constant folding only (1+1 = 0, 0+e = e, 1+(1+e) = e)."""
    if isinstance(left, Constant) and isinstance(right, Constant):
        return Constant(left.value ^ right.value)
    if isinstance(right, Constant):  # canonicalize constants to the left
        left, right = right, left
    if isinstance(left, Constant):
        if left.value == 0:
            return right
        if isinstance(right, Sum) and right.left == Constant(1):
            return right.right
    return Sum(left, right)


def product_of(left: Formula, right: Formula) -> Formula:
    """Product with constant folding only (0 absorbs, 1 drops out)."""
    if isinstance(right, Constant):
        left, right = right, left
    if isinstance(left, Constant):
        return right if left.value == 1 else Constant(0)
    return Product(left, right)


def eval_formula(f: Formula, assignment: int) -> int:
    """Evaluate with variable x_i bound to bit i-1 of the assignment."""
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, Variable):
        return (assignment >> (f.index - 1)) & 1
    if isinstance(f, Sum):
        return eval_formula(f.left, assignment) ^ eval_formula(f.right, assignment)
    if isinstance(f, Product):
        return eval_formula(f.left, assignment) & eval_formula(f.right, assignment)
    raise TypeError("not a formula: %r" % (f,))


def num_variables(f: Formula) -> int:
    """Highest variable index appearing (0 for a constant formula)."""
    if isinstance(f, Constant):
        return 0
    if isinstance(f, Variable):
        return f.index
    return max(num_variables(f.left), num_variables(f.right))


def arithmetize_cnf(clauses) -> Formula:
    """CNF (list of clauses of nonzero signed ints) as an F_2 formula.

    A clause (l1 or l2 or ...) becomes 1 + prod(1 + l_i) with negated
    literals reading as 1 + x_i; the conjunction is the product of the
    clause polynomials.  The formula is 1 exactly on satisfying
    assignments.
    """
    acc: Formula = Constant(1)
    for clause in clauses:
        prod: Formula = Constant(1)
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            var: Formula = Variable(abs(lit))
            lit_value = sum_of(Constant(1), var) if lit < 0 else var
            prod = product_of(prod, sum_of(Constant(1), lit_value))
        acc = product_of(acc, sum_of(Constant(1), prod))
    return acc


def _internals(f: Formula) -> int:
    if isinstance(f, (Constant, Variable)):
        return 1
    if isinstance(f, Sum):
        return _internals(f.left) + _internals(f.right)
    return _internals(f.left) + 1 + _internals(f.right)


class WeightedDigraph:
    """Digraph with edges weighted by 1 (index 0) or a variable x_i (index i)."""

    __slots__ = ("num_vertices", "s", "t", "edges", "num_vars", "closed")

    def __init__(
        self,
        num_vertices: int,
        s: int,
        t: int,
        edges: Dict[Tuple[int, int], int],
        num_vars: int,
        closed: bool = False,
    ):
        for (u, v), w in edges.items():
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("edge endpoint out of range")
            if w < 0 or w > num_vars:
                raise ValueError("weight index out of range")
        self.num_vertices = num_vertices
        self.s = s
        self.t = t
        self.edges = dict(edges)
        self.num_vars = num_vars
        self.closed = closed


def formula_to_graph(f: Formula) -> WeightedDigraph:
    """Closed series-parallel encoding whose determinant family equals f."""
    k = _internals(f)
    edges: Dict[Tuple[int, int], int] = {}
    s, t = 0, k + 1

    def put(u, v, w):
        if (u, v) in edges:
            raise AssertionError("edge collision at (%d, %d)" % (u, v))
        edges[(u, v)] = w

    def build(g: Formula, sv: int, tv: int, base: int):
        if isinstance(g, (Constant, Variable)):
            mid = base
            if isinstance(g, Variable):
                put(sv, mid, g.index)
            elif g.value == 1:
                put(sv, mid, 0)
            # a zero factor contributes no s -> mid edge at all
            put(mid, tv, 0)
        elif isinstance(g, Product):
            junction = base + _internals(g.left)
            build(g.left, sv, junction, base)
            build(g.right, junction, tv, junction + 1)
        elif isinstance(g, Sum):
            build(g.left, sv, tv, base)
            build(g.right, sv, tv, base + _internals(g.left))
        else:
            raise TypeError("not a formula: %r" % (g,))

    build(f, s, t, 1)
    put(t, s, 0)
    for v in range(1, k + 2):
        put(v, v, 0)
    return WeightedDigraph(k + 2, s, t, edges, num_variables(f), closed=True)


def parse_formula(text: str) -> Formula:
    """Parse '+', '*', parentheses, constants, and x<i> variables.

    '*' binds tighter than '+'; both associate left; indices are ASCII
    digits; whitespace is ignored.  The smart constructors fold constants.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+*()":
            tokens.append(ch)
            i += 1
        elif ch in "01":
            tokens.append(("const", int(ch)))
            i += 1
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j] in "0123456789":
                j += 1
            if j == i + 1:
                raise ValueError("variable needs an index at position %d" % i)
            tokens.append(("var", int(text[i + 1 : j])))
            i = j
        else:
            raise ValueError("unexpected character %r at position %d" % (ch, i))

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum():
        node = parse_product()
        while peek() == "+":
            take()
            node = sum_of(node, parse_product())
        return node

    def parse_product():
        node = parse_atom()
        while peek() == "*":
            take()
            node = product_of(node, parse_atom())
        return node

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            node = parse_sum()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            take()
            return node
        if isinstance(tok, tuple):
            take()
            kind, value = tok
            return Constant(value) if kind == "const" else Variable(value)
        if tok is None:
            raise ValueError("unexpected end of formula")
        raise ValueError("unexpected token %r" % (tok,))

    node = parse_sum()
    if pos != len(tokens):
        raise ValueError("trailing tokens after formula")
    return node
