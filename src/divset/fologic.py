"""First-order sentences over graphs: parser, evaluator, and the
relativizing rewriter that transfers a sentence from a graph to its
subdivide-once-plus-leaf embedding.

The evaluator compiles a formula once per call into nested closures.  A
quantifier guarded by an adjacency atom, any conjunct of the top-level
conjunction of its body (or of its implication's antecedent, for "forall"),
ranges over the neighbours of the guard's other variable instead of all
vertices: the classifier's "exists z. (~z=x & E(y,z))" visits y's
neighbours only.  Every quantifier memoises its result by the values of its
free variables; the memo lives for one call.

Concrete syntax:

    phi ::= "E(" var "," var ")" | var "=" var | "~" phi
          | "(" phi "&" phi ")" | "(" phi "|" phi ")" | "(" phi "->" phi ")"
          | "exists " var ". " phi | "forall " var ". " phi

Variables match [a-z][a-z0-9]*; "exists" and "forall" are reserved.  Tokens
are separated by runs of spaces, tabs, CR, FF, VT and newlines; any other
whitespace is a ParseError.  The parser additionally accepts redundant
grouping parentheses; the serializer emits the canonical minimal form.
Nesting deeper than 500 levels is a ParseError; a rewrite nesting deeper
than 800 is a ContractError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Union

from .errors import ContractError, ParseError, UnboundVariableError
from .reductions import Graph, distance_graph, hypercube_embedding
from .vectors import BLANKS


@dataclass(frozen=True)
class Adjacent:
    x: str
    y: str


@dataclass(frozen=True)
class Equal:
    x: str
    y: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"


Formula = Union[Adjacent, Equal, Not, And, Or, Implies, Exists, ForAll]

_BINARY = {And: "&", Or: "|", Implies: "->"}
_CONNECTIVES = {op: cls for cls, op in _BINARY.items()}
_KEYWORDS = ("exists", "forall")


def formula_size(phi: Formula) -> int:
    """Number of AST nodes."""
    if isinstance(phi, (Adjacent, Equal)):
        return 1
    if isinstance(phi, Not):
        return 1 + formula_size(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return 1 + formula_size(phi.left) + formula_size(phi.right)
    return 1 + formula_size(phi.body)


def free_variables(phi: Formula) -> frozenset[str]:
    if isinstance(phi, (Adjacent, Equal)):
        return frozenset((phi.x, phi.y))
    if isinstance(phi, Not):
        return free_variables(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return free_variables(phi.left) | free_variables(phi.right)
    return free_variables(phi.body) - {phi.var}


def all_variables(phi: Formula) -> frozenset[str]:
    if isinstance(phi, (Adjacent, Equal)):
        return frozenset((phi.x, phi.y))
    if isinstance(phi, Not):
        return all_variables(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return all_variables(phi.left) | all_variables(phi.right)
    return all_variables(phi.body) | {phi.var}


def to_text(phi: Formula) -> str:
    if isinstance(phi, Adjacent):
        return f"E({phi.x},{phi.y})"
    if isinstance(phi, Equal):
        return f"{phi.x}={phi.y}"
    if isinstance(phi, Not):
        return f"~{to_text(phi.body)}"
    if isinstance(phi, (And, Or, Implies)):
        return f"({to_text(phi.left)} {_BINARY[type(phi)]} {to_text(phi.right)})"
    word = "exists" if isinstance(phi, Exists) else "forall"
    return f"{word} {phi.var}. {to_text(phi.body)}"


# Deepest nesting the parser accepts, counting the whole formula as level 1
# and each operand, quantifier body or parenthesised group as one more.  The
# recursive functions below stay inside Python's default stack at this depth.
_MAX_DEPTH = 500
# Deepest nesting `rewrite_sentence` emits, counted the same way.  A chain of
# L quantifiers rewrites to 2L+6 levels.  Called from a short script, the
# recursive functions print, size and evaluate such rewrites up to 986 levels
# (L=490), and up to 926 or 866 under 60 or 120 more caller frames.  800
# (L=397) leaves room for about 180 caller frames, a test runner's among them.
_MAX_REWRITE_DEPTH = 800

# Blanks and newlines, a token, or a character that starts no token.
_TOKEN = re.compile(rf"[{BLANKS}\n]+|(->|[()~&|=.,]|E(?![a-z0-9])|[a-z][a-z0-9]*)|(.)", re.S)


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        for match in _TOKEN.finditer(text):
            token, stray = match.groups()
            if stray is not None:
                raise ParseError(f"unexpected character {stray!r} at position {match.start()}")
            if token is not None:
                self.tokens.append((token, match.start()))
        self.cursor = 0

    def peek(self) -> str | None:
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor][0]
        return None

    def take(self, expected: str | None = None) -> str:
        if self.cursor >= len(self.tokens):
            raise ParseError(f"unexpected end of formula, expected {expected!r}")
        token, pos = self.tokens[self.cursor]
        if expected is not None and token != expected:
            raise ParseError(f"expected {expected!r} at position {pos}, got {token!r}")
        self.cursor += 1
        return token

    def variable(self) -> str:
        if self.cursor >= len(self.tokens):
            raise ParseError("unexpected end of formula, expected a variable")
        token, pos = self.tokens[self.cursor]
        if token in _KEYWORDS or not re.fullmatch(r"[a-z][a-z0-9]*", token):
            raise ParseError(f"expected a variable at position {pos}, got {token!r}")
        self.cursor += 1
        return token

    def formula(self, depth: int = 1) -> Formula:
        token = self.peek()
        if token is None:
            raise ParseError("empty formula")
        if depth > _MAX_DEPTH:
            pos = self.tokens[self.cursor][1]
            raise ParseError(f"formula nests deeper than {_MAX_DEPTH} levels at position {pos}")
        if token == "~":
            self.take()
            return Not(self.formula(depth + 1))
        if token in _KEYWORDS:
            self.take()
            var = self.variable()
            self.take(".")
            body = self.formula(depth + 1)
            return Exists(var, body) if token == "exists" else ForAll(var, body)
        if token == "(":
            self.take()
            left = self.formula(depth + 1)
            op = self.peek()
            if op == ")":
                # Redundant grouping; accepted, not part of the canonical form.
                self.take()
                return left
            if op is None:
                raise ParseError("unexpected end of formula, expected a connective")
            if op not in _CONNECTIVES:
                raise ParseError(f"expected a connective, got {op!r}")
            self.take()
            right = self.formula(depth + 1)
            self.take(")")
            return _CONNECTIVES[op](left, right)
        if token == "E":
            self.take()
            self.take("(")
            x = self.variable()
            self.take(",")
            y = self.variable()
            self.take(")")
            return Adjacent(x, y)
        x = self.variable()
        self.take("=")
        y = self.variable()
        return Equal(x, y)


def parse_formula(text: str, *, require_sentence: bool = True) -> Formula:
    """Parse the concrete syntax; sentences only unless require_sentence=False."""
    parser = _Parser(text)
    phi = parser.formula()
    if parser.cursor != len(parser.tokens):
        token, pos = parser.tokens[parser.cursor]
        raise ParseError(f"trailing input {token!r} at position {pos}")
    if require_sentence:
        free = free_variables(phi)
        if free:
            raise UnboundVariableError("unbound variable(s): " + ", ".join(sorted(free)))
    return phi


def _guard(f: Formula, var: str) -> str | None:
    """The variable a of the first atom E(a,var) or E(var,a), a != var, that
    is any conjunct of the top-level conjunction f, or None if there is no
    such atom.  Conjuncts are read left to right, descending through "&"
    only: an atom under "~", "|", "->" or a quantifier is not a conjunct."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        elif isinstance(f, Adjacent) and (f.x == var) != (f.y == var):
            return f.y if f.x == var else f.x
    return None


def evaluate(graph: Graph, phi: Formula, binding: dict[str, int] | None = None) -> bool:
    """Standard semantics over the graph's symmetric irreflexive adjacency.

    Sentences only, unless `binding` assigns a vertex 1..n to every free
    variable.  The formula is compiled once per call into nested closures,
    one per node.  A guarded quantifier ranges over the neighbours of a
    only: "exists v" whose body has E(a,v) or E(v,a) as any conjunct of its
    top-level conjunction, and "forall v" whose body is an implication
    whose antecedent has such an atom as any conjunct, a != v in both.  Any
    other vertex makes that conjunction false.  Every other quantifier
    ranges over all n vertices.  Each quantifier memoises its result by the
    values of its free variables; the memo lives for one call.
    """
    binding = binding or {}
    unbound = free_variables(phi) - binding.keys()
    if unbound:
        raise ContractError(
            "unassigned free variable(s): " + ", ".join(sorted(unbound))
        )
    for var, value in binding.items():
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= graph.n:
            raise ContractError(
                f"binding {var}={value!r} is not a vertex of the graph (1..{graph.n})"
            )
    # On CPython 3.11 a subscript of the dict subclass measures about 30%
    # slower than a plain dict's; a bound `get` costs about what the plain
    # subscript does, so the hot paths read neighbours through it.
    neighbours = graph.adjacency().get
    vertices = range(1, graph.n + 1)
    # One slot per `binding` entry and one per quantifier node.  A quantifier
    # writes only its own slot, so a shadowed variable needs no restoring.
    slots: list[int] = list(binding.values())

    def compile_(f: Formula, scope: dict[str, int]) -> tuple[Callable[[], bool], frozenset[int]]:
        """The closure that evaluates f, and the slots it reads."""
        if isinstance(f, (Adjacent, Equal)):
            i, j = scope[f.x], scope[f.y]
            if isinstance(f, Adjacent):
                return (lambda: slots[j] in neighbours(slots[i], ())), frozenset((i, j))
            return (lambda: slots[i] == slots[j]), frozenset((i, j))
        if isinstance(f, Not):
            body, reads = compile_(f.body, scope)
            return (lambda: not body()), reads
        if isinstance(f, (And, Or, Implies)):
            left, left_reads = compile_(f.left, scope)
            right, right_reads = compile_(f.right, scope)
            reads = left_reads | right_reads
            if isinstance(f, And):
                return (lambda: left() and right()), reads
            if isinstance(f, Or):
                return (lambda: left() or right()), reads
            return (lambda: not left() or right()), reads

        k = len(slots)
        slots.append(0)
        body, reads = compile_(f.body, {**scope, f.var: k})
        reads = reads - {k}
        exists = isinstance(f, Exists)
        if exists:
            guard = _guard(f.body, f.var)
        else:
            guard = _guard(f.body.left, f.var) if isinstance(f.body, Implies) else None
        g = None if guard is None else scope[guard]
        key = itemgetter(*sorted(reads)) if reads else lambda slots: None
        memo: dict = {}

        def quantifier() -> bool:
            sig = key(slots)
            result = memo.get(sig)
            if result is None:
                result = not exists
                for v in vertices if g is None else neighbours(slots[g], ()):
                    slots[k] = v
                    if body() is exists:
                        result = exists
                        break
                memo[sig] = result
            return result

        return quantifier, reads

    return compile_(phi, dict(zip(binding, range(len(slots)))))[0]()


def vertex_classifier(x: str, y: str, z: str) -> Formula:
    """The test the rewriter relativizes quantifiers with, free in x only:
    every neighbor y of x has a neighbor z other than x."""
    return ForAll(
        y, Implies(Adjacent(x, y), Exists(z, And(Not(Equal(z, x)), Adjacent(y, z))))
    )


def rewrite_sentence(phi: Formula) -> Formula:
    """Transfer a sentence to the subdivision embedding.

    Every "exists x" becomes "exists x (classifier(x) & ...)", every
    "forall x" becomes "forall x (classifier(x) -> ...)", and every adjacency
    atom E(x,y) becomes "exists s ((E(x,s) & E(s,y)) & ~(x=y))" with s fresh.
    Each copy of `vertex_classifier` binds two fresh variables, so no capture
    is possible.  The output has at most 20 times the input's node count.
    An output that would nest deeper than _MAX_REWRITE_DEPTH levels is a
    ContractError.
    """
    if free_variables(phi):
        raise ContractError("only sentences can be rewritten")
    used = set(all_variables(phi))
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            name = "s" if counter == 0 else f"s{counter}"
            counter += 1
            if name not in used:
                used.add(name)
                return name

    def rec(f: Formula, level: int) -> Formula:
        # f's rewrite sits at output `level`; an atom E adds 3 levels below
        # it, a quantifier 1 plus the classifier's 6.
        below = 3 if isinstance(f, Adjacent) else 7 if isinstance(f, (Exists, ForAll)) else 0
        if level + below > _MAX_REWRITE_DEPTH:
            raise ContractError(
                f"rewritten sentence would nest deeper than {_MAX_REWRITE_DEPTH} levels"
            )
        if isinstance(f, Adjacent):
            s = fresh()
            return Exists(
                s,
                And(And(Adjacent(f.x, s), Adjacent(s, f.y)), Not(Equal(f.x, f.y))),
            )
        if isinstance(f, Equal):
            return f
        if isinstance(f, Not):
            return Not(rec(f.body, level + 1))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(rec(f.left, level + 1), rec(f.right, level + 1))
        classified = vertex_classifier(f.var, fresh(), fresh())
        if isinstance(f, Exists):
            return Exists(f.var, And(classified, rec(f.body, level + 2)))
        return ForAll(f.var, Implies(classified, rec(f.body, level + 2)))

    return rec(phi, 1)


def embedding_transfer_report(graph: Graph, phi: Formula) -> dict:
    """Evaluate a sentence on a graph and its rewritten form on the graph's
    subdivision embedding; agreement is recorded, never asserted."""
    rewritten = rewrite_sentence(phi)
    embedded = distance_graph(hypercube_embedding(graph), 1)
    lhs = evaluate(graph, phi)
    rhs = evaluate(embedded, rewritten)
    before = formula_size(phi)
    after = formula_size(rewritten)
    return {
        "h_vertices": graph.n,
        "h_edges": graph.m,
        "g_vertices": embedded.n,
        "formula": to_text(phi),
        "h_holds": lhs,
        "g_holds": rhs,
        "agree": lhs == rhs,
        "nodes_before": before,
        "nodes_after": after,
        "ratio": after / before,
    }
