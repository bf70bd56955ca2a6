"""Measurement-model expressions: grammar, parsing, evaluation.

A measurement model maps input quantities to the measurand through a
closed-form expression such as ``"X1*sin(X2) + 2.5"``. The grammar, from
loosest to tightest binding:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | NAME "(" expr ")" | NAME | "(" expr ")"

``^`` binds tighter than unary minus (``-X1^2`` is ``-(X1^2)``) and is
right-associative. Exponents must not reference variables, and a
non-integer exponent requires a positive base at evaluation time; both
rules keep every supported model single-valued and differentiable.
Parsing and every evaluator recurse over the tree, so an expression
may nest at most :data:`MAX_NESTING` levels (parentheses, function
calls, unary minus and exponents) and its tree may be at most
:data:`MAX_HEIGHT` levels high (a sum of n terms is n levels high);
deeper input is a :class:`~uncertlab.errors.ParseError`.

Variable names must either match ``X`` followed by digits or be listed
explicitly in ``declared``, so a typo cannot silently become a new free
variable. Known unary functions live in the :data:`FUNCTIONS` table,
which is the single registration point for extending the function set
(the derivative entries there are consumed by :mod:`uncertlab.autodiff`).

Every evaluation is one walk of the tree, :func:`walk`: lhs, then rhs
or exponent, then the node, with an :class:`Ops` table for what
differs between kinds of value. :func:`evaluate` is the scalar
reference path: it reports domain violations (log of a non-positive
value, division by zero, fractional power of a negative base) as
:class:`~uncertlab.errors.DomainError` instead of returning NaN.
:func:`evaluate_batch` is the vectorized path used by Monte Carlo
propagation: it marks failed evaluations as non-finite entries for the
caller to count, because a raised exception would abort an entire
sampling run. :mod:`uncertlab.autodiff` walks the tree over jets.

Parsed trees are immutable, so they can be shared and evaluated from
many threads concurrently.
"""

import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, EvaluationError, ParseError

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Node",
    "MeasurementModelExpr",
    "FUNCTIONS",
    "parse_model",
    "evaluate",
    "evaluate_batch",
]


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    fn: str  # "neg" or a FUNCTIONS key
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of "+", "-", "*", "/", "^"
    lhs: "Node"
    rhs: "Node"


Node = Union[Const, Var, Unary, Binary]


@dataclass(frozen=True)
class MeasurementModelExpr:
    """A parsed measurement model.

    ``variables`` lists every variable referenced by the tree exactly
    once, in first-appearance order.
    """

    root: Node
    variables: tuple[str, ...]


# ---------------------------------------------------------------------------
# Function registry
# ---------------------------------------------------------------------------

class FunctionSpec(NamedTuple):
    """One entry of the function registry.

    scalar/batch are the checked scalar and vectorized implementations;
    d1..d3 evaluate the first three derivatives at a point and are used
    by the forward-mode jet arithmetic; deriv_check, when present,
    rejects points where the value exists but the derivative does not.
    """

    scalar: Callable[[float], float]
    batch: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    deriv_check: Optional[Callable[[float], None]] = None


def _scalar_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _scalar_ln(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x}")
    return math.log(x)


def _scalar_sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _scalar_periodic(fn: Callable[[float], float]) -> Callable[[float], float]:
    def scalar(x: float) -> float:
        if math.isinf(x):
            raise DomainError(f"{fn.__name__} of infinite value {x}")
        return fn(x)
    return scalar


def _sqrt_deriv_check(x: float) -> None:
    if x <= 0.0:
        raise DomainError(f"sqrt is not differentiable at {x}")


FUNCTIONS: dict[str, FunctionSpec] = {
    "sin": FunctionSpec(_scalar_periodic(math.sin), np.sin, math.cos,
                        lambda a: -math.sin(a), lambda a: -math.cos(a)),
    "cos": FunctionSpec(_scalar_periodic(math.cos), np.cos, lambda a: -math.sin(a),
                        lambda a: -math.cos(a), math.sin),
    "exp": FunctionSpec(_scalar_exp, np.exp, _scalar_exp, _scalar_exp, _scalar_exp),
    "ln": FunctionSpec(_scalar_ln, np.log, lambda a: 1.0 / a,
                       lambda a: -1.0 / (a * a), lambda a: 2.0 / (a * a * a)),
    "sqrt": FunctionSpec(_scalar_sqrt, np.sqrt, lambda a: 0.5 / math.sqrt(a),
                         lambda a: -0.25 * a ** -1.5, lambda a: 0.375 * a ** -2.5,
                         _sqrt_deriv_check),
}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_VAR_PATTERN = re.compile(r"X\d+\Z")


class _Token(NamedTuple):
    kind: str  # "number", "name", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "number":
            tokens.append(_Token("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Python's default recursion limit is 1,000 frames. The parser spends
# at most five frames per nesting level (a parenthesis, function call,
# unary minus or exponent) and every walk of the tree one per level of
# height, so these bounds leave about half the stack to the callers.
MAX_NESTING = 100
MAX_HEIGHT = 500


class _Parser:
    """Recursive descent; every rule returns its subtree and the
    subtree's height in levels, a leaf being one level."""

    def __init__(self, tokens: list[_Token], declared: frozenset[str]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.declared = declared
        self.seen_vars: dict[str, None] = {}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops: str) -> Optional[_Token]:
        # the parser's most frequent call, so peek and advance are inlined
        tok = self.tokens[self.i]
        if tok.kind == "op" and tok.text in ops:
            self.i += 1
            return tok
        return None

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        self.advance()

    def grow(self, tok: _Token, *heights: int) -> int:
        """The height of a node at ``tok`` over subtrees ``heights`` high."""
        if max(heights) >= MAX_HEIGHT:
            raise ParseError(
                f"expression more than {MAX_HEIGHT} levels high", tok.pos)
        return max(heights) + 1

    def parse(self) -> Node:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> tuple[Node, int]:
        node, height = self.term()
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return node, height
            rhs, h = self.term()
            node, height = Binary(tok.text, node, rhs), self.grow(tok, height, h)

    def term(self) -> tuple[Node, int]:
        node, height = self.unary()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return node, height
            rhs, h = self.unary()
            node, height = Binary(tok.text, node, rhs), self.grow(tok, height, h)

    def unary(self) -> tuple[Node, int]:
        # every nested rule passes through here
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep",
                self.peek().pos)
        tok = self.accept_op("-")
        if tok is None:
            node, height = self.power()
        else:
            arg, h = self.unary()
            node, height = Unary("neg", arg), self.grow(tok, h)
        self.depth -= 1
        return node, height

    def power(self) -> tuple[Node, int]:
        base, height = self.atom()
        tok = self.accept_op("^")
        if tok is None:
            return base, height
        exponent, h = self.unary()
        if affinity(exponent):
            raise ParseError("exponent must be a constant expression", tok.pos)
        return Binary("^", base, exponent), self.grow(tok, height, h)

    def atom(self) -> tuple[Node, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if math.isinf(value):       # an underflow to 0 is kept
                raise ParseError(f"number {tok.text:.24} is outside the "
                                 "double range", tok.pos)
            return Const(value), 1
        if tok.kind == "name":
            self.advance()
            if self.accept_op("("):
                if tok.text not in FUNCTIONS:
                    known = ", ".join(sorted(FUNCTIONS))
                    raise ParseError(
                        f"unknown function {tok.text!r} (known: {known})", tok.pos)
                arg, height = self.expr()
                self.expect_op(")")
                return Unary(tok.text, arg), self.grow(tok, height)
            if _VAR_PATTERN.match(tok.text) or tok.text in self.declared:
                self.seen_vars.setdefault(tok.text)
                return Var(tok.text), 1
            raise ParseError(
                f"unknown variable {tok.text!r} (use X<digits> or declare it "
                f"in the input list)", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            subtree = self.expr()
            self.expect_op(")")
            return subtree
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected a number, name, or '(', got {shown!r}", tok.pos)


def _couplings(node: Node, bit: Callable[[str], int], blocks: set) -> int:
    """The tree's variables as a bit mask (``bit`` gives a name's); adds
    to ``blocks`` each (A, B) of masks whose pairs a node couples."""
    if isinstance(node, Var):
        return bit(node.name)
    if isinstance(node, Const):
        return 0
    if isinstance(node, Unary):
        arg = _couplings(node.arg, bit, blocks)
        if node.fn != "neg":
            blocks.add((arg, arg))
        return arg
    lhs = _couplings(node.lhs, bit, blocks)
    rhs = _couplings(node.rhs, bit, blocks)
    if node.op in "*/":
        blocks.add((lhs, rhs))
    if node.op in "/^":
        own = rhs if node.op == "/" else lhs | rhs
        blocks.add((own, own))
    return lhs | rhs


def affinity(node: Node) -> int:
    """0 if the tree holds no variable, 1 if it is affine in its
    variables by structure alone, 2 otherwise; one visit per node.

    Constants, variables and variable-free subtrees are affine, and so
    are negations, sums and differences of affine trees and an affine
    tree multiplied or divided by a variable-free one. Every other
    tree is not, even one whose terms cancel to an affine function.
    """
    # with one bit for all variables, a coupling of two is a block (1, 1)
    blocks = set()
    return _couplings(node, lambda name: 1, blocks) + ((1, 1) in blocks)


def coupled_pairs(node: Node, names: tuple[str, ...]) -> tuple[list, list]:
    """The index pairs i < j into ``names`` whose mixed partials can be
    nonzero by structure, as lists of i and of j in row-major order.

    A product couples each variable of one operand with each of the
    other, a quotient also all of its denominator's, a function or
    power all of its operands'; sums and negation pass pairs up. Any
    other pair is additively separable. One visit per node, one pass
    over the variables of each distinct block, then one over the pairs.
    """
    bit, blocks = {name: 1 << t for t, name in enumerate(names)}, set()
    _couplings(node, bit.__getitem__, blocks)
    rows = [0] * len(names)         # rows[i]: the variables coupled with i
    for a, b in blocks:
        for side, other in {(a, b), (b, a)}:
            while side:
                top = side.bit_length() - 1
                rows[top] |= other
                side ^= 1 << top
    first, second = [], []
    for i, row in enumerate(rows):
        row >>= i + 1
        while row:
            low = row & -row
            first.append(i)
            second.append(i + low.bit_length())
            row ^= low
    return first, second


def parse_model(text: str, declared: Iterable[str] = ()) -> MeasurementModelExpr:
    """Parse a measurement-model expression.

    ``declared`` adds variable names beyond the built-in ``X<digits>``
    pattern, typically the names from the run configuration's input
    list. Raises :class:`ParseError` with a character offset on any
    malformed input.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), frozenset(declared))
    root = parser.parse()
    return MeasurementModelExpr(root, tuple(parser.seen_vars))


# ---------------------------------------------------------------------------
# Evaluation: one walk, three kinds of value
# ---------------------------------------------------------------------------

class Ops(NamedTuple):
    """Node semantics per kind of value; negation, sum and difference
    use the values' own operators."""

    const: Callable[[float], Any]
    var: Callable[[str], Any]
    apply: Callable[[str, Any], Any]        # FUNCTIONS key, argument
    power: Callable[[Any, float], Any]      # base, constant exponent
    mul: Callable[[Any, Any], Any]
    div: Callable[[Any, Any], Any]


def walk(node: Node, ops: Ops) -> Any:
    """Evaluate the tree with ``ops``, lhs before rhs or exponent, so
    every kind of value that raises :class:`DomainError` fails at the
    same node with the same message."""
    if isinstance(node, Const):
        return ops.const(node.value)
    if isinstance(node, Var):
        return ops.var(node.name)
    if isinstance(node, Unary):
        arg = walk(node.arg, ops)
        return -arg if node.fn == "neg" else ops.apply(node.fn, arg)
    lhs = walk(node.lhs, ops)
    if node.op == "^":
        return ops.power(lhs, constant_exponent(node.rhs))
    rhs = walk(node.rhs, ops)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return ops.mul(lhs, rhs)
    return ops.div(lhs, rhs)


def _scalar_div(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        raise DomainError("division by zero")
    return lhs / rhs


def _scalar_ops(env: Mapping[str, float]) -> Ops:
    return Ops(const=lambda value: value,
               var=lambda name: float(env[name]),
               apply=lambda fn, x: FUNCTIONS[fn].scalar(x),
               power=checked_pow, mul=operator.mul, div=_scalar_div)


def evaluate(expr: MeasurementModelExpr, assignment: Mapping[str, float]) -> float:
    """Evaluate the model at one point.

    Standard real arithmetic with IEEE overflow semantics (overflow
    yields inf). Domain violations raise :class:`DomainError`; a
    variable missing from ``assignment`` raises
    :class:`EvaluationError`.
    """
    missing = [v for v in expr.variables if v not in assignment]
    if missing:
        raise EvaluationError(f"no value for variable(s): {', '.join(missing)}")
    return walk(expr.root, _scalar_ops(assignment))


def constant_exponent(node: Node) -> float:
    """Evaluate an exponent subtree (guaranteed variable-free by the parser)."""
    return walk(node, _scalar_ops({}))


def checked_pow(base: float, exponent: float) -> float:
    """``base ** exponent`` with the grammar's domain rules applied; an
    overflow is an inf of the power's sign."""
    if math.isfinite(exponent) and exponent == int(exponent):
        if base == 0.0 and exponent < 0:
            raise DomainError("zero base raised to a negative power")
    elif base <= 0.0:
        raise DomainError(
            f"non-integer power of non-positive base {base}")
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return -math.inf if base < 0.0 and exponent % 2 else math.inf
    except ValueError as err:
        raise DomainError(f"power {base} ^ {exponent} undefined") from err


def evaluate_batch(
    expr: MeasurementModelExpr,
    columns: Mapping[str, np.ndarray],
    n: Optional[int] = None,
) -> np.ndarray:
    """Evaluate the model over whole sample columns at once.

    Returns a float64 array of length ``n`` (inferred from the columns
    when omitted; required for variable-free models). Domain failures do
    not raise: the affected entries come back non-finite and the caller
    decides how to treat them, which is what the Monte Carlo driver
    needs to count rather than abort. A missing column still raises.
    """
    missing = [v for v in expr.variables if v not in columns]
    if missing:
        raise EvaluationError(f"no column for variable(s): {', '.join(missing)}")
    if n is None:
        if not expr.variables:
            raise ValueError("n is required for a variable-free model")
        n = len(columns[expr.variables[0]])
    ops = Ops(const=lambda value: value,
              var=lambda name: np.asarray(columns[name], dtype=np.float64),
              apply=lambda fn, x: FUNCTIONS[fn].batch(x),
              power=np.power, mul=operator.mul, div=np.true_divide)
    with np.errstate(all="ignore"):
        out = walk(expr.root, ops)
    if np.ndim(out) == 0:
        return np.full(n, float(out))
    return np.asarray(out, dtype=np.float64)
