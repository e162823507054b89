"""Closed expression grammar for skill predicates and compute steps.

The grammar is exactly the forms the compiler writes: numeric literals,
symbols (runtime signals and reference data), arithmetic (+ - * /) and
parentheses, the comparisons <= and >=, the conjunction `and`, and the
functions abs/min/max, argmax/argmin (the index of the first best argument),
pick(i, v0, ...) (the value v_i) and defined(symbol). A hand-edited document
may use only these forms; any other (`or`, `not`, `<`, `>`, `=`, `==`, `!=`,
a leading minus) is a parse error, so validation refuses the document.
Comparisons and `and` yield 1.0 / 0.0. Unknown symbols raise, never silently
evaluate false; defined() tests for a signal's presence, and because `and`
short-circuits, "defined(x) and x >= 1" is a safe guarded reference.

Parsing compiles an expression once into a tree of closures, one per syntax
node, and caches it by text; evaluating it is then a single call. Operands
evaluate left to right and call arguments before the call, so a failing
operand raises the error the source order gives.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, Mapping

from .errors import ExpressionError

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|[+\-*/(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

# Parsed expressions are memoized by text. One compiled document holds about
# 150-300 distinct predicate texts; the bound sits well above that, so an
# in-order validation pass over a whole document never evicts its own entries.
_PARSE_CACHE_SIZE = 2048

# Function name -> fewest arguments; abs() and defined() take exactly one.
_FUNCTIONS = {"abs": 1, "min": 1, "max": 1, "argmax": 1, "argmin": 1, "pick": 2, "defined": 1}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExpressionError(f"bad character at {pos} in {text!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group()))
    tokens.append(("end", ""))
    return tokens


Evaluator = Callable[[Mapping[str, Any], Mapping[str, Any]], float]


class Expr:
    """A parsed expression: evaluatable, and statically inspectable.

    Instances are shared between callers through the parse cache, so they
    are never mutated after construction.
    """

    __slots__ = ("text", "sorted_symbols", "evaluate")

    def __init__(self, text: str, ast: tuple):
        self.text = text
        found: set[str] = set()
        # evaluate(signals, reference): the value against the signal store,
        # then the reference data; signals shadow reference data of one name.
        # The compiled evaluator itself, so that a call costs no method frame.
        self.evaluate: Evaluator = _compile(ast, text, found)
        # The symbols in sorted order: the order a trace records them in.
        self.sorted_symbols: tuple[str, ...] = tuple(sorted(found))

    def __repr__(self):
        return f"Expr({self.text!r})"

    def symbols(self) -> frozenset[str]:
        """Every symbol the expression references, defined() arguments included."""
        return frozenset(self.sorted_symbols)


def _compile(node: tuple, text: str, found: set[str]) -> Evaluator:
    """The evaluator of one syntax-tree node; adds the symbols it reads to `found`."""
    kind = node[0]
    if kind == "num":
        return _literal(node[1])
    if kind == "sym":
        found.add(node[1])
        return _symbol(node[1])
    if kind == "defined":
        name = node[1]
        found.add(name)
        return lambda s, r: 1.0 if (name in s or name in r) else 0.0
    if kind == "call":
        return _CALLS[node[1]]([_compile(a, text, found) for a in node[2]], text)
    left = _compile(node[2], text, found)
    return _BINARY[node[1]](left, _compile(node[3], text, found), text)


# Leaves are shared by every expression that holds them, so that a cached
# expression costs about what its syntax tree did.
@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _literal(value: float) -> Evaluator:
    return lambda s, r: value


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _symbol(name: str) -> Evaluator:
    def resolve(signals, reference):
        if name in signals:
            value = signals[name]
        elif name in reference:
            value = reference[name]
        else:
            raise ExpressionError(f"unresolved symbol {name!r}", symbol=name)
        if type(value) is float:
            return value
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if not isinstance(value, (int, float)):
            raise ExpressionError(f"symbol {name!r} is not numeric: {value!r}", symbol=name)
        return float(value)
    return resolve


def _pick(args: list[Evaluator], text: str) -> Evaluator:
    def pick(signals, reference):
        values = [a(signals, reference) for a in args]
        i = values[0]
        if not (i.is_integer() and 0 <= i < len(values) - 1):
            raise ExpressionError(f"pick() index {i!r} is not an integer in "
                                  f"[0, {len(values) - 2}] in {text!r}")
        return values[int(i) + 1]
    return pick


def _divide(left: Evaluator, right: Evaluator, text: str) -> Evaluator:
    def divide(signals, reference):
        numerator = left(signals, reference)
        denominator = right(signals, reference)
        if denominator == 0.0:
            raise ExpressionError(f"division by zero in {text!r}")
        return numerator / denominator
    return divide


# Function name -> the builder of its evaluator from its arguments' evaluators.
_CALLS: dict[str, Callable[[list[Evaluator], str], Evaluator]] = {
    "abs": lambda args, text: lambda s, r: abs(args[0](s, r)),
    "min": lambda args, text: lambda s, r: min([a(s, r) for a in args]),
    "max": lambda args, text: lambda s, r: max([a(s, r) for a in args]),
    "argmax": lambda args, text: lambda s, r: float(
        (values := [a(s, r) for a in args]).index(max(values))),
    "argmin": lambda args, text: lambda s, r: float(
        (values := [a(s, r) for a in args]).index(min(values))),
    "pick": _pick,
}

# Operator -> the builder of its evaluator from its operands' evaluators.
_BINARY: dict[str, Callable[[Evaluator, Evaluator, str], Evaluator]] = {
    "and": lambda left, right, text: (
        lambda s, r: 1.0 if left(s, r) != 0.0 and right(s, r) != 0.0 else 0.0),
    "+": lambda left, right, text: lambda s, r: left(s, r) + right(s, r),
    "-": lambda left, right, text: lambda s, r: left(s, r) - right(s, r),
    "*": lambda left, right, text: lambda s, r: left(s, r) * right(s, r),
    "/": _divide,
    "<=": lambda left, right, text: lambda s, r: 1.0 if left(s, r) <= right(s, r) else 0.0,
    ">=": lambda left, right, text: lambda s, r: 1.0 if left(s, r) >= right(s, r) else 0.0,
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, tok = self.next()
        if tok != value:
            raise ExpressionError(f"expected {value!r}, got {tok!r} in {self.text!r}")

    def parse(self) -> tuple:
        node = self.parse_and()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def parse_and(self) -> tuple:
        node = self.parse_cmp()
        while self.peek() == ("name", "and"):
            self.next()
            node = ("bin", "and", node, self.parse_cmp())
        return node

    def parse_cmp(self) -> tuple:
        node = self.parse_sum()
        kind, tok = self.peek()
        if kind == "op" and tok in ("<=", ">="):
            self.next()
            node = ("bin", tok, node, self.parse_sum())
        return node

    def parse_sum(self) -> tuple:
        node = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in ("+", "-"):
            _, op = self.next()
            node = ("bin", op, node, self.parse_term())
        return node

    def parse_term(self) -> tuple:
        node = self.parse_atom()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/"):
            _, op = self.next()
            node = ("bin", op, node, self.parse_atom())
        return node

    def parse_atom(self) -> tuple:
        kind, tok = self.next()
        if kind == "num":
            return ("num", float(tok))
        if kind == "op" and tok == "(":
            node = self.parse_and()
            self.expect(")")
            return node
        if kind == "name":
            if tok == "and":
                raise ExpressionError(f"misplaced keyword {tok!r} in {self.text!r}")
            if self.peek() == ("op", "("):
                if tok not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok!r} in {self.text!r}")
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.parse_and())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.parse_and())
                self.expect(")")
                if tok == "defined":
                    if len(args) != 1 or args[0][0] != "sym":
                        raise ExpressionError("defined() takes exactly one symbol argument")
                    return ("defined", args[0][1])
                if len(args) < _FUNCTIONS[tok] or (tok == "abs" and len(args) > 1):
                    raise ExpressionError(f"wrong number of arguments to {tok}() in {self.text!r}")
                return ("call", tok, args)
            return ("sym", tok)
        raise ExpressionError(f"unexpected token {tok!r} in {self.text!r}")


def parse(text: str) -> Expr:
    """Parse an expression string; raises ExpressionError on malformed input.

    Repeated texts return the same cached Expr; errors are never cached.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _parse_text(text)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_text(text: str) -> Expr:
    return Expr(text, _Parser(text).parse())


def evaluate(text: str, signals: Mapping[str, Any], reference: Mapping[str, Any]) -> float:
    return parse(text).evaluate(signals, reference)


def evaluate_predicate(text: str | Expr, signals: Mapping[str, Any],
                       reference: Mapping[str, Any]) -> bool:
    """Total, deterministic truth evaluation of a predicate expression, given
    as text or already parsed."""
    parsed = text if isinstance(text, Expr) else parse(text)
    return parsed.evaluate(signals, reference) != 0.0
