"""Closed expression grammar for skill predicates and compute steps.

Supports numeric literals, symbols (runtime signals and reference data),
arithmetic (+ - * /), comparisons (< <= = == != >= >), boolean and/or/not,
and the functions abs/min/max, argmax/argmin (the index of the first best
argument), pick(i, v0, ...) (the value v_i) and defined(symbol). Comparisons
and boolean operators yield 1.0 / 0.0. Unknown symbols raise, never silently
evaluate false; defined() tests for a signal's presence, and because and/or
short-circuit, "defined(x) and x > 0" is a safe guarded reference.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Mapping

from .errors import ExpressionError

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|[<>=+\-*/(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

# Parsed expressions are memoized by text. One compiled document holds about
# 150-300 distinct predicate texts; the bound sits well above that, so an
# in-order validation pass over a whole document never evicts its own entries.
_PARSE_CACHE_SIZE = 2048

# Function name -> fewest arguments; abs() and defined() take exactly one.
_FUNCTIONS = {"abs": 1, "min": 1, "max": 1, "argmax": 1, "argmin": 1, "pick": 2, "defined": 1}
_KEYWORDS = {"and", "or", "not"}


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


class Expr:
    """A parsed expression: evaluatable, and statically inspectable.

    Instances are shared between callers through the parse cache, so they
    are never mutated after construction.
    """

    def __init__(self, text: str, ast: tuple):
        self.text = text
        self._ast = ast
        self._symbols = self._collect_symbols()

    def __repr__(self):
        return f"Expr({self.text!r})"

    def symbols(self) -> frozenset[str]:
        """Every symbol the expression references, defined() arguments included."""
        return self._symbols

    def _collect_symbols(self) -> frozenset[str]:
        out: set[str] = set()

        def walk(node):
            kind = node[0]
            if kind in ("sym", "defined"):
                out.add(node[1])
            elif kind == "bin":
                walk(node[2])
                walk(node[3])
            elif kind == "not":
                walk(node[1])
            elif kind == "call":
                for a in node[2]:
                    walk(a)

        walk(self._ast)
        return frozenset(out)

    def evaluate(self, signals: Mapping[str, Any], reference: Mapping[str, Any]) -> float:
        """Evaluate against the signal store, then reference data.

        Signals shadow reference data of the same name.
        """

        def resolve(name: str) -> float:
            if name in signals:
                value = signals[name]
            elif name in reference:
                value = reference[name]
            else:
                raise ExpressionError(f"unresolved symbol {name!r}", symbol=name)
            if isinstance(value, bool):
                return 1.0 if value else 0.0
            if not isinstance(value, (int, float)):
                raise ExpressionError(f"symbol {name!r} is not numeric: {value!r}", symbol=name)
            return float(value)

        def ev(node) -> float:
            kind = node[0]
            if kind == "num":
                return node[1]
            if kind == "sym":
                return resolve(node[1])
            if kind == "defined":
                return 1.0 if (node[1] in signals or node[1] in reference) else 0.0
            if kind == "not":
                return 0.0 if ev(node[1]) != 0.0 else 1.0
            if kind == "call":
                args = [ev(a) for a in node[2]]
                fn = node[1]
                if fn == "abs":
                    return abs(args[0])
                if fn == "min":
                    return min(args)
                if fn == "max":
                    return max(args)
                if fn in ("argmax", "argmin"):
                    return float(args.index(max(args) if fn == "argmax" else min(args)))
                if fn == "pick":
                    i = args[0]
                    if not (i.is_integer() and 0 <= i < len(args) - 1):
                        raise ExpressionError(f"pick() index {i!r} is not an integer in "
                                              f"[0, {len(args) - 2}] in {self.text!r}")
                    return args[int(i) + 1]
                raise ExpressionError(f"unknown function {fn!r}")
            op, lhs, rhs = node[1], node[2], node[3]
            if op == "and":
                return 1.0 if ev(lhs) != 0.0 and ev(rhs) != 0.0 else 0.0
            if op == "or":
                return 1.0 if ev(lhs) != 0.0 or ev(rhs) != 0.0 else 0.0
            left = ev(lhs)
            right = ev(rhs)
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0.0:
                    raise ExpressionError(f"division by zero in {self.text!r}")
                return left / right
            if op == "<":
                return 1.0 if left < right else 0.0
            if op == "<=":
                return 1.0 if left <= right else 0.0
            if op == ">":
                return 1.0 if left > right else 0.0
            if op == ">=":
                return 1.0 if left >= right else 0.0
            if op in ("=", "=="):
                return 1.0 if left == right else 0.0
            if op == "!=":
                return 1.0 if left != right else 0.0
            raise ExpressionError(f"unknown operator {op!r}")

        return ev(self._ast)


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
        node = self.parse_or()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def parse_or(self) -> tuple:
        node = self.parse_and()
        while self.peek() == ("name", "or"):
            self.next()
            node = ("bin", "or", node, self.parse_and())
        return node

    def parse_and(self) -> tuple:
        node = self.parse_not()
        while self.peek() == ("name", "and"):
            self.next()
            node = ("bin", "and", node, self.parse_not())
        return node

    def parse_not(self) -> tuple:
        if self.peek() == ("name", "not"):
            self.next()
            return ("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> tuple:
        node = self.parse_sum()
        kind, tok = self.peek()
        if kind == "op" and tok in ("<", "<=", ">", ">=", "=", "==", "!="):
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
        node = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/"):
            _, op = self.next()
            node = ("bin", op, node, self.parse_unary())
        return node

    def parse_unary(self) -> tuple:
        if self.peek() == ("op", "-"):
            self.next()
            return ("bin", "-", ("num", 0.0), self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> tuple:
        kind, tok = self.next()
        if kind == "num":
            return ("num", float(tok))
        if kind == "op" and tok == "(":
            node = self.parse_or()
            self.expect(")")
            return node
        if kind == "name":
            if tok in _KEYWORDS:
                raise ExpressionError(f"misplaced keyword {tok!r} in {self.text!r}")
            if self.peek() == ("op", "("):
                if tok not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok!r} in {self.text!r}")
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.parse_or())
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.parse_or())
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


def evaluate_predicate(text: str, signals: Mapping[str, Any],
                       reference: Mapping[str, Any]) -> bool:
    """Total, deterministic truth evaluation of a predicate expression."""
    return evaluate(text, signals, reference) != 0.0
