"""Closed expression grammar for skill predicates and compute steps.

The grammar is exactly the forms the compiler writes: numeric literals,
symbols (runtime signals and reference data), arithmetic (+ - * /) and
parentheses, the comparisons <= and >=, the conjunction `and`, and the
functions abs/min/max, argmax/argmin (the index of the first best argument),
pick(i, v0, ...) (the value v_i) and defined(symbol). Python's parser reads
the text, and each node must be one of these forms (`_tree`), spelled as the
compiler spells it: any other (`or`, `not`, `<`, `>`, `==`, `!=`, a leading
minus, a keyword such as `None` as a symbol, `01`, `1_0`, `0x1`) is a parse
error, so validation refuses a hand-edited document that uses it.
Comparisons and `and` yield 1.0 / 0.0. Unknown symbols raise, never silently
evaluate false; defined() tests for a signal's presence, and because `and`
short-circuits, "defined(x) and x >= 1" is a safe guarded reference.

Parsing compiles an expression once into a tree of closures, one per syntax
node, and caches it by text; evaluating it is then a single call. Operands
evaluate left to right and call arguments before the call, so a failing
operand raises the error the source order gives.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Any, Callable, Mapping

from .errors import ExpressionError

# Parsed expressions are memoized by text. One compiled document holds about
# 150-300 distinct predicate texts; the bound sits well above that, so an
# in-order validation pass over a whole document never evicts its own entries.
_PARSE_CACHE_SIZE = 2048

# Function name -> fewest arguments; abs() and defined() take exactly one.
_FUNCTIONS = {"abs": 1, "min": 1, "max": 1, "argmax": 1, "argmin": 1, "pick": 2, "defined": 1}


Evaluator = Callable[[Mapping[str, Any], Mapping[str, Any]], float]


class Expr:
    """A parsed expression: evaluatable, and statically inspectable.

    Instances are shared between callers through the parse cache, so they
    are never mutated after construction.
    """

    __slots__ = ("text", "sorted_symbols", "evaluate")

    def __init__(self, text: str, tree: tuple):
        self.text = text
        found: set[str] = set()
        # evaluate(signals, reference): the value against the signal store,
        # then the reference data; signals shadow reference data of one name.
        # The compiled evaluator itself, so that a call costs no method frame.
        self.evaluate: Evaluator = _compile(tree, text, found)
        # The symbols in sorted order: the order a trace records them in.
        self.sorted_symbols: tuple[str, ...] = tuple(sorted(found))

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


# A number as the grammar spells it; Python's parser also reads 1_0, 0x1 and 1j.
_NUMBER_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")

# Python's operator class -> the grammar's operator, as `_compile` reads it.
# Python's parse already puts `and` only in a BoolOp, a comparison only in a
# Compare and arithmetic only in a BinOp.
_OPERATORS: dict[type, str] = {ast.And: "and", ast.LtE: "<=", ast.GtE: ">=",
                               ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _tree(node: ast.AST, text: str) -> tuple:
    """The syntax tree `_compile` reads of one node of Python's parse of
    `text`; refuses every node outside the grammar's forms."""
    kind = type(node)
    spelled = text[node.col_offset:node.end_col_offset]
    if kind is ast.Constant:
        # not glued to a name either, as in `1and 2`, which Python 3.11 reads
        follower = text[node.end_col_offset:node.end_col_offset + 1]
        if _NUMBER_RE.fullmatch(spelled) and not (follower.isalnum() or follower == "_"):
            return ("num", float(spelled))
    if kind is ast.Name:
        return ("sym", node.id)
    if kind is ast.Call:
        return _call(node, spelled, text)
    if kind is ast.BinOp and type(node.op) in _OPERATORS:
        left, right = _tree(node.left, text), _tree(node.right, text)
        return ("bin", _OPERATORS[type(node.op)], left, right)
    if kind is ast.Compare and len(node.ops) == 1 and type(node.ops[0]) in _OPERATORS:
        left, right = _tree(node.left, text), _tree(node.comparators[0], text)
        return ("bin", _OPERATORS[type(node.ops[0])], left, right)
    if kind is ast.BoolOp and type(node.op) in _OPERATORS:
        # a run of `and` associates to the left, as it evaluates
        tree = _tree(node.values[0], text)
        for operand in node.values[1:]:
            tree = ("bin", "and", tree, _tree(operand, text))
        return tree
    raise ExpressionError(f"{spelled!r} is outside the grammar")


def _call(node: ast.Call, spelled: str, text: str) -> tuple:
    """The syntax tree of a call of one of `_FUNCTIONS`."""
    func = node.func
    if type(func) is not ast.Name or func.id not in _FUNCTIONS:
        raise ExpressionError(f"unknown function {text[func.col_offset:func.end_col_offset]!r}")
    # Python also reads `(max)(a)`, `max(a=1)` and `max(a,)`
    last = node.args[-1].end_col_offset if node.args else node.end_col_offset
    if func.col_offset != node.col_offset or node.keywords or "," in text[last:node.end_col_offset]:
        raise ExpressionError(f"{spelled!r} is outside the grammar")
    fn = func.id
    args = [_tree(arg, text) for arg in node.args]
    if fn == "defined":
        if len(args) != 1 or args[0][0] != "sym":
            raise ExpressionError("wrong arguments to defined()")
        return ("defined", args[0][1])
    if len(args) < _FUNCTIONS[fn] or (fn == "abs" and len(args) > 1):
        raise ExpressionError(f"wrong arguments to {fn}()")
    return ("call", fn, args)


def parse(text: str) -> Expr:
    """Parse an expression string; raises ExpressionError on malformed input.

    Repeated texts return the same cached Expr; errors are never cached.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _parse_text(text)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_text(text: str) -> Expr:
    flat = " ".join(text.split())  # no token of the grammar holds whitespace
    try:
        if not flat.isascii() or "#" in flat or "\\" in flat:
            raise ExpressionError("bad character")
        tree = _tree(ast.parse(flat, mode="eval").body, flat)
    except (ExpressionError, SyntaxError, ValueError, RecursionError, MemoryError) as e:
        reason = getattr(e, "msg", None) or str(e) or type(e).__name__
        raise ExpressionError(f"{reason} in {text!r}") from None
    return Expr(text, tree)


def evaluate(text: str, signals: Mapping[str, Any], reference: Mapping[str, Any]) -> float:
    return parse(text).evaluate(signals, reference)


def evaluate_predicate(text: str | Expr, signals: Mapping[str, Any],
                       reference: Mapping[str, Any]) -> bool:
    """Total, deterministic truth evaluation of a predicate expression, given
    as text or already parsed."""
    parsed = text if isinstance(text, Expr) else parse(text)
    return parsed.evaluate(signals, reference) != 0.0
