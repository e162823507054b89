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

Parsing compiles an expression once: one pass over Python's parse (`_tree`)
turns each node into its closure and collects the symbols. The result is
cached by text; evaluating it is then a single call. Operands evaluate left to
right and call arguments before the call, so a failing operand raises the
error the source order gives.
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

    Built in the one pass of `_tree` over Python's parse: its evaluator and
    the symbols it reads. Instances are shared between callers through the
    parse cache, so they are never mutated after construction.
    """

    __slots__ = ("text", "sorted_symbols", "evaluate")

    def __init__(self, text: str, evaluate: Evaluator, symbols: set[str]):
        self.text = text
        # evaluate(signals, reference): the value against the signal store,
        # then the reference data; signals shadow reference data of one name.
        # The compiled evaluator itself, so that a call costs no method frame.
        self.evaluate = evaluate
        # The symbols in sorted order: the order a trace records them in.
        self.sorted_symbols: tuple[str, ...] = tuple(sorted(symbols))

    def symbols(self) -> frozenset[str]:
        """Every symbol the expression references, defined() arguments included."""
        return frozenset(self.sorted_symbols)


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

# Python's operator class -> the builder of its evaluator from its operands'
# evaluators. Python's parse already puts `and` only in a BoolOp, a comparison
# only in a Compare and arithmetic only in a BinOp.
_OPERATORS: dict[type, Callable[[Evaluator, Evaluator, str], Evaluator]] = {
    ast.And: lambda left, right, text: (
        lambda s, r: 1.0 if left(s, r) != 0.0 and right(s, r) != 0.0 else 0.0),
    ast.Add: lambda left, right, text: lambda s, r: left(s, r) + right(s, r),
    ast.Sub: lambda left, right, text: lambda s, r: left(s, r) - right(s, r),
    ast.Mult: lambda left, right, text: lambda s, r: left(s, r) * right(s, r),
    ast.Div: _divide,
    ast.LtE: lambda left, right, text: lambda s, r: 1.0 if left(s, r) <= right(s, r) else 0.0,
    ast.GtE: lambda left, right, text: lambda s, r: 1.0 if left(s, r) >= right(s, r) else 0.0,
}

# A number as the grammar spells it; Python's parser also reads 1_0, 0x1 and 1j.
_NUMBER_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _tree(node: ast.AST, flat: str, text: str, found: set[str]) -> Evaluator:
    """The evaluator of one node of Python's parse of `flat`, built from its
    operands' evaluators in one pass; adds the symbols it reads to `found`.
    Refuses every node outside the grammar's forms. Spans are read from
    `flat`; evaluation errors quote `text`, the expression as written."""
    kind = type(node)
    spelled = flat[node.col_offset:node.end_col_offset]
    if kind is ast.Constant:
        # not glued to a name either, as in `1and 2`, which Python 3.11 reads
        follower = flat[node.end_col_offset:node.end_col_offset + 1]
        if _NUMBER_RE.fullmatch(spelled) and not (follower.isalnum() or follower == "_"):
            return _literal(float(spelled))
    if kind is ast.Name:
        found.add(node.id)
        return _symbol(node.id)
    if kind is ast.Call:
        return _call(node, spelled, flat, text, found)
    if kind is ast.BinOp and type(node.op) in _OPERATORS:
        left = _tree(node.left, flat, text, found)
        return _OPERATORS[type(node.op)](left, _tree(node.right, flat, text, found), text)
    if kind is ast.Compare and len(node.ops) == 1 and type(node.ops[0]) in _OPERATORS:
        left = _tree(node.left, flat, text, found)
        right = _tree(node.comparators[0], flat, text, found)
        return _OPERATORS[type(node.ops[0])](left, right, text)
    if kind is ast.BoolOp and type(node.op) in _OPERATORS:
        # a run of `and` associates to the left, as it evaluates
        evaluate = _tree(node.values[0], flat, text, found)
        for operand in node.values[1:]:
            evaluate = _OPERATORS[ast.And](evaluate, _tree(operand, flat, text, found), text)
        return evaluate
    raise ExpressionError(f"{spelled!r} is outside the grammar")


def _call(node: ast.Call, spelled: str, flat: str, text: str, found: set[str]) -> Evaluator:
    """The evaluator of a call of one of `_FUNCTIONS`."""
    func = node.func
    if type(func) is not ast.Name or func.id not in _FUNCTIONS:
        raise ExpressionError(f"unknown function {flat[func.col_offset:func.end_col_offset]!r}")
    # Python also reads `(max)(a)`, `max(a=1)` and `max(a,)`
    last = node.args[-1].end_col_offset if node.args else node.end_col_offset
    if func.col_offset != node.col_offset or node.keywords or "," in flat[last:node.end_col_offset]:
        raise ExpressionError(f"{spelled!r} is outside the grammar")
    fn = func.id
    args = [_tree(arg, flat, text, found) for arg in node.args]
    if fn == "defined":
        if len(args) != 1 or type(node.args[0]) is not ast.Name:
            raise ExpressionError("wrong arguments to defined()")
        name = node.args[0].id
        return lambda s, r: 1.0 if (name in s or name in r) else 0.0
    if len(args) < _FUNCTIONS[fn] or (fn == "abs" and len(args) > 1):
        raise ExpressionError(f"wrong arguments to {fn}()")
    return _CALLS[fn](args, text)


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
        found: set[str] = set()
        evaluate = _tree(ast.parse(flat, mode="eval").body, flat, text, found)
    except (ExpressionError, SyntaxError, ValueError, RecursionError, MemoryError) as e:
        reason = getattr(e, "msg", None) or str(e) or type(e).__name__
        raise ExpressionError(f"{reason} in {text!r}") from None
    return Expr(text, evaluate, found)


def evaluate(text: str, signals: Mapping[str, Any], reference: Mapping[str, Any]) -> float:
    return parse(text).evaluate(signals, reference)


def evaluate_predicate(text: str | Expr, signals: Mapping[str, Any],
                       reference: Mapping[str, Any]) -> bool:
    """Total, deterministic truth evaluation of a predicate expression, given
    as text or already parsed."""
    parsed = text if isinstance(text, Expr) else parse(text)
    return parsed.evaluate(signals, reference) != 0.0
