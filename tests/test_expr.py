"""Predicate/compute expression grammar: parsing, evaluation, symbol closure."""

import math
import re
import threading
import warnings

import pytest
from helpers import expr_oracle, expr_text
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneforge import expr as expr_mod
from tuneforge.errors import ExpressionError
from tuneforge.expr import evaluate, evaluate_predicate, parse


class TestEvaluation:
    def test_threshold_comparison(self):
        assert evaluate_predicate("eta2 >= 0.15", {"eta2": 0.39}, {}) is True
        assert evaluate_predicate("eta2 >= 0.15", {"eta2": 0.10}, {}) is False

    def test_conjunction_at_boundary(self):
        assert evaluate_predicate("cv >= 0 and cv <= 0", {"cv": 0}, {}) is True
        assert evaluate_predicate("cv >= 0 and cv <= 0", {"cv": 0.1}, {}) is False

    def test_unresolved_symbol_is_an_error_naming_it(self):
        with pytest.raises(ExpressionError) as err:
            evaluate_predicate("missing_sym >= 1", {}, {})
        assert err.value.symbol == "missing_sym"

    def test_reference_data_fallback_and_shadowing(self):
        assert evaluate("x + y", {"x": 1}, {"y": 2}) == 3.0
        assert evaluate("x", {"x": 10}, {"x": 1}) == 10.0  # signals shadow reference

    def test_arithmetic_and_precedence(self):
        assert evaluate("2 + 3 * 4", {}, {}) == 14.0
        assert evaluate("(2 + 3) * 4", {}, {}) == 20.0
        assert evaluate("0 - 3 + 5", {}, {}) == 2.0
        assert evaluate("10 / 4", {}, {}) == 2.5

    def test_functions(self):
        assert evaluate("abs(0 - 3)", {}, {}) == 3.0
        assert evaluate("max(1, 5, 3)", {}, {}) == 5.0
        assert evaluate("min(x, 2)", {"x": 7}, {}) == 2.0
        assert evaluate("argmax(1, 5, 3)", {}, {}) == 1.0
        assert evaluate("argmin(x, 2, 9)", {"x": 7}, {}) == 1.0
        assert evaluate("pick(2, 10, 20, 30)", {}, {}) == 30.0
        assert evaluate("pick(i, 10, 20)", {"i": 0}, {}) == 10.0
        # ties resolve to the first index: a later argument wins only if strictly better
        assert evaluate("argmax(1, 5, 5, 3, 5)", {}, {}) == 1.0
        assert evaluate("argmin(4, 2, 9, 2)", {}, {}) == 1.0
        assert evaluate("argmax(7, 7, 7)", {}, {}) == 0.0
        assert evaluate("argmin(x)", {"x": 3}, {}) == 0.0

    @pytest.mark.parametrize("index", ["1e999", pytest.param("0 - 1", id="-1"), "1.5", "2",
                                       "1e999 - 1e999"])
    def test_pick_index_outside_the_values_raises(self, index):
        with pytest.raises(ExpressionError, match="pick"):
            evaluate(f"pick({index}, 10, 20)", {}, {})

    def test_defined_guards_absent_symbols(self):
        assert evaluate_predicate("defined(flag)", {"flag": 0.0}, {}) is True
        assert evaluate_predicate("defined(flag)", {}, {}) is False
        # `and` short-circuits, so a defined() guard makes the reference safe;
        # an unguarded reference to an absent symbol still raises
        assert evaluate_predicate("defined(flag) and flag >= 1", {}, {}) is False
        with pytest.raises(ExpressionError):
            evaluate_predicate("flag >= 1", {}, {})

    def test_booleans_as_numbers(self):
        assert evaluate("(a >= 1) + (b >= 1)", {"a": 2, "b": 0}, {}) == 1.0
        assert evaluate("(a >= 1 and b <= 0) * 3", {"a": 2, "b": 0}, {}) == 3.0

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            evaluate("1 / x", {"x": 0}, {})


class TestParsing:
    @pytest.mark.parametrize("bad", [
        "", "   ", "1 +", "foo(1)", "(1", "defined(1)", "defined(a, b)",
        "a >", "and a", "1 2", "a $ b", "argmax()", "argmin()", "pick()", "pick(1)",
    ])
    def test_malformed_expressions_raise(self, bad):
        with pytest.raises(ExpressionError):
            parse(bad)

    # Forms the compiler never writes are outside the grammar.
    @pytest.mark.filterwarnings("ignore:invalid decimal literal:SyntaxWarning")
    @pytest.mark.parametrize("removed", [
        "a or b", "not a", "a < b", "a > b", "a = b", "a == b", "a != b", "-1",
        # Python's parser reads these spellings; the grammar does not
        "1_0", "0x1", "1j", "(max)(a)", "max(a,)", "max(a, b , )", "max(a=1)", "a + \u00e9",
        "a + \u0661", "a # b", "a \\\n + b", "1and 2",
        # a keyword is no symbol, and an integer has no leading zero
        "None", "True", "in", "lambda", "a + None", "01", "01 + a"])
    def test_removed_forms_are_parse_errors(self, removed):
        with pytest.raises(ExpressionError):
            parse(removed)

    def test_whitespace_separates_tokens_and_errors_quote_the_text(self):
        # a run of whitespace, a line break or a non-ASCII space among it, is one space
        text = "max(a,\n\t b)\u00a0/  c"
        assert evaluate(text, {"a": 1, "b": 4, "c": 2}, {}) == 2.0
        with pytest.raises(ExpressionError, match=re.escape(repr(text))):
            evaluate(text, {"a": 1, "b": 4, "c": 0}, {})

    @pytest.mark.filterwarnings("ignore:invalid decimal literal:SyntaxWarning")
    def test_cold_parses_from_threads_leave_the_warning_filters_alone(self):
        # the process-wide warning filters are no parser state; Python 3.11
        # reads `1and 2` with a warning
        filters = list(warnings.filters)
        texts = [f"max(a{i}, {j}) >= b" for i in range(4) for j in range(200)] + ["1and 2"] * 4
        start = threading.Barrier(4)
        refused = []

        def parse_all(i):
            start.wait()
            for text in texts[i::4]:
                try:
                    parse(text)
                except ExpressionError:
                    refused.append(text)

        expr_mod._parse_text.cache_clear()
        threads = [threading.Thread(target=parse_all, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert warnings.filters == filters
        assert refused == ["1and 2"] * 4

    def test_malformed_text_raises_on_every_call(self):
        for bad in ("1 +", "foo(1)", "a $ b"):
            for _ in range(3):
                with pytest.raises(ExpressionError):
                    parse(bad)
        assert expr_mod._parse_text.cache_info().currsize == 0

    def test_repeated_text_returns_the_cached_expression(self):
        text = "a >= 0.5 and defined(c)"
        assert parse(text) is parse(text)

    def test_symbols_collects_everything_including_defined_args(self):
        e = parse("defined(flag) and cv >= tau_s * 2 + max(x, 0)")
        assert e.symbols() == {"flag", "cv", "tau_s", "x"}
        e = parse("pick(argmax(a, b), c, 2) + argmin(d, 1)")
        assert e.symbols() == {"a", "b", "c", "d"}

    def test_symbols_cannot_be_mutated(self):
        symbols = parse("a + b").symbols()
        assert isinstance(symbols, frozenset)
        with pytest.raises(AttributeError):
            symbols.add("c")
        assert parse("a + b").symbols() == {"a", "b"}

    def test_numeric_literal_forms(self):
        assert evaluate("1e3 + .5 + 2.", {}, {}) == 1002.5

    def test_non_numeric_symbol_value_is_an_error(self):
        with pytest.raises(ExpressionError):
            evaluate("a + 1", {"a": "text"}, {})

    def test_deterministic_reparse(self):
        text = "a >= 0.5 and (b <= 2 and defined(c))"
        assert parse(text).evaluate({"a": 1, "b": 1}, {}) == \
            parse(text).evaluate({"a": 1, "b": 1}, {})


SYMBOLS = ("a", "b", "c")

_leaves = st.one_of(
    st.tuples(st.just("num"), st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.25, 1e-3, 12.0])),
    st.tuples(st.just("num"), st.floats(0, 1e3, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("sym"), st.sampled_from(SYMBOLS)),
    st.tuples(st.just("defined"), st.sampled_from(SYMBOLS)))


def _extend(children):
    many = st.lists(children, min_size=1, max_size=4)
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(["+", "-", "*", "/", "<=", ">=", "and"]),
                  children, children),
        st.tuples(st.just("call"), st.just("abs"), st.lists(children, min_size=1, max_size=1)),
        st.tuples(st.just("call"), st.sampled_from(["min", "max", "argmax", "argmin"]), many),
        st.tuples(st.just("call"), st.just("pick"), st.lists(children, min_size=2, max_size=4)))


TREES = st.recursive(_leaves, _extend, max_leaves=12)
VALUES = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-3, 3), st.booleans(),
                   st.sampled_from([0.0, 1.0, "text", None]))
ENVIRONMENTS = st.dictionaries(st.sampled_from(SYMBOLS), VALUES, max_size=len(SYMBOLS))


def _outcome(evaluate):
    """(value, None) or (None, (message, symbol)) of one evaluation."""
    try:
        return evaluate(), None
    except ExpressionError as e:
        return None, (str(e), e.symbol)


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


class TestOracleParity:
    """The compiled evaluator against a direct walk of the syntax tree the
    text was written from: the same value, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(tree=TREES, signals=ENVIRONMENTS, reference=ENVIRONMENTS)
    def test_compiled_evaluation_matches_the_oracle(self, tree, signals, reference):
        text = expr_text(tree)
        got, got_error = _outcome(lambda: evaluate(text, signals, reference))
        want, want_error = _outcome(lambda: expr_oracle(tree, signals, reference, text))
        assert got_error == want_error
        assert _same(got, want), (text, got, want)
        if got_error is None:
            assert type(got) is float
            assert evaluate_predicate(text, signals, reference) is (got != 0.0)

    @settings(max_examples=100, deadline=None)
    @given(tree=TREES)
    def test_symbols_are_those_the_tree_names(self, tree):
        def names(node):
            if node[0] in ("sym", "defined"):
                return {node[1]}
            children = node[2:] if node[0] == "bin" else node[2] if node[0] == "call" else ()
            return set().union(*map(names, children))

        parsed = parse(expr_text(tree))
        assert parsed.symbols() == names(tree)
        assert parsed.sorted_symbols == tuple(sorted(names(tree)))

    def test_guarded_reference_never_reads_the_absent_symbol(self):
        class Watched(dict):
            """A mapping that records every key read by item."""

            def __init__(self, *args):
                super().__init__(*args)
                self.read = []

            def __getitem__(self, key):
                self.read.append(key)
                return super().__getitem__(key)

        signals, reference = Watched(), Watched({"y": 2.0})
        parsed = parse("defined(x) and x >= 1")
        assert parsed.evaluate(signals, reference) == 0.0
        assert evaluate_predicate(parsed, signals, reference) is False
        assert signals.read == reference.read == []
        signals["x"] = 3
        assert parsed.evaluate(signals, reference) == 1.0
        assert signals.read == ["x"]

    def test_a_parsed_expression_evaluates_as_its_text(self):
        parsed = parse("a >= 0.5 and b <= 2")
        for env in ({"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": True, "b": 3.0}):
            assert evaluate_predicate(parsed, env, {}) is evaluate_predicate(parsed.text, env, {})
