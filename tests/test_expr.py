"""Predicate/compute expression grammar: parsing, evaluation, symbol closure."""

import pytest

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
    @pytest.mark.parametrize("removed", ["a or b", "not a", "a < b", "a > b", "a = b", "a == b",
                                         "a != b", "-1"])
    def test_removed_forms_are_parse_errors(self, removed):
        with pytest.raises(ExpressionError):
            parse(removed)

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
