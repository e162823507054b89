"""The canonical JSON writer: the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline, for every value, with the same error where
``json.dumps`` has one."""

import json
import math
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from tuneforge import jsonfile
from tuneforge.jsonfile import canonical_json


def outcome(encode, value):
    """The text ``encode`` writes for ``value``, or the type and message of
    the error it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError, RecursionError) as e:
        return type(e), str(e)


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


SPECIAL_NUMBERS = [True, False, 1, 0, 1.0, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1,
                   1.7976931348623157e308, math.nan, math.inf, -math.inf,
                   10 ** 300, -(10 ** 300), 2 ** 63, -(2 ** 64) - 1]

# Characters json escapes: control characters, quotes, backslashes, and
# everything beyond ASCII, astral characters included.
TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=8) | st.sampled_from(
    ["", "\x00", "\x1f", "\x7f", '"', "\\", "/", "\n\t\r\b\f", "é", " ", "\U0001f600",
     "NaN", "null"])

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
           | st.sampled_from(SPECIAL_NUMBERS))

# Values json.dumps takes that are not plain JSON, and one it refuses.
NOT_PLAIN = (st.sampled_from([MappingProxyType({"a": 1}), {1: "a", "b": 2}, {None: 1, "a": 2},
                              {1.5: 0, 2: 1}, {True: "t"}, object()])
             | st.dictionaries(TEXT, SCALARS, max_size=3).map(OrderedDict))

PLAIN = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24)

VALUES = st.recursive(
    SCALARS | NOT_PLAIN,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(TEXT, children, max_size=3)),
    max_leaves=12)

PROPERTY = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(PLAIN)
@example({})
@example([])
@example(())
@example({"b": {"c": [], "a": {}}, "a": [(), [[]], {"x": ()}]})
@example({"\x00": "\x1f", "é": "\U0001f600", "": ""})
@example(SPECIAL_NUMBERS)
@example({"v": SPECIAL_NUMBERS})
def test_plain_values_are_json_dumps_bytes(value):
    assert canonical_json(value) == reference(value)


@PROPERTY
@given(VALUES)
@example(OrderedDict([("b", 1), ("a", 2)]))
@example({"a": {1: "x"}})
@example([MappingProxyType({})])
def test_every_value_has_json_dumps_outcome(value):
    assert outcome(canonical_json, value) == outcome(reference, value)


def test_cycle_keeps_json_dumps_value_error():
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json({"a": cycle})


@pytest.mark.parametrize("name, mutant", [
    ("sorted", lambda keys: list(keys)),                 # keys in insertion order
    ("_escape", json.encoder.py_encode_basestring),      # non-ASCII left unescaped
    ("_nonfinite", repr),                                # nan and inf as Python writes them
], ids=["unsorted-keys", "unescaped-text", "python-nonfinite"])
def test_the_property_catches_a_mutated_encoder(monkeypatch, name, mutant):
    monkeypatch.setattr(jsonfile, name, mutant, raising=False)
    try:
        find(PLAIN, lambda value: outcome(canonical_json, value) != outcome(reference, value),
             settings=settings(max_examples=2000, deadline=None,
                               suppress_health_check=[HealthCheck.too_slow]))
    except NoSuchExample:
        pytest.fail(f"no value tells the encoder with a mutated {name} apart")
