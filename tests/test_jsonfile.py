"""The canonical JSON writer: the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline, for every value, with the same error where
``json.dumps`` has one; and the annotation table every loaded field is
checked against."""

import importlib
import inspect
import json
import math
import pkgutil
import re
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, fields, is_dataclass
from types import MappingProxyType
from typing import Any, Mapping

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

import tuneforge
from helpers import run_small_pipeline
from test_fail_closed import WRITERS
from tuneforge import jsonfile
from tuneforge.docgen import BenchmarkStep, Fingerprint, ProceduralDocument
from tuneforge.errors import AnalysisError, DocumentError
from tuneforge.executor import Predicate, TraceHeader
from tuneforge.jsonfile import canonical_json
from tuneforge.sensitivity import SensitivityReport
from tuneforge.simulator import Response, SimulatorModel
from tuneforge.space import Configuration, Domain, dump_space, load_space, load_workloads
from tuneforge.topology import Rejection


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


# An annotation, a value, and why the annotation refuses it (None: it admits it).
FORM_CASES = [
    (str, "a", None), (str, 1, "1 is not str"), (int, 3, None), (int, True, "True is not int"),
    (bool, 1, "1 is not bool"), (float, 1, None), (float, True, "True is not float"),
    (float, "1.5", "'1.5' is not float"), (str | None, None, None),
    (float | None, [], "[] is not float | None"),
    (list[str], ("a", "b"), None), (list[str], ["a", 1], "1: 1 is not str"),
    (list[str], {"a": "b"}, "{'a': 'b'} is not list[str]"),
    (tuple[str, ...], ["a"], None), (tuple[Any, ...], ["a", 1, None], None),
    (tuple[str, str], ["a", "b"], None), (tuple[str, str], ["a"], "['a'] is not tuple[str, str]"),
    (tuple[str, str], ("a", 2), "1: 2 is not str"),
    (dict[str, float], {"w0": 1.5, "w1": 2}, None), (dict[str, float], {"w0": "x"},
                                                     "w0: 'x' is not float"),
    (dict[str, int], [["w0", 1]], "[['w0', 1]] is not dict[str, int]"),
    (Mapping[str, Any], MappingProxyType({"a": [1]}), None),
    (Mapping[str, Any], [], "[] is not Mapping[str, Any]"),
    (dict, {}, None), (dict, [], "[] is not dict"), (Any, object, None),
    (list[Fingerprint], [{"campaign_id": "c", "space_hash": "h"}], None),
    (Fingerprint, {"campaign_id": "c"}, "missing keys ['space_hash'], unknown keys []"),
    (Fingerprint, {"campaign_id": "c", "space_hash": "h", "seed": 1},
     "missing keys [], unknown keys ['seed']"),
    (list[Fingerprint], [{"campaign_id": 1, "space_hash": "h"}], "0: campaign_id: 1 is not str"),
    (Configuration, Configuration({}), None), (Configuration, {}, "{} is not Configuration"),
    (BenchmarkStep | None, None, None),
]


@pytest.mark.parametrize("hint, value, reason", FORM_CASES)
def test_each_annotation_form_admits_or_names_the_wrong_value(hint, value, reason):
    if reason is None:
        assert jsonfile.check(hint, value, "x") is value
    else:
        with pytest.raises(AnalysisError, match=f"^x: {re.escape(reason)}$"):
            jsonfile.check(hint, value, "x")


@pytest.mark.parametrize("cls", [*WRITERS, TraceHeader, Predicate, Rejection, Fingerprint,
                                 Domain, Response, SimulatorModel],
                         ids=lambda cls: cls.__name__)
def test_the_table_builds_for_every_record(cls):
    tests = jsonfile.type_tests(cls)
    assert list(tests) == ([f.name for f in fields(cls)] if is_dataclass(cls)
                           else list(cls.__annotations__))


@pytest.mark.parametrize("hint", [set[str], frozenset, bytes, Sequence[str], dict[int, str]],
                         ids=["set-of-str", "frozenset", "bytes", "sequence", "int-keys"])
def test_an_annotation_without_a_test_raises_when_its_table_is_built(hint):
    @dataclass
    class Odd:
        name: str
        odd: hint

    with pytest.raises(TypeError, match="^no test for the annotation "):
        jsonfile.type_tests(Odd)


@dataclass(frozen=True)
class Named:
    name: str


@pytest.mark.parametrize("keyword", ["pinned", "written"])
@pytest.mark.parametrize("d", [{"name": "a", "version": 1}, {"name": "a"}],
                         ids=["present", "absent"])
def test_an_optional_key_that_is_not_read_may_be_left_out(keyword, d):
    extra = {"pinned": {"version": 1}} if keyword == "pinned" else {"written": ("version",)}
    assert jsonfile.load_fields(Named, d, "x", optional=("version",), **extra) == Named("a")


# The only classes that write or read their JSON by hand, and why: the
# journal's hot path; a safe range's two shapes; a domain's and a response's
# keys, which depend on its kind or shape (each read from one table); the key
# a step, a document and an interaction report add to their fields; and a
# skill, named in load errors by its id. Every other record class declares its
# schema and inherits `jsonfile.Record`'s `to_json` and `from_json`.
HAND_WRITTEN_CODECS = {
    "Measurement": {"to_json", "from_json"},
    "SafeRange": {"to_json", "from_json"},
    "Domain": {"to_json", "from_json"},
    "Response": {"to_json"},
    "_Step": {"to_json"},
    "ProceduralDocument": {"to_json"},
    "InteractionReport": {"to_json"},
    "Skill": {"from_json"},
}


def test_only_the_hand_written_formats_define_their_own_codec():
    defined = {}
    for info in pkgutil.iter_modules(tuneforge.__path__):
        module = importlib.import_module(f"tuneforge.{info.name}")
        if module is jsonfile:
            continue
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                own = {name for name in ("to_json", "from_json") if name in vars(cls)}
                if own:
                    defined[cls.__name__] = own
    assert defined == HAND_WRITTEN_CODECS


@pytest.mark.parametrize("cls, error", [(ProceduralDocument, DocumentError),
                                        (SensitivityReport, AnalysisError)],
                         ids=["document", "sensitivity-report"])
def test_a_file_nested_too_deep_raises_the_load_error_naming_it(tmp_path, cls, error):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
    with pytest.raises(error) as raised:
        cls.load(str(path))
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}: the document nests too deep"


def test_a_second_load_builds_no_codec(tmp_path, monkeypatch):
    # a declaration's workloads and a document's load through schemas their
    # loaders state by keyword; each is built once, not once per read
    p = run_small_pipeline(tmp_path / "campaign")
    declaration, document = str(tmp_path / "space.yaml"), str(tmp_path / "doc.json")
    with open(declaration, "w", encoding="utf-8") as fh:
        fh.write(dump_space(p["space"], p["workloads"]))
    p["doc"].save(document)

    def load_all():
        return load_space(declaration), load_workloads(declaration), ProceduralDocument.load(
            document)

    first, built = load_all(), []

    class Counting(jsonfile._Codec):
        def __init__(self, cls, **schema):
            built.append(cls)
            super().__init__(cls, **schema)

    monkeypatch.setattr(jsonfile, "_Codec", Counting)
    assert load_all() == first
    assert built == []
