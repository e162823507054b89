"""One way to keep a JSON artifact on disk: canonical text, replaced atomically,
written and read back with exactly the keys of its record's fields.

Reports, the compiled document, the knowledge export and the campaign state
are all written by ``canonical_json``, whose text is exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, so identical contents
give identical bytes (and document hashes). It builds that text itself in one
pass, since ``json.dumps`` takes its pure-Python encoder whenever it indents,
and leaves to ``json.dumps`` only a value that is not a plain JSON value.
``write_text`` is the atomic replace behind them, and behind the session
trace and the final configuration file too.

Every artifact record has one writer and one reader, and both take its keys
from its dataclass fields: ``dump_fields`` writes one key per field, and
``load_fields`` builds the dataclass from a JSON object holding exactly those
keys, so a renamed or missing key raises the artifact's load error instead of
loading as a default; the declaration and model files load the same way. The
keywords mean the same in both directions: ``pinned`` keys hold one value (a
schema version), an ``optional`` key is left out when empty, and a
``dump``/``load`` entry (such as ``each``, ``values`` or ``record``) builds one
field.

Types are checked in one table: ``load_fields`` tests each field value, once
its loader has run, against its annotation (a fixed-key payload is a
``TypedDict``), and an annotation without a test raises when its table is
built.
"""

from __future__ import annotations

import json
import os
import re
from collections import abc
from dataclasses import fields, is_dataclass
from functools import cache
from itertools import product
from math import isfinite
from types import MappingProxyType, NoneType, UnionType
from typing import (Any, Callable, Mapping, Union, get_args, get_origin, get_type_hints,
                    is_typeddict)

from .errors import AnalysisError, TuneforgeError


_SCALARS = frozenset((str, int, float, bool, type(None)))


_escape = json.encoder.encode_basestring_ascii


class _NotPlain(Exception):
    """A value ``_encode`` leaves to ``json.dumps``: a dict or list subclass, a
    non-string key, or a scalar that is not exactly a str, int, float, bool or
    None."""


def _nonfinite(value: float) -> str:
    """NaN or an infinity, as json writes it."""
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _encode(obj: Any, indent: str, append: Callable[[str], None]) -> None:
    """Append the text of ``obj`` as ``json.dumps(..., sort_keys=True,
    indent=2)`` writes it, where ``indent`` is the newline and spaces before
    the closing bracket of ``obj``; raise ``_NotPlain`` for any other value.
    Strings, finite floats and None in a container, the bulk of every
    artifact, are written without a call of their own."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            append("{}")
            return
        inner = indent + "  "
        separator, following = "{" + inner, "," + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise _NotPlain
            append(separator)
            separator = following
            append(_escape(key))
            append(": ")
            value = obj[key]
            kind = type(value)
            if kind is str:
                append(_escape(value))
            elif kind is float and value - value == 0.0:
                append(float.__repr__(value))
            elif value is None:
                append("null")
            else:
                _encode(value, inner, append)
        append(indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            append("[]")
            return
        inner = indent + "  "
        separator, following = "[" + inner, "," + inner
        for value in obj:
            append(separator)
            separator = following
            if type(value) is str:
                append(_escape(value))
            else:
                _encode(value, inner, append)
        append(indent + "]")
    elif kind is str:
        append(_escape(obj))
    elif kind is float:
        append(float.__repr__(obj) if obj - obj == 0.0 else _nonfinite(obj))
    elif kind is int:
        append(int.__repr__(obj))
    elif kind is bool:
        append("true" if obj else "false")
    elif obj is None:
        append("null")
    else:
        raise _NotPlain


def canonical_json(obj: Any) -> str:
    """Sorted keys, two-space indent, trailing newline: the text of
    ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, and that call itself
    (with its result or its error) for a value that is not plain JSON or that
    nests too deep, a cycle included."""
    chunks: list[str] = []
    try:
        _encode(obj, "\n", chunks.append)
    except (_NotPlain, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    chunks.append("\n")
    return "".join(chunks)


def _first(reasons) -> str | None:
    """The first reason of the (index or key, reason) pairs that is not None."""
    return next((f"{at}: {reason}" for at, reason in reasons if reason is not None), None)


@cache
def type_tests(cls: type) -> dict[str, tuple[frozenset, Callable[[Any], str | None]]]:
    """Field -> (kinds, why) of a record class or a ``TypedDict``, in field
    order; TypeError when an annotation has no test."""
    hints = get_type_hints(cls)
    return {name: _test(hints[name])
            for name in ([f.name for f in fields(cls)] if is_dataclass(cls) else hints)}


def _wrong_field(tests: dict, values: dict) -> str | None:
    """Why the first value of ``values`` that its field's test refuses fails,
    after its key."""
    for key, value in values.items():
        kinds, why = tests[key]
        if type(value) not in kinds and (reason := why(value)) is not None:
            return f"{key}: {reason}"
    return None


@cache
def _test(hint: Any) -> tuple[frozenset, Callable[[Any], str | None]]:
    """(kinds, why) of an annotation: the types of the values it admits outright,
    and why a value fails it (None when it passes), naming the index or key of
    the first wrong item. A ``list[X]`` or ``tuple[X, ...]`` takes a list or a
    tuple, a record class (a dataclass) an instance its loader built."""
    name = re.sub(r"<class '|'>|\b(?:\w+\.)+", "", repr(hint))  # list[Predicate]
    origin, args = get_origin(hint), get_args(hint)

    def wrong(value: Any) -> str:
        return f"{value!r} is not {name}"

    if hint in (str, int, bool, float, NoneType, dict):  # a bool is no int; an int is a float
        kinds = frozenset({hint, int} if hint is float else {hint})
        return kinds, lambda value: None if type(value) in kinds else wrong(value)
    if origin in (UnionType, Union):
        parts = [_test(arg) for arg in args]
        return frozenset().union(*(kinds for kinds, _ in parts)), lambda value: (
            None if any(why(value) is None for _, why in parts) else wrong(value))
    if hint is Any:
        return frozenset(), lambda value: None
    if origin is tuple and args[1:] != (...,):
        items = [_test(arg) for arg in args]
        outright = frozenset(product(*(kinds for kinds, _ in items)))
        return frozenset(), lambda value: (
            wrong(value) if type(value) not in (list, tuple) or len(value) != len(items) else
            None if tuple(map(type, value)) in outright else
            _first((i, why(v)) for i, ((_, why), v) in enumerate(zip(items, value))))
    listed = origin in (list, tuple)
    if listed or (origin in (dict, abc.Mapping) and args[0] is str):  # as JSON keys are
        shapes = frozenset((list, tuple) if listed else (dict, MappingProxyType))
        if (args[0] if listed else args[1]) is Any:
            return shapes, lambda value: None if type(value) in shapes else wrong(value)
        kinds, item = _test(args[0] if listed else args[1])
        return frozenset(), lambda value: (
            wrong(value) if type(value) not in shapes else
            None if kinds.issuperset(map(type, value if listed else value.values())) else
            _first((at, item(v)) for at, v in (enumerate(value) if listed else value.items())))
    if is_typeddict(hint):
        keys = type_tests(hint).keys()
        return frozenset(), lambda value: (
            wrong(value) if type(value) is not dict else
            f"missing keys {sorted(keys - value.keys())}, unknown keys "
            f"{sorted(value.keys() - keys)}" if value.keys() != keys else
            _wrong_field(type_tests(hint), value))
    if is_dataclass(hint):
        return frozenset({hint}), lambda value: None if isinstance(value, hint) else wrong(value)
    raise TypeError(f"no test for the annotation {name}")


def check(hint: Any, value: Any, what: str, error: type[TuneforgeError] = AnalysisError) -> Any:
    """``value`` when the annotation ``hint`` admits it, else ``error``."""
    if (reason := _test(hint)[1](value)) is not None:
        raise error(f"{what}: {reason}")
    return value


@cache
def _keys(cls: type, written: tuple[str, ...], optional: tuple[str, ...]
          ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The keys ``cls.to_json`` may write, those it always writes, and those
    of them that ``cls`` does not read."""
    names = frozenset(type_tests(cls))
    keys = names | frozenset(written)
    return keys, keys - frozenset(optional), keys - names


def load_fields(cls: type, d: Any, what: str, *, written: tuple[str, ...] = (),
                optional: tuple[str, ...] = (),
                pinned: Mapping[str, Any] = MappingProxyType({}),
                error: type[TuneforgeError] = AnalysisError,
                **load: Callable[[Any], Any]) -> Any:
    """The dataclass ``cls`` built from ``d``, a JSON object holding exactly the
    keys its ``to_json`` writes, or ``error`` naming the keys that differ.

    The keys are the fields of ``cls`` plus ``written``, the keys ``to_json``
    adds and ``cls`` does not read, plus ``pinned``, the keys that must hold
    one value (a schema version), which are checked first. Only the keys in
    ``optional``, which ``to_json`` leaves out when empty, may be absent; an
    absent field takes its default. ``load`` maps a field to the function
    that builds it from its JSON value; a TypeError or ValueError it raises,
    a built value its annotation refuses, and an error ``cls`` raises when it
    checks its values become ``error``.
    """
    got = d.keys() if type(d) is dict else frozenset()
    if pinned:
        for key, value in pinned.items():
            if key in got and (type(d[key]) is not type(value) or d[key] != value):
                raise error(f"unsupported {what} {key} {d[key]!r}")
        written += tuple(pinned)
    keys, required, unread = _keys(cls, written, optional)
    if got != keys and got != required:
        missing, unknown = required - got, got - keys
        if missing or unknown:
            raise error(f"{what}: missing keys {sorted(missing)}, unknown keys "
                        f"{sorted(unknown, key=str)}")  # a YAML key need not be a str
    values = dict(d)
    for key in unread:
        values.pop(key, None)  # an optional key may be absent
    for key, build in load.items():
        if key in values:
            try:
                values[key] = build(values[key])
            except (TypeError, ValueError) as e:  # a value of the wrong type
                raise error(f"{what}: {key}: {e}") from None
    reason = _wrong_field(type_tests(cls), values)
    if reason is not None:
        raise error(f"{what}: {reason}")
    try:
        return cls(**values)
    except TuneforgeError as e:  # a class that checks its fields when built
        raise error(f"{what}: {e}") from None


def thaw(value: Any) -> Any:
    """The plain JSON value of ``value``: a record through its ``to_json``,
    lists and tuples item by item, and dicts and read-only mappings value by
    value."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (dict, MappingProxyType)):
        return {k: v if type(v) in _SCALARS else thaw(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else thaw(v) for v in value]
    to_json = getattr(value, "to_json", None)
    return value if to_json is None else to_json()


def dump_fields(obj: Any, *, optional: tuple[str, ...] = (),
                pinned: Mapping[str, Any] = MappingProxyType({}),
                **dump: Callable[[Any], Any]) -> dict:
    """The JSON object of the dataclass ``obj``: one key per field, as
    ``load_fields`` reads it back.

    ``pinned`` keys are written with their pinned value, and an ``optional``
    field is left out when its value is empty or false. ``dump`` maps a field
    to the function that builds its JSON value; any other value is converted
    by ``thaw``.
    """
    d = dict(pinned)
    for name in type_tests(type(obj)):
        value = getattr(obj, name)
        if not value and name in optional:
            continue
        if name in dump:
            d[name] = dump[name](value)
        else:
            d[name] = value if type(value) in _SCALARS else thaw(value)
    return d


class Record:
    """A dataclass written with one key per field (``dump_fields``)."""

    __slots__ = ()  # so that a record declared with slots has no __dict__

    def to_json(self) -> dict:
        return dump_fields(self)


def each(build: Callable[[int, Any], Any]) -> Callable[[Any], Any]:
    """A loader of ``build(i, item)`` for each item of a list, leaving any other
    value to the annotation check."""
    return lambda value: ([build(i, item) for i, item in enumerate(value)]
                          if type(value) is list else value)


def values(build: Callable[[str, Any], Any]) -> Callable[[Any], Any]:
    """A loader of ``build(key, item)`` for each item of an object, leaving any
    other value to the annotation check; a key that is not a str (YAML allows
    one) is a TypeError."""
    def load(value: Any) -> Any:
        if type(value) is not dict:
            return value
        if not all(type(key) is str for key in value):
            raise TypeError(f"keys {list(value)} are not all str")
        return {key: build(key, item) for key, item in value.items()}
    return load


def record(build: Callable[[dict], Any]) -> Callable[[Any], Any]:
    """A loader of ``build(value)`` for an object, leaving any other value to
    the annotation check."""
    return lambda value: build(value) if type(value) is dict else value


def finite_floats(value: Any) -> dict[str, float]:
    """``value`` when it is an object of strings to finite floats, such as a
    report's ``baseline_means`` (workload id -> mean); a ValueError, which a
    loader reports as the artifact's load error, when it is not."""
    if type(value) is not dict or not all(type(k) is str and type(v) is float and isfinite(v)
                                          for k, v in value.items()):
        raise ValueError(f"{value!r} does not map workload ids to finite floats")
    return value


def write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text``.

    The text goes to a temporary file in the same directory that is flushed
    to disk and renamed over ``path``. A failed or interrupted write leaves
    the previous file intact and no temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class JsonArtifact(Record):
    """``save``/``load``/``serialize`` for a class with ``to_json``/``from_json``."""

    # Raised by ``load`` for a file that is not JSON.
    load_error = AnalysisError

    def serialize(self) -> str:
        """The exact text ``save`` writes."""
        return canonical_json(self.to_json())

    def save(self, path: str) -> None:
        write_text(path, self.serialize())

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as e:
                raise cls.load_error(f"{path} is not valid JSON: {e}") from e
        return cls.from_json(d)
