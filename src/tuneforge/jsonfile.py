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

Every record states its JSON schema once, on its class (``Record``): one key
per dataclass field, plus what it declares by class keyword, such as its name
in load errors, its ``pinned`` schema version and its ``optional`` keys. From
that, built once per class, ``Record.to_json`` writes it and ``load_fields``
reads it back from a JSON object holding exactly those keys, so a renamed or
missing key raises the artifact's load error instead of loading as a default;
the declaration and model files load the same way. A nested record loads
through its field's annotation (``X``, ``X | None``, ``list[X]``,
``tuple[X, ...]``, ``Mapping[str, X]``): under the name it declares, or else
under its path in the record that holds it.

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
            _codec(hint).wrong(value))
    if is_dataclass(hint):
        return frozenset({hint}), lambda value: None if isinstance(value, hint) else wrong(value)
    raise TypeError(f"no test for the annotation {name}")


def check(hint: Any, value: Any, what: str, error: type[TuneforgeError] = AnalysisError) -> Any:
    """``value`` when the annotation ``hint`` admits it, else ``error``."""
    if (reason := _test(hint)[1](value)) is not None:
        raise error(f"{what}: {reason}")
    return value


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


# A field loader: (JSON value, the field's path in load errors, the error
# class to raise) -> the value to build the record with.
Loader = Callable[[Any, str, type], Any]


def _plain(build: Callable[[Any], Any]) -> Loader:
    """The loader of ``build(value)``, which names no path."""
    return lambda value, at, error: build(value)


@cache
def _loader(hint: Any) -> Loader | None:
    """The loader of a field annotated ``hint``, or None when the field holds
    its JSON value as it is; a value of another shape is left to the
    annotation check.

    A record class loads through its ``from_json``: under the name it
    declares, or else under its path, raising the error of the record that
    holds it. A ``list[X]`` or ``tuple[X, ...]`` of records loads item by
    item and a ``Mapping[str, X]`` value by value, each at its index or key
    (a key that is not a str, as YAML allows, is a TypeError); a JSON list
    for any tuple becomes a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if isinstance(hint, type) and issubclass(hint, Record):
        from_json = hint.from_json
        if "name" in hint._schema:
            return lambda value, at, error: from_json(value) if type(value) is dict else value
        return lambda value, at, error: (from_json(value, at, error) if type(value) is dict
                                         else value)
    if origin in (UnionType, Union):  # X | None
        loaders = [loader for arg in args if (loader := _loader(arg)) is not None]
        if len(loaders) > 1:
            raise TypeError(f"no loader for the annotation {hint!r}")
        return loaders[0] if loaders else None
    if origin in (list, tuple):
        item = _loader(args[0]) if args[1:] in ((), (...,)) else None
        if item is None:
            return None if origin is list else (
                lambda value, at, error: tuple(value) if type(value) is list else value)
        return lambda value, at, error: origin(
            [item(v, f"{at}: {i}", error) for i, v in enumerate(value)]
        ) if type(value) is list else value
    if origin in (dict, abc.Mapping) and (item := _loader(args[1])) is not None:
        def load(value: Any, at: str, error: type) -> Any:
            if type(value) is not dict:
                return value
            if not all(type(key) is str for key in value):
                raise TypeError(f"keys {list(value)} are not all str")
            return {key: item(v, f"{at}: {key}", error) for key, v in value.items()}
        return load
    return None


class _Codec:
    """The JSON form of one record class (a dataclass or a ``TypedDict``):
    its keys, loaders and annotation tests, bound once.

    The keys are the fields, each written as its value (``thaw``), plus
    ``pinned`` keys, written first with one value (a schema version), plus
    ``written`` keys, which a hand-written writer adds and nothing reads. An
    ``optional`` key may be absent and is left out when empty or false; a
    ``defaulted`` key, which a user's file may leave out, may be absent and
    is always written. An absent field takes its default. ``dump`` and
    ``load`` map a field to the function that builds its JSON value and its
    value; any other field loads by its annotation (``_loader``). ``name``
    names the record in load errors, unless a record holding it names it by
    its path, and ``error`` is the class they raise.
    """

    def __init__(self, cls: type, *, name: str | None = None,
                 error: type[TuneforgeError] = AnalysisError, optional: tuple[str, ...] = (),
                 defaulted: tuple[str, ...] = (), pinned: Mapping[str, Any] = MappingProxyType({}),
                 written: tuple[str, ...] = (),
                 dump: Mapping[str, Callable[[Any], Any]] = MappingProxyType({}),
                 load: Mapping[str, Callable[[Any], Any]] = MappingProxyType({})):
        self.cls, self.name, self.error = cls, name, error
        pinned = dict(pinned)  # a mapping or its (key, value) pairs
        self.tests = type_tests(cls)
        self.kinds = {name: kinds for name, (kinds, _) in self.tests.items()}
        names = frozenset(self.tests)
        self.pinned = tuple(pinned.items())
        self.keys = names | frozenset(written) | frozenset(pinned)
        self.required = self.keys - frozenset(optional) - frozenset(defaulted)
        self.unread = tuple(self.keys - names)
        self.loaders = {**_loaders(cls), **{key: _plain(build) for key, build in load.items()}}
        self.fields = tuple((name, dump.get(name), name in optional) for name in self.tests)

    def dump(self, obj: Any) -> dict:
        d = dict(self.pinned)
        for name, build, optional in self.fields:
            value = getattr(obj, name)
            if optional and not value:
                continue
            d[name] = (build(value) if build is not None else
                       value if type(value) in _SCALARS else thaw(value))
        return d

    def wrong(self, values: dict) -> str | None:
        """Why the first of ``values`` that its field's test refuses fails,
        after its key; None when each passes."""
        kinds, tests = self.kinds, self.tests
        for key, value in values.items():
            if type(value) not in kinds[key] and (reason := tests[key][1](value)) is not None:
                return f"{key}: {reason}"
        return None

    def load(self, d: Any, what: str, error: type[TuneforgeError],
             loaders: dict[str, Loader]) -> Any:
        got = d.keys() if type(d) is dict else frozenset()
        for key, value in self.pinned:
            if key in got and (type(d[key]) is not type(value) or d[key] != value):
                raise error(f"unsupported {what} {key} {d[key]!r}")
        if got != self.keys and got != self.required:
            missing, unknown = self.required - got, got - self.keys
            if missing or unknown:
                raise error(f"{what}: missing keys {sorted(missing)}, unknown keys "
                            f"{sorted(unknown, key=str)}")  # a YAML key need not be a str
        values = dict(d)
        for key in self.unread:
            values.pop(key, None)  # an optional key may be absent
        for key, build in loaders.items():
            if key in values:
                try:
                    values[key] = build(values[key], f"{what}: {key}", error)
                except (TypeError, ValueError) as e:  # a value of the wrong type
                    raise error(f"{what}: {key}: {e}") from None
        reason = self.wrong(values)
        if reason is not None:
            raise error(f"{what}: {reason}")
        try:
            return self.cls(**values)
        except TuneforgeError as e:  # a class that checks its fields when built
            raise error(f"{what}: {e}") from None


@cache
def _loaders(cls: type) -> dict[str, Loader]:
    """Field -> loader of each field of ``cls`` whose annotation has one."""
    hints = get_type_hints(cls)
    return {name: loader for name in type_tests(cls)
            if (loader := _loader(hints[name])) is not None}


@cache
def _codec(cls: type, keywords: tuple[tuple[str, Any], ...] = ()) -> _Codec:
    """The codec of the schema ``cls`` declares, with the (keyword, value)
    pairs of ``keywords`` standing in for its own: built once per class and
    keywords, on first use."""
    return _Codec(cls, **{**getattr(cls, "_schema", {}), **dict(keywords)})


def load_fields(cls: type, d: Any, what: str | None = None, *,
                error: type[TuneforgeError] | None = None, optional: tuple[str, ...] | None = None,
                defaulted: tuple[str, ...] | None = None,
                pinned: Mapping[str, Any] | None = None, written: tuple[str, ...] | None = None,
                **load: Callable[[Any], Any]) -> Any:
    """The record ``cls`` built from ``d``, a JSON object holding exactly the
    keys its ``to_json`` writes, or the load error naming the keys that differ.

    Every record loads here. ``what`` (by default the name ``cls`` declares)
    names it in load errors, which raise ``error`` (by default the class
    ``cls`` declares). The keywords stand in for those ``cls`` declares (see
    ``_Codec``; one codec is built per class and keywords), and ``load`` maps
    a field to the function that builds it from its JSON value. A TypeError
    or ValueError a loader raises, a built value its annotation refuses, and
    an error ``cls`` raises when it checks its values become the load error.
    """
    if optional is None and defaulted is None and pinned is None and written is None:
        codec = _codec(cls)
    else:
        codec = _codec(cls, tuple((key, value) for key, value in (
            ("optional", optional), ("defaulted", defaulted),
            ("pinned", None if pinned is None else tuple(pinned.items())), ("written", written))
            if value is not None))
    loaders = codec.loaders if not load else {
        **codec.loaders, **{key: _plain(build) for key, build in load.items()}}
    return codec.load(d, what or codec.name, error or codec.error, loaders)


class Record:
    """A dataclass whose JSON form is one key per field, written by
    ``to_json`` and read by ``from_json``.

    A class declares the rest of its form once, by class keyword (those of
    ``_Codec``): ``class Report(Record, name="report", pinned={...})``. A
    subclass inherits each declaration, and may restate it.
    """

    __slots__ = ()  # so that a record declared with slots has no __dict__
    _schema = MappingProxyType({})

    def __init_subclass__(cls, **schema: Any):
        super().__init_subclass__()
        cls._schema = {**cls._schema, **schema}

    def to_json(self) -> dict:
        return _codec(type(self)).dump(self)

    @classmethod
    def from_json(cls, d: Any, what: str | None = None,
                  error: type[TuneforgeError] | None = None) -> Any:
        """The record ``to_json`` wrote, or its load error; ``what`` and
        ``error`` are those of the record that holds it, for a record that
        declares no name."""
        return load_fields(cls, d, what, error=error)


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
    """``save``/``load``/``serialize`` for a record kept in a file of its own."""

    def serialize(self) -> str:
        """The exact text ``save`` writes."""
        return canonical_json(self.to_json())

    def save(self, path: str) -> None:
        write_text(path, self.serialize())

    @classmethod
    def load(cls, path: str):
        """The record in the file at ``path``; the class's load error for a
        file that cannot be read, is not JSON or nests too deep."""
        error = cls._schema.get("error", AnalysisError)
        try:
            try:
                with open(path, encoding="utf-8") as fh:
                    d = json.load(fh)
            except OSError as e:
                raise error(f"{path}: cannot read the file: {e.strerror}") from None
            except ValueError as e:
                raise error(f"{path} is not valid JSON: {e}") from e
            return cls.from_json(d)
        except RecursionError:
            raise error(f"{path}: the document nests too deep") from None
