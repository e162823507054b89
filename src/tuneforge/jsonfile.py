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
loading as a default. The keywords mean the same in both directions:
``pinned`` keys hold one value (a schema version), an ``optional`` key is
left out when empty, and a ``dump``/``load`` entry converts one field.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from functools import cache
from math import isfinite
from types import MappingProxyType
from typing import Any, Callable, Mapping

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


@cache
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@cache
def _keys(cls: type, written: tuple[str, ...], optional: tuple[str, ...]
          ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The keys ``cls.to_json`` may write, those it always writes, and those
    of them that ``cls`` does not read."""
    names = frozenset(_names(cls))
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
    and an error ``cls`` raises when it checks its fields, become ``error``.
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
            raise error(f"{what}: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}")
    values = dict(d)
    for key in unread:
        del values[key]
    for key, build in load.items():
        if key in values:
            try:
                values[key] = build(values[key])
            except (TypeError, ValueError) as e:  # a value of the wrong type
                raise error(f"{what}: {key}: {e}") from None
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
    for name in _names(type(obj)):
        value = getattr(obj, name)
        if not value and name in optional:
            continue
        if name in dump:
            d[name] = dump[name](value)
        else:
            d[name] = value if type(value) in _SCALARS else thaw(value)
    return d


def string(value: Any) -> str:
    """``value`` when it is a string; a ValueError, which a loader reports as
    the artifact's load error, when it is not."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def strings(value: Any) -> list[str]:
    """``value`` when it is a list of strings; a ValueError, which a loader
    reports as the artifact's load error, when it is not."""
    if type(value) is not list or any(type(item) is not str for item in value):
        raise ValueError(f"{value!r} is not a list of strings")
    return value


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


def write_json(path: str, obj: Any) -> None:
    """Replace ``path`` with the canonical text of ``obj``, encoded before
    anything is written."""
    write_text(path, canonical_json(obj))


class JsonArtifact:
    """``save``/``load``/``serialize`` for a class with ``to_json``/``from_json``."""

    # Raised by ``load`` for a file that is not JSON.
    load_error = AnalysisError

    def serialize(self) -> str:
        """The exact text ``save`` writes."""
        return canonical_json(self.to_json())

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as e:
                raise cls.load_error(f"{path} is not valid JSON: {e}") from e
        return cls.from_json(d)
