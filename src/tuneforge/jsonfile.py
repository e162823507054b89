"""One way to keep a JSON artifact on disk: canonical text, replaced atomically,
read back with exactly the keys it was written with.

Reports, the compiled document, the knowledge export and the campaign state
are all written as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, so
identical contents give identical bytes (and document hashes). ``write_text``
is the atomic replace behind them, and behind the session trace and the final
configuration file too.

``load_fields`` is the one reader of every artifact record: it builds a
dataclass from a JSON object that holds exactly the keys its ``to_json``
writes, so a renamed or missing key raises the artifact's load error instead
of loading as a default.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from functools import cache
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .errors import AnalysisError, TuneforgeError


def canonical_json(obj: Any) -> str:
    """Sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@cache
def _keys(cls: type, written: tuple[str, ...], optional: tuple[str, ...]
          ) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The keys ``cls.to_json`` may write, those it always writes, and those
    of them that ``cls`` does not read."""
    names = frozenset(f.name for f in fields(cls))
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
    that builds it from its JSON value. An error ``cls`` raises when it checks
    its fields becomes ``error``.
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
            values[key] = build(values[key])
    try:
        return cls(**values)
    except TuneforgeError as e:  # a class that checks its fields when built
        raise error(f"{what}: {e}") from None


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
