"""One way to keep a JSON artifact on disk: canonical text, replaced atomically.

Reports, the compiled document, the knowledge export and the campaign state
are all written as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, so
identical contents give identical bytes (and document hashes). ``write_text``
is the atomic replace behind them, and behind the session trace and the final
configuration file too.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import AnalysisError


def canonical_json(obj: Any) -> str:
    """Sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def check_keys(d: Any, keys: set[str], what: str, optional: frozenset[str] = frozenset()) -> None:
    """Raise AnalysisError unless ``d`` is an object holding exactly ``keys``,
    of which only those in ``optional`` may be absent, so that a misspelled key
    cannot load as a default."""
    got = set(d) if type(d) is dict else set()
    missing, unknown = keys - optional - got, got - keys
    if missing or unknown:
        raise AnalysisError(f"{what}: missing keys {sorted(missing)}, "
                            f"unknown keys {sorted(unknown)}")


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
