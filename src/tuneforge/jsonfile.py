"""One way to keep a JSON artifact on disk: canonical text, replaced atomically.

Reports, the compiled document, the knowledge export and the campaign state
are all written as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, so
identical contents give identical bytes (and document hashes).
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import AnalysisError


def canonical_json(obj: Any) -> str:
    """Sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj: Any) -> None:
    """Replace ``path`` with the canonical text of ``obj``.

    The text is encoded before anything is written, then goes to a temporary
    file in the same directory that is flushed to disk and renamed over
    ``path``. A failed or interrupted save leaves the previous file intact.
    """
    text = canonical_json(obj)
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
