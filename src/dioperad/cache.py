"""Content-addressed disk cache for computed results: the ranks by
partition of the ``dim`` command, its one caller, which also owns the
entry format (``cli._ranks_key``, ``cli._decode_ranks``).

Entries are JSON files under a two-level fan-out of the key hash.  Writes
go to a temporary file in the same directory and are renamed into place,
so concurrent runs never observe a partial entry.  Reads are tolerant:
any unreadable, undecodable (even nested too deep for the JSON decoder)
or mismatched file counts as a miss.
"""

from __future__ import annotations

import json
import os
import tempfile

from .context import sha256


class DiskCache:
    """A string-keyed store of JSON-serializable values."""

    __slots__ = ("root",)

    def __init__(self, root):
        self.root = str(root)

    def _path(self, key: str) -> str:
        digest = sha256(key.encode()).hexdigest()
        return os.path.join(self.root, digest[:2], digest + ".json")

    def get(self, key: str):
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload.get("value")

    def put(self, key: str, value) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump({"key": key, "value": value}, fh)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return


def default_cache_dir() -> str:
    """CACHE_DIR if set, else a per-user directory."""
    env = os.environ.get("CACHE_DIR")
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "dioperad",
    )
