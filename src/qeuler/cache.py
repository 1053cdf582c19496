"""The persistent cache of report hashes behind ``--cache``.  ``cli``
loads this module only on the lines that give ``--cache``."""

from __future__ import annotations

from pathlib import Path

from . import report
from .errors import CacheError

CACHE_SCHEMA = "qeuler-cache/2"


class ResultCache:
    """Single-file JSON cache of report hashes: one entry per report, keyed
    by the tool version and the report's canonical config, holding its
    canonical SHA-256.  No entry is ever served: a report is computed,
    then ``check`` stores its hash or compares it with the hash already
    stored.  An unreadable file, or a stored hash that differs, raises
    CacheError.  Saving replaces the file atomically and keeps its mode; a
    new file gets the mode that ``open`` would give it under the umask."""

    def __init__(self, path: Path | str | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: dict[str, str] = {}
        self.dirty = False
        if self.path is not None and self.path.exists():
            import json

            try:
                doc = json.loads(self.path.read_text())
                schema = doc.get("schema")
                entries = doc["entries"]
            except (ValueError, KeyError, AttributeError) as exc:
                raise CacheError(f"unreadable cache file {self.path}: {exc!r}")
            if schema != CACHE_SCHEMA:
                raise CacheError(f"unsupported cache schema {schema!r}")
            if not isinstance(entries, dict):
                raise CacheError(f"cache file {self.path} has no entry table")
            self.entries = entries

    def save(self):
        if self.path is None or not self.dirty:
            return
        import json
        import os

        doc = {"schema": CACHE_SCHEMA, "entries": self.entries}
        tmp = self.path.with_name(f"{self.path.name}.{os.urandom(6).hex()}.tmp")
        # created as open() creates a file, 0o666 less the umask, unlike
        # tempfile.mkstemp's 0o600; an existing file's mode is copied over
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                if self.path.exists():
                    os.fchmod(f.fileno(), self.path.stat().st_mode & 0o7777)
                f.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.dirty = False

    def check(self, config: dict, digest: str) -> str:
        """Store a report's hash ``digest``, or check it against the hash
        already stored under the key of its ``config``; "stored" or
        "checked", as the case was."""
        key = f"{report.TOOL_VERSION}:{report.canonical_json(config)}"
        stored = self.entries.get(key)
        if stored is None:
            self.entries[key] = digest
            self.dirty = True
            return "stored"
        if stored != digest:
            raise CacheError(f"cache entry {key!r} does not match the report")
        return "checked"
