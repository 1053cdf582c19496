"""Deterministic reports, and the persistent result cache of their
hashes.

A report's canonical body contains no timestamps or timings; elapsed time
lives in a side-channel section excluded from canonical serialization and
hashing, so byte-identical configs yield byte-identical canonical bodies.

``json``, the SHA-256 module and the modules of the cache's atomic save
are imported where they are used: pretty and CSV output hash nothing and
encode no JSON (a verify row's parameters are written as canonical JSON
writes them), so a table, an integral or a grid printed that way loads
none of them.  Under ``--cache`` they hash the report and load them all,
since the cache stores the report's canonical hash; that hash is taken
once, and JSON output prints it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

REPORT_SCHEMA = "qeuler-report/1"
CACHE_SCHEMA = "qeuler-cache/2"
TOOL_VERSION = "0.1.0"

# verdicts of an identity check, as reports count them
HOLDS = "holds"
FAILS = "fails"
HOLDS_TO_PRECISION = "holds-to-precision"
ERROR = "error"


def canonical_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def _sha256(text: str) -> str:
    """The hex SHA-256 of ASCII text, from CPython's own SHA-256 module
    (``_sha2`` from Python 3.12, ``_sha256`` before), which gives the same
    digest as ``hashlib`` without loading OpenSSL; ``hashlib`` only where
    the interpreter has neither.  Only JSON output hashes."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("ascii")).hexdigest()


class Report:
    """A grid of verification results or table rows, with summary counts
    and a timing side channel."""

    __slots__ = ("config", "items", "timing")
    __hash__ = None

    def __init__(self, config: dict, items: List[dict],
                 timing: Optional[dict] = None):
        self.config = config
        self.items = items
        self.timing = {} if timing is None else timing

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.config, self.items, self.timing)
                == (other.config, other.items, other.timing))

    def __repr__(self) -> str:
        return (f"Report(config={self.config!r}, items={self.items!r}, "
                f"timing={self.timing!r})")

    @property
    def summary(self) -> dict:
        verdicts = [item.get("verdict") for item in self.items]
        return {
            "holds": verdicts.count(HOLDS),
            "fails": verdicts.count(FAILS),
            "holds_to_precision": verdicts.count(HOLDS_TO_PRECISION),
            "errors": verdicts.count(ERROR),
            "total": len(verdicts),
        }

    def body(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": TOOL_VERSION,
            "config": self.config,
            "items": self.items,
            "summary": self.summary,
        }

    def canonical(self) -> str:
        return canonical_json(self.body())

    def sha256(self) -> str:
        return _sha256(self.canonical())

    def exit_code(self) -> int:
        """0 unless a non-printed verification item failed or errored."""
        for item in self.items:
            verdict = item.get("verdict")
            if verdict in (FAILS, ERROR):
                ident = item.get("id", "")
                if not ident.endswith("_PRINTED"):
                    return 1
        return 0

    def to_json(self, digest: Optional[str] = None) -> str:
        """The body with its hash and the timing side channel, on one line
        in the canonical layout; the body is built once, and hashed in its
        canonical form unless the caller gives that hash, ``digest``, as
        ``sha256`` took it."""
        doc = self.body()
        doc["canonical_sha256"] = digest or _sha256(canonical_json(doc))
        doc["timing"] = self.timing
        return canonical_json(doc) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Report":
        import json

        doc = json.loads(text)
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"unsupported report schema {doc.get('schema')!r}")
        return cls(config=doc["config"], items=doc["items"],
                   timing=doc.get("timing", {}))

    def _columns(self) -> List[str]:
        cols: List[str] = []
        for item in self.items:
            for key in item:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self) -> str:
        import csv
        import io

        cols = self._columns()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for item in self.items:
            writer.writerow([_cell(item.get(c)) for c in cols])
        return buf.getvalue()

    def to_pretty(self) -> str:
        cols = self._columns()
        rows = [[_cell(item.get(c)) for c in cols] for item in self.items]
        widths = [max([len(c)] + [len(r[i]) for r in rows]) for i, c in enumerate(cols)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        s = self.summary
        lines.append("")
        lines.append(
            f"holds={s['holds']} fails={s['fails']} "
            f"holds-to-precision={s['holds_to_precision']} errors={s['errors']} "
            f"total={s['total']}")
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dict):
        # a verify row's parameters, {name: int}, as canonical_json writes it
        pairs = (f'"{k}":{v}' for k, v in sorted(value.items()))
        return "{" + ",".join(pairs) + "}"
    return str(value)


class CacheError(ValueError):
    """A cache file or entry that cannot be read."""


class ResultCache:
    """Single-file JSON cache of report hashes: one entry per report, keyed
    by the tool version and the report's canonical config, holding its
    canonical SHA-256.  No entry is ever served: a report is computed,
    then ``check`` stores its hash or compares it with the hash already
    stored.  An unreadable file, or a stored hash that differs, raises
    CacheError.  Saving replaces the file atomically and keeps its mode; a
    new file gets the mode that ``open`` would give it under the umask."""

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, str] = {}
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
        key = f"{TOOL_VERSION}:{canonical_json(config)}"
        stored = self.entries.get(key)
        if stored is None:
            self.entries[key] = digest
            self.dirty = True
            return "stored"
        if stored != digest:
            raise CacheError(f"cache entry {key!r} does not match the report")
        return "checked"
