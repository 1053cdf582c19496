"""Deterministic reports: the ``Report`` core, its canonical body, its
hash and its JSON output.

A report's canonical body contains no timestamps or timings; elapsed time
lives in a side-channel section excluded from canonical serialization and
hashing, so byte-identical configs yield byte-identical canonical bodies.

Only what every command needs is here.  Pretty and CSV output are in
``formats`` and the cache of report hashes in ``cache``; ``cli`` loads
each on the lines that use it.  ``json`` and the SHA-256 module are
imported where they are used: pretty and CSV output hash nothing and
encode no JSON, so a table, an integral or a grid printed that way loads
neither.  Under ``--cache`` the report is hashed, since the cache stores
its canonical hash; that hash is taken once, and JSON output prints it.
"""

from __future__ import annotations

REPORT_SCHEMA = "qeuler-report/1"
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

    def __init__(self, config: dict, items: list[dict],
                 timing: dict | None = None):
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

    def to_json(self, digest: str | None = None) -> str:
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
