"""Deterministic reports, and the persistent result cache with the
encoding of its entries.

A report's canonical body contains no timestamps or timings; elapsed time
lives in a side-channel section excluded from canonical serialization and
hashing, so byte-identical configs yield byte-identical canonical bodies.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from math import comb, inf
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPORT_SCHEMA = "qeuler-report/1"
CACHE_SCHEMA = "qeuler-cache/1"
TOOL_VERSION = "0.1.0"

# verdicts of an identity check, as reports count them
HOLDS = "holds"
FAILS = "fails"
HOLDS_TO_PRECISION = "holds-to-precision"
ERROR = "error"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


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
        counts = {HOLDS: 0, FAILS: 0, HOLDS_TO_PRECISION: 0, ERROR: 0}
        for item in self.items:
            verdict = item.get("verdict")
            if verdict in counts:
                counts[verdict] += 1
        return {
            "holds": counts[HOLDS],
            "fails": counts[FAILS],
            "holds_to_precision": counts[HOLDS_TO_PRECISION],
            "errors": counts[ERROR],
            "total": len(self.items),
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
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()

    def exit_code(self) -> int:
        """0 unless a non-printed verification item failed or errored."""
        for item in self.items:
            verdict = item.get("verdict")
            if verdict in (FAILS, ERROR):
                ident = item.get("id", "")
                if not ident.endswith("_PRINTED"):
                    return 1
        return 0

    def to_json(self) -> str:
        doc = self.body()
        doc["canonical_sha256"] = self.sha256()
        doc["timing"] = self.timing
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Report":
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
        return canonical_json(value)
    return str(value)


class CacheError(ValueError):
    """A cache file or entry that cannot be read."""


class ResultCache:
    """Single-file JSON cache for computed number tables and numeric
    integrals.  Every entry is recomputed and checked against what it
    encodes, never served.  An unreadable file, or an entry that is
    malformed or disagrees with the recomputed value, raises CacheError,
    and saving replaces the file atomically."""

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, dict] = {}
        self.dirty = False
        if self.path is not None and self.path.exists():
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
        doc = {"schema": CACHE_SCHEMA, "entries": self.entries}
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.dirty = False

    def _put(self, key: str, obj: dict, what: str) -> None:
        """Store an entry, or check it against the entry already stored."""
        stored = self.entries.get(key)
        if stored is None:
            self.entries[key] = obj
            self.dirty = True
        elif stored != obj:
            raise CacheError(f"cache entry {key!r} does not match {what}")

    # -- euler numbers -----------------------------------------------------

    def put_euler(self, n: int, numerator: Tuple[int, ...]):
        """Store E[n] = N_n/(1+q)^n, given the integer coefficients of N_n;
        an entry already stored must be its exact encoding, the ascending
        coefficients of the numerator and of the expanded denominator.

        Recomputing the table is cheaper than decoding it, so stored
        entries are only ever checked, never served."""
        obj = {"num": [str(c) for c in numerator],
               "den": [str(comb(n, i)) for i in range(n + 1)]}
        self._put(f"euler:n={n}", obj, f"E[{n}]")

    # -- numeric integrals ---------------------------------------------------

    @staticmethod
    def _padic_obj(x) -> dict:
        """The encoding of a padic.PadicApprox."""
        if x.unit is None:
            return {"p": x.p, "zero": True, "abs_precision": x.precision}
        return {"p": x.p, "valuation": x.valuation, "unit": x.unit,
                "precision": x.precision}

    def put_integral(self, kind, n, p, q, target, guard, max_level, result):
        """Store a qintegral.IntegralResult, its values and every (level,
        value, distance) of its trace; an entry already stored must be its
        exact encoding.  Like E[n] entries, integrals are only ever
        checked, never served."""
        padic = self._padic_obj
        obj = {
            "value": padic(result.value),
            "achieved_precision": result.achieved_precision,
            "levels_used": result.levels_used,
            "converged": result.converged,
            "trace": [{"level": lv, "value": padic(val),
                       "distance": "inf" if d == inf else d}
                      for lv, val, d in result.trace],
        }
        key = (f"{kind}:n={n}:p={p}:q={q}:K={target}"
               f":guard={guard}:nmax={max_level}")
        self._put(key, obj, "the computed integral")
