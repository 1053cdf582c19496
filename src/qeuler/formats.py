"""The text formats of a report: CSV and the pretty table.  ``cli`` loads
this module only for those formats, so a JSON line compiles neither.
Neither format hashes or encodes JSON: a verify row's parameters are
written as canonical JSON writes them."""

from __future__ import annotations


def _columns(items: list[dict]) -> list[str]:
    """Every key of the rows, in the order of first appearance."""
    cols: list[str] = []
    for item in items:
        for key in item:
            if key not in cols:
                cols.append(key)
    return cols


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dict):
        # a verify row's parameters, {name: int}, as canonical_json writes it
        pairs = (f'"{k}":{v}' for k, v in sorted(value.items()))
        return "{" + ",".join(pairs) + "}"
    return str(value)


def to_csv(report) -> str:
    """The report's rows as CSV, a header of every column first."""
    import csv
    import io

    cols = _columns(report.items)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for item in report.items:
        writer.writerow([_cell(item.get(c)) for c in cols])
    return buf.getvalue()


def to_pretty(report) -> str:
    """The report's rows as an aligned table, then its summary counts."""
    cols = _columns(report.items)
    rows = [[_cell(item.get(c)) for c in cols] for item in report.items]
    widths = [max([len(c)] + [len(r[i]) for r in rows]) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    s = report.summary
    lines.append("")
    lines.append(
        f"holds={s['holds']} fails={s['fails']} "
        f"holds-to-precision={s['holds_to_precision']} errors={s['errors']} "
        f"total={s['total']}")
    return "\n".join(lines) + "\n"
