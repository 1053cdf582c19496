"""The benchmark's workloads: seeded op lists and their output checks.

Each section turns a seed into a fixed list of qeuler CLI invocations, and
a workload's round is the lists of its two sections.  Draws are stratified:
every round has the same shape, and the seed picks values inside narrow
strata, so that rounds made from different seeds cost about the same while
their inputs differ.  Every output is checked against the independent
oracles in oracle.py.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import oracle

BATTERY_SHA256 = "baedeef0ed5e5eb90ce3a2bffd6704aba646e151e64618d2eecf97a5092a994d"
BATTERY_SUMMARY = {"holds": 242, "holds_to_precision": 12, "fails": 11,
                   "errors": 0, "total": 265}


@dataclass(frozen=True)
class Op:
    """One qeuler invocation.  Cache ops get `--cache=FILE` appended by the
    runner: a fresh file for "write", a copy of a pre-populated file for
    "read"; ops sharing `cache_id` share arguments and pre-populated file."""

    argv: tuple
    cache: str = ""
    cache_id: int = -1
    section: str = ""


@dataclass
class Checked:
    """Outcome of checking one op's output."""

    errors: list = field(default_factory=list)
    padic_rows: int = 0
    short_rows: int = 0
    oracle_checks: int = 0
    body: str = ""              # canonical body: the JSON output minus timing
    battery_sha256: str = ""


def _ratio(rng: random.Random, lo: int, hi: int, avoid_den: int = 0) -> str:
    """A random rational a/b with |a| <= 9 and b in lo..hi (b not divisible
    by avoid_den), never -1."""
    while True:
        b = rng.randint(lo, hi)
        if avoid_den and b % avoid_den == 0:
            continue
        a = rng.randint(-9, 9)
        r = Fraction(a, b)
        if r != -1:
            return str(r)


# -- op lists -----------------------------------------------------------------
#
# A section is one of the four op mixes the benchmark was designed around;
# a workload runs two sections per round, so that each run measures long
# enough to average over the machine's slow and fast phases.

def battery_ops(rng: random.Random) -> list:
    return [Op(("report", "--format=json"))]


def exact_deep_ops(rng: random.Random) -> list:
    # N1 + N2 = 104 keeps the pair's table-fill cost nearly seed-independent;
    # K + M = 19 does the same for the EQ6 grid.
    n1 = rng.randint(42, 46)
    k = rng.randint(9, 10)
    ops = [Op(("numbers", "euler", f"--n=0..{n}", f"--at-q={_ratio(rng, 1, 9)}",
               "--format=json")) for n in (n1, 104 - n1)]
    ops.append(Op(("verify", "EQ6", f"--k=0..{k}", f"--m=0..{19 - k}",
                   "--format=json")))
    return ops


# (kind, p, K range, n range).  At p = 7 and p = 5 with K >= 7 the level
# reached is the term cap's (7 and 8), so these slots cost about the same
# for every seed and some of their rows come back short of K digits.  The
# p = 3 bosonic case is covered by the bernoulli table below.  With the
# cache-rw ops, a numeric round has as many ops cheaper than the three
# mid-cost ones (p = 5 fermionic and the two tables) as dearer, so the
# median op sits inside that group rather than at a gap between groups.
_PADIC_INTEGRALS = (
    ("fermionic", 7, (7, 8), (6, 10)),
    ("bosonic", 7, (7, 8), (6, 10)),
    ("fermionic", 5, (7, 8), (6, 10)),
    ("bosonic", 5, (7, 8), (6, 10)),
    ("fermionic", 3, (4, 8), (0, 10)),
)
# (p, K, N range) for `numbers bernoulli --n 0..N`
_PADIC_TABLES = ((3, 7, (7, 9)), (5, 5, (4, 5)))


def padic_ops(rng: random.Random) -> list:
    ops = []
    for kind, p, (k_lo, k_hi), (n_lo, n_hi) in _PADIC_INTEGRALS:
        ops.append(Op(("integrate", kind, f"--n={rng.randint(n_lo, n_hi)}",
                       f"--x0={_ratio(rng, 1, 9, avoid_den=p)}", f"--p={p}",
                       f"--K={rng.randint(k_lo, k_hi)}", "--format=json")))
    for p, k, (n_lo, n_hi) in _PADIC_TABLES:
        ops.append(Op(("numbers", "bernoulli", f"--n=0..{rng.randint(n_lo, n_hi)}",
                       f"--p={p}", f"--K={k}", "--format=json")))
    return ops


def cache_rw_ops(rng: random.Random) -> list:
    # Two euler tables and one bernoulli table, each written to a fresh cache
    # file and then read back from a pre-populated one.  N1 + N2 = 76 keeps
    # the writes' cost nearly seed-independent.
    n1 = rng.randint(34, 36)
    argvs = [("numbers", "euler", f"--n=0..{n}", f"--at-q={_ratio(rng, 1, 9)}",
              "--format=json") for n in (n1, 76 - n1)]
    argvs.append(("numbers", "bernoulli", f"--n=0..{rng.randint(5, 7)}",
                  "--p=3", f"--K={rng.randint(5, 6)}", "--format=json"))
    return [Op(argv, mode, i) for i, argv in enumerate(argvs)
            for mode in ("write", "read")]


SECTIONS = {
    "battery": battery_ops,
    "exact-deep": exact_deep_ops,
    "padic": padic_ops,
    "cache-rw": cache_rw_ops,
}
WORKLOADS = {
    "exact": ("battery", "exact-deep"),
    "numeric": ("padic", "cache-rw"),
}


def make_ops(workload: str, seed: int) -> list:
    """One round of a workload: its sections' ops, each section drawn from
    its own stream of the seed."""
    return [replace(op, section=section) for section in WORKLOADS[workload]
            for op in SECTIONS[section](random.Random(f"{section}:{seed}"))]


# -- checks -------------------------------------------------------------------

def _options(argv) -> dict:
    opts = {}
    for arg in argv:
        if arg.startswith("--") and "=" in arg:
            key, value = arg[2:].split("=", 1)
            opts[key] = value
    return opts


def _range(text: str) -> tuple:
    lo, hi = text.split("..")
    return int(lo), int(hi)


def check(op: Op, code: int, stdout: str, stderr: str, known: dict) -> Checked:
    """Check one op: exit code, no traceback, and the output against the
    oracles.  Errors are collected, not raised.  `known` maps (argv, body)
    to an earlier oracle verdict, so a repeated identical output is not
    re-derived."""
    out = Checked()
    if "Traceback (most recent call last)" in stderr:
        out.errors.append("traceback: " + stderr.strip().splitlines()[-1])
    if code != 0:
        out.errors.append(f"exit code {code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        out.errors.append("output is not JSON")
        return out
    body = {k: v for k, v in doc.items() if k != "timing"}
    out.body = json.dumps(body, sort_keys=True, separators=(",", ":"))
    key = (op.argv, out.body)
    if key not in known:
        verdict = Checked(body=out.body)
        try:
            _CHECKS[op.argv[0], op.argv[1]](op, doc, verdict)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            verdict.errors.append(
                f"malformed output: {type(exc).__name__}: {exc}")
        known[key] = verdict
    verdict = known[key]
    out.errors += verdict.errors
    out.padic_rows, out.short_rows = verdict.padic_rows, verdict.short_rows
    out.oracle_checks = verdict.oracle_checks
    out.battery_sha256 = verdict.battery_sha256
    return out


def _check_battery(op, doc, out):
    out.battery_sha256 = doc["canonical_sha256"]
    if doc["canonical_sha256"] != BATTERY_SHA256:
        out.errors.append(f"battery hash {doc['canonical_sha256']}")
    if doc["summary"] != BATTERY_SUMMARY:
        out.errors.append(f"battery summary {doc['summary']}")
    failed = [i["id"] for i in doc["items"] if i["verdict"] != "holds"
              and i["verdict"] != "holds-to-precision"]
    if any(not ident.endswith("_PRINTED") for ident in failed):
        out.errors.append(f"non-printed failures {sorted(set(failed))}")


def _check_euler(op, doc, out):
    opts = _options(op.argv)
    lo, hi = _range(opts["n"])
    r = Fraction(opts["at-q"])
    expected = oracle.euler_numbers_at(r, hi)
    rows = doc["items"]
    if [row["n"] for row in rows] != list(range(lo, hi + 1)):
        out.errors.append("euler rows do not cover the requested range")
    for row in rows:
        out.oracle_checks += 1
        if Fraction(row["value_at_q"]) != expected[row["n"]]:
            out.errors.append(f"E[{row['n']}]({r}) = {row['value_at_q']}")


def _check_eq6(op, doc, out):
    opts = _options(op.argv)
    k_lo, k_hi = _range(opts["k"])
    m_lo, m_hi = _range(opts["m"])
    cells = (k_hi - k_lo + 1) * (m_hi - m_lo + 1)
    items = doc["items"]
    if len(items) != cells:
        out.errors.append(f"{len(items)} EQ6 cells, expected {cells}")
    bad = [i["params"] for i in items if i["verdict"] != "holds"]
    if bad:
        out.errors.append(f"EQ6 does not hold at {bad[:3]}")
    out.oracle_checks += len(items)


def _short(row, target, out):
    out.padic_rows += 1
    if row["achieved_precision"] < target:
        out.short_rows += 1


def _check_integrate(op, doc, out):
    cfg = doc["config"]
    p, target = cfg["p"], cfg["K"]
    q, x0, n = Fraction(cfg["q"]), Fraction(cfg["x0"]), cfg["n"]
    result = doc["items"][0]
    levels = {row["level"]: row["value"] for row in doc["items"][1:]}
    _short(result, target, out)
    if cfg["kind"] == "fermionic":
        out.oracle_checks += 1
        if not oracle.agrees(result["value"], oracle.euler_poly_at(n, x0, q),
                             p, result["achieved_precision"]):
            out.errors.append(f"fermionic n={n} x0={x0} p={p}: "
                              f"{result['value']} is not E_n(x0)")
        return
    # bosonic: the brute level sum, at the last level when affordable,
    # otherwise at the deepest affordable level of the trace
    last = result["levels"]
    affordable = [lv for lv in levels if p ** lv <= oracle.AFFORDABLE_TERMS]
    if p ** last <= oracle.AFFORDABLE_TERMS:
        checks = [(result["value"], last), (levels[last], last)]
    elif affordable:
        checks = [(levels[max(affordable)], max(affordable))]
    else:
        checks = []
    for text, level in checks:
        out.oracle_checks += 1
        if not oracle.bosonic_level_agrees(text, n, x0, p, q, level):
            out.errors.append(f"bosonic n={n} x0={x0} p={p} level {level}: "
                              f"{text} is not the level sum")


def _check_bernoulli(op, doc, out):
    cfg = doc["config"]
    p, target, q = cfg["p"], cfg["K"], Fraction(cfg["q"])
    lo, hi = cfg["n"]
    rows = doc["items"]
    if [row["n"] for row in rows] != list(range(lo, hi + 1)):
        out.errors.append("bernoulli rows do not cover the requested range")
    for row in rows:
        _short(row, target, out)
        if p ** row["levels"] <= oracle.AFFORDABLE_TERMS:
            out.oracle_checks += 1
            if not oracle.bosonic_level_agrees(row["value"], row["n"],
                                               Fraction(0), p, q, row["levels"]):
                out.errors.append(f"B[{row['n']}] p={p}: {row['value']} is "
                                  f"not the level-{row['levels']} sum")


# keyed by the first two CLI arguments
_CHECKS = {
    ("report", "--format=json"): _check_battery,
    ("numbers", "euler"): _check_euler,
    ("numbers", "bernoulli"): _check_bernoulli,
    ("verify", "EQ6"): _check_eq6,
    ("integrate", "fermionic"): _check_integrate,
    ("integrate", "bosonic"): _check_integrate,
}
