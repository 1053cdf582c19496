"""qeuler benchmark: cold `python -m qeuler.cli` processes in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --steadiness

One client runs one child at a time.  A workload is a seeded, fixed list of
ops (a round, see workloads.py); rounds repeat until --seconds is used up.
Between ops, a fixed stdlib computation (reference.py) runs as a child too,
and times are reported at the reference speed: a round's wall times are
scaled by REF_NOMINAL_S over the mean reference time in that round, which
cancels most of the shared machine's slow and fast phases.
Metrics are reported for the workload and for each of its sections.
Every op's output is checked against oracle.py.  With --trace 1, traced
rounds (each op run under tracer.py) alternate with untraced ones, and
the per-layer metrics come from the traced rounds.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
# The warm-up is a small E[n] table rather than a bare start, so that set-up
# is mostly computation, whose slow phases the reference tracks; process
# start-up slows by a different factor.
WARMUP_ARGV = ("numbers", "euler", "--n=0..30", "--format=json")
RUN_LIMIT_S = 170.0     # a run must end within 180 s
# The reference child's median time on the machine the benchmark was built
# on (2-core VM, Python 3.11.7).  A scaled time is what the op would have
# taken there at that speed.
REF_NOMINAL_S = 0.15
# A reference child runs at the start of each round and again once this
# much op time has passed since the last one, so that its samples spread
# over the round in proportion to time.
REF_EVERY_S = 1.0
RUNS, SETS = 10, 2      # steadiness: runs per workload and set, and sets

# End-to-end metrics reported beside BENCHMARK.json's, where a workload
# defines them: (unit, better, bound taken from this BENCHMARK.json metric).
# The op percentiles are not gated: a round mixes ops of very different
# cost, so the median op can sit at a gap between cost groups and jump
# with the machine's speed.
EXTRA_METRICS = {
    "run_wall_s": ("s", "lower", None),
    "setup_wall_s": ("s", "lower", None),
    "ref_s": ("s", "lower", None),
    "op_p50_s": ("s", "lower", "run_s"),
    "op_tail_s": ("s", "lower", "run_s"),
    "fail_ratio": ("ratio", "lower", None),
    "short_ratio": ("ratio", "lower", None),
    "cache_read_p50_s": ("s", "lower", "run_s"),
    "cache_write_p50_s": ("s", "lower", "run_s"),
}


class SetupError(RuntimeError):
    pass


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Record:
    op: workloads.Op
    child: Child
    checked: workloads.Checked
    summary: dict = field(default_factory=dict)     # traced ops only

    @property
    def failed(self) -> bool:
        return bool(self.checked.errors)


@dataclass
class Round:
    traced: bool
    records: list
    refs: list          # wall times of the reference children in the round

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.refs)

    @property
    def run_wall_s(self) -> float:
        return sum(r.child.wall_s for r in self.records)

    @property
    def run_s(self) -> float:
        return self.run_wall_s * self.scale


class Runner:
    """Spawns children in the checkout and keeps what a run needs."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.known = {}         # (argv, body) -> Checked, to skip re-checks
        self.write_bodies = {}  # cache_id -> canonical body of the write path

    def spawn(self, cmd: list) -> Child:
        """Run one child to completion; os.wait4 reaps it with its rusage."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))

    def cli(self, argv, spans: Path = None) -> Child:
        if spans is None:
            return self.spawn([sys.executable, "-m", "qeuler.cli", *argv])
        return self.spawn([sys.executable, str(HERE / "tracer.py"), str(spans),
                           "--", *argv])

    def reference(self) -> float:
        """Wall time of one reference child."""
        child = self.spawn([sys.executable, str(HERE / "reference.py")])
        if child.code != 0:
            raise SetupError(f"reference child failed: {child.stderr.strip()}")
        return child.wall_s

    def run_round(self, ops: list, traced: bool) -> Round:
        """One pass over the op list, with reference children between ops."""
        rnd, since_ref = Round(traced, [], [self.reference()]), 0.0
        for i, op in enumerate(ops):
            if since_ref >= REF_EVERY_S:
                rnd.refs.append(self.reference())
                since_ref = 0.0
            rnd.records.append(self.run_op(op, i, traced))
            since_ref += rnd.records[-1].child.wall_s
        return rnd

    def setup(self, name: str, seed: int) -> list:
        """Generate inputs, run one warm-up child and pre-populate the cache
        files that read ops copy.  Returns the op list."""
        ops = workloads.make_ops(name, seed)
        warm = self.cli(WARMUP_ARGV)
        if warm.code != 0:
            raise SetupError(f"warm-up child failed: {warm.stderr.strip()}")
        for op in ops:
            if op.cache != "write":
                continue
            pristine = self.work / f"pristine-{op.cache_id}.json"
            pristine.unlink(missing_ok=True)
            child = self.cli([*op.argv, f"--cache={pristine}"])
            checked = workloads.check(op, child.code, child.stdout,
                                      child.stderr, self.known)
            if checked.errors:
                raise SetupError(f"pre-populating {op.argv}: {checked.errors}")
            self.write_bodies[op.cache_id] = checked.body
        return ops

    def run_op(self, op: workloads.Op, index: int, traced: bool) -> Record:
        argv = list(op.argv)
        if op.cache:
            cache = self.work / f"{op.cache}-{op.cache_id}.json"
            if op.cache == "write":
                cache.unlink(missing_ok=True)
            else:
                shutil.copyfile(self.work / f"pristine-{op.cache_id}.json", cache)
            argv.append(f"--cache={cache}")
        spans = self.work / f"spans-{index}.json" if traced else None
        if traced:
            spans.unlink(missing_ok=True)
        child = self.cli(argv, spans)
        checked = workloads.check(op, child.code, child.stdout, child.stderr,
                                  self.known)
        if op.cache and checked.body != self.write_bodies.get(op.cache_id):
            checked.errors.append(f"cache {op.cache} output differs from the "
                                  "write path")
        record = Record(op, child, checked)
        if traced and spans.exists():
            record.summary = json.loads(spans.read_text())["summary"]
        elif traced:
            checked.errors.append("tracer wrote no spans")
        return record


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool, deadline: float) -> dict:
    work = RESULTS / "work" / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, deadline)
    env = environment(root)

    # Each set-up is scaled by the mean of the reference times just before
    # and just after it.
    setup_walls, setup_refs = [], [runner.reference()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = runner.setup(name, seed)
        setup_walls.append(time.perf_counter() - start)
        setup_refs.append(runner.reference())
    setup_times = [wall * REF_NOMINAL_S / statistics.fmean(setup_refs[i:i + 2])
                   for i, wall in enumerate(setup_walls)]

    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(runner.run_round(ops, traced))
        elapsed = time.perf_counter() - start
        next_kind = [r for r in rounds if r.traced == (trace and not traced)]
        last = (next_kind or rounds)[-1]
        estimate = last.run_wall_s + sum(last.refs)
        # a traced run always gets its traced round
        if trace and len(rounds) < 2:
            continue
        if elapsed + estimate > seconds or time.monotonic() + estimate > deadline:
            break
    if trace:   # keep the spans of the last traced round
        spans_dir = RESULTS / f"{name}-seed{seed}-spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        for path in work.glob("spans-*.json"):
            path.rename(spans_dir / path.name)
    shutil.rmtree(work, ignore_errors=True)

    records = [rec for r in rounds for rec in r.records]
    env["loadavg_end"] = os.getloadavg()
    env["battery_sha256"] = next((rec.checked.battery_sha256 for rec in records
                                  if rec.checked.battery_sha256), None)
    sections = {}
    for section in workloads.WORKLOADS[name]:
        part = [Round(r.traced, [rec for rec in r.records
                                 if rec.op.section == section], r.refs)
                for r in rounds]
        sections[section] = {"end_to_end": end_to_end(part),
                             "per_layer": per_layer(part) if trace else {}}
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "setup_times_s": setup_times,
        "setup_walls_s": setup_walls,
        "setup_refs_s": setup_refs,
        "round_refs_s": [r.refs for r in rounds],
        "rounds": len(rounds),
        "attempted": len(records),
        "failed": sum(rec.failed for rec in records),
        "end_to_end": end_to_end(rounds, setup_times, setup_walls),
        "per_layer": per_layer(rounds) if trace else {},
        "sections": sections,
        "ops": [{"section": rec.op.section, "argv": list(rec.op.argv),
                 "cache": rec.op.cache,
                 "traced": r.traced, "wall_s": rec.child.wall_s,
                 "cpu_s": rec.child.cpu_s,
                 "exit": rec.child.code, "maxrss_kb": rec.child.maxrss_kb,
                 "padic_rows": rec.checked.padic_rows,
                 "short_rows": rec.checked.short_rows,
                 "oracle_checks": rec.checked.oracle_checks,
                 "errors": rec.checked.errors}
                for r in rounds for rec in r.records],
    }


# -- metrics ------------------------------------------------------------------

def tail(values: list):
    """The highest whole percentile with at least ten samples beyond it, by
    nearest rank; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)       # ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def end_to_end(rounds: list, setup_times: list = None,
               setup_walls: list = None) -> dict:
    """End-to-end metrics of the untraced rounds, at the reference speed
    except run_wall_s, setup_wall_s and ref_s; set-up time only for a whole
    workload."""
    plain = [r for r in rounds if not r.traced]
    records = [rec for r in plain for rec in r.records]
    walls = [rec.child.wall_s * r.scale for r in plain for rec in r.records]
    metrics = {
        "run_s": statistics.median(r.run_s for r in plain),
        "run_wall_s": statistics.median(r.run_wall_s for r in plain),
        "ref_s": statistics.median(t for r in plain for t in r.refs),
        "op_p50_s": statistics.median(walls),
        "peak_rss_mb": max(rec.child.maxrss_kb for rec in records) / 1024,
        "fail_ratio": sum(rec.failed for rec in records) / len(records),
    }
    notes = {"op_p50_s": f"{len(walls)} ops",
             "run_s": f"median of {len(plain)} rounds"}
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["setup_wall_s"] = statistics.median(setup_walls)
        notes["setup_s"] = f"median of {len(setup_times)} set-ups"
    tail_value = tail(walls)
    if tail_value is not None:
        metrics["op_tail_s"] = tail_value[1]
        notes["op_tail_s"] = f"p{tail_value[0]} of {len(walls)} ops"
    padic_rows = sum(rec.checked.padic_rows for rec in records)
    if padic_rows:
        metrics["short_ratio"] = (sum(rec.checked.short_rows for rec in records)
                                  / padic_rows)
        notes["short_ratio"] = f"of {padic_rows} p-adic result rows"
    for mode in ("read", "write"):
        times = [rec.child.wall_s * r.scale for r in plain
                 for rec in r.records if rec.op.cache == mode]
        if times:
            metrics[f"cache_{mode}_p50_s"] = statistics.median(times)
            notes[f"cache_{mode}_p50_s"] = f"{len(times)} ops"
    return {"metrics": metrics, "notes": notes}


def per_layer(rounds: list) -> dict:
    """Per-layer metrics: totals over one round of the op list (median over
    traced rounds), except cli.* which are per-op medians."""
    traced = [r for r in rounds if r.traced]
    totals = [_round_totals(r) for r in traced]
    metrics = {key: statistics.median(t[key] for t in totals)
               for key in totals[0]}
    ops = [rec for r in traced for rec in r.records if rec.summary]
    metrics["cli.main_s"] = statistics.median(rec.summary["cli.main_s"]
                                              for rec in ops)
    metrics["cli.startup_s"] = statistics.median(
        rec.child.wall_s - rec.summary["cli.main_s"] - rec.summary["write_s"]
        for rec in ops)
    metrics["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced)
        - statistics.median(r.run_s for r in rounds if not r.traced))
    return metrics


def _round_totals(rnd: Round) -> dict:
    sums = {}
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    max_n = 0
    for rec in rnd.records:
        for key, value in rec.summary.items():
            if key == "self_s":
                for layer, t in value.items():
                    self_s[layer] += t
            elif key == "qspecial.max_n":
                max_n = max(max_n, value)
            else:
                sums[key] = sums.get(key, 0) + value
    total_self = sum(self_s.values()) or 1.0
    out = {f"{layer}.self_s": t for layer, t in self_s.items()}
    out.update({f"{layer}.self_share": t / total_self
                for layer, t in self_s.items()})
    monomials = sums.pop("identities.monomial_calls", 0)
    behind = sums.pop("identities.integrate_behind_memo", 0)
    out["identities.numeric_memo_hit_ratio"] = (
        1 - behind / monomials if monomials else 0.0)
    attempts = sums.pop("qintegral.attempts", 0)
    converged = sums.pop("qintegral.converged", 0)
    out["qintegral.converged_ratio"] = converged / attempts if attempts else 0.0
    for key in ("cli.main_s", "write_s"):
        sums.pop(key, None)
    out.update(sums)
    out["qspecial.max_n"] = max_n
    return out


# -- environment --------------------------------------------------------------

def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- output -------------------------------------------------------------------

def gated_metrics(result: dict, bench: dict) -> dict:
    """The metrics BENCHMARK.json names, for the run's trace mode."""
    if result["trace"]:
        specs, values = bench["per_layer"], result["per_layer"]
    else:
        specs, values = bench["end_to_end"], result["end_to_end"]["metrics"]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def print_result(result: dict, bench: dict) -> None:
    units = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    units.update({k: v[0] for k, v in EXTRA_METRICS.items()})
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']} trace={result['trace']}"
          f"  rounds={result['rounds']} ops={result['attempted']}"
          f" failed={result['failed']}  python {env['python']}"
          f" nproc={env['nproc']} load={env['loadavg_start'][0]:.2f}"
          f"->{env['loadavg_end'][0]:.2f}")
    parts = [("", result)] + list(result["sections"].items())
    for prefix, part in parts:
        if prefix:
            print(f"  -- section {prefix}")
        e2e = part["end_to_end"]
        for name, value in e2e["metrics"].items():
            note = e2e["notes"].get(name, "")
            print(f"  {name:<36} {value:>14.6g} {units[name]:<6} {note}")
        for name, value in part["per_layer"].items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for op in result["ops"]:
        for err in op["errors"]:
            print(f"  FAILED {' '.join(op['argv'])}: {err}")


def write_result(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


# -- steadiness -----------------------------------------------------------------

def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def steadiness(root: Path, bench: dict, names: list, seconds: int) -> int:
    """Independent sets of runs of this checkout, each run its own process
    and seed.  Flags a metric as unresolved where its spread exceeds its
    bound, and as drift where a later set's median is worse than the first
    set's by more than the bound.  The verdict `steady` covers the metrics
    BENCHMARK.json gates; section and extra metrics are reported beside it."""
    gated = {s["name"]: s for s in bench["end_to_end"]}
    bounds = {name: spec["bound"] for name, spec in gated.items()}
    bounds.update({k: bounds.get(v[2]) for k, v in EXTRA_METRICS.items()})
    better = {name: spec["better"] for name, spec in gated.items()}
    better.update({k: v[1] for k, v in EXTRA_METRICS.items()})
    table = {}      # "workload[/section]" -> metric -> [stats of each set]
    failures = 0
    for set_no in range(SETS):
        for name in names:
            values = {}
            for i in range(RUNS):
                seed = 1000 * (set_no + 1) + i
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"], cwd=root, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    return 2
                failures += json.loads(proc.stdout.strip().splitlines()[-1])[
                    "failed"]
                result = json.loads((RESULTS / f"{name}-seed{seed}-trace0.json")
                                    .read_text())
                parts = [(name, result)] + [
                    (f"{name}/{sec}", part)
                    for sec, part in result["sections"].items()]
                for label, part in parts:
                    for metric, value in part["end_to_end"]["metrics"].items():
                        values.setdefault((label, metric), []).append(value)
                print(f"set {set_no + 1} {name} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in result["end_to_end"]["metrics"]
                    .items()), flush=True)
            for (label, metric), vals in values.items():
                if len(vals) >= 2:
                    table.setdefault(label, {}).setdefault(metric, []).append(
                        quartiles(vals))
    flags = {"unresolved": [], "drift": [], "unresolved_other": [],
             "drift_other": []}
    for label, metrics in table.items():
        for metric, stats in metrics.items():
            bound = bounds.get(metric)
            is_gated = metric in gated and "/" not in label
            suffix = "" if is_gated else "_other"
            for st in stats:
                st["unresolved"] = (bound is not None and st["spread"] is not None
                                    and st["spread"] > bound)
                if st["unresolved"]:
                    flags["unresolved" + suffix].append(f"{label}:{metric}")
            if bound is not None and len(stats) >= 2 and stats[0]["median"]:
                change = stats[-1]["median"] / stats[0]["median"] - 1
                if (change if better[metric] == "lower" else -change) > bound:
                    flags["drift" + suffix].append(f"{label}:{metric}")
            print(f"{label:<18} {metric:<18} bound={bound!s:<5} " + " | ".join(
                f"med={st['median']:.4g} iqr/med={st['spread'] or 0:.3f}"
                f"{' UNRESOLVED' if st['unresolved'] else ''}" for st in stats))
    flags = {k: sorted(set(v)) for k, v in flags.items()}
    summary = {"steady": not (flags["unresolved"] or flags["drift"] or failures),
               **flags, "failed_ops": failures, "runs": RUNS, "sets": SETS,
               "seconds": seconds, "environment": environment(root),
               "table": table}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steadiness.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({k: summary[k] for k in ("steady", *flags, "failed_ops")}))
    return 0


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"run {SETS} independent sets of {RUNS} runs per "
                             "workload and report spreads")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qeuler" / "cli.py").is_file():
        print("error: run from the root of a qeuler checkout "
              "(src/qeuler/cli.py not found)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    oracle.self_check()
    if args.steadiness:
        return steadiness(root, bench, names, int(seconds))

    results = []
    for name in names:
        deadline = started + RUN_LIMIT_S * (len(results) + 1)
        try:
            result = run_workload(root, name, args.seed, seconds,
                                  bool(args.trace), deadline)
        except SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        write_result(result)
        print_result(result, bench)
        results.append(result)

    metrics = {}
    for result in results:
        for key, value in gated_metrics(result, bench).items():
            metrics[key if len(results) == 1 else f"{result['workload']}/{key}"] = value
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
