"""Command-line front end: number/polynomial tables, identity
verification grids, direct integral evaluation, and machine-readable
reports.

Exit codes: 0 for success (printed-variant failures are informational),
1 when a corrected or exact identity fails, 2 for usage or configuration
errors.

Each command imports the layers it uses when it runs, so a cold process
loads and compiles only those: ``integrate`` and ``numbers bernoulli``
never load the exact layers or the identity catalog, and ``numbers euler``
renders its rows from the integer table of ``zpoly`` alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from .report import CacheError, Report, ResultCache

# the integral kinds of qintegral, named here so that building the parser
# loads no numeric layer
KINDS = ("fermionic", "bosonic")


class ConfigError(Exception):
    pass


def parse_range(text: str) -> tuple:
    """Inclusive integer range 'a..b', or a single integer 'a'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"bad range {text!r}; expected 'a..b'")
    if lo > hi:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


def parse_q(text: str, p: int) -> Fraction:
    """q given as '1+p', an integer, or a rational 'a/b'."""
    if text.strip() == "1+p":
        return Fraction(1 + p)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad q {text!r}; expected '1+p', an integer, or 'a/b'")


def _add_output_opts(sp):
    sp.add_argument("--format", choices=("json", "csv", "pretty"),
                    default=None, help="output format")
    sp.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_cache_opts(sp):
    sp.add_argument("--cache", metavar="PATH", help="persistent result cache file")
    sp.add_argument("--no-cache", action="store_true",
                    help="ignore any cache and recompute everything")


def _add_padic_opts(sp):
    sp.add_argument("--p", type=int, default=None, help="odd prime")
    sp.add_argument("--q", default=None,
                    help="q as '1+p', an integer, or 'a/b' (default 1+p)")
    sp.add_argument("--K", type=int, default=None, dest="K",
                    help="target p-adic precision")
    sp.add_argument("--guard", type=int, default=None,
                    help="guard digits (>= 2, default 4)")
    sp.add_argument("--n-max", type=int, default=None, dest="n_max",
                    help="maximum Riemann-sum level (default 12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact and p-adic tables and identity checks for the "
                    "weight-0 q-Euler/q-Bernoulli families.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("numbers", help="number tables")
    sp.add_argument("kind", choices=("euler", "bernoulli"))
    sp.add_argument("--n", default="0..8", help="index range 'a..b'")
    sp.add_argument("--at-q", dest="at_q", default=None,
                    help="also evaluate each euler entry at this rational q")
    _add_padic_opts(sp)
    _add_output_opts(sp)
    _add_cache_opts(sp)

    sp = sub.add_parser("poly", help="polynomial tables")
    sp.add_argument("--n", default="0..4", help="index range 'a..b'")
    _add_output_opts(sp)

    sp = sub.add_parser("verify", help="verify one identity or all of them")
    sp.add_argument("identity", help="an identity id, or 'all'")
    sp.add_argument("--k", default=None, help="range 'a..b' for k")
    sp.add_argument("--m", default=None, help="range 'a..b' for m")
    sp.add_argument("--n", default=None, help="range 'a..b' for n")
    _add_padic_opts(sp)
    _add_output_opts(sp)
    _add_cache_opts(sp)

    sp = sub.add_parser("integrate", help="evaluate one p-adic q-integral")
    sp.add_argument("kind", choices=KINDS)
    sp.add_argument("--n", type=int, required=True, help="monomial exponent")
    sp.add_argument("--x0", default="0", help="rational shift of the integrand")
    _add_padic_opts(sp)
    _add_output_opts(sp)

    sp = sub.add_parser("report", help="run the full default verification battery")
    _add_padic_opts(sp)
    _add_output_opts(sp)
    _add_cache_opts(sp)

    return parser


def _padic_config(args, require_explicit: bool = False) -> tuple:
    """The validated (p, q, K, guard, n_max), in the order MonomialIntegrals
    takes them, and their block of the report config."""
    from .qintegral import check_p_q

    if require_explicit and (args.p is None or args.K is None):
        raise ConfigError("this command needs explicit --p and --K")
    p = 3 if args.p is None else args.p
    target = 4 if args.K is None else args.K
    guard = 4 if args.guard is None else args.guard
    n_max = 12 if args.n_max is None else args.n_max
    q = parse_q(args.q if args.q is not None else "1+p", p)
    try:
        check_p_q(p, q)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if target < 1:
        raise ConfigError("--K must be >= 1")
    if guard < 2:
        raise ConfigError("--guard must be >= 2")
    if n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    return ((p, q, target, guard, n_max),
            {"p": p, "q": str(q), "K": target, "guard": guard, "n_max": n_max})


# the p-adic options by destination, as the user spells them
_PADIC_OPTIONS = {"p": "--p", "q": "--q", "K": "--K", "guard": "--guard",
                 "n_max": "--n-max"}


def _reject_options(args, label: str, options: dict) -> None:
    """An option the command would ignore is a configuration error."""
    given = [flag for dest, flag in options.items()
             if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"{label} does not take {', '.join(given)}")


@contextmanager
def _user_file(option: str, path: str):
    """An OSError on a file the user named is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot use {option} {path}: {exc.strerror or exc}")


def _check_user_files(args) -> None:
    """Reject an --out or --cache path that cannot be written before any
    work is done: its directory must exist and the path must not be a
    directory.  Nothing is created or truncated here."""
    files = [("--out", args.out)]
    if hasattr(args, "cache") and not args.no_cache:
        files.append(("--cache", args.cache))
    for option, path in files:
        if not path:
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"cannot use {option} {path}: Is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"cannot use {option} {path}: "
                              "No such file or directory")


def _open_cache(args) -> Optional[ResultCache]:
    if args.no_cache or not args.cache:
        return None
    with _user_file("--cache", args.cache):
        return ResultCache(Path(args.cache))


def _save_cache(cache: Optional[ResultCache], args) -> None:
    if cache is not None:
        with _user_file("--cache", args.cache):
            cache.save()


def _emit(report: Report, args, default_format: str) -> None:
    fmt = args.format or default_format
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        text = report.to_pretty()
    if args.out:
        with _user_file("--out", args.out):
            Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_numbers(args) -> int:
    lo, hi = parse_range(args.n)
    if lo < 0:
        raise ConfigError("indices must be >= 0")
    _reject_options(args, f"numbers {args.kind}",
                    _PADIC_OPTIONS if args.kind == "euler" else {"at_q": "--at-q"})
    start = time.monotonic()
    items = []
    config = {"command": "numbers", "kind": args.kind, "n": [lo, hi]}
    cache = _open_cache(args)
    if args.kind == "euler":
        from .errors import PoleError
        from .zpoly import euler_number_at, euler_number_str, euler_numerator

        at_q = None
        if args.at_q is not None:
            try:
                at_q = Fraction(args.at_q)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad --at-q value {args.at_q!r}")
            config["at_q"] = str(at_q)
        for n in range(lo, hi + 1):
            if cache is not None:
                cache.put_euler(n, euler_numerator(n))
            row = {"n": n, "value": euler_number_str(n)}
            if at_q is not None:
                try:
                    row["value_at_q"] = str(euler_number_at(n, at_q))
                except PoleError:
                    raise ConfigError(f"pole at q = {at_q} for n = {n}")
            items.append(row)
    else:
        from .qintegral import (
            KIND_BOSONIC,
            ConvergenceNotReached,
            MonomialIntegrals,
        )

        pad, block = _padic_config(args, require_explicit=True)
        config.update(block)
        integrals = MonomialIntegrals(*pad, cache=cache)
        for n in range(lo, hi + 1):
            warning = None
            try:
                res = integrals(KIND_BOSONIC, n)
            except ConvergenceNotReached as exc:
                res = exc.result
                warning = "convergence not reached"
            value = res.value
            row = {
                "n": n,
                "valuation": "" if value.is_zero else value.valuation,
                "unit": "" if value.is_zero else value.unit,
                "precision": value.precision,
                "value": str(value),
                "achieved_precision": res.achieved_precision,
                "levels": res.levels_used,
            }
            if warning:
                row["warning"] = warning
            items.append(row)
    _save_cache(cache, args)
    report = Report(config, items,
                    timing={"total_seconds": time.monotonic() - start})
    _emit(report, args, "pretty")
    return 0


def cmd_poly(args) -> int:
    from .qspecial import euler_poly

    lo, hi = parse_range(args.n)
    if lo < 0:
        raise ConfigError("indices must be >= 0")
    start = time.monotonic()
    items = [{"n": n, "value": str(euler_poly(n))} for n in range(lo, hi + 1)]
    report = Report({"command": "poly", "n": [lo, hi]}, items,
                    timing={"total_seconds": time.monotonic() - start})
    _emit(report, args, "pretty")
    return 0


def _verify_ranges(args, label: str, params) -> dict:
    """Parsed --k/--m/--n ranges; a range for a parameter the target does
    not take is a configuration error."""
    supplied = [n for n in ("k", "m", "n") if getattr(args, n, None) is not None]
    stray = sorted(set(supplied) - set(params))
    if stray:
        raise ConfigError(
            f"{label} takes {sorted(params)}; stray range for {stray}")
    return {name: parse_range(getattr(args, name)) for name in supplied}


def cmd_verify(args, battery: bool = False) -> int:
    from .identities import REGISTRY, IdentityId, NumericContext, verify_grid

    if battery or args.identity == "all":
        targets = list(IdentityId)
        config_identity = "all"
        params = ()
    else:
        try:
            targets = [IdentityId(args.identity)]
        except ValueError:
            raise ConfigError(
                f"unknown identity {args.identity!r}; expected 'all' or one "
                f"of {', '.join(i.value for i in IdentityId)}")
        config_identity = args.identity
        params = REGISTRY[targets[0]].params
    explicit_ranges = _verify_ranges(args, config_identity, params)
    pad, block = _padic_config(args)
    cache = _open_cache(args)
    ctx = NumericContext(*pad, cache=cache)
    start = time.monotonic()

    items = []
    per_item = {}
    for ident in targets:
        try:
            results = verify_grid(ident, explicit_ranges, ctx)
        except ValueError as exc:
            raise ConfigError(str(exc))
        for r in results:
            items.append(r.as_report_item())
            per_item[f"{r.id.value}:{r.params}"] = r.elapsed
    _save_cache(cache, args)

    config = {
        "command": "report" if battery else "verify",
        "identity": config_identity,
        "padic": block,
    }
    if explicit_ranges:
        config["ranges"] = {k: list(v) for k, v in sorted(explicit_ranges.items())}
    report = Report(config, items, timing={
        "total_seconds": time.monotonic() - start,
        "per_item_seconds": per_item,
    })
    _emit(report, args, "json" if battery else "pretty")
    return report.exit_code()


def cmd_integrate(args) -> int:
    from .qintegral import ConvergenceNotReached, IntegralRequest, integrate

    (p, q, target, guard, n_max), block = _padic_config(args)
    try:
        x0 = Fraction(args.x0)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad --x0 value {args.x0!r}")
    if args.n < 0:
        raise ConfigError("--n must be >= 0")
    start = time.monotonic()
    try:
        req = IntegralRequest(args.kind, args.n, x0, p, q, target,
                              guard=guard, max_level=n_max)
    except ValueError as exc:
        raise ConfigError(str(exc))
    warning = None
    try:
        res = integrate(req)
    except ConvergenceNotReached as exc:
        res = exc.result
        warning = "convergence not reached"
    items = [{
        "row": "result",
        "kind": args.kind,
        "n": args.n,
        "x0": str(x0),
        "value": str(res.value),
        "achieved_precision": res.achieved_precision,
        "levels": res.levels_used,
    }]
    if warning:
        items[0]["warning"] = warning
    for level, value, dist in res.trace:
        items.append({
            "row": "level",
            "level": level,
            "value": str(value),
            "distance": "" if dist is None else str(dist),
        })
    config = {"command": "integrate", "kind": args.kind, "n": args.n,
              "x0": str(x0), **block}
    report = Report(config, items,
                    timing={"total_seconds": time.monotonic() - start})
    _emit(report, args, "pretty")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_user_files(args)
        if args.command == "numbers":
            return cmd_numbers(args)
        if args.command == "poly":
            return cmd_poly(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "integrate":
            return cmd_integrate(args)
        if args.command == "report":
            args.identity = "all"
            return cmd_verify(args, battery=True)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
