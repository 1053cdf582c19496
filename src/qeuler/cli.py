"""Command-line front end: number/polynomial tables, identity
verification grids, direct integral evaluation, and machine-readable
reports.

``COMMANDS`` is the one list of commands: each entry is its help, its
arguments as data, what runs it into a ``Report`` and the format it
prints by default.  ``main`` parses, runs the entry, checks the report's
hash against the ``--cache`` file when one is given, writes the report and
returns its exit code: 0 for success (printed-variant failures are
informational, and table and integral rows carry no verdict), 1 when a
corrected or exact identity fails, and 2 for usage or configuration
errors, which reach ``main`` as ``ConfigError`` or ``CacheError`` and
never as a traceback.

Each command imports the layers it uses when it runs, so a cold process
loads and compiles only those: ``integrate`` and ``numbers bernoulli``
never load the exact layers or the identity catalog, ``verify`` and
``report`` never load the Riemann sums of ``qintegral``, and ``numbers
euler`` renders its rows from the integer table of ``zpoly`` alone.  A
well-formed command line is read straight from the command's entry
(``read_argv``), so such a process never imports argparse.  Any other line
(help, an abbreviation, a bad value, a stray or missing argument) goes to
``build_parser``, which builds the arguments of only the command it names;
every command still has its subparser, so usage, help and error text are
the full parser's.  ``entry``, the process entry, freezes the heap around
``main`` so that a cold process's collections, the one at exit among them,
skip it; ``main`` itself leaves the collector alone.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Sequence

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


def parse_q(text: str) -> Optional[Fraction]:
    """q given as an integer or a rational 'a/b', or None for '1+p', the
    default of ``padic.check_config``."""
    if text.strip() == "1+p":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad q {text!r}; expected '1+p', an integer, or 'a/b'")


# Each command's arguments are data: a flag (or a positional argument's
# name) with the keyword arguments of argparse's add_argument for it.
# build_parser gives them to argparse as they are, and read_argv reads a
# well-formed argv from the same entries.
_PADIC_ARGS = (
    ("--p", dict(type=int, help="odd prime")),
    ("--q", dict(help="q as '1+p', an integer, or 'a/b' (default 1+p)")),
    ("--K", dict(type=int, help="target p-adic precision")),
    ("--guard", dict(type=int, help="guard digits (>= 2, default 4)")),
    ("--n-max", dict(type=int, dest="n_max",
                     help="maximum Riemann-sum level of integrate and "
                          "numbers bernoulli (default 12)")),
)
_OUTPUT_ARGS = (
    ("--format", dict(choices=("json", "csv", "pretty"),
                      help="output format")),
    ("--out", dict(metavar="PATH", help="write output to a file")),
)
_CACHE_ARGS = (
    ("--cache", dict(metavar="PATH", help="persistent result cache file")),
    ("--no-cache", dict(action="store_true", default=False,
                        help="do not read, check or write the --cache file")),
)


def _dest(flag: str, spec: dict) -> str:
    """The attribute that argparse stores an argument under."""
    return spec.get("dest", flag.lstrip("-").replace("-", "_"))


def build_parser(argv: Sequence[str] = ()):
    """The ``argparse.ArgumentParser`` of ``argv`` (argparse is imported
    here, not at module level, so the return type is not annotated).
    Every command has its subparser, so usage, help and error text are
    those of the full parser, but only the command that ``argv[0]`` names
    gets its arguments; when it names none (no arguments, an option, a
    typo), every command gets them."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact and p-adic tables and identity checks for the "
                    "weight-0 q-Euler/q-Bernoulli families.")
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (help_text, arguments, _, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if invoked in (None, name):
            for flag, spec in arguments:
                sp.add_argument(flag, **spec)
    return parser


def read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of a well-formed ``argv``, read from ``COMMANDS``
    without argparse, or None for any other argv.

    Well formed is a command, then its positional arguments in number and
    its options by their exact names, each option once, as '--opt=value'
    or as '--opt value' with a value that does not start with '-'; every
    value passes its argument's type and choices, and every required
    option is given.  The namespace holds what argparse would store.
    Everything else (help, abbreviations, '--', a bad value, a stray or a
    missing argument) is left to argparse and its usage and error text."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = COMMANDS[argv[0]][1]
    options = {flag: spec for flag, spec in arguments if flag[0] == "-"}
    positionals = [(flag, spec) for flag, spec in arguments if flag[0] != "-"]
    values = {}
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if not positionals:
                return None
            (flag, spec), value = positionals.pop(0), word
        else:
            flag, eq, value = word.partition("=")
            spec = options.pop(flag, None)      # so a repeated option declines
            if spec is None:
                return None
            if spec.get("action") == "store_true":
                if eq:
                    return None
                value = True
            elif not eq:
                value = next(words, "-")
                if value[:1] == "-":
                    return None
            elif value == "--":                 # argparse would store []
                return None
        try:
            value = spec["type"](value) if "type" in spec else value
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[_dest(flag, spec)] = value
    if positionals or any(spec.get("required") for spec in options.values()):
        return None
    defaults = {_dest(flag, spec): spec.get("default")
                for flag, spec in arguments}
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


# the p-adic options by destination, in the order of check_config, as the
# user spells them; the destinations key a report's p-adic config block
_PADIC_OPTIONS = {_dest(flag, spec): flag for flag, spec in _PADIC_ARGS}


def _padic_config(args, require_explicit: bool = False) -> tuple:
    """The validated (p, q, K, guard, n_max), in the order of
    ``padic.check_config``, and their block of the report config.  Only
    ``integrate`` and ``numbers bernoulli`` run Riemann levels, so guard
    and n_max limit only them; ``verify`` takes both into its config
    block."""
    from .padic import check_config

    if require_explicit and (args.p is None or args.K is None):
        raise ConfigError("this command needs explicit --p and --K")
    q = None if args.q is None else parse_q(args.q)
    try:
        # p and q are named as values, the counts as the flags that set them
        config = check_config(args.p, q, args.K, args.guard, args.n_max,
                              names=("p", "q", "--K", "--guard", "--n-max"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config, dict(zip(_PADIC_OPTIONS, config), q=str(config[1]))


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


def _check_values(args, digits: Optional[int]) -> None:
    """No option takes a list, but argparse stores '--opt=--' as an empty
    one without calling the option's type: a usage error.  A value with a
    number of more than ``digits`` digits is one too: the rationals and
    ranges are read by ``int`` after main lifts the interpreter's limit
    on str-to-int conversion, and the limit keeps a user's digits from
    taking quadratic time to read."""
    for dest, value in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if type(value) is list:
            raise ConfigError(f"argument {flag}: expected one argument")
        if (digits and type(value) is str and max(
                map(len, re.findall(r"\d+", value.replace("_", ""))),
                default=0) > digits):
            raise ConfigError(f"argument {flag}: a number of more than "
                              f"{digits} digits")


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


def _emit(report: Report, args, default_format: str,
          digest: Optional[str]) -> None:
    """Write the report in its format; ``digest`` is its canonical hash
    when main has taken it already."""
    fmt = args.format or default_format
    if fmt == "json":
        text = report.to_json(digest)
    elif fmt == "csv":
        text = report.to_csv()
    else:
        text = report.to_pretty()
    if args.out:
        with _user_file("--out", args.out):
            Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _adaptive(compute, *args) -> tuple:
    """An adaptive integral's result, and its row fields: the value, the
    achieved precision, the levels and, short of the target, a warning."""
    from .qintegral import ConvergenceNotReached

    try:
        res, warning = compute(*args), {}
    except ConvergenceNotReached as exc:
        res, warning = exc.result, {"warning": "convergence not reached"}
    return res, {"value": str(res.value),
                 "achieved_precision": res.achieved_precision,
                 "levels": res.levels_used, **warning}


def cmd_numbers(args) -> Report:
    lo, hi = parse_range(args.n)
    if lo < 0:
        raise ConfigError("indices must be >= 0")
    _reject_options(args, f"numbers {args.kind}",
                    _PADIC_OPTIONS if args.kind == "euler" else {"at_q": "--at-q"})
    start = time.monotonic()
    items = []
    config = {"command": "numbers", "kind": args.kind, "n": [lo, hi]}
    if args.kind == "euler":
        from .errors import PoleError
        from .zpoly import euler_number_at, euler_number_str

        at_q = None
        if args.at_q is not None:
            try:
                at_q = Fraction(args.at_q)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad --at-q value {args.at_q!r}")
            config["at_q"] = str(at_q)
        for n in range(lo, hi + 1):
            row = {"n": n, "value": euler_number_str(n)}
            if at_q is not None:
                try:
                    row["value_at_q"] = str(euler_number_at(n, at_q))
                except PoleError:
                    raise ConfigError(f"pole at q = {at_q} for n = {n}")
            items.append(row)
    else:
        from .qintegral import KIND_BOSONIC, MonomialIntegrals

        pad, block = _padic_config(args, require_explicit=True)
        config.update(block)
        integrals = MonomialIntegrals(*pad)
        for n in range(lo, hi + 1):
            res, fields = _adaptive(integrals, KIND_BOSONIC, n)
            value = res.value
            items.append({
                "n": n,
                "valuation": "" if value.is_zero else value.valuation,
                "unit": "" if value.is_zero else value.unit,
                "precision": value.precision,
                **fields,
            })
    return Report(config, items,
                  timing={"total_seconds": time.monotonic() - start})


def cmd_poly(args) -> Report:
    from .qspecial import euler_poly

    lo, hi = parse_range(args.n)
    if lo < 0:
        raise ConfigError("indices must be >= 0")
    start = time.monotonic()
    items = [{"n": n, "value": str(euler_poly(n))} for n in range(lo, hi + 1)]
    return Report({"command": "poly", "n": [lo, hi]}, items,
                  timing={"total_seconds": time.monotonic() - start})


def _verify_ranges(args, label: str, params) -> dict:
    """Parsed --k/--m/--n ranges; a range for a parameter the target does
    not take is a configuration error."""
    supplied = [n for n in ("k", "m", "n") if getattr(args, n, None) is not None]
    stray = sorted(set(supplied) - set(params))
    if stray:
        takes = sorted(params) or "no ranges"
        raise ConfigError(f"{label} takes {takes}; stray range for {stray}")
    return {name: parse_range(getattr(args, name)) for name in supplied}


def cmd_verify(args, battery: bool = False) -> Report:
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
    items = []
    per_item, routes, x_certificates, bosonic_pairs = {}, {}, {}, {}
    ctx = NumericContext(*pad[:3])  # guard and n_max limit no verify row
    start = time.monotonic()
    for ident in targets:
        try:
            results = verify_grid(ident, explicit_ranges, ctx)
        except ValueError as exc:
            raise ConfigError(str(exc))
        for r in results:
            items.append(r.as_report_item())
            cell = f"{r.id.value}:{r.params}"
            per_item[cell] = r.elapsed
            if r.route is not None:
                routes[r.route] = routes.get(r.route, 0) + 1
            if r.x_certificate is not None:
                x_certificates[cell] = r.x_certificate
            if r.bosonic_pair is not None:
                bosonic_pairs[cell] = [*map(str, r.bosonic_pair)]

    config = {
        "command": "report" if battery else "verify",
        "identity": config_identity,
        "padic": block,
    }
    if explicit_ranges:
        config["ranges"] = {k: list(v) for k, v in sorted(explicit_ranges.items())}
    return Report(config, items, timing={
        "total_seconds": time.monotonic() - start,
        "per_item_seconds": per_item,
        "routes": routes,
        "x_certificates": x_certificates,
        "bosonic_pairs": bosonic_pairs,
    })


def cmd_integrate(args) -> Report:
    from .qintegral import IntegralRequest, integrate

    pad, block = _padic_config(args)
    try:
        x0 = Fraction(args.x0)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad --x0 value {args.x0!r}")
    if args.n < 0:
        raise ConfigError("--n must be >= 0")
    start = time.monotonic()
    try:
        req = IntegralRequest(args.kind, args.n, x0, *pad)
    except ValueError as exc:
        raise ConfigError(str(exc))
    res, fields = _adaptive(integrate, req)
    items = [{"row": "result", "kind": args.kind, "n": args.n,
              "x0": str(x0), **fields}]
    for level, value, dist in res.trace:
        items.append({
            "row": "level",
            "level": level,
            "value": str(value),
            "distance": "" if dist is None else str(dist),
        })
    config = {"command": "integrate", "kind": args.kind, "n": args.n,
              "x0": str(x0), **block}
    return Report(config, items,
                  timing={"total_seconds": time.monotonic() - start})


# every command, in usage order: its help, its arguments, what runs it into
# a Report, and the format it prints by default
COMMANDS = {
    "numbers": ("number tables", (
        ("kind", dict(choices=("euler", "bernoulli"))),
        ("--n", dict(default="0..8", help="index range 'a..b'")),
        ("--at-q", dict(help="also evaluate each euler entry at this "
                             "rational q")),
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS), cmd_numbers, "pretty"),
    "poly": ("polynomial tables", (
        ("--n", dict(default="0..4", help="index range 'a..b'")),
        *_OUTPUT_ARGS), cmd_poly, "pretty"),
    "verify": ("verify one identity or all of them", (
        ("identity", dict(help="an identity id, or 'all'")),
        ("--k", dict(help="range 'a..b' for k")),
        ("--m", dict(help="range 'a..b' for m")),
        ("--n", dict(help="range 'a..b' for n")),
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS), cmd_verify, "pretty"),
    "integrate": ("evaluate one p-adic q-integral", (
        ("kind", dict(choices=KINDS)),
        ("--n", dict(type=int, required=True, help="monomial exponent")),
        ("--x0", dict(default="0", help="rational shift of the integrand")),
        *_PADIC_ARGS, *_OUTPUT_ARGS), cmd_integrate, "pretty"),
    "report": ("run the full default verification battery", (
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS),
        partial(cmd_verify, battery=True), "json"),
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    _, _, run, default_format = COMMANDS[args.command]
    # Python 3.11+ converts no int of more than 4,300 digits to or from
    # str; the values printed are computed, so the limit is lifted once the
    # user's values are checked, and restored for a caller in the same
    # process
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        _check_values(args, digits)
        if digits is not None:
            sys.set_int_max_str_digits(0)
        _check_user_files(args)
        report = run(args)
        digest = None
        if getattr(args, "cache", None) and not args.no_cache:
            # the report is computed first, so a mismatch prints nothing;
            # its hash is taken once, for the cache and for JSON output
            digest = report.sha256()
            with _user_file("--cache", args.cache):
                cache = ResultCache(Path(args.cache))
                report.timing["cache"] = cache.check(report.config, digest)
                cache.save()
        _emit(report, args, default_format, digest)
    except (ConfigError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return report.exit_code()


def entry() -> None:
    """The process entry of ``python -m qeuler.cli`` and the ``qeuler``
    script: ``main`` between two ``gc.freeze`` calls."""
    import gc

    gc.freeze()     # import-time objects: no collection during the run walks them
    code = main()
    gc.freeze()     # nor the exit-time collection, over a heap the OS reclaims anyway
    sys.exit(code)


if __name__ == "__main__":
    entry()
