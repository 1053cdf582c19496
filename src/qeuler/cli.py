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
never load the exact layers, the identity catalog or the closed form of
``closedform``, ``verify`` and ``report`` never load the Riemann sums of
``qintegral``, and ``numbers euler`` renders its rows from the integer
table of ``zpoly`` alone.  The same holds for the code of this front end:
the catalog commands (``verify``, ``report``, ``poly``) and the argparse
fallback are in ``commands``, the text formats in ``formats`` and the
cache of report hashes in ``cache``, each loaded only on the lines that
run it.  ``commands`` takes what it needs of this module as arguments, so
under ``python -m qeuler.cli`` this module is compiled once.

A well-formed command line is read straight from the command's entry
(``read_argv``), so such a process never imports argparse.  Any other line
(help, an abbreviation, a bad value, a stray or missing argument) goes to
``commands.build_parser``, which builds the arguments of only the command
it names; every command still has its subparser, so usage, help and error
text are the full parser's.  ``entry``, the process entry, freezes the
heap around ``main`` so that a cold process's collections, the one at exit
among them, skip it; ``main`` itself leaves the collector alone.
"""

from __future__ import annotations

import re
import sys
import time
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from .errors import CacheError, ConfigError
from .report import Report

# the integral kinds of qintegral, named here so that building the parser
# loads no numeric layer
KINDS = ("fermionic", "bosonic")


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


def parse_q(text: str) -> Fraction | None:
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
# commands.build_parser gives them to argparse as they are, and read_argv
# reads a well-formed argv from the same entries.
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


def read_argv(argv: list[str]) -> SimpleNamespace | None:
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


def _file_error(option: str, path: str, exc: OSError) -> ConfigError:
    """An OSError on a file the user named is a configuration error."""
    return ConfigError(f"cannot use {option} {path}: {exc.strerror or exc}")


def _check_values(args, digits: int | None) -> None:
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
        from pathlib import Path

        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"cannot use {option} {path}: Is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"cannot use {option} {path}: "
                              "No such file or directory")


def _emit(report: Report, args, default_format: str,
          digest: str | None) -> None:
    """Write the report in its format; ``digest`` is its canonical hash
    when main has taken it already.  The text formats load ``formats``."""
    fmt = args.format or default_format
    if fmt == "json":
        text = report.to_json(digest)
    else:
        from .formats import to_csv, to_pretty

        text = to_csv(report) if fmt == "csv" else to_pretty(report)
    if args.out:
        from pathlib import Path

        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise _file_error("--out", args.out, exc)
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
        from .qintegral import KIND_BOSONIC, IntegralRequest, integrate

        pad, block = _padic_config(args, require_explicit=True)
        config.update(block)
        for n in range(lo, hi + 1):
            req = IntegralRequest(KIND_BOSONIC, n, Fraction(0), *pad)
            res, fields = _adaptive(integrate, req)
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


def _poly(args) -> Report:
    from .commands import cmd_poly

    return cmd_poly(args, parse_range)


def _verify(args, battery: bool = False) -> Report:
    from .commands import cmd_verify

    return cmd_verify(args, parse_range, _padic_config, battery)


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
# a Report, and the format it prints by default; poly, verify and report
# run from the commands module, which loads only when they run
COMMANDS = {
    "numbers": ("number tables", (
        ("kind", dict(choices=("euler", "bernoulli"))),
        ("--n", dict(default="0..8", help="index range 'a..b'")),
        ("--at-q", dict(help="also evaluate each euler entry at this "
                             "rational q")),
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS), cmd_numbers, "pretty"),
    "poly": ("polynomial tables", (
        ("--n", dict(default="0..4", help="index range 'a..b'")),
        *_OUTPUT_ARGS), _poly, "pretty"),
    "verify": ("verify one identity or all of them", (
        ("identity", dict(help="an identity id, or 'all'")),
        ("--k", dict(help="range 'a..b' for k")),
        ("--m", dict(help="range 'a..b' for m")),
        ("--n", dict(help="range 'a..b' for n")),
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS), _verify, "pretty"),
    "integrate": ("evaluate one p-adic q-integral", (
        ("kind", dict(choices=KINDS)),
        ("--n", dict(type=int, required=True, help="monomial exponent")),
        ("--x0", dict(default="0", help="rational shift of the integrand")),
        *_PADIC_ARGS, *_OUTPUT_ARGS), cmd_integrate, "pretty"),
    "report": ("run the full default verification battery", (
        *_PADIC_ARGS, *_OUTPUT_ARGS, *_CACHE_ARGS),
        partial(_verify, battery=True), "json"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        from .commands import build_parser

        try:
            args = build_parser(COMMANDS, argv).parse_args(argv)
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
            from .cache import ResultCache

            digest = report.sha256()
            try:
                cache = ResultCache(args.cache)
                report.timing["cache"] = cache.check(report.config, digest)
                cache.save()
            except OSError as exc:
                raise _file_error("--cache", args.cache, exc)
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
