"""The catalog commands (``verify``, ``report`` and ``poly``) and the
argparse fallback of the command line.  ``cli`` loads this module only on
the lines that run it: those commands, help, and any line that
``cli.read_argv`` does not read.

Nothing here imports ``cli``: run as ``python -m qeuler.cli``, that
module is ``__main__``, and importing it by name would compile and run it
a second time.  So ``cli`` passes each function what it needs of it, its
parsers or its command table, as arguments.
"""

from __future__ import annotations

import time

from .errors import ConfigError
from .report import Report


def build_parser(commands: dict, argv: list[str] = ()):
    """The ``argparse.ArgumentParser`` of ``argv`` for the command table
    ``commands`` (``cli.COMMANDS``; argparse is imported here, not at
    module level, so the return type is not annotated).  Every command has
    its subparser, so usage, help and error text are those of the full
    parser, but only the command that ``argv[0]`` names gets its
    arguments; when it names none (no arguments, an option, a typo),
    every command gets them."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact and p-adic tables and identity checks for the "
                    "weight-0 q-Euler/q-Bernoulli families.")
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = argv[0] if argv and argv[0] in commands else None
    for name, (help_text, arguments, _, _) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        if invoked in (None, name):
            for flag, spec in arguments:
                sp.add_argument(flag, **spec)
    return parser


def cmd_poly(args, parse_range) -> Report:
    from .qspecial import euler_poly

    lo, hi = parse_range(args.n)
    if lo < 0:
        raise ConfigError("indices must be >= 0")
    start = time.monotonic()
    items = [{"n": n, "value": str(euler_poly(n))} for n in range(lo, hi + 1)]
    return Report({"command": "poly", "n": [lo, hi]}, items,
                  timing={"total_seconds": time.monotonic() - start})


def _verify_ranges(args, label: str, params, parse_range) -> dict:
    """Parsed --k/--m/--n ranges; a range for a parameter the target does
    not take is a configuration error."""
    supplied = [n for n in ("k", "m", "n") if getattr(args, n, None) is not None]
    stray = sorted(set(supplied) - set(params))
    if stray:
        takes = sorted(params) or "no ranges"
        raise ConfigError(f"{label} takes {takes}; stray range for {stray}")
    return {name: parse_range(getattr(args, name)) for name in supplied}


def cmd_verify(args, parse_range, padic_config, battery: bool = False
               ) -> Report:
    """``verify``, or with ``battery`` the default battery of ``report``;
    ``parse_range`` and ``padic_config`` are ``cli``'s."""
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
    explicit_ranges = _verify_ranges(args, config_identity, params,
                                     parse_range)
    pad, block = padic_config(args)
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
